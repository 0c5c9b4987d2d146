"""The host's speed, measured beside a workload, and the scale it gives.

The benchmark runs on two vCPUs of a shared host whose speed drifts by
20-40% from one minute to the next as other tenants come and go: the same
request list, or the same import, costs that much more CPU time in one run
than in a run of the same seed a few minutes later. CPU time leaves out the
time the machine is descheduled, but not this drift, which slows the core
itself, and repeating the list within a run does not remove it either.

So the workload process pins itself to one CPU (worker.py), and a sampler
thread runs a fixed reference kernel every PERIOD_S beside the workload, on
that CPU. The median CPU time of its runs gives the run's speed: a timing
multiplied by
scale() = REF_KERNEL_S / median reads as CPU time at the reference speed.
The kernel is numpy and scipy.special work of the kind tcpp's requests do
(a Poisson mixture over 4000 quadrature nodes) and no tcpp code, so a change
to tcpp moves the workload's CPU time and not the kernel's: the scaled time
follows the program, not the host. Interleaved with warm pmf requests on one
CPU over 150 s, the kernel's 10 s medians moved with the requests'
(correlation 0.95) and the ratio of the two varied 3% where the requests
alone varied 10%.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
from scipy import special

# Median CPU time of kernel() on the reference machine: a 2-vCPU Intel Xeon
# virtual machine, one BLAS thread.
REF_KERNEL_S = 0.008
PERIOD_S = 0.25         # one kernel run per 0.25 s: about 3% of the CPU
PROBE_RUNS = 9          # kernel runs in an import probe, and at least in a run

_NODES = np.linspace(0.01, 40.0, 4000)
_WEIGHTS = np.full(_NODES.size, 1e-3)
_KS = np.arange(48)[:, None]


def kernel() -> float:
    acc = 0.0
    for lam in (0.5, 1.0, 2.0):
        x = lam * _NODES
        log_p = _KS * np.log(x) - x - special.gammaln(_KS + 1.0)
        acc += float((np.exp(log_p) @ _WEIGHTS).sum())
        acc += float(np.sum(special.gammainc(20.0, x) * _WEIGHTS))
    return acc


def probe(runs: int = PROBE_RUNS) -> float:
    """Median CPU time of `runs` kernel runs in this thread."""
    times = []
    for _ in range(runs):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def scale(samples) -> float:
    """Factor that turns CPU time measured beside these kernel times into
    CPU time at the reference speed."""
    return REF_KERNEL_S / statistics.median(samples)


def window_scales(samples, times, windows, least: int = 3) -> list:
    """For each (start, seconds) window of perf_counter() time, scale() of
    the kernel runs that ended within it, or of the `least` runs that ended
    nearest its middle when it holds fewer."""
    out = []
    for start, seconds in windows:
        inside = [k for k, t in zip(samples, times) if start <= t <= start + seconds]
        if len(inside) < least:
            middle = start + seconds / 2
            nearest = sorted(range(len(times)), key=lambda i: abs(times[i] - middle))[:least]
            inside = [samples[i] for i in nearest]
        out.append(scale(inside))
    return out


class Sampler(threading.Thread):
    """Runs kernel() every PERIOD_S and records the CPU time of each run,
    `samples`, and the perf_counter() at its end, `times`.

    The workload's CPU time is the process's less this thread's: cpu_now()
    gives it. Each kernel run holds `lock` and cpu_now() takes it, so a
    reading never falls in the middle of a run.
    """

    def __init__(self, period: float = PERIOD_S):
        super().__init__(name="perfbench-speed", daemon=True)
        self.period = period
        self.samples = []
        self.times = []
        self.lock = threading.Lock()
        self._own_cpu = 0.0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.period):
            with self.lock:
                t0 = time.thread_time()
                kernel()
                t1 = time.thread_time()
                self.samples.append(t1 - t0)
                self.times.append(time.perf_counter())
                self._own_cpu = t1

    def cpu_now(self) -> float:
        with self.lock:
            return time.process_time() - self._own_cpu

    def stop(self):
        self._halt.set()
        self.join()
        while len(self.samples) < PROBE_RUNS:  # a run of a few periods
            self.samples.append(probe(1))
            self.times.append(time.perf_counter())
