"""Write gauss_legendre.json: 50-digit Gauss-Legendre nodes and weights for
the orders tcpp uses (12 on every frozen mixture rule's panels, 96 on the
stable engine's Zolotarev integral), read by the tests so that they need no
mpmath run.

Each node is a root of P_n, found by Newton's method at 70 digits from the
asymptotic guess cos(pi (i - 1/4) / (n + 1/2)), with P_n and P_n' from the
three-term recurrence; its weight is 2 / ((1 - x^2) P_n'(x)^2).  Nodes
ascend, and every value is written as a 50-digit string.  Run from the
repository root:

    python tests/oracles/make_gauss_legendre.py
"""

import json
from pathlib import Path

from mpmath import cos, mpf, nstr, pi, workdps

DPS = 50
ORDERS = [12, 96]


def _legendre(n, x):
    """P_n(x) and P_n'(x)."""
    prev, p = mpf(1), x
    for k in range(1, n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, n * (x * p - prev) / (x * x - 1)


def _rule(n):
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = cos(pi * (i - mpf(1) / 4) / (n + mpf(1) / 2))
        for _ in range(100):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) < mpf(10) ** -65:
                break
        dp = _legendre(n, x)[1]
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes[::-1], weights[::-1]  # the guesses descend


def main():
    out = {"dps": DPS, "rules": {}}
    with workdps(DPS + 20):
        for n in ORDERS:
            nodes, weights = _rule(n)
            out["rules"][str(n)] = {"nodes": [nstr(x, DPS) for x in nodes],
                                    "weights": [nstr(w, DPS) for w in weights]}
    path = Path(__file__).with_name("gauss_legendre.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
