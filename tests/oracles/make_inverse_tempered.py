"""Write inverse_tempered.json: high-precision values for the inverse
tempered-stable clock, read by the tests so that they need no mpmath run.

Each value is a Talbot inversion in t (mpmath.invertlaplace) at 50 digits of

    density  phi(s) e^{-x phi(s)} / s
    cdf      (1 - e^{-x phi(s)}) / s
    pmf      (phi(s) / s) lam^k / (lam + phi(s))^(k+1),

phi(s) = (s + mu)^beta - mu^beta.  At 30 digits the inversion itself is off
by up to 1.2e-8 relative at t = 100.  Run from the repository root:

    python tests/oracles/make_inverse_tempered.py
"""

import json
from pathlib import Path

from mpmath import exp, expm1, invertlaplace, mpf, workdps

DPS = 50
# (beta, mu, t, x): the (0.3, 1) clock from the bulk at t = 5 to t = 100, and
# two points where the tilt's integral once fell left of the stable engine's
# integral route
POINTS = [(0.3, 1.0, 5.0, 10.0), (0.3, 1.0, 5.0, 20.0), (0.3, 1.0, 20.0, 60.0),
          (0.3, 1.0, 20.0, 70.0), (0.3, 1.0, 100.0, 320.0), (0.3, 1.0, 100.0, 334.0),
          (0.3, 1.0, 100.0, 350.0), (0.3, 20.0, 0.5, 20.0), (0.7, 20.0, 8.0, 10.0)]
# (beta, mu, lam, t, ks): count laws N(E(t)) through the modes and far tails
PMF = [(0.3, 1.0, 1.0, 20.0, [0, 10, 60, 120, 183]),
       (0.3, 1.0, 1.0, 100.0, [100, 300, 334, 500, 567])]


def _phi(beta, mu):
    b, m = mpf(beta), mpf(mu)
    return lambda s: (s + m) ** b - m ** b


def _invert(transform, t):
    return float(invertlaplace(transform, mpf(t), method="talbot"))


def main():
    out = {"dps": DPS, "points": [], "pmf": []}
    with workdps(DPS):
        for beta, mu, t, x in POINTS:
            phi, xx = _phi(beta, mu), mpf(x)
            out["points"].append({
                "beta": beta, "mu": mu, "t": t, "x": x,
                "density": _invert(lambda s: phi(s) * exp(-xx * phi(s)) / s, t),
                "cdf": _invert(lambda s: -expm1(-xx * phi(s)) / s, t),
            })
        for beta, mu, lam, t, ks in PMF:
            phi, la = _phi(beta, mu), mpf(lam)
            values = [_invert(lambda s, k=k: phi(s) / s * la ** k / (la + phi(s)) ** (k + 1), t)
                      for k in ks]
            out["pmf"].append({"beta": beta, "mu": mu, "lambda": lam, "t": t, "k": ks,
                               "values": values})
    path = Path(__file__).with_name("inverse_tempered.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
