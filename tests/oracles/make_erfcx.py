"""Write src/tcpp/_erfcx_coef.py: the piecewise polynomial behind
`tcpp.specfun.erfcx` on 0 <= x < 50.

The variable is y = 400/(4 + x) (the layout of S. G. Johnson's Faddeeva
package), which runs from 100 at x = 0 down to 7.4 at x = 50.  Piece j covers
y in [j, j + 1), j = 7..100, and holds the degree-6 Chebyshev interpolant of
erfcx(400/y - 4) at the 7 Chebyshev points of that piece, taken at 40 digits
and rewritten as a polynomial in s = y - j in [0, 1).  Piece 100 reaches
x = -4/101, so that x = 0 (y = 100) falls inside a piece.  Run from the
repository root:

    python tests/oracles/make_erfcx.py
"""

from pathlib import Path

from mpmath import cos, erfc, exp, lu_solve, matrix, mpf, pi, workdps

DPS = 40
DEGREE = 6
FIRST, LAST = 7, 100  # the pieces that 0 <= x < 50 reaches
OUT = Path(__file__).parents[2] / "src" / "tcpp" / "_erfcx_coef.py"

HEADER = '''"""Coefficients of `tcpp.specfun.erfcx` on 0 <= x < 50, written by
tests/oracles/make_erfcx.py (40-digit mpmath; do not edit).

COEF[k][j - FIRST] is the coefficient of s**k on piece j, where
y = 400/(4 + x), j = floor(y) and s = y - j.
"""

FIRST = {first}
COEF = (
'''


def _erfcx(x):
    return exp(x * x) * erfc(x)


def _piece(j):
    """Power-basis coefficients in s = y - j of the degree-6 polynomial through
    erfcx(400/y - 4) at the 7 Chebyshev points of [j, j + 1]."""
    n = DEGREE + 1
    s = [(1 + cos(pi * (i + mpf(1) / 2) / n)) / 2 for i in range(n)]
    values = [_erfcx(400 / (j + si) - 4) for si in s]
    return lu_solve(matrix([[si ** k for k in range(n)] for si in s]), matrix(values))


def coefficients():
    """COEF as floats: 7 rows (powers of s), one column per piece."""
    with workdps(DPS):
        pieces = [_piece(j) for j in range(FIRST, LAST + 1)]
    return [[float(p[k]) for p in pieces] for k in range(DEGREE + 1)]


def main():
    rows = coefficients()
    text = HEADER.format(first=FIRST)
    for row in rows:
        text += "    (\n"
        for i in range(0, len(row), 3):
            text += "        " + " ".join(f"{v!r}," for v in row[i:i + 3]) + "\n"
        text += "    ),\n"
    OUT.write_text(text + ")\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
