"""Exception hierarchy shared across the package, and the one rule every
number from outside the program passes (`Domain`)."""

import math
import sys
from dataclasses import dataclass
from numbers import Real


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DivergenceError(DomainError):
    """The requested quantity diverges for these parameters."""


class ConvergenceError(RuntimeError):
    """An iterative or adaptive scheme failed to reach its tolerance in budget."""


class GridTooCoarseError(ValueError):
    """A finite-difference grid has too few points for the requested stencil."""


class NoDensityError(ValueError):
    """A whole route is refused: the requested pmf route does not serve the
    clock, or the clock has no evaluator for the requested quantity (a
    density past the stable engine's index, a Laplace exponent for an
    inverse clock).  A pmf route's refusal lists, from the route table
    (`tcpp.timechange.ROUTES`), every route that serves the clock; the
    evaluators' refusals name no route."""


class UnknownEquationError(ValueError):
    """The equation identifier is not in the verification registry."""


@dataclass(frozen=True)
class Domain:
    """A named set of finite reals.  A number from outside the program (a
    clock's field, an equation param, a grid field, a space point, a pmf
    request's t, lambda and kmax) passes `check`: it is a finite real, not
    a bool and not a string, and `holds` it; an integer domain also takes
    only integral values (17.0 is the integer 17)."""

    what: str
    holds: object  # a predicate on finite reals
    integer: bool = False

    def check(self, name: str, v):
        """v as a float, or as an int in an integer domain; DomainError naming
        `name` where v breaks the rule.  Finite means a float could hold it:
        NaN, the infinities and an int past the floats are refused."""
        # float and int are tested before the Real ABC, whose test is slow
        if (not isinstance(v, bool) and isinstance(v, (float, int, Real))
                and abs(v) <= sys.float_info.max and self.holds(v)
                and not (self.integer and v != int(v))):
            return int(v) if self.integer else float(v)
        raise DomainError(f"{name} = {v!r} must be {self.what}")


FINITE = Domain("a finite number", lambda v: True)
POSITIVE = Domain("a finite number > 0", lambda v: v > 0)
NONNEGATIVE = Domain("a finite number >= 0", lambda v: v >= 0)
UNIT_INTERVAL = Domain("a number in (0, 1)", lambda v: 0 < v < 1)


def integers(lo: float = -math.inf, hi: float = math.inf) -> Domain:
    """The integers in [lo, hi]."""
    return Domain(f"an integer in [{lo}, {hi}]", lambda v: lo <= v <= hi, integer=True)
