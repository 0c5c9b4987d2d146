"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole (e.g. gamma at 0, -1, -2, ...)."""


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
