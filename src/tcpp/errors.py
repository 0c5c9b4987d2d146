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
    """The process specification has no evaluator for the requested route:
    a density for quadrature, or a Laplace exponent for the PGF inversion."""


class UnknownEquationError(ValueError):
    """The equation identifier is not in the verification registry."""
