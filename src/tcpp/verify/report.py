"""Grid descriptions and residual reports for equation certification."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import POSITIVE, DomainError, integers


@dataclass(frozen=True)
class GridSpec:
    """Dyadically refined time grid on [t_min, t_max].

    Refinement level l has (points - 1) * 2^l + 1 nodes, halving the step
    each level.  All residual checks run on t > 0, away from distributional
    atoms at the time origin; Caputo-operator equations anchor their grids at
    the origin internally and use t_min as the measurement window start.
    """

    t_min: float
    t_max: float
    points: int = 17
    refinement_levels: int = 4

    def __post_init__(self):
        domains = {"t_min": POSITIVE, "t_max": POSITIVE, "points": integers(8),
                   "refinement_levels": integers(2, 6)}  # 17.0 is taken as 17
        for name, domain in domains.items():
            object.__setattr__(self, name, domain.check(f"grid {name}", getattr(self, name)))
        if not self.t_min < self.t_max:
            raise DomainError("need 0 < t_min < t_max")

    def level_times(self, level: int) -> np.ndarray:
        n = (self.points - 1) * 2 ** level + 1
        return np.linspace(self.t_min, self.t_max, n)


@dataclass(frozen=True)
class LevelResidual:
    h: float
    max_residual: float
    l2_residual: float


@dataclass
class ResidualReport:
    """Residual norms per refinement level plus the pass/fail verdict.

    `scale` is max|right-hand side| over the points where the finest level's
    residual is measured; the noise floor is max(1e-9, 1e-12 scale).
    """

    equation_id: str
    params: dict
    levels: list
    estimated_order: float | None
    floor_limited: bool
    passed: bool
    band: tuple
    scale: float = 1.0
    extras: dict = field(default_factory=dict)

    @property
    def finest_residual(self) -> float:
        return self.levels[-1].max_residual

    def to_dict(self) -> dict:
        return {
            "equation_id": self.equation_id,
            "params": self.params,
            "levels": [
                {"h": lv.h, "max_residual": lv.max_residual, "l2_residual": lv.l2_residual}
                for lv in self.levels
            ],
            "estimated_order": self.estimated_order,
            "pass": bool(self.passed),
            "floor_limited": bool(self.floor_limited),
            "band": list(self.band),
            "scale": self.scale,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class ErrorReport:
    """A request whose check raised instead of reporting: it does not pass."""

    equation_id: str
    params: dict | None
    error: str
    traceback: str
    passed = False  # a class constant, not a field

    def to_json(self) -> str:
        return json.dumps({
            "equation_id": self.equation_id,
            "params": self.params,
            "status": "error",
            "pass": False,
            "error": self.error,
            "traceback": self.traceback,
        }, indent=2)

