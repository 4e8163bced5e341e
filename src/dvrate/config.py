"""Numerical tolerances and solver limits, centralized so the CLI can override them."""

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    normalization: float = 1e-12  # probability measures must sum to 1 within this
    residual: float = 1e-10  # stationary balance / detailed balance, per state
    divergence_rel: float = 1e-12  # flow counts as divergence-free within this * max(1, |Q|_1)
    witness: float = 1e-9  # path-integral mismatch above this certifies a non-gradient
    solver_gradient: float = 1e-10  # per-state Newton bound on |div Q(y)| / (out_Q + in_Q)(y)
    solver_max_iter: int = 500
    duality_rel: float = 1e-6  # |rate_inf - rate_sup| <= this * max(1, rate_inf)
    exp_guard: float = 700.0  # exponents above this would overflow double precision

    def __post_init__(self):
        """Every field positive and finite; the int ones integers."""
        for f in fields(self):
            v, kind = getattr(self, f.name), Integral if f.type is int else Real
            if isinstance(v, bool) or not (isinstance(v, kind) and 0 < v < math.inf):
                need = "an integer >= 1" if kind is Integral else "positive and finite"
                raise ValidationError(f"{f.name} must be {need}, got {v!r}")

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
