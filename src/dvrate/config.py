"""Numerical tolerances and solver limits, centralized so the CLI can override them."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    normalization: float = 1e-12  # probability measures must sum to 1 within this
    residual: float = 1e-10  # stationary balance / detailed balance, per state
    divergence_rel: float = 1e-12  # flow counts as divergence-free within this * max(1, |Q|_1)
    witness: float = 1e-9  # path-integral mismatch above this certifies a non-gradient
    path_independence: float = 1e-8  # cycle log-ratio residual allowed on an optimal flow
    solver_gradient: float = 1e-10  # Newton stop: |div Q_g|_inf, scaled by max(1, <mu,r>)
    solver_max_iter: int = 500
    duality_rel: float = 1e-6  # |rate_inf - rate_sup| <= this * max(1, rate_inf)
    exp_guard: float = 700.0  # exponents above this would overflow double precision

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
