"""The per-edge cost Phi, the joint rate functional, and its variational forms.

Phi(q,p) = q log(q/p) - (q-p) for q,p > 0, with the boundary values p at q=0
and +infinity for q > 0, p = 0. Infinite values are carried by a tagged
ExtendedReal, never by a bare float sentinel, so they serialize distinctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainSpec,
    EdgeFunction,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    _require_same_chain,
    divergence,
    is_reversible,
    mu_flow,
    stationary_distribution,
    tilted_exit_rate,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NotReversibleError, OverflowGuardError, ValidationError


@dataclass(frozen=True)
class ExtendedReal:
    """A nonnegative extended-real value with an explicit infinity tag."""

    value: float
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", math.inf)
        else:
            if not math.isfinite(self.value):
                raise ValidationError("finite ExtendedReal built from a non-finite")
            if self.value < 0:
                raise ValidationError("rate values are nonnegative")

    @classmethod
    def finite(cls, x: float) -> "ExtendedReal":
        return cls(float(x))

    @property
    def is_finite(self) -> bool:
        return not self.infinite

    def __float__(self) -> float:
        return self.value

    def _coerce(self, other) -> float:
        return float(other)

    def __eq__(self, other):
        return float(self) == self._coerce(other)

    def __lt__(self, other):
        return float(self) < self._coerce(other)

    def __le__(self, other):
        return float(self) <= self._coerce(other)

    def __gt__(self, other):
        return float(self) > self._coerce(other)

    def __ge__(self, other):
        return float(self) >= self._coerce(other)

    def __hash__(self):
        return hash(float(self))

    def jsonable(self):
        return {"value": "inf" if self.infinite else self.value,
                "infinite": self.infinite}

    def __repr__(self):
        return "ExtendedReal(inf)" if self.infinite else f"ExtendedReal({self.value})"


INFINITY = ExtendedReal(math.inf, True)


def phi(q: float, p: float) -> ExtendedReal:
    """Poissonian cost of flux q against typical flux p.

    Logs are taken separately (log q - log p) so extreme ratios do not
    degrade; near q = p, where q - p is exact, log(q/p) is log1p((q-p)/p),
    since the rounding of log q times q would swamp the cancelling
    q log(q/p) - (q-p). phi(0,0) = 0 via the q = 0 branch.
    """
    q = float(q)
    p = float(p)
    if not (math.isfinite(q) and math.isfinite(p)) or q < 0 or p < 0:
        raise ValidationError(f"phi needs finite nonnegative arguments, got ({q}, {p})")
    if q == 0.0:
        return ExtendedReal.finite(p)
    if p == 0.0:
        return INFINITY
    d = q - p
    if 0.5 * p <= q <= 2.0 * p:
        log_ratio = math.log1p(d / p)
    else:
        log_ratio = math.log(q) - math.log(p)
    # the formula can round a hair negative near q = p; Phi is nonnegative
    return ExtendedReal.finite(max(0.0, q * log_ratio - d))


def phi_edge_sum(q: np.ndarray, p: np.ndarray) -> float:
    """Vectorized sum of phi over edge arrays; math.inf when any term is."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(q[p == 0.0] > 0.0):
        return math.inf
    total = float(p[q == 0.0].sum())
    m = (q > 0.0) & (p > 0.0)
    qm, pm = q[m], p[m]
    terms = qm * (np.log(qm) - np.log(pm)) - (qm - pm)
    total += float(np.sum(np.maximum(terms, 0.0)))
    return total


def joint_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    q: Flow,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ExtendedReal:
    """I(mu, Q): sum of phi(Q, Q^mu) over edges if Q is a circulation, else inf.

    The divergence gate is relative: |div Q|_inf <= divergence_rel * max(1, |Q|_1).
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, q, "flow")
    div = divergence(chain, q).values
    if np.abs(div).max(initial=0.0) > tolerances.divergence_rel * max(1.0, q.l1_norm):
        return INFINITY
    total = phi_edge_sum(q.values, mu_flow(chain, mu).values)
    return INFINITY if math.isinf(total) else ExtendedReal.finite(total)


def perturbed_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    q: Flow,
    phi_fn: VertexFunction,
    F: EdgeFunction,
) -> float:
    """<phi, div Q> - <mu, r^F - r> + sum_E Q(y,z) F(y,z).

    Linear in (phi, F); equals the joint rate's value at its own optimal
    perturbation and never exceeds it. F inherits tilted_exit_rate's guard.
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, q, "flow")
    _require_same_chain(chain, phi_fn, "vertex function")
    rF = tilted_exit_rate(chain, F).values
    div = divergence(chain, q).values
    return float(
        phi_fn.values @ div
        - mu.values @ (rF - chain.exit_rates)
        + q.values @ F.values
    )


def dv_objective(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    g: VertexFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """-<mu, e^{-g} L e^{g}> in the expanded form sum mu(y)r(y,z)(1 - e^{g(z)-g(y)}).

    Only edges with mu(y) > 0 contribute. Exponents above the guard raise;
    large negative exponents underflow to 0 harmlessly (the approximating
    sequences rely on that).
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, g, "vertex function")
    p = mu.values[chain.edge_src] * chain.edge_rates
    m = p > 0.0
    dg = g.values[chain.edge_dst[m]] - g.values[chain.edge_src[m]]
    if dg.size and dg.max() > tolerances.exp_guard:
        raise OverflowGuardError(
            f"g(z)-g(y) = {dg.max():.3g} exceeds the overflow guard"
        )
    return float(np.sum(p[m] * (1.0 - np.exp(dg))))


def reversible_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Closed form (1/2) sum_{y,z} (sqrt(mu(y)r(y,z)) - sqrt(mu(z)r(z,y)))^2.

    Valid only under detailed balance; checked against the stationary measure.
    """
    _require_same_chain(chain, mu, "measure")
    pi = stationary_distribution(chain, tolerances)
    if not is_reversible(chain, pi, tolerances):
        raise NotReversibleError("chain does not satisfy detailed balance")
    fwd = mu.values[chain.edge_src] * chain.edge_rates
    rev = mu.values[chain.edge_dst] * chain.rate_matrix[chain.edge_dst, chain.edge_src]
    return float(0.5 * np.sum((np.sqrt(fwd) - np.sqrt(rev)) ** 2))


def reversible_optimal_flow(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Flow:
    """Q*(y,z) = sqrt(mu(y)mu(z)r(y,z)r(z,y)): symmetric, divergence-free."""
    _require_same_chain(chain, mu, "measure")
    pi = stationary_distribution(chain, tolerances)
    if not is_reversible(chain, pi, tolerances):
        raise NotReversibleError("chain does not satisfy detailed balance")
    fwd = mu.values[chain.edge_src] * chain.edge_rates
    rev = mu.values[chain.edge_dst] * chain.rate_matrix[chain.edge_dst, chain.edge_src]
    return Flow(chain, np.sqrt(fwd * rev))
