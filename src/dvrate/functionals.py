"""The per-edge cost Phi, the joint rate functional, and its variational forms.

Phi(q,p) = q log(q/p) - (q-p) for q,p > 0, with the boundary values p at q=0
and +infinity for q > 0, p = 0. phi and joint_rate return plain floats,
math.inf where the rate is infinite; fileio.rate_to_jsonable tags that
value for JSON.

legendre_phi_star is the conjugate phi*(f) = sum mu(y) r(y,z) (e^f - 1) of
the edge cost at the typical flow, and dv_objective(g) is -phi*(grad g).
"""

from __future__ import annotations

import math

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


def phi(q: float, p: float) -> float:
    """Poissonian cost of flux q against typical flux p: phi_edge_sum of
    the one-edge arrays [q], [p]."""
    q = float(q)
    p = float(p)
    if not (math.isfinite(q) and math.isfinite(p)) or q < 0 or p < 0:
        raise ValidationError(f"phi needs finite nonnegative arguments, got ({q}, {p})")
    return phi_edge_sum(np.array([q]), np.array([p]))


def phi_edge_sum(q: np.ndarray, p: np.ndarray) -> float:
    """Sum of Phi over edge arrays; math.inf when any term is. phi(0,0) = 0
    via the q = 0 term p.

    Logs are taken separately (log q - log p) so extreme ratios do not
    degrade; near q = p, where q - p is exact, log(q/p) is log1p((q-p)/p),
    since the rounding of log q times q would swamp the cancelling
    q log(q/p) - (q-p). Both branches are evaluated on every edge, the near
    one at q clipped to [p/2, 2p]: that is q itself on the near edges and
    keeps log1p's argument in [-1/2, 1] on the others, so neither warns.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(q[p == 0.0] > 0.0):
        return math.inf
    total = float(p[q == 0.0].sum())
    m = (q > 0.0) & (p > 0.0)
    qm, pm = q[m], p[m]
    d = qm - pm
    half, double = 0.5 * pm, 2.0 * pm
    log_ratio = np.where(
        (half <= qm) & (qm <= double),
        np.log1p((np.clip(qm, half, double) - pm) / pm),
        np.log(qm) - np.log(pm),
    )
    # the formula can round a hair negative near q = p; Phi is nonnegative
    total += float(np.sum(np.maximum(qm * log_ratio - d, 0.0)))
    return total


def joint_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    q: Flow,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """I(mu, Q): sum of phi(Q, Q^mu) over edges if Q is a circulation, else inf.

    The divergence gate is relative: |div Q|_inf <= divergence_rel * max(1, |Q|_1).
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, q, "flow")
    div = divergence(chain, q).values
    if np.abs(div).max(initial=0.0) > tolerances.divergence_rel * max(1.0, q.l1_norm):
        return math.inf
    return phi_edge_sum(q.values, mu_flow(chain, mu).values)


def perturbed_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    q: Flow,
    phi_fn: VertexFunction,
    F: EdgeFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """<phi, div Q> - <mu, r^F - r> + sum_E Q(y,z) F(y,z).

    Linear in (phi, F); equals the joint rate's value at its own optimal
    perturbation and never exceeds it. F inherits tilted_exit_rate's guard.
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, q, "flow")
    _require_same_chain(chain, phi_fn, "vertex function")
    rF = tilted_exit_rate(chain, F, tolerances).values
    div = divergence(chain, q).values
    return float(
        phi_fn.values @ div
        - mu.values @ (rF - chain.exit_rates)
        + q.values @ F.values
    )


def legendre_phi_star(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    f: EdgeFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """sum over edges with positive typical flow of mu(y) r(y,z) (e^f - 1).

    Guard is one-sided: only a positive exponent can overflow, and large
    negative values are legitimate (they drive e^f to zero on edges the
    approximating potentials suppress).
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, f, "edge function")
    p = mu_flow(chain, mu).values
    mask = p > 0
    fv = f.values[mask]
    if fv.size and fv.max() > tolerances.exp_guard:
        raise OverflowGuardError(
            "edge function exceeds the overflow guard on a support edge"
        )
    return float(np.sum(p[mask] * (np.exp(fv) - 1.0)))


def dv_objective(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    g: VertexFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """-<mu, e^{-g} L e^{g}> = sum mu(y)r(y,z)(1 - e^{g(z)-g(y)}), which is
    -legendre_phi_star(grad g), with its guard and its support edges."""
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, g, "vertex function")
    grad = EdgeFunction(chain, g.values[chain.edge_dst] - g.values[chain.edge_src])
    # 0.0 - x rather than -x: a zero objective stays +0.0
    return 0.0 - legendre_phi_star(chain, mu, grad, tolerances)


def _reversible_flows(chain, mu, tolerances):
    """Q^mu on each edge and on its reverse, once detailed balance is checked."""
    _require_same_chain(chain, mu, "measure")
    pi = stationary_distribution(chain, tolerances)
    if not is_reversible(chain, pi, tolerances):
        raise NotReversibleError("chain does not satisfy detailed balance")
    fwd = mu_flow(chain, mu).values
    return fwd, fwd[chain.reverse_edge]


def reversible_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Closed form (1/2) sum_{y,z} (sqrt(mu(y)r(y,z)) - sqrt(mu(z)r(z,y)))^2.

    Valid only under detailed balance; checked against the stationary measure.
    """
    fwd, rev = _reversible_flows(chain, mu, tolerances)
    return float(0.5 * np.sum((np.sqrt(fwd) - np.sqrt(rev)) ** 2))


def reversible_optimal_flow(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Flow:
    """Q*(y,z) = sqrt(mu(y)mu(z)r(y,z)r(z,y)): symmetric, divergence-free."""
    fwd, rev = _reversible_flows(chain, mu, tolerances)
    return Flow(chain, np.sqrt(fwd * rev))
