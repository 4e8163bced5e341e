"""Convex-duality route to the rate: Legendre transforms of the edge
divergence and of the divergence-free indicator, paired over support edges.

phi*(f) = sum_{support edges} mu(y) r(y,z) (e^{f} - 1) is the conjugate of
the per-edge divergence at fixed typical flow; psi*(f) is 0 when f is a
gradient on the support graph and infinite otherwise. The supremum of
-phi*(grad g) over potentials reproduces the rate from the flow side, which
gives an independent numerical check of strong duality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .chain import (
    ChainSpec,
    EdgeFunction,
    ProbabilityMeasure,
    _require_same_chain,
    mu_flow,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DvrateError, OverflowGuardError
from .functionals import INFINITY, ExtendedReal
from .solver import APPROX_LEVELS, ContractionResult, minimize_flow


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


def legendre_psi_star(
    sg: graphs.SupportGraph,
    f: EdgeFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ExtendedReal:
    """0 when f is a gradient on the support graph, infinite otherwise;
    the conjugate of the support of divergence-free flows."""
    check = graphs.is_gradient(sg, f, tolerances)
    return ExtendedReal.finite(0.0) if check.is_gradient else INFINITY


@dataclass(frozen=True)
class FenchelResult:
    rate_inf: float
    rate_sup: float
    gap: float
    attained: bool
    candidates: tuple  # (label, -phi*(grad g)) per potential tried
    contraction: ContractionResult


def duality_check(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FenchelResult:
    """Rate from the flow side vs sup of -phi* over gradient candidates.

    Candidates are the attained maximizer when the support is full, or the
    staircase potentials g^(n) at the standard levels otherwise. Each one is
    verified to be a gradient (psi* = 0) before its value counts.
    """
    res = minimize_flow(chain, mu, tolerances)
    sg = res.partition.support

    if res.attained:
        cands = [("maximizer", res.maximizer)]
    else:
        cands = [
            (f"g^({n})", res.approximating.build(n)) for n in APPROX_LEVELS
        ]

    values = []
    for label, g in cands:
        grad = graphs.gradient(g)
        if legendre_psi_star(sg, grad, tolerances).infinite:
            raise DvrateError(
                f"candidate potential {label} is not a gradient on the "
                "support graph"
            )
        values.append((label, -legendre_phi_star(chain, mu, grad, tolerances)))

    rate_sup = max(v for _, v in values)
    return FenchelResult(
        rate_inf=res.rate_inf,
        rate_sup=rate_sup,
        gap=abs(res.rate_inf - rate_sup),
        attained=res.attained,
        candidates=tuple(values),
        contraction=res,
    )
