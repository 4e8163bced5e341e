"""Convex-duality view of the rate: Legendre transforms of the edge
divergence and of the divergence-free indicator, paired over support edges.

phi*(f) = sum_{support edges} mu(y) r(y,z) (e^{f} - 1) is the conjugate of
the per-edge divergence at fixed typical flow (functionals.legendre_phi_star);
psi*(f) is 0.0 when f is a gradient on the support graph and math.inf
otherwise. The rate equals the sup of -phi*(grad g) over potentials g, and
dv_objective(g) is -phi*(grad g) by construction, so minimize_flow's sup side
is that pairing already: duality_check reads it from the same solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graphs
from .chain import ChainSpec, EdgeFunction, ProbabilityMeasure
from .config import DEFAULT_TOLERANCES, Tolerances
from .solver import ContractionResult, minimize_flow


def legendre_psi_star(
    sg: graphs.SupportGraph,
    f: EdgeFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """0.0 when f is a gradient on the support graph, math.inf otherwise;
    the conjugate of the support of divergence-free flows."""
    return 0.0 if graphs.is_gradient(sg, f, tolerances).is_gradient else math.inf


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
    """Rate from the flow side vs sup of -phi* over gradient candidates:
    the attained maximizer when the support is full, else the staircase
    potentials g^(n) at the standard levels, valued by minimize_flow. That
    solve is shared: on the chain and measure objects of the most recent
    minimize_flow or dv_sup, with equal tolerances, contraction is the same
    ContractionResult and no Newton runs."""
    res = minimize_flow(chain, mu, tolerances)
    if res.attained:
        candidates = (("maximizer", res.rate_sup),)
    else:
        candidates = tuple((f"g^({n})", v) for n, v in res.certificate)
    return FenchelResult(
        rate_inf=res.rate_inf, rate_sup=res.rate_sup, gap=res.duality_gap,
        attained=res.attained, candidates=candidates, contraction=res,
    )
