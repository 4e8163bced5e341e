"""Rate function of a measure: inf over circulations = sup over potentials.

The two sides are solved together. Per mutual-reachability class, the
concave dual sum p_e (1 - e^{g(dst)-g(src)}) is maximized by damped Newton;
its Hessian is minus a weighted graph Laplacian and its stationarity
condition is exactly "the recovered flow Q(y,z) = p(y,z) e^{g(z)-g(y)} is
divergence-free", so one solve yields the optimal flow, the potential, and
both rate values. Cross-class support edges contribute their typical flux
linearly and make the supremum unattained; it is then certified along the
staircase sequence g^(n) built from the condensation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graphs
from .chain import (
    ChainSpec,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    _require_same_chain,
    divergence,
    mu_flow,
    stationary_distribution,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ConvergenceError, PathDependenceError, ValidationError
from .functionals import dv_objective, phi_edge_sum
from .graphs import ClassPartition, CondensationGraph

APPROX_LEVELS = (10, 20, 40)  # n values certifying an unattained supremum


@dataclass(frozen=True)
class ApproximatingSequence:
    """Descriptor for g^(n): truncated class potentials plus h(class)*n offsets."""

    class_potentials: tuple
    condensation: CondensationGraph

    def build(self, n: int) -> VertexFunction:
        return build_approximating_sequence(
            self.class_potentials, self.condensation, n
        )


@dataclass(frozen=True)
class ContractionResult:
    mu: ProbabilityMeasure
    rate_inf: float
    rate_sup: float
    duality_gap: float
    optimal_flow: Flow
    class_potentials: tuple  # one VertexFunction per class, zero off-class
    partition: ClassPartition
    condensation: CondensationGraph
    attained: bool
    approximating: ApproximatingSequence | None
    maximizer: VertexFunction | None  # summed class potentials g*, when attained
    certificate: tuple  # (n, dv_objective(g^(n))) pairs, when not attained
    iterations: int
    method: str  # "newton", or "closed-form" when no class has an edge
    residuals: dict


@dataclass(frozen=True)
class DvSupResult:
    value: float
    attained: bool
    maximizer: VertexFunction | None
    sequence: ApproximatingSequence | None
    certificate: tuple  # (n, objective value) pairs for the unattained case
    iterations: int
    residuals: dict


def _newton_class(p, src, dst, k, scale, tolerances):
    """Maximize sum p_e(1 - e^{g[dst]-g[src]}) over g with g[0] = 0.

    Stops when the divergence of the recovered flow is within
    tolerances.solver_gradient * scale. Returns (g, q, iterations,
    gradient_residual); q is the recovered flow.
    """
    tol_abs = tolerances.solver_gradient * scale
    max_iter = tolerances.solver_max_iter
    eps = np.finfo(float).eps

    def flow_at(gv):
        e = gv[dst] - gv[src]
        if e.max(initial=-np.inf) > tolerances.exp_guard:
            return None  # would overflow; line search backs off
        return p * np.exp(e)

    def dual_value(qv):
        return float(np.sum(p - qv))

    def grad_of(qv):
        return (
            np.bincount(src, weights=qv, minlength=k)
            - np.bincount(dst, weights=qv, minlength=k)
        )

    def newton_step(qv, gradient):
        A = np.zeros((k, k))
        np.add.at(A, (src, dst), qv)
        A = A + A.T
        L = np.diag(A.sum(axis=1)) - A
        try:
            delta_red = np.linalg.solve(L[1:, 1:], gradient[1:])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "Newton system singular", residual=float(np.abs(gradient).max())
            ) from exc
        return np.concatenate([[0.0], delta_red])

    g = np.zeros(k)
    q = flow_at(g)
    iterations = 0
    while True:
        grad = grad_of(q)
        res = float(np.abs(grad).max())
        if res <= tol_abs:
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} Newton iterations", residual=res
            )
        delta = newton_step(q, grad)
        slope = float(grad @ delta)
        if slope <= 0.0:
            raise ConvergenceError("Newton direction not ascending", residual=res)
        f0 = dual_value(q)
        # an increase below the rounding of f cannot be seen by Armijo; such a
        # step is accepted when it lowers the gradient residual instead
        unresolved = eps * max(1.0, abs(f0))
        alpha = 1.0
        while alpha >= 1e-14:
            g_try = g + alpha * delta
            q_try = flow_at(g_try)
            if q_try is not None and (
                dual_value(q_try) >= f0 + 1e-4 * alpha * slope
                or (
                    alpha * slope <= unresolved
                    and float(np.abs(grad_of(q_try)).max()) < res
                )
            ):
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search stalled", residual=res)
        g, q = g_try, q_try
        iterations += 1

    # one undamped polish step drives the divergence residual to machine level
    grad = grad_of(q)
    res = float(np.abs(grad).max())
    if res > 0.0:
        try:
            delta = newton_step(q, grad)
            g_try = g + delta
            q_try = flow_at(g_try)
            if q_try is not None:
                res_try = float(np.abs(grad_of(q_try)).max())
                if res_try < res:
                    g, q, res = g_try, q_try, res_try
        except ConvergenceError:
            pass
    return g, q, iterations, res


def construct_class_potential(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    q_star: Flow,
    vertices: Sequence[int],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> VertexFunction:
    """g on one class from log(Q*/Q^mu) summed along oriented paths.

    Zero at the smallest vertex of the class, zero off the class. Rejects
    flows whose log-ratios fail the cycle (path-independence) condition.
    """
    _require_same_chain(chain, mu, "measure")
    _require_same_chain(chain, q_star, "flow")
    verts = np.array(sorted(int(v) for v in vertices))
    vset = set(map(int, verts))
    sg = graphs.support_graph(chain, mu)
    eids = np.array(
        [
            int(e)
            for e in sg.edge_ids
            if int(chain.edge_src[e]) in vset and int(chain.edge_dst[e]) in vset
        ],
        dtype=np.int64,
    )
    if len(eids) == 0:
        return VertexFunction(chain, np.zeros(chain.n_states))
    q_vals = q_star.values[eids]
    if np.any(q_vals <= 0.0):
        raise ValidationError(
            "optimal flow must be strictly positive on class edges"
        )
    ratio = np.log(q_vals) - np.log(mu_flow(chain, mu).values[eids])
    src, dst = chain.edge_src[eids], chain.edge_dst[eids]
    fp = graphs.forest_potential(chain.n_states, verts, src, dst, ratio)
    if fp.n_trees != 1:
        raise ValidationError("class vertices are not connected by support edges")
    if fp.worst_gap > tolerances.path_independence:
        y, z = int(src[fp.worst_edge]), int(dst[fp.worst_edge])
        raise PathDependenceError(
            f"edge log-ratios are path-dependent (residual {fp.worst_gap:.3e} on "
            f"edge ({chain.states[y]!r}, {chain.states[z]!r})); the flow is not "
            "the per-class optimum"
        )
    return VertexFunction(chain, fp.potential)


def build_approximating_sequence(
    class_potentials: Sequence[VertexFunction],
    cond: CondensationGraph,
    n: int,
) -> VertexFunction:
    """g^(n): class potentials truncated at n/3, lifted by h(class)*n, zero
    outside the support vertices. dv_objective(g^(n)) climbs to the rate."""
    if not (isinstance(n, (int, np.integer)) and n > 0):
        raise ValidationError("approximation level n must be a positive integer")
    cp = cond.partition
    chain = cp.support.chain
    g = np.zeros(chain.n_states)
    cap = n / 3.0
    for k, verts in enumerate(cp.classes):
        gl = class_potentials[k].values[verts]
        g[verts] = np.clip(gl, -cap, cap) + float(cond.h[k] * n)
    return VertexFunction(chain, g)


def minimize_flow(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ContractionResult:
    """Solve inf over circulations of the joint rate at fixed mu.

    Each class is solved by damped Newton on its concave dual; a class on
    which Newton does not converge raises ConvergenceError.
    """
    _require_same_chain(chain, mu, "measure")
    sg = graphs.support_graph(chain, mu)
    cp = graphs.mutual_reachability_classes(sg)
    cond = graphs.condensation(cp)
    p_full = mu_flow(chain, mu).values
    scale = max(1.0, float(p_full.sum()))

    q_vals = np.zeros(chain.n_edges)
    g_sum = np.zeros(chain.n_states)
    potentials = []
    primal = 0.0
    total_iters = 0
    grad_res = 0.0
    loc = np.empty(chain.n_states, dtype=np.int64)

    for verts, eids in zip(cp.classes, cp.internal_edges):
        full = np.zeros(chain.n_states)
        if len(eids):
            loc[verts] = np.arange(len(verts))
            p = p_full[eids]
            g_local, q_edge, iters, res = _newton_class(
                p, loc[chain.edge_src[eids]], loc[chain.edge_dst[eids]],
                len(verts), scale, tolerances,
            )
            full[verts] = g_local - g_local[0]  # reference = smallest vertex
            g_sum[verts] = full[verts]
            q_vals[eids] = q_edge
            primal += phi_edge_sum(q_edge, p)
            total_iters += iters
            grad_res = max(grad_res, res)
        potentials.append(VertexFunction(chain, full))

    residual_cross = float(p_full[cp.cross_edges].sum())
    rate_inf = primal + residual_cross
    optimal_flow = Flow(chain, q_vals)
    attained = len(cp.cross_edges) == 0

    if attained:
        maximizer = VertexFunction(chain, g_sum)
        approximating = None
        certificate = ()
        rate_sup = dv_objective(chain, mu, maximizer, tolerances)
    else:
        maximizer = None
        approximating = ApproximatingSequence(tuple(potentials), cond)
        certificate = tuple(
            (n, dv_objective(chain, mu, approximating.build(n), tolerances))
            for n in APPROX_LEVELS
        )
        rate_sup = max(v for _, v in certificate)

    div_res = float(np.abs(divergence(chain, optimal_flow).values).max(initial=0.0))
    return ContractionResult(
        mu=mu,
        rate_inf=rate_inf,
        rate_sup=rate_sup,
        duality_gap=abs(rate_inf - rate_sup),
        optimal_flow=optimal_flow,
        class_potentials=tuple(potentials),
        partition=cp,
        condensation=cond,
        attained=attained,
        approximating=approximating,
        maximizer=maximizer,
        certificate=certificate,
        iterations=total_iters,
        method="newton" if any(map(len, cp.internal_edges)) else "closed-form",
        residuals={
            "gradient_max": grad_res,
            "divergence_max": div_res,
            "primal_dual_gap": abs(rate_inf - rate_sup),
        },
    )


def dv_sup(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> DvSupResult:
    """sup over potentials of the Donsker-Varadhan objective.

    Full-support mu: returns the gauge-fixed maximizer. Degenerate support:
    the sup equals rate_inf but is not attained; returns the approximating
    sequence and the objective values certifying it at the standard levels.
    """
    res = minimize_flow(chain, mu, tolerances)
    return DvSupResult(
        value=res.rate_sup if res.attained else res.rate_inf,
        attained=res.attained,
        maximizer=res.maximizer,
        sequence=res.approximating,
        certificate=res.certificate,
        iterations=res.iterations,
        residuals=res.residuals,
    )


def mixed_measure_rate(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    c: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Rate of c*mu + (1-c)*pi, the full-support mixture used to sandwich
    degenerate measures. Requires 0 < c < 1."""
    if not (0.0 < c < 1.0):
        raise ValidationError(f"mixing weight must be in (0,1), got {c}")
    _require_same_chain(chain, mu, "measure")
    pi = stationary_distribution(chain, tolerances)
    mixed = ProbabilityMeasure(
        chain, c * mu.values + (1.0 - c) * pi.values, tolerances
    )
    return minimize_flow(chain, mixed, tolerances).rate_inf
