"""Rate function of a measure: inf over circulations = sup over potentials.

The two sides are solved together. Per mutual-reachability class, the
concave dual sum p_e (1 - e^{g(dst)-g(src)}) is maximized by damped Newton;
its Hessian is minus a weighted graph Laplacian and its stationarity
condition is exactly "the recovered flow Q(y,z) = p(y,z) e^{g(z)-g(y)} is
divergence-free", so one solve yields the optimal flow, the potential, and
both rate values. Cross-class support edges contribute their typical flux
linearly and make the supremum unattained; it is then certified along the
staircase sequence g^(n) built from the condensation levels.

minimize_flow's ContractionResult, dv_sup's DvSupResult and duality_check's
FenchelResult are three views of that one solve. The Fenchel view pairs two
Legendre transforms over the support edges: phi*(f) = sum mu(y) r(y,z)
(e^{f} - 1), the conjugate of the per-edge divergence at fixed typical flow
(functionals.legendre_phi_star), and psi*(f), the conjugate of the
divergence-free indicator, which is 0.0 when f is a gradient on the support
graph (graphs.is_gradient) and math.inf otherwise. The rate is the sup of
-phi*(grad g) over potentials g, and dv_objective(g) is -phi*(grad g) by
construction, so the sup side of the solve is that pairing already.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

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
from .config import DEFAULT_TOLERANCES, EXP_GUARD, Tolerances
from .errors import ConvergenceError, ValidationError
from .functionals import dv_objective, phi_edge_sum
from .graphs import ClassPartition, CondensationGraph

APPROX_LEVELS = (10, 20, 40)  # n values certifying an unattained supremum
# floor of a Newton step's forcing term: its conjugate gradients stop at
# |r| <= CG_RTOL |b| at the latest, near machine precision, so the last steps
# match a direct solve
CG_RTOL = 1e-13
# a Newton step's conjugate gradients stop at |r| <= eta |b|. The first
# step takes eta = |gradient|_inf / scale; each later one Eisenstat & Walker's
# choice 2, eta = EW_GAMMA (res / res_prev)^EW_ALPHA with res the gradient's
# inf-norm, so a step is solved only as far as the last step's progress shows
# Newton can use (Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker, SIAM
# J. Sci. Comput. 17 (1996) 16-32). eta is capped at ETA_MAX and floored at
# CG_RTOL. Their safeguard, eta >= EW_GAMMA eta_prev^EW_ALPHA when that
# exceeds 0.1, cannot bind under this cap, so it is left out
ETA_MAX = 0.1
EW_GAMMA = 0.9
EW_ALPHA = 2.0
# largest relative balance |div q(y)| / (out_q(y) + in_q(y)) of a class's
# vertices at which its Newton loop stops: a few dozen ulps, the rounding
# level of the edge sums
BALANCE_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class ApproximatingSequence:
    """Descriptor for g^(n): the potential truncated plus h(class)*n offsets."""

    potential: VertexFunction
    condensation: CondensationGraph

    def build(self, n: int) -> VertexFunction:
        """g^(n): the potential truncated at n/3, lifted by h(class)*n, zero
        outside the support vertices. dv_objective(g^(n)) climbs to the rate."""
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n > 0):
            raise ValidationError("approximation level n must be a positive integer")
        cp = self.condensation.partition
        v = cp.support.vertices
        g = np.zeros(self.potential.chain.n_states)
        g[v] = (np.clip(self.potential.values[v], -n / 3.0, n / 3.0)
                + self.condensation.h[cp.class_of[v]] * n)
        return VertexFunction(self.potential.chain, g)


@dataclass(frozen=True)
class ContractionResult:
    mu: ProbabilityMeasure
    rate_inf: float
    rate_sup: float
    duality_gap: float
    optimal_flow: Flow
    # per class: its Newton potential minus the value at its smallest vertex;
    # zero on edgeless classes and off the support
    potential: VertexFunction
    partition: ClassPartition
    condensation: CondensationGraph
    attained: bool
    approximating: ApproximatingSequence | None
    certificate: tuple  # (n, dv_objective(g^(n))) pairs, when not attained
    iterations: int
    cg_iterations: int  # conjugate-gradient iterations over all Newton steps
    method: str  # "newton", or "closed-form" when no class has an edge
    residuals: types.MappingProxyType  # read-only: the result may be shared

    @property
    def maximizer(self) -> VertexFunction | None:
        """g*, the potential, when the supremum is attained."""
        return self.potential if self.attained else None

    @property
    def class_potentials(self) -> tuple:
        """The potential split per class, each copy zero off its class."""
        g, of = self.potential.values, self.partition.class_of
        return tuple(VertexFunction(self.potential.chain, np.where(of == k, g, 0.0))
                     for k in range(self.partition.n_classes))


@dataclass(frozen=True)
class DvSupResult:
    value: float
    attained: bool
    maximizer: VertexFunction | None
    sequence: ApproximatingSequence | None
    certificate: tuple  # (n, objective value) pairs for the unattained case
    iterations: int
    cg_iterations: int
    residuals: types.MappingProxyType  # the ContractionResult's own


def _reduced_laplacian_cg(src, dst, k):
    """Newton step solver for a class of k vertices: Jacobi-preconditioned
    conjugate gradients on the reduced Laplacian L[1:,1:], held in CSR.

    src must ascend, as it does in chain edge order. The sparsity pattern is
    fixed by the class edges, so the matrix is laid out once and each step
    refills its values in place. Row i holds the edges leaving i, then those
    entering i, each group in edge order, then the diagonal. solve(q, b,
    rtol) stops at |r| <= rtol |b| and returns (x, CG iterations). Raises
    LinAlgError on a non-positive curvature, which only a singular system
    shows.
    """
    from scipy.sparse import csr_array  # loaded on first use

    keep = (src > 0) & (dst > 0)  # edges at vertex 0 only reach the diagonal
    s, t = src[keep] - 1, dst[keep] - 1
    out_deg = np.bincount(s, minlength=k - 1)
    in_deg = np.bincount(t, minlength=k - 1)
    indptr = np.concatenate([[0], np.cumsum(out_deg + in_deg + 1)])
    # slots of the out-edges: s ascends, so edge j is the (j - first)-th of
    # its row. Of the in-edges: ranked the same way in the order of a stable
    # argsort of t, got as one sort of the distinct keys t * m + j, which is
    # several times faster. Of the diagonal: each row's last
    m = len(t)
    first_out = np.cumsum(out_deg) - out_deg
    at_out = indptr[s] + np.arange(m) - first_out[s]
    t_sorted, by_t = np.divmod(np.sort(t * m + np.arange(m)), m)
    first_in = np.cumsum(in_deg) - in_deg
    at_in = np.empty(m, dtype=np.int64)
    at_in[by_t] = (indptr[:-1] + out_deg - first_in)[t_sorted] + np.arange(m)
    at_diag = indptr[1:] - 1
    cols = np.empty(indptr[-1], dtype=np.int64)
    cols[at_out], cols[at_in], cols[at_diag] = t, s, np.arange(k - 1)
    L = csr_array((np.zeros(len(cols)), cols, indptr), shape=(k - 1, k - 1))
    # reached only when rounding stalls the residual; an inexact step is still
    # gated by the Newton line search
    max_cg = 10 * k

    def solve(q, b, rtol):
        degree = (
            np.bincount(src, weights=q, minlength=k)
            + np.bincount(dst, weights=q, minlength=k)
        )[1:]
        off = -q[keep]
        L.data[at_out], L.data[at_in], L.data[at_diag] = off, off, degree
        x = np.zeros(k - 1)
        r = b.copy()
        z = r / degree
        d = z.copy()
        work = np.empty(k - 1)
        rz = float(r @ z)
        stop = rtol * math.sqrt(b @ b)
        for it in range(1, max_cg + 1):
            Ld = L @ d
            curvature = float(d @ Ld)
            if not curvature > 0.0:
                raise np.linalg.LinAlgError("non-positive curvature")
            step = rz / curvature
            x += np.multiply(step, d, out=work)
            r -= np.multiply(step, Ld, out=Ld)
            if math.sqrt(r @ r) <= stop:
                break
            np.divide(r, degree, out=z)
            rz, rz_old = float(r @ z), rz
            d *= rz / rz_old
            d += z
        return x, it

    return solve


def _newton_class(p, src, dst, k, scale, tolerances):
    """Maximize sum p_e(1 - e^{g[dst]-g[src]}) over g with g[0] = 0.

    The divergence of the recovered flow q is the gradient; each vertex's
    relative balance is |div q(y)| / (out_q(y) + in_q(y)). The loop runs
    until every vertex is at BALANCE_FLOOR or, once the largest balance is
    within tolerances.solver_gradient, until a step does not halve it.
    Raises ConvergenceError at tolerances.solver_max_iter steps above that
    bound. Returns (g, q, iterations, balance, cg_iterations).
    """
    tol = tolerances.solver_gradient
    max_iter = tolerances.solver_max_iter
    eps = np.finfo(float).eps
    reduced_solve = _reduced_laplacian_cg(src, dst, k)
    cg_iterations = 0

    def flow_at(gv):
        e = gv[dst] - gv[src]
        if e.max(initial=-np.inf) > EXP_GUARD:
            return None  # would overflow; line search backs off
        return p * np.exp(e)

    def dual_value(qv):
        return float(np.sum(p - qv))

    def sums_of(qv):
        """The divergence of qv and each vertex's throughput out + in."""
        out = np.bincount(src, weights=qv, minlength=k)
        into = np.bincount(dst, weights=qv, minlength=k)
        return out - into, out + into

    g = np.zeros(k)
    q = flow_at(g)
    iterations = 0
    bal_prev = math.inf
    while True:
        grad, through = sums_of(q)
        div_abs = np.abs(grad)
        res = float(div_abs.max())
        bal = float((div_abs / through).max())
        # within the tolerance, stop at the rounding floor, at the iteration
        # cap, or once a step has not halved the balance, the rule that
        # chain.stationary_distribution stops on; above it, the cap raises
        if bal <= tol and (
            bal <= BALANCE_FLOOR or not bal < 0.5 * bal_prev or iterations >= max_iter
        ):
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} Newton iterations", residual=res
            )
        if iterations == 0:
            eta = res / scale
        else:
            eta = EW_GAMMA * (res / res_prev) ** EW_ALPHA
        try:
            step, its = reduced_solve(q, grad[1:], max(CG_RTOL, min(ETA_MAX, eta)))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("Newton system singular", residual=res) from exc
        cg_iterations += its
        delta = np.concatenate([[0.0], step])
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
                    and float(np.abs(sums_of(q_try)[0]).max()) < res
                )
            ):
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search stalled", residual=res)
        g, q, res_prev, bal_prev = g_try, q_try, res, bal
        iterations += 1
    return g, q, iterations, bal, cg_iterations


def minimize_flow(
    chain: ChainSpec,
    mu: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ContractionResult:
    """Solve inf over circulations of the joint rate at fixed mu.

    Each class is solved by damped Newton on its concave dual; a class on
    which Newton does not converge raises ConvergenceError.

    dv_sup and duality_check, beside it in this module, are views of this
    solve. The most recent solve is kept and shared among the three: a call
    on the same chain and measure objects, with equal tolerances, returns
    that same result, whose arrays are read-only. Any other call solves
    afresh and replaces it.
    """
    _require_same_chain(chain, mu, "measure")
    return _contraction(chain, mu, tolerances)


# one slot, keyed on the chain and measure objects (neither defines __eq__, so
# they hash by identity, and the key holds them, so their ids stay unique) and
# on the tolerances' values. It keeps one result alive, freed by refcount when
# the next solve replaces it; an exception is never kept
@functools.lru_cache(maxsize=1)
def _contraction(
    chain: ChainSpec, mu: ProbabilityMeasure, tolerances: Tolerances
) -> ContractionResult:
    sg = graphs.support_graph(chain, mu)
    cp = graphs.mutual_reachability_classes(sg)
    cond = graphs.condensation(cp)
    p_full = mu_flow(chain, mu).values
    scale = max(1.0, float(p_full.sum()))

    q_vals = np.zeros(chain.n_edges)
    g = np.zeros(chain.n_states)
    primal = 0.0
    total_iters = 0
    total_cg = 0
    balance = 0.0
    loc = np.empty(chain.n_states, dtype=np.int64)

    for verts, eids in zip(cp.classes, cp.internal_edges):
        if len(eids) == 0:
            continue
        loc[verts] = np.arange(len(verts))
        p = p_full[eids]
        g_local, q_edge, iters, bal, cg_iters = _newton_class(
            p, loc[chain.edge_src[eids]], loc[chain.edge_dst[eids]],
            len(verts), scale, tolerances,
        )
        g[verts] = g_local - g_local[0]  # reference = smallest vertex
        q_vals[eids] = q_edge
        primal += phi_edge_sum(q_edge, p)
        total_iters += iters
        total_cg += cg_iters
        balance = max(balance, bal)

    residual_cross = float(p_full[cp.cross_edges].sum())
    rate_inf = primal + residual_cross
    optimal_flow = Flow(chain, q_vals)
    potential = VertexFunction(chain, g)
    attained = len(cp.cross_edges) == 0

    if attained:
        approximating = None
        certificate = ()
        rate_sup = dv_objective(chain, mu, potential)
    else:
        approximating = ApproximatingSequence(potential, cond)
        certificate = tuple(
            (n, dv_objective(chain, mu, approximating.build(n)))
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
        potential=potential,
        partition=cp,
        condensation=cond,
        attained=attained,
        approximating=approximating,
        certificate=certificate,
        iterations=total_iters,
        cg_iterations=total_cg,
        method="newton" if any(map(len, cp.internal_edges)) else "closed-form",
        residuals=types.MappingProxyType({
            "balance_max": balance,
            "divergence_max": div_res,
            "primal_dual_gap": abs(rate_inf - rate_sup),
        }),
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
    Reads minimize_flow's solve, so it shares the most recent one: on the
    same chain and measure objects with equal tolerances, no Newton runs.
    """
    res = minimize_flow(chain, mu, tolerances)
    return DvSupResult(
        value=res.rate_sup if res.attained else res.rate_inf,
        attained=res.attained,
        maximizer=res.maximizer,
        sequence=res.approximating,
        certificate=res.certificate,
        iterations=res.iterations,
        cg_iterations=res.cg_iterations,
        residuals=res.residuals,
    )


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
    mixed = ProbabilityMeasure(chain, c * mu.values + (1.0 - c) * pi.values)
    return minimize_flow(chain, mixed, tolerances).rate_inf
