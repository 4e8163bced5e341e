"""Support graphs, mutual-reachability classes, condensations, cycles, gradients
and spanning trees.

Vertices are dense chain indices throughout; edges are positions into the
chain's edge arrays.

One orientation rule, kept by _generalized_edges alone: a step (a, b) of a
generalized path reads the edge a->b forward when there is one, else the edge
b->a backwards, where an edge function counts with a minus sign (the f_*
convention); on a support graph, only support edges count.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chain import (
    ChainSpec,
    EdgeFunction,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    _find_edges,
    _frozen,
    _require_same_chain,
    divergence,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DivergenceError, DvrateError, ValidationError


@dataclass(frozen=True)
class SupportGraph:
    """(V_mu, E_mu): edges with mu(src) > 0 and their endpoints."""

    chain: ChainSpec
    mu: ProbabilityMeasure
    edge_ids: np.ndarray  # positions into chain edge arrays, ascending
    vertices: np.ndarray  # sorted distinct endpoints

    @property
    def edge_src(self) -> np.ndarray:
        return self.chain.edge_src[self.edge_ids]

    @property
    def edge_dst(self) -> np.ndarray:
        return self.chain.edge_dst[self.edge_ids]


def support_graph(chain: ChainSpec, mu: ProbabilityMeasure) -> SupportGraph:
    """Exact zero test on mu; rates are positive on every chain edge already."""
    _require_same_chain(chain, mu, "measure")
    mask = mu.values[chain.edge_src] > 0
    edge_ids = np.nonzero(mask)[0]
    src = chain.edge_src[edge_ids]
    dst = chain.edge_dst[edge_ids]
    seen = np.zeros(chain.n_states, dtype=bool)
    seen[src] = seen[dst] = True
    vertices = np.flatnonzero(seen)
    return SupportGraph(chain, mu, _frozen(edge_ids), _frozen(vertices))


@dataclass(frozen=True)
class ClassPartition:
    """Mutual-reachability (strongly connected) classes of a support graph."""

    support: SupportGraph
    classes: tuple  # sorted np.ndarray of vertex indices per class
    class_of: np.ndarray  # per chain state: its class position, -1 off the support
    internal_edges: tuple  # per class, chain edge ids with both ends inside
    cross_edges: np.ndarray  # support edge ids between distinct classes

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _split_by(keys: np.ndarray, values: np.ndarray, n: int) -> list:
    """values grouped by keys in 0..n-1, each group in its input order."""
    grouped = values[np.argsort(keys, kind="stable")]
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [grouped[a:b] for a, b in zip([0] + ends[:-1], ends)]


def mutual_reachability_classes(sg: SupportGraph) -> ClassPartition:
    from scipy.sparse import csr_array  # loaded on first use
    from scipy.sparse.csgraph import connected_components

    verts = sg.vertices
    nv = len(verts)  # positive: a measure charges some state, which has an out-edge
    local_ix = np.empty(sg.chain.n_states, dtype=np.int64)
    local_ix[verts] = np.arange(nv)
    src, dst = local_ix[sg.edge_src], local_ix[sg.edge_dst]
    # chain edges are sorted by source, so src already has CSR row order
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=nv))])
    adj = csr_array((np.ones(len(src)), dst, indptr), shape=(nv, nv))
    n_classes, labels = connected_components(adj, directed=True, connection="strong")
    # deterministic class order: by smallest member (verts ascend, so the
    # least position carrying a label holds that class's smallest member)
    first = np.full(n_classes, nv, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(nv))
    rank = np.empty(n_classes, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_classes)
    local = rank[labels]
    class_of = np.full(sg.chain.n_states, -1, dtype=np.int64)
    class_of[verts] = local

    ks, kd = local[src], local[dst]
    inside = ks == kd
    return ClassPartition(
        sg,
        tuple(_frozen(c) for c in _split_by(local, verts, n_classes)),
        _frozen(class_of),
        tuple(_frozen(e) for e in _split_by(ks[inside], sg.edge_ids[inside], n_classes)),
        _frozen(sg.edge_ids[~inside]),
    )


@dataclass(frozen=True)
class CondensationGraph:
    """Acyclic graph on classes, with a strictly decreasing level function h."""

    partition: ClassPartition
    edges: tuple  # sorted distinct (class, class) pairs following support edges
    h: np.ndarray  # int levels in 1..n_classes, h(a) > h(b) for every edge (a,b)


def condensation(cp: ClassPartition) -> CondensationGraph:
    chain = cp.support.chain
    n = cp.n_classes
    a = cp.class_of[chain.edge_src[cp.cross_edges]]
    b = cp.class_of[chain.edge_dst[cp.cross_edges]]
    a, b = np.divmod(np.unique(a * n + b), n)
    edges = tuple(zip(a.tolist(), b.tolist()))

    # predecessors of each class, ascending; the sorter's order (and so h)
    # depends on the order in which they are inserted
    preds = {k: set(ps.tolist()) for k, ps in enumerate(_split_by(b, a, n))}
    try:
        order = list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError as exc:  # impossible for SCC condensations
        raise DvrateError("cycle detected in condensation") from exc
    h = np.empty(n, dtype=np.int64)
    h[order] = np.arange(n, 0, -1)  # h decreases along edges
    return CondensationGraph(cp, edges, _frozen(h))


def gradient(g: VertexFunction) -> EdgeFunction:
    """Per-edge difference g(dst) - g(src) over all chain edges."""
    chain = g.chain
    return EdgeFunction(chain, g.values[chain.edge_dst] - g.values[chain.edge_src])


def _generalized_edges(n: int, src, dst, a, b):
    """Positions among the edges (src, dst) on n vertices, sorted by
    (src, dst), and signs of the generalized edges (a[k], b[k]): a->b with +1
    when it is an edge, else b->a with -1. Raises ValidationError naming the
    first pair that is neither."""
    keys = src * n + dst
    fwd, back = _find_edges(keys, n, a, b), _find_edges(keys, n, b, a)
    outside = (np.minimum(a, b) < 0) | (np.maximum(a, b) >= n)  # keys would alias
    bad = (fwd < 0) & (back < 0) | outside
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValidationError(
            f"({a[k]},{b[k]}) is not a generalized edge of the support graph"
        )
    return np.where(fwd >= 0, fwd, back), np.where(fwd >= 0, 1.0, -1.0)


def _support_steps(sg: SupportGraph, path: Sequence[int]):
    """Chain edge ids and signs of the steps of a generalized path."""
    p = np.asarray(path, dtype=np.int64)
    ids, sign = _generalized_edges(sg.chain.n_states, sg.edge_src, sg.edge_dst,
                                   p[:-1], p[1:])
    return sg.edge_ids[ids], sign


def path_integral(sg: SupportGraph, f: EdgeFunction, path: Sequence[int]) -> float:
    """Sum of f_* along consecutive vertex pairs of a generalized path."""
    ids, sign = _support_steps(sg, path)
    return sum((sign * f.values[ids]).tolist())


@dataclass(frozen=True)
class GradientWitness:
    """Two generalized paths with common endpoints but different integrals."""

    path_a: tuple  # vertex indices
    path_b: tuple
    integral_a: float
    integral_b: float

    @property
    def gap(self) -> float:
        return abs(self.integral_a - self.integral_b)


@dataclass(frozen=True)
class GradientCheck:
    is_gradient: bool
    potential: VertexFunction | None = None
    witness: GradientWitness | None = None


def _integrate_on_forest(sg: SupportGraph, values: np.ndarray):
    """Integrate the support edges' values along a BFS spanning forest of the
    undirected view of the support graph.

    The smallest vertex of each component is its root and neighbours are
    visited in ascending order. A tree link (a, b) follows the edge a->b
    forward when there is one, else b->a backwards, with a minus sign (the
    f_* convention). Returns (potential, parent, worst_gap, worst_edge): per
    chain state the potential (0 at each root and off the vertex set) and the
    parent (-1 there), then max over support edges of
    |value - (g(dst) - g(src))| and that edge's position among them.
    """
    from scipy.sparse import csr_matrix  # loaded on first use
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n_states, vertices = sg.chain.n_states, sg.vertices
    src, dst = sg.edge_src, sg.edge_dst
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    und = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_states, n_states))
    labels = connected_components(und, directed=False)[1][vertices]
    roots = vertices[np.unique(labels, return_index=True)[1]]
    # node `top` is a virtual root joined to each component's smallest vertex;
    # one BFS from it grows every tree exactly as a BFS from each root would
    top = n_states
    rows = np.concatenate([rows, np.full(len(roots), top)])
    cols = np.concatenate([cols, roots])
    forest = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(top + 1, top + 1))
    forest.sum_duplicates()  # sorted rows: neighbours in ascending order
    order, pred = breadth_first_order(forest, top, directed=True, return_predecessors=True)
    order = order[1:]
    pred = pred[order]
    pred[pred == top] = -1
    parent = np.full(n_states, -1, dtype=np.int64)
    parent[order] = pred

    step = np.zeros(len(order))
    linked = pred >= 0
    pos, sign = _generalized_edges(n_states, src, dst, pred[linked], order[linked])
    step[linked] = sign * values[pos]
    pot = [0.0] * n_states
    for v, p, w in zip(order.tolist(), pred.tolist(), step.tolist()):
        if p >= 0:
            pot[v] = pot[p] + w
    potential = np.array(pot)

    gaps = np.abs(values - (potential[dst] - potential[src]))
    worst = int(np.argmax(gaps))
    return potential, parent, float(gaps[worst]), worst


def spanning_tree_mask(
    n_states: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Mask of the edges (src[i], dst[i]) whose unordered pair lies on a
    maximum-weight spanning forest of the undirected graph in which a pair
    weighs the sum of its edges' positive weights, both directions counted.

    The forest is scipy's minimum spanning tree of the reciprocal weights. It
    is the support of a tree preconditioner (support-graph preconditioning:
    Vaidya 1991; Spielman & Teng, SIAM J. Matrix Anal. Appl. 35 (2014)).
    """
    from scipy.sparse import csr_array  # loaded on first use
    from scipy.sparse.csgraph import minimum_spanning_tree

    lo = np.minimum(src, dst).astype(np.int64)
    hi = np.maximum(src, dst).astype(np.int64)
    pairs = csr_array((weights, (lo, hi)), shape=(n_states, n_states))
    pairs.sum_duplicates()  # (y, z) and (z, y) share one entry
    pairs.data = 1.0 / pairs.data
    tree = minimum_spanning_tree(pairs).tocoo()
    a, b = tree.row.astype(np.int64), tree.col.astype(np.int64)
    keys = np.minimum(a, b) * n_states + np.maximum(a, b)
    return np.isin(lo * n_states + hi, keys)


def _forest_path(parent: np.ndarray, a: int, b: int) -> list[int]:
    """Vertex path from a to b inside one tree of the forest (through the LCA)."""
    up_a = [a]
    while parent[up_a[-1]] != -1:
        up_a.append(int(parent[up_a[-1]]))
    up_b = [b]
    while parent[up_b[-1]] != -1:
        up_b.append(int(parent[up_b[-1]]))
    # strip the common tail above the lowest common ancestor
    ra, rb = up_a[::-1], up_b[::-1]
    k = 0
    while k < min(len(ra), len(rb)) and ra[k] == rb[k]:
        k += 1
    return up_a[: len(up_a) - k + 1] + rb[k:]  # a .. lca .. b


def is_gradient(
    sg: SupportGraph,
    f: EdgeFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> GradientCheck:
    """Decide whether f = grad g on the support edges.

    Builds tentative potentials on a spanning forest of the undirected view,
    then checks every support edge. All generalized paths with common
    endpoints have equal integrals iff no edge violates; a violating edge
    yields the witness pair (forest path vs the edge itself).
    """
    _require_same_chain(sg.chain, f, "edge function")
    potential, parent, worst_gap, worst = _integrate_on_forest(sg, f.values[sg.edge_ids])
    if worst_gap <= tolerances.witness:
        return GradientCheck(True, potential=VertexFunction(sg.chain, potential))

    i, j = int(sg.edge_src[worst]), int(sg.edge_dst[worst])
    path_a = tuple(_forest_path(parent, i, j))
    path_b = (i, j)
    return GradientCheck(
        False,
        witness=GradientWitness(
            path_a,
            path_b,
            path_integral(sg, f, path_a),
            path_integral(sg, f, path_b),
        ),
    )


def witness_flow(sg: SupportGraph, witness: GradientWitness, lam: float) -> EdgeFunction:
    """Signed divergence-free flow lam*(chi(path_a) - chi(path_b)).

    <f, Q_lam> grows linearly in lam with slope = the witness's integral gap,
    which is what forces the Legendre transform of the divergence constraint
    to +infinity off the gradient subspace.
    """
    ia, sa = _support_steps(sg, witness.path_a)
    ib, sb = _support_steps(sg, witness.path_b)
    vals = np.zeros(sg.chain.n_edges)
    np.add.at(vals, np.r_[ia, ib], np.r_[sa * lam, sb * -lam])  # repeats add in path order
    return EdgeFunction(sg.chain, vals)


@dataclass(frozen=True)
class CycleDecomposition:
    """A divergence-free flow written as a sum of self-avoiding directed cycles."""

    chain: ChainSpec
    cycles: list  # tuples of distinct vertex indices
    cycle_edges: list = field(repr=False)  # per cycle, the chain edge ids
    weights: np.ndarray = field(default=None)

    def reconstruct(self) -> Flow:
        vals = np.zeros(self.chain.n_edges)
        for ids, w in zip(self.cycle_edges, self.weights):
            vals[ids] += w
        return Flow(self.chain, vals)

    def cycles_as_states(self) -> list:
        """Closed identifier lists, first vertex repeated at the end."""
        out = []
        for cyc in self.cycles:
            names = [self.chain.states[v] for v in cyc]
            out.append(names + [names[0]])
        return out


def cycle_decomposition(
    chain: ChainSpec,
    q: Flow,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CycleDecomposition:
    """Peel a divergence-free flow into weighted self-avoiding cycles.

    Deterministic greedy peeling: start from the first (lexicographically
    smallest) support edge, walk forward along the smallest-index successor
    with positive residual, cut at the first repeated vertex, subtract the
    cycle minimum. Each peel zeroes at least one edge, so there are at most
    as many cycles as support edges.
    """
    _require_same_chain(chain, q, "flow")
    l1 = q.l1_norm
    div = divergence(chain, q).values
    gate = tolerances.divergence_rel * max(1.0, l1)
    worst = int(np.argmax(np.abs(div)))
    if abs(div[worst]) > gate:
        raise DivergenceError(
            f"flow has divergence {div[worst]:.3e} at state "
            f"{chain.states[worst]!r}; cycle decomposition needs a circulation"
        )

    residual = q.values.copy()
    dust = 1e-15 * max(1.0, l1)
    stuck_budget = tolerances.divergence_rel * max(1.0, l1)
    cycles: list[tuple] = []
    cycle_edges: list[np.ndarray] = []
    weights: list[float] = []

    def first_out(v: int) -> int:
        lo, hi = chain.row_offsets[v], chain.row_offsets[v + 1]
        for e in range(lo, hi):
            if residual[e] > dust:
                return e
        return -1

    for _ in range(2 * chain.n_edges + 1):
        start_candidates = np.nonzero(residual > dust)[0]
        if len(start_candidates) == 0:
            break
        e0 = int(start_candidates[0])
        path_v = [int(chain.edge_src[e0])]
        path_e: list[int] = []
        pos = {path_v[0]: 0}
        e = e0
        cycle = None
        while True:
            path_e.append(e)
            nxt = int(chain.edge_dst[e])
            if nxt in pos:
                k = pos[nxt]
                cycle = (path_v[k:], path_e[k:])
                break
            path_v.append(nxt)
            pos[nxt] = len(path_v) - 1
            e = first_out(nxt)
            if e == -1:
                break
        if cycle is None:
            # numerical dust stranded the walk; drop it and continue
            path_arr = np.array(path_e, dtype=np.int64)
            droppable = path_arr[residual[path_arr] <= stuck_budget]
            if len(droppable) == 0:
                raise DivergenceError(
                    "peeling stalled on residual flow exceeding the divergence "
                    "tolerance; input is not a circulation"
                )
            residual[droppable] = 0.0
            continue
        verts, edges = cycle
        ids = np.array(edges, dtype=np.int64)
        w = float(residual[ids].min())
        residual[ids] -= w
        residual[ids[residual[ids] <= dust]] = 0.0
        cycles.append(tuple(verts))
        cycle_edges.append(ids)
        weights.append(w)
    else:
        raise DvrateError("cycle peeling failed to terminate")  # defensive

    return CycleDecomposition(chain, cycles, cycle_edges, np.array(weights))
