"""Support graphs, mutual-reachability classes, condensations, cycles, gradients.

Vertices are dense chain indices throughout; edges are positions into the
chain's edge arrays. A generalized path may traverse support edges in either
direction; traversing (y,z) backwards counts an edge function with a minus
sign (the f_* convention).
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .chain import (
    ChainSpec,
    EdgeFunction,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
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

    def has_pair(self, i: int, j: int) -> bool:
        return (
            self.chain.has_edge_ix(i, j)
            and self.mu.values[i] > 0
        )

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
    vertices = np.unique(np.concatenate([src, dst]))
    return SupportGraph(chain, mu, edge_ids, vertices)


@dataclass(frozen=True)
class ClassPartition:
    """Mutual-reachability (strongly connected) classes of a support graph."""

    support: SupportGraph
    classes: list  # list of sorted np.ndarray of vertex indices
    class_of: dict  # vertex index -> class position
    internal_edges: list  # per class, chain edge ids with both ends inside
    cross_edges: np.ndarray  # support edge ids between distinct classes

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def reference_vertex(self, k: int) -> int:
        return int(self.classes[k][0])  # smallest index in the class


def mutual_reachability_classes(sg: SupportGraph) -> ClassPartition:
    verts = sg.vertices
    local = {int(v): i for i, v in enumerate(verts)}
    nv = len(verts)
    src = sg.edge_src
    dst = sg.edge_dst
    if nv == 0:
        return ClassPartition(sg, [], {}, [], np.array([], dtype=np.int64))
    rows = [local[int(s)] for s in src]
    cols = [local[int(d)] for d in dst]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nv, nv))
    _, labels = connected_components(adj, directed=True, connection="strong")

    by_label: dict[int, list[int]] = {}
    for v, lab in zip(verts, labels):
        by_label.setdefault(int(lab), []).append(int(v))
    # deterministic class order: by smallest member
    classes = sorted((np.array(sorted(vs)) for vs in by_label.values()),
                     key=lambda a: int(a[0]))
    class_of = {int(v): k for k, cls in enumerate(classes) for v in cls}

    internal: list[list[int]] = [[] for _ in classes]
    cross: list[int] = []
    for e, s, d in zip(sg.edge_ids, src, dst):
        ks, kd = class_of[int(s)], class_of[int(d)]
        if ks == kd:
            internal[ks].append(int(e))
        else:
            cross.append(int(e))
    return ClassPartition(
        sg,
        classes,
        class_of,
        [np.array(sorted(ids), dtype=np.int64) for ids in internal],
        np.array(sorted(cross), dtype=np.int64),
    )


@dataclass(frozen=True)
class CondensationGraph:
    """Acyclic graph on classes, with a strictly decreasing level function h."""

    partition: ClassPartition
    edges: list  # sorted distinct (class, class) pairs following support edges
    h: np.ndarray  # int levels in 1..n_classes, h(a) > h(b) for every edge (a,b)


def condensation(cp: ClassPartition) -> CondensationGraph:
    chain = cp.support.chain
    pairs = set()
    for e in cp.cross_edges:
        a = cp.class_of[int(chain.edge_src[e])]
        b = cp.class_of[int(chain.edge_dst[e])]
        pairs.add((a, b))
    edges = sorted(pairs)

    preds: dict[int, set] = {k: set() for k in range(cp.n_classes)}
    for a, b in edges:
        preds[b].add(a)
    try:
        order = list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError as exc:  # impossible for SCC condensations
        raise DvrateError("cycle detected in condensation") from exc
    n = cp.n_classes
    h = np.zeros(n, dtype=np.int64)
    for pos, k in enumerate(order):
        h[k] = n - (pos + 1) + 1  # h decreases along edges
    return CondensationGraph(cp, edges, h)


def gradient(g: VertexFunction) -> EdgeFunction:
    """Per-edge difference g(dst) - g(src) over all chain edges."""
    chain = g.chain
    return EdgeFunction(chain, g.values[chain.edge_dst] - g.values[chain.edge_src])


def f_star(sg: SupportGraph, f: EdgeFunction, i: int, j: int) -> float:
    """Value of f on the generalized edge (i, j): forward if (i,j) is a
    support edge, else minus the reverse edge's value."""
    if sg.has_pair(i, j):
        return float(f.values[sg.chain.edge_id_ix(i, j)])
    if sg.has_pair(j, i):
        return -float(f.values[sg.chain.edge_id_ix(j, i)])
    raise ValidationError(f"({i},{j}) is not a generalized edge of the support graph")


def path_integral(sg: SupportGraph, f: EdgeFunction, path: Sequence[int]) -> float:
    """Sum of f_* along consecutive vertex pairs of a generalized path."""
    return sum(f_star(sg, f, int(a), int(b)) for a, b in zip(path, path[1:]))


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


@dataclass(frozen=True)
class ForestPotential:
    """Potential built along a spanning forest, and how far it is from
    reproducing every edge value."""

    potential: np.ndarray  # per chain state; 0 at each root and off the vertex set
    parent: np.ndarray  # per chain state; -1 at each root and off the vertex set
    n_trees: int
    worst_gap: float  # max over edges of |value - (g(dst) - g(src))|
    worst_edge: int  # position of that edge in the input arrays, -1 if no edges


def forest_potential(
    n_states: int,
    vertices: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    values: np.ndarray,
) -> ForestPotential:
    """Integrate edge values along a BFS spanning forest of the undirected
    view of the edges (src[i], dst[i]) on the given ascending vertices.

    The smallest vertex of each component is its root and neighbours are
    visited in ascending order. A tree link (a, b) follows the edge a->b
    forward when there is one, else b->a backwards, with a minus sign (the
    f_* convention).
    """
    potential = np.zeros(n_states)
    parent = np.full(n_states, -1, dtype=np.int64)
    if len(src) == 0:
        return ForestPotential(potential, parent, len(vertices), 0.0, -1)

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
    parent[order] = pred

    # tree link pred -> v: the edge pred->v forward if present, else v->pred
    # backwards; entries hold 1 + the edge's position
    ids = csr_matrix(
        (np.arange(1, len(src) + 1), (src, dst)), shape=(n_states, n_states)
    )
    step = np.zeros(len(order))
    linked = pred >= 0
    a, b = pred[linked], order[linked]
    fwd = np.asarray(ids[a, b]).ravel()
    back = np.asarray(ids[b, a]).ravel()
    step[linked] = np.where(fwd > 0, values[fwd - 1], -values[back - 1])
    pot = potential.tolist()
    for v, p, w in zip(order.tolist(), pred.tolist(), step.tolist()):
        if p >= 0:
            pot[v] = pot[p] + w
    potential = np.array(pot)

    gaps = np.abs(values - (potential[dst] - potential[src]))
    worst = int(np.argmax(gaps))
    return ForestPotential(potential, parent, len(roots), float(gaps[worst]), worst)


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
    fp = forest_potential(
        sg.chain.n_states, sg.vertices, sg.edge_src, sg.edge_dst,
        f.values[sg.edge_ids],
    )
    if fp.worst_gap <= tolerances.witness:
        return GradientCheck(True, potential=VertexFunction(sg.chain, fp.potential))

    i = int(sg.edge_src[fp.worst_edge])
    j = int(sg.edge_dst[fp.worst_edge])
    path_a = tuple(_forest_path(fp.parent, i, j))
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
    chain = sg.chain
    vals = np.zeros(chain.n_edges)

    def add_path(path, sign):
        for a, b in zip(path, path[1:]):
            if sg.has_pair(int(a), int(b)):
                vals[chain.edge_id_ix(int(a), int(b))] += sign
            else:
                vals[chain.edge_id_ix(int(b), int(a))] -= sign

    add_path(witness.path_a, lam)
    add_path(witness.path_b, -lam)
    return EdgeFunction(chain, vals)


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
