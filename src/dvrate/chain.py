"""Finite continuous-time Markov chains and the objects living on them.

States are opaque identifiers mapped to dense indices at construction; all
arithmetic is positional. A chain is stored only as its edges, the ordered
pairs with positive rate, sorted by (src, dst) index so per-source slices
are contiguous. No n x n array is kept or formed, by the stationary solve
either: it works on sparse matrices built from the edge arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, EXP_GUARD, NORMALIZATION, Tolerances
from .errors import (
    ConvergenceError,
    DvrateError,
    OverflowGuardError,
    UnknownStateError,
    ValidationError,
)

# Krylov vectors per restart cycle of the stationary GMRES solve; a cycle
# that reaches the balance target earlier stops there
STATIONARY_RESTART = 30
# restart cycles after which the stationary solve gives up with a
# ConvergenceError; solves that converge take one to three, and then the
# refinement's cycle
STATIONARY_MAX_CYCLES = 50
# reduction of the preconditioned residual at which the refinement's cycle
# stops: the error it corrects is already near working precision
STATIONARY_REFINE_RTOL = 1e-3
# balance residual of every state, relative to its throughput pi(z) r(z), at
# which restart cycles stop: a few ulps, the rounding level of the edge sums
STATIONARY_RTOL = 1e-14


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _find_edges(keys: np.ndarray, n: int, i, j) -> np.ndarray:
    """Positions of the index pairs (i, j) among edges whose keys src * n + dst
    ascend, -1 where a pair is no edge: the one (i, j) -> edge lookup."""
    key = np.asarray(i, dtype=np.int64) * n + j
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return np.where(keys[pos] == key, pos, -1)


def _first_unreached(offsets: np.ndarray, targets: np.ndarray) -> int:
    """The smallest state that a depth-first search from state 0 does not
    reach, or -1, where targets[offsets[v]:offsets[v + 1]] are the successors
    of state v. The search keeps its own stack, so a long path needs no
    recursion; it costs O(states + edges)."""
    off, tgt = offsets.tolist(), targets.tolist()
    seen = bytearray(len(off) - 1)
    seen[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w in tgt[off[v] : off[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen.find(0)


def _first_non_pair(keys: Mapping | Sequence):
    """(position, key) of the first key that is not a 2-tuple, or None. All
    pairs cost one C-level pass over the key types and one over their
    lengths; only a bad key is looked for one by one."""
    if {*map(type, keys)} == {tuple} and {*map(len, keys)} == {2}:
        return None
    return next(
        ((i, k) for i, k in enumerate(keys)
         if not (isinstance(k, tuple) and len(k) == 2)),
        None,
    )


def _index_states(states: Sequence):
    states = tuple(states)
    if not states:
        raise ValidationError("chain needs at least one state")
    index = dict(zip(states, range(len(states))))
    if len(index) != len(states):
        raise ValidationError("duplicate state identifiers")
    return states, index


class ChainSpec:
    """An irreducible CTMC: states, positive jump rates, no self-loops.

    Stored only as edge arrays in CSR-like layout: edge_src, edge_dst and
    edge_rates sorted by (src, dst); row_offsets[s] slices the out-edges of
    state s; exit_rates[s] is their total rate; reverse_edge[e] is the id of
    the edge (dst, src) of edge e, or -1 when there is none.
    """

    def __init__(self, states: Sequence, rates: Mapping):
        states, self._index = _index_states(states)
        if not isinstance(rates, Mapping):
            raise ValidationError(
                "rates must be a mapping from (from, to) pairs to rates, "
                f"got {type(rates).__name__}"
            )
        if (bad := _first_non_pair(rates)) is not None:
            raise ValidationError(f"key {bad[1]!r} in rates is not a (from, to) pair")
        flat = tuple(itertools.chain.from_iterable(rates))  # y0, z0, y1, z1, ...
        src, dst = self._state_ixs(flat, " in rates").reshape(-1, 2).T
        vals = np.fromiter(rates.values(), dtype=float, count=len(rates))
        order = np.argsort(src * len(states) + dst)  # sorted by (src, dst)
        self._init_edges(states, self._index, src[order], dst[order], vals[order])

    @classmethod
    def from_matrix(cls, states: Sequence, matrix: np.ndarray) -> "ChainSpec":
        """Build from a dense nonnegative matrix; zeros are non-edges."""
        R = np.asarray(matrix, dtype=float)
        states = tuple(states)
        if R.shape != (len(states), len(states)):
            raise ValidationError("rate matrix shape does not match state count")
        src, dst = np.nonzero(R)  # row-major, so already sorted by (src, dst)
        return cls._from_edges(states, src, dst, R[src, dst])

    @classmethod
    def _from_edges(cls, states, src, dst, rates) -> "ChainSpec":
        """Build from int64 edge arrays sorted by (src, dst)."""
        self = cls.__new__(cls)
        self._init_edges(*_index_states(states), src, dst, rates)
        return self

    def _init_edges(self, states, index, src, dst, rates):
        """Every constructor ends here, with edge arrays sorted by (src, dst).
        The order, self-loop, rate, exit and irreducibility checks live only
        here; an error names the first offending edge in that order."""
        n = len(states)
        keys = src * n + dst
        if len(down := np.flatnonzero(keys[1:] <= keys[:-1])):
            y, z = states[src[down[0] + 1]], states[dst[down[0] + 1]]
            raise ValidationError(f"edge ({y!r}, {z!r}) repeats or is out of order")
        loops = np.flatnonzero(src == dst)
        if len(loops):
            y = states[src[loops[0]]]
            raise ValidationError(f"self-loop at state {y!r} not allowed")
        bad = np.flatnonzero(~(np.isfinite(rates) & (rates > 0)))
        if len(bad):
            e = bad[0]
            y, z, r = states[src[e]], states[dst[e]], float(rates[e])
            raise ValidationError(
                f"rate r({y!r},{z!r}) must be positive and finite, got {r}"
            )
        self.states = states
        self.n_states = n
        self._index = index
        self.edge_src = _frozen(src)
        self.edge_dst = _frozen(dst)
        self.edge_rates = _frozen(rates)
        self.n_edges = len(src)
        self.row_offsets = _frozen(np.searchsorted(src, np.arange(n + 1)))
        self.exit_rates = _frozen(np.bincount(src, weights=rates, minlength=n))

        if np.any(self.exit_rates == 0):
            dead = states[int(np.argmin(self.exit_rates))]
            raise ValidationError(f"state {dead!r} has no outgoing edge")
        if not np.all(np.isfinite(self.exit_rates)):
            big = states[int(np.argmin(np.isfinite(self.exit_rates)))]
            raise ValidationError(f"exit rate of state {big!r} overflows to inf")
        self._edge_keys = _frozen(keys)  # ascending, checked above
        by_rev = np.argsort(dst * n + src)  # sorted by (dst, src): in-edges
        # irreducible: state 0 reaches every state along the edges, and every
        # state reaches state 0, which reaches it along the reversed edges
        first = states[0]
        if (x := _first_unreached(self.row_offsets, dst)) >= 0:
            raise ValidationError(
                f"chain is not irreducible: state {states[x]!r} is not reachable "
                f"from state {first!r}"
            )
        in_offsets = np.searchsorted(dst[by_rev], np.arange(n + 1))
        if (x := _first_unreached(in_offsets, src[by_rev])) >= 0:
            raise ValidationError(
                f"chain is not irreducible: state {first!r} is not reachable "
                f"from state {states[x]!r}"
            )
        # looked up in ascending key order, the searchsorted walks the keys once
        rev = np.empty(self.n_edges, dtype=np.int64)
        rev[by_rev] = _find_edges(self._edge_keys, n, dst[by_rev], src[by_rev])
        self.reverse_edge = _frozen(rev)

    def _state_ixs(self, keys: Sequence, where: str = "") -> np.ndarray:
        """Indices of the state identifiers keys, in one itemgetter call: the
        one identifier -> index lookup. The first unknown one raises."""
        try:  # itemgetter() needs an argument
            ix = itemgetter(*keys)(self._index) if keys else ()
        except KeyError as exc:
            x = exc.args[0]
            raise UnknownStateError(f"unknown state {x!r}{where}", x) from None
        return np.array(ix, dtype=np.int64).reshape(-1)  # one key gives a bare int

    def _edge_ixs(self, pairs: Sequence) -> np.ndarray:
        """Edge ids of the identifier pairs (y, z), looked up at once; the
        first bad pair raises as edge_id would."""
        if (bad := _first_non_pair(pairs)) is not None:
            self._edge_ixs(pairs[: bad[0]])  # unless an earlier pair is bad
            raise ValidationError(f"key {bad[1]!r} is not a (from, to) pair")
        flat = tuple(itertools.chain.from_iterable(pairs))  # y0, z0, y1, z1, ...
        try:
            i, j = self._state_ixs(flat).reshape(-1, 2).T
        except UnknownStateError as exc:  # unless a non-edge comes first
            self._edge_ixs(pairs[: flat.index(exc.state) // 2])
            raise
        e = _find_edges(self._edge_keys, self.n_states, i, j)
        if np.any(e < 0):
            y, z = pairs[int(np.argmax(e < 0))]
            raise ValidationError(f"({y!r}, {z!r}) is not an edge")
        return e

    def state_index(self, x) -> int:
        return int(self._state_ixs((x,))[0])

    def edge_id(self, y, z) -> int:
        """Position of edge (y, z) in the edge arrays; identifiers, not indices."""
        return int(self._edge_ixs(((y, z),))[0])

    def rate(self, y, z) -> float:
        """r(y, z), and 0.0 when (y, z) is not an edge."""
        i, j = self._state_ixs((y, z))
        e = int(_find_edges(self._edge_keys, self.n_states, i, j))
        return float(self.edge_rates[e]) if e >= 0 else 0.0

    def edge_pairs(self) -> Iterable[tuple]:
        """Edges as identifier pairs, in edge-array order."""
        return (
            (self.states[s], self.states[d])
            for s, d in zip(self.edge_src, self.edge_dst)
        )

    def same_as(self, other: "ChainSpec") -> bool:
        return self is other or (
            self.states == other.states
            and np.array_equal(self._edge_keys, other._edge_keys)
            and np.array_equal(self.edge_rates, other.edge_rates)
        )

    def __repr__(self):
        return f"ChainSpec({self.n_states} states, {self.n_edges} edges)"


def _require_same_chain(chain: ChainSpec, obj, what: str):
    if not chain.same_as(obj.chain):
        raise ValidationError(f"{what} belongs to a different chain")


class _ChainValues:
    """Base of the four value types: a finite float per state, or per edge
    when _on_edges, kept as a read-only copy. _what names the type in error
    messages; _nonnegative types hold weights, which must be >= 0. Keys are
    state identifiers, or (from, to) pairs of them on edges."""

    _on_edges = False
    _nonnegative = False

    def __init__(self, chain: ChainSpec, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        count = "edge" if self._on_edges else "state"
        if v.shape != (self._size(chain),):
            raise ValidationError(f"{self._what} length does not match {count} count")
        noun = "weights" if self._nonnegative else "values"
        if not np.all(np.isfinite(v)):
            raise ValidationError(f"{self._what} {noun} must be finite")
        if self._nonnegative and np.any(v < 0):
            raise ValidationError(f"{self._what} {noun} must be nonnegative")
        self.chain = chain
        self.values = _frozen(v.copy())

    @classmethod
    def _size(cls, chain: ChainSpec) -> int:
        return chain.n_edges if cls._on_edges else chain.n_states

    @classmethod
    def _gather(cls, chain: ChainSpec, values: Mapping, default: float = 0.0):
        """The array of a mapping from keys, all looked up at once; missing
        keys get default. The first bad key in mapping order raises, as
        value(*key) would."""
        keys = list(values)
        ix = chain._edge_ixs(keys) if cls._on_edges else chain._state_ixs(keys)
        v = np.full(cls._size(chain), float(default))
        v[ix] = np.fromiter(values.values(), dtype=float, count=len(keys))
        return v

    @classmethod
    def from_dict(cls, chain: ChainSpec, values: Mapping, default: float = 0.0):
        """Keys missing from values get default."""
        return cls(chain, cls._gather(chain, values, default))

    @classmethod
    def zero(cls, chain: ChainSpec):
        return cls(chain, np.zeros(cls._size(chain)))

    def value(self, *key) -> float:
        """value(x) at a state, value(y, z) on an edge."""
        lookup = self.chain.edge_id if self._on_edges else self.chain.state_index
        return float(self.values[lookup(*key)])

    def as_dict(self) -> dict:
        keys = self.chain.edge_pairs() if self._on_edges else self.chain.states
        return {k: float(w) for k, w in zip(keys, self.values)}

    def __repr__(self):
        return f"{type(self).__name__}({self.as_dict()})"


class ProbabilityMeasure(_ChainValues):
    """Nonnegative weights over the chain's states summing to 1."""

    _what = "measure"
    _nonnegative = True

    def __init__(self, chain: ChainSpec, values: np.ndarray):
        super().__init__(chain, values)
        total = self.values.sum()
        if abs(total - 1.0) > NORMALIZATION:
            raise ValidationError(
                f"measure sums to {total:.17g}, not 1 within {NORMALIZATION:g}"
            )

    @classmethod
    def uniform(cls, chain: ChainSpec) -> "ProbabilityMeasure":
        return cls(chain, np.full(chain.n_states, 1.0 / chain.n_states))

    @classmethod
    def point_mass(cls, chain: ChainSpec, x) -> "ProbabilityMeasure":
        return cls.from_dict(chain, {x: 1.0})

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.values > 0)[0]

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.values > 0))


class Flow(_ChainValues):
    """Nonnegative weights on the chain's edges (zero off the edge set)."""

    _what = "flow"
    _on_edges = True
    _nonnegative = True

    @classmethod
    def from_dict(cls, chain: ChainSpec, weights: Mapping) -> "Flow":
        """Keys are (from, to) identifier pairs; missing edges get 0."""
        return cls(chain, cls._gather(chain, weights))

    def as_dict(self) -> dict:
        """Edges of nonzero weight only."""
        return {k: w for k, w in super().as_dict().items() if w != 0.0}

    @property
    def l1_norm(self) -> float:
        return float(self.values.sum())


class VertexFunction(_ChainValues):
    """A finite real value per state."""

    _what = "vertex function"


class EdgeFunction(_ChainValues):
    """A finite real value per edge (signed allowed, unlike Flow)."""

    _what = "edge function"
    _on_edges = True


# ---------------------------------------------------------------------------
# operations


def tilted_exit_rate(chain: ChainSpec, F: EdgeFunction) -> VertexFunction:
    """r^F(y) = sum_z r(y,z) e^{F(y,z)}.

    Rejects |F| above EXP_GUARD; e^{+F} is evaluated directly.
    """
    _require_same_chain(chain, F, "edge function")
    weighted = _tilted_rates(chain, F.values)
    out = np.bincount(chain.edge_src, weights=weighted, minlength=chain.n_states)
    return VertexFunction(chain, out)


def _tilted_rates(chain: ChainSpec, F: np.ndarray):
    """r(y,z) e^{F(y,z)} per edge, the tilted rates of tilted_exit_rate and
    montecarlo.tilted_chain; rejects |F| above EXP_GUARD."""
    if np.any(np.abs(F) > EXP_GUARD):
        raise OverflowGuardError(f"|F| exceeds the overflow guard {EXP_GUARD:g}")
    return chain.edge_rates * np.exp(F)


def apply_generator(chain: ChainSpec, f: VertexFunction) -> VertexFunction:
    """Lf(x) = sum_y r(x,y) [f(y) - f(x)]."""
    _require_same_chain(chain, f, "vertex function")
    v = f.values
    jumps = chain.edge_rates * (v[chain.edge_dst] - v[chain.edge_src])
    return VertexFunction(
        chain, np.bincount(chain.edge_src, weights=jumps, minlength=chain.n_states)
    )


def _gmres_cycle(apply_a, apply_m, r: np.ndarray, m: int, stop) -> np.ndarray:
    """One restart cycle of GMRES(m) (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986) for A d = r from d = 0, left-preconditioned by M: the d_j
    in the j-dimensional Krylov space of MA and Mr minimising |M(r - Ad)|.

    The basis is orthogonalised by classical Gram-Schmidt applied twice;
    each pass is two matrix-vector products against the basis. Givens
    rotations keep the Hessenberg matrix upper triangular, so each step j
    knows rel = |M(r - A d_j)| / |M r| without forming d_j. After it,
    stop(rel, form) may end the cycle, which then returns d_j: form() builds
    d_j, once, by a j x j triangular solve and a product with the basis.
    Otherwise the cycle runs m steps, or until the Krylov space is invariant.
    """
    m = min(m, len(r))
    basis = np.empty((m, len(r)))
    tri = np.zeros((m, m))  # the Hessenberg matrix, rotated
    z = apply_m(r)
    beta = math.sqrt(z @ z)
    if beta == 0.0:
        return np.zeros(len(r))
    basis[0] = z / beta
    g = [beta]  # beta e_1, rotated: |g[j]| is the residual norm after j steps
    rotations = []  # (cos, sin) of each step's rotation
    formed = {}

    def form(j):
        if j not in formed:  # triangular, so LU without pivoting: back substitution
            formed[j] = np.linalg.solve(tri[:j, :j], g[:j]) @ basis[:j]
        return formed[j]

    for j in range(m):
        w = apply_m(apply_a(basis[j]))
        before = math.sqrt(w @ w)
        h = np.zeros(j + 1)
        for _ in range(2):
            dh = basis[: j + 1] @ w
            w -= dh @ basis[: j + 1]
            h += dh
        below = math.sqrt(w @ w)
        col = h.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[j], below)
        c, s = col[j] / diag, below / diag
        rotations.append((c, s))
        col[j] = diag
        tri[: j + 1, j] = col
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        # an invariant Krylov space holds the solution of A d = r
        invariant = below <= np.finfo(float).eps * before
        if invariant or stop(abs(g_next) / beta, partial(form, j + 1)):
            return form(j + 1)
        if j + 1 < m:
            basis[j + 1] = w / below
    return form(m)


def _balance(chain: ChainSpec, y: np.ndarray):
    """pi = y / r normalised, the divergence of its flow pi(y) r(y,z), and the
    largest ratio of a state's divergence to its throughput pi(z) r(z) (NaN
    or inf when some throughput is not positive)."""
    n = chain.n_states
    pi = y / chain.exit_rates
    pi /= pi.sum()
    flow = pi[chain.edge_src] * chain.edge_rates
    out = np.bincount(chain.edge_src, weights=flow, minlength=n)
    div = out - np.bincount(chain.edge_dst, weights=flow, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return pi, div, float(np.max(np.abs(div) / np.abs(out)))


def _spanning_tree_mask(chain: ChainSpec, weights: np.ndarray) -> np.ndarray:
    """Mask of the edges whose unordered pair lies on a maximum-weight
    spanning tree of the chain's undirected graph, in which a pair weighs the
    sum of its edges' positive weights, both directions counted.

    The tree is scipy's minimum spanning tree of the reciprocal weights. It
    is the support of a tree preconditioner (support-graph preconditioning:
    Vaidya 1991; Spielman & Teng, SIAM J. Matrix Anal. Appl. 35 (2014)).
    """
    from scipy.sparse import csr_array  # loaded on first use
    from scipy.sparse.csgraph import minimum_spanning_tree

    n, src, dst, rev = chain.n_states, chain.edge_src, chain.edge_dst, chain.reverse_edge
    # one edge stands for each pair: (y, z) with y < z, or the only direction
    rep = np.flatnonzero((src < dst) | (rev < 0))
    pair = weights[rep] + np.where(rev[rep] >= 0, weights[rev[rep]], 0.0)
    # rep ascends, so its edges are already in CSR order
    indptr = np.searchsorted(src[rep], np.arange(n + 1))
    tree = minimum_spanning_tree(csr_array((1.0 / pair, dst[rep], indptr), shape=(n, n)))
    # the tree keeps its entries where they were given, in ascending order
    e = _find_edges(chain._edge_keys, n, *tree.nonzero())
    mask = np.zeros(chain.n_edges, dtype=bool)
    mask[e] = True
    mask[rev[e][rev[e] >= 0]] = True
    return mask


def stationary_distribution(
    chain: ChainSpec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ProbabilityMeasure:
    """Unique invariant measure, by tree-preconditioned GMRES on the jump chain.

    Solves (I - P^T) y = 0 for the jump chain P(y,z) = r(y,z)/r(y), with
    the balance row of one state replaced by the pin y = 1 there; pi is
    y / r, normalised. P^T in CSC is the edge arrays as stored. The
    pin starts at the last state and moves, after the first restart cycle,
    to the state of largest y: the dropped balance equation then carries no
    more than rounding, even when the last state's mass is tiny.

    The preconditioner keeps the entries of I - P^T on a maximum-weight
    spanning tree of P(y,z) + P(z,y) (_spanning_tree_mask), pinned at
    the last state. splu factors it once per solve, with little fill on a
    tree; when the system's pin moves, the tree keeps its own, which costs a
    few GMRES steps against a second factorization. GMRES(STATIONARY_RESTART)
    cycles run until the balance residual of every state, relative to its
    throughput pi(z) r(z), reaches STATIONARY_RTOL or stops falling. A cycle
    stops at the step that reaches the target: the GMRES estimate, times the
    balance at the cycle's start, proposes the step, and the balance itself
    confirms it. One step of iterative refinement follows, its residual in
    long double, with a cycle that stops at STATIONARY_REFINE_RTOL. No n x n
    array is formed.

    Raises ConvergenceError, with the relative residual, when the cycles hit
    STATIONARY_MAX_CYCLES or stall above tolerances.residual.
    """
    from scipy.sparse import csc_array  # loaded on first use
    from scipy.sparse.linalg import splu

    n = chain.n_states
    src, dst, offsets = chain.edge_src, chain.edge_dst, chain.row_offsets
    p = chain.edge_rates / chain.exit_rates[src]
    pt = csc_array((p, dst, offsets), shape=(n, n))  # column y: the out-edges of y

    # the tree's columns in CSC, each with its unit diagonal inserted in order
    # and the row of the last state emptied
    t = np.flatnonzero(_spanning_tree_mask(chain, p) & (dst != n - 1))
    keys, ix = chain._edge_keys[t], np.arange(n + 1)
    at = np.searchsorted(keys, ix[:-1] * (n + 1))  # the place of key (y, y)
    tree = csc_array(
        (np.insert(-p[t], at, 1.0), np.insert(dst[t], at, ix[:-1]),
         np.searchsorted(keys, ix * n) + ix),
        shape=(n, n),
    )
    # column diagonally dominant M-matrix: no pivoting needed
    lu = splu(tree, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})

    def apply_a(v):  # I - P^T, whose pinned row is the identity's
        av = v - pt @ v
        av[pin] = v[pin]
        return av

    def met(rel, form):  # read during a cycle: y and res are its start's
        nonlocal confirmed
        confirmed = (rel * res <= STATIONARY_RTOL
                     and _balance(chain, y + form())[2] <= STATIONARY_RTOL)
        return confirmed

    pin = n - 1
    y = np.zeros(n)
    res = best = np.inf  # y = 0 has no balance: the first cycle runs in full
    confirmed = False
    for cycle in range(STATIONARY_MAX_CYCLES):
        r = pt @ y - y
        r[pin] = 1.0 - y[pin]
        y = y + _gmres_cycle(apply_a, lu.solve, r, STATIONARY_RESTART, met)
        if confirmed:  # met has checked this y's balance: it is on target
            break
        res = _balance(chain, y)[2]
        if res <= STATIONARY_RTOL:
            break
        if cycle == 0 and (top := int(np.argmax(y))) != pin:  # pin the largest y
            pin = top
            y = y / y[pin]
        if cycle > 0 and not res < 0.5 * best:  # stopped falling: not halved
            if not res <= tolerances.residual:
                raise ConvergenceError(
                    f"stationary solve stalled at relative balance residual {res:.3e}",
                    res,
                )
            break
        best = res
    else:
        raise ConvergenceError(
            f"stationary solve did not converge in {STATIONARY_MAX_CYCLES} restart "
            f"cycles (relative balance residual {res:.3e})",
            res,
        )

    # iterative refinement: the residual in long double, with the jump
    # probabilities divided by exit rates summed in long double
    rates = chain.edge_rates.astype(np.longdouble)
    exits = np.add.reduceat(rates, offsets[:-1])
    y_ld = y.astype(np.longdouble)
    r = csc_array((rates / exits[src], dst, offsets), shape=(n, n)) @ y_ld - y_ld
    r[pin] = 1.0 - y_ld[pin]
    y = y + _gmres_cycle(apply_a, lu.solve, r.astype(float), STATIONARY_RESTART,
                         lambda rel, form: rel <= STATIONARY_REFINE_RTOL)

    pi, div, _ = _balance(chain, y)
    if np.any(pi <= 0):
        raise DvrateError("stationary solve produced nonpositive entries")
    pi = ProbabilityMeasure(chain, pi)
    scale = max(1.0, float(chain.exit_rates.max()))
    residual = np.abs(div).max()
    if residual > tolerances.residual * scale:
        raise DvrateError(
            f"stationary balance residual {residual:.3e} exceeds tolerance"
        )
    return pi


def mu_flow(chain: ChainSpec, mu: ProbabilityMeasure) -> Flow:
    """Q^mu(y,z) = mu(y) r(y,z), the flow induced by occupation mu."""
    _require_same_chain(chain, mu, "measure")
    return Flow(chain, mu.values[chain.edge_src] * chain.edge_rates)


def divergence(chain: ChainSpec, q) -> VertexFunction:
    """Per-state outflow minus inflow. Accepts a Flow or a signed EdgeFunction."""
    _require_same_chain(chain, q, "flow")
    v = q.values
    out = np.bincount(chain.edge_src, weights=v, minlength=chain.n_states)
    inc = np.bincount(chain.edge_dst, weights=v, minlength=chain.n_states)
    return VertexFunction(chain, out - inc)


def is_reversible(
    chain: ChainSpec,
    pi: ProbabilityMeasure,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Detailed balance pi(y) r(y,z) = pi(z) r(z,y) on a symmetric edge set."""
    _require_same_chain(chain, pi, "measure")
    if np.any(chain.reverse_edge < 0):
        return False
    fwd = mu_flow(chain, pi).values
    scale = max(1.0, float(fwd.max(initial=0.0)))
    bwd = fwd[chain.reverse_edge]
    return bool(np.all(np.abs(fwd - bwd) <= tolerances.residual * scale))
