"""Finite continuous-time Markov chains and the objects living on them.

States are opaque identifiers mapped to dense indices at construction; all
arithmetic is positional. A chain is stored only as its edges, the ordered
pairs with positive rate, sorted by (src, dst) index so per-source slices
are contiguous. No n x n array is kept or formed, by the stationary solve
either: it works on sparse matrices built from the edge arrays.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ConvergenceError,
    DvrateError,
    OverflowGuardError,
    UnknownStateError,
    ValidationError,
)

# Krylov vectors per restart cycle of the stationary GMRES solve
STATIONARY_RESTART = 30
# restart cycles after which the stationary solve gives up with a
# ConvergenceError; solves that converge take two to four
STATIONARY_MAX_CYCLES = 50
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

    def __init__(
        self,
        chain: ChainSpec,
        values: np.ndarray,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ):
        super().__init__(chain, values)
        total = self.values.sum()
        if abs(total - 1.0) > tolerances.normalization:
            raise ValidationError(
                f"measure sums to {total:.17g}, not 1 within "
                f"{tolerances.normalization:g}"
            )

    @classmethod
    def from_dict(
        cls,
        chain: ChainSpec,
        weights: Mapping,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ) -> "ProbabilityMeasure":
        return cls(chain, cls._gather(chain, weights), tolerances)

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


def tilted_exit_rate(
    chain: ChainSpec, F: EdgeFunction, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> VertexFunction:
    """r^F(y) = sum_z r(y,z) e^{F(y,z)}.

    Rejects |F| above tolerances.exp_guard; e^{+F} is evaluated directly.
    """
    _require_same_chain(chain, F, "edge function")
    weighted = _tilted_rates(chain, F.values, tolerances)
    out = np.bincount(chain.edge_src, weights=weighted, minlength=chain.n_states)
    return VertexFunction(chain, out)


def _tilted_rates(chain: ChainSpec, F: np.ndarray, tolerances: Tolerances):
    """r(y,z) e^{F(y,z)} per edge, the tilted rates of tilted_exit_rate and
    montecarlo.tilted_chain; rejects |F| above tolerances.exp_guard."""
    guard = tolerances.exp_guard
    if np.any(np.abs(F) > guard):
        raise OverflowGuardError(f"|F| exceeds the overflow guard {guard:g}")
    return chain.edge_rates * np.exp(F)


def apply_generator(chain: ChainSpec, f: VertexFunction) -> VertexFunction:
    """Lf(x) = sum_y r(x,y) [f(y) - f(x)]."""
    _require_same_chain(chain, f, "vertex function")
    v = f.values
    jumps = chain.edge_rates * (v[chain.edge_dst] - v[chain.edge_src])
    return VertexFunction(
        chain, np.bincount(chain.edge_src, weights=jumps, minlength=chain.n_states)
    )


def _gmres_cycle(apply_a, apply_m, r: np.ndarray, m: int) -> np.ndarray:
    """One restart cycle of GMRES(m) (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 7, 1986) for A d = r from d = 0, left-preconditioned by M: the d
    in the m-dimensional Krylov space of MA and Mr minimising |M(r - Ad)|.

    The basis is orthogonalised by classical Gram-Schmidt applied twice;
    each pass is two matrix-vector products against the basis.
    """
    m = min(m, len(r))
    basis = np.empty((m + 1, len(r)))
    hess = np.zeros((m + 1, m))
    z = apply_m(r)
    beta = float(np.linalg.norm(z))
    if beta == 0.0:
        return np.zeros(len(r))
    basis[0] = z / beta
    for j in range(m):
        w = apply_m(apply_a(basis[j]))
        before = float(np.linalg.norm(w))
        for _ in range(2):
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            hess[: j + 1, j] += h
        hess[j + 1, j] = np.linalg.norm(w)
        if hess[j + 1, j] <= np.finfo(float).eps * before:
            m = j + 1  # the Krylov space is invariant: the solution lies in it
            break
        basis[j + 1] = w / hess[j + 1, j]
    rhs = np.zeros(m + 1)
    rhs[0] = beta
    coef = np.linalg.lstsq(hess[: m + 1, :m], rhs, rcond=None)[0]
    return coef @ basis[:m]


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


def stationary_distribution(
    chain: ChainSpec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ProbabilityMeasure:
    """Unique invariant measure, by tree-preconditioned GMRES on the jump chain.

    Solves (I - P^T) y = 0 for the jump chain P(y,z) = r(y,z)/r(y), one
    sparse matrix built from the edge arrays, with the balance row of one
    state replaced by the pin y = 1 there; pi is y / r, normalised. The pin
    starts at the last state and moves, after the first restart cycle, to the
    state of largest y: the dropped balance equation then carries no more
    than rounding, even when the last state's mass is tiny.

    The preconditioner keeps the entries of the pinned matrix on a
    maximum-weight spanning tree of P(y,z) + P(z,y) (graphs.spanning_tree_mask)
    and its unit diagonal; it is factored once per pin by splu, with little
    fill on a tree. GMRES(STATIONARY_RESTART) cycles run until the balance
    residual of every state, relative to its throughput pi(z) r(z), reaches
    STATIONARY_RTOL or stops falling; one step of iterative refinement, its
    residual in long double, follows. No n x n array is formed.

    Raises ConvergenceError, with the relative residual, when the cycles hit
    STATIONARY_MAX_CYCLES or stall above tolerances.residual.
    """
    from scipy.sparse import csr_array, identity  # loaded on first use
    from scipy.sparse.linalg import splu

    from .graphs import spanning_tree_mask  # graphs imports this module

    n = chain.n_states
    src, dst = chain.edge_src, chain.edge_dst
    # P^T in CSR: row z holds the edges into z, sorted by source
    by_dst = np.argsort(dst, kind="stable")
    cols = src[by_dst]
    indptr = np.searchsorted(dst[by_dst], np.arange(n + 1))
    p = chain.edge_rates / chain.exit_rates[src]
    jump = p[by_dst]
    on_tree = spanning_tree_mask(n, src, dst, p)[by_dst]

    def pinned(values, pin):
        """P^T with the values given in by_dst order, row pin emptied."""
        values = values.copy()
        values[indptr[pin] : indptr[pin + 1]] = 0.0
        return csr_array((values, cols, indptr), shape=(n, n))

    def pin_at(pin):
        tree = identity(n, format="csc") - pinned(np.where(on_tree, jump, 0.0), pin)
        tree.eliminate_zeros()
        # column diagonally dominant M-matrix: no pivoting needed
        lu = splu(tree.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        return pinned(jump, pin), lu

    def apply_a(v):  # I - P^T, whose pinned row is the identity's
        return v - pt @ v

    pin = n - 1
    pt, lu = pin_at(pin)
    y = np.zeros(n)
    best = np.inf
    for cycle in range(STATIONARY_MAX_CYCLES):
        r = pt @ y - y
        r[pin] += 1.0
        y = y + _gmres_cycle(apply_a, lu.solve, r, STATIONARY_RESTART)
        res = _balance(chain, y)[2]
        if res <= STATIONARY_RTOL:
            break
        if cycle == 0 and (top := int(np.argmax(y))) != pin:  # pin the largest y
            pin = top
            pt, lu = pin_at(pin)
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
    exits = np.add.reduceat(rates, chain.row_offsets[:-1])
    y_ld = y.astype(np.longdouble)
    r = pinned((rates / exits[src])[by_dst], pin) @ y_ld - y_ld
    r[pin] += 1.0
    y = y + _gmres_cycle(apply_a, lu.solve, r.astype(float), STATIONARY_RESTART)

    pi, div, _ = _balance(chain, y)
    if np.any(pi <= 0):
        raise DvrateError("stationary solve produced nonpositive entries")
    pi = ProbabilityMeasure(chain, pi, tolerances)
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
