"""Finite continuous-time Markov chains and the objects living on them.

States are opaque identifiers mapped to dense indices at construction; all
arithmetic is positional. Edges are the ordered pairs with positive rate,
stored sorted by (src, dst) index so per-source slices are contiguous.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DvrateError,
    OverflowGuardError,
    SizeError,
    UnknownStateError,
    ValidationError,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ChainSpec:
    """An irreducible CTMC: states, positive jump rates, no self-loops.

    Exposes the rate matrix densely plus an edge list in CSR-like layout
    (edge_src, edge_dst, edge_rates sorted by source; row_offsets[s] slices
    the out-edges of state s).
    """

    def __init__(
        self,
        states: Sequence,
        rates: Mapping,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ):
        states = tuple(states)
        if not states:
            raise ValidationError("chain needs at least one state")
        if len(set(states)) != len(states):
            raise ValidationError("duplicate state identifiers")
        if len(states) > tolerances.max_states:
            raise SizeError(
                f"{len(states)} states exceeds the cap of {tolerances.max_states} "
                "set by the dense rate matrix and stationary solve"
            )
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        R = np.zeros((n, n))
        for (y, z), r in rates.items():
            if y not in index or z not in index:
                missing = y if y not in index else z
                raise UnknownStateError(f"unknown state {missing!r} in rates")
            if y == z:
                raise ValidationError(f"self-loop at state {y!r} not allowed")
            r = float(r)
            if not np.isfinite(r) or r <= 0.0:
                raise ValidationError(
                    f"rate r({y!r},{z!r}) must be positive and finite, got {r}"
                )
            R[index[y], index[z]] = r
        self._init_from_matrix(states, index, R)

    @classmethod
    def from_matrix(
        cls,
        states: Sequence,
        rate_matrix: np.ndarray,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ) -> "ChainSpec":
        """Build from a dense nonnegative matrix; zeros are non-edges."""
        R = np.asarray(rate_matrix, dtype=float)
        states = tuple(states)
        if R.shape != (len(states), len(states)):
            raise ValidationError("rate matrix shape does not match state count")
        if not np.all(np.isfinite(R)) or np.any(R < 0):
            raise ValidationError("rates must be finite and nonnegative")
        if np.any(np.diag(R) != 0):
            raise ValidationError("self-loops not allowed (nonzero diagonal)")
        rates = {
            (states[i], states[j]): R[i, j]
            for i, j in zip(*np.nonzero(R))
        }
        return cls(states, rates, tolerances)

    def _init_from_matrix(self, states, index, R):
        n = len(states)
        self.states = states
        self.n_states = n
        self._index = index
        self.rate_matrix = _frozen(R)

        src, dst = np.nonzero(R)
        order = np.lexsort((dst, src))  # sorted by (src, dst)
        self.edge_src = _frozen(src[order].astype(np.int64))
        self.edge_dst = _frozen(dst[order].astype(np.int64))
        self.edge_rates = _frozen(R[self.edge_src, self.edge_dst])
        self.n_edges = len(self.edge_src)
        self._edge_index = {
            (int(s), int(d)): e
            for e, (s, d) in enumerate(zip(self.edge_src, self.edge_dst))
        }
        self.row_offsets = _frozen(
            np.searchsorted(self.edge_src, np.arange(n + 1))
        )
        self.exit_rates = _frozen(R.sum(axis=1))

        if np.any(self.exit_rates == 0):
            dead = states[int(np.argmin(self.exit_rates))]
            raise ValidationError(f"state {dead!r} has no outgoing edge")
        adj = csr_matrix(
            (np.ones(self.n_edges), (self.edge_src, self.edge_dst)), shape=(n, n)
        )
        n_comp, _ = connected_components(adj, directed=True, connection="strong")
        if n_comp != 1:
            raise ValidationError(
                f"chain is not irreducible: {n_comp} strongly connected components"
            )

    def state_index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownStateError(f"unknown state {x!r}") from None

    def edge_id(self, y, z) -> int:
        """Position of edge (y, z) in the edge arrays; identifiers, not indices."""
        key = (self.state_index(y), self.state_index(z))
        try:
            return self._edge_index[key]
        except KeyError:
            raise ValidationError(f"({y!r}, {z!r}) is not an edge") from None

    def has_edge_ix(self, i: int, j: int) -> bool:
        return (i, j) in self._edge_index

    def edge_id_ix(self, i: int, j: int) -> int:
        return self._edge_index[(i, j)]

    def rate(self, y, z) -> float:
        return float(self.rate_matrix[self.state_index(y), self.state_index(z)])

    def edge_pairs(self) -> Iterable[tuple]:
        """Edges as identifier pairs, in edge-array order."""
        return (
            (self.states[s], self.states[d])
            for s, d in zip(self.edge_src, self.edge_dst)
        )

    def same_as(self, other: "ChainSpec") -> bool:
        return self is other or (
            self.states == other.states
            and np.array_equal(self.rate_matrix, other.rate_matrix)
        )

    def __repr__(self):
        return f"ChainSpec({self.n_states} states, {self.n_edges} edges)"


def _require_same_chain(chain: ChainSpec, obj, what: str):
    if not chain.same_as(obj.chain):
        raise ValidationError(f"{what} belongs to a different chain")


class ProbabilityMeasure:
    """Nonnegative weights over the chain's states summing to 1."""

    def __init__(
        self,
        chain: ChainSpec,
        values: np.ndarray,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ):
        v = np.asarray(values, dtype=float)
        if v.shape != (chain.n_states,):
            raise ValidationError("measure length does not match state count")
        if not np.all(np.isfinite(v)):
            raise ValidationError("measure weights must be finite")
        if np.any(v < 0):
            raise ValidationError("measure weights must be nonnegative")
        if abs(v.sum() - 1.0) > tolerances.normalization:
            raise ValidationError(
                f"measure sums to {v.sum():.17g}, not 1 within "
                f"{tolerances.normalization:g}"
            )
        self.chain = chain
        self.values = _frozen(v.copy())

    @classmethod
    def from_dict(
        cls,
        chain: ChainSpec,
        weights: Mapping,
        tolerances: Tolerances = DEFAULT_TOLERANCES,
    ) -> "ProbabilityMeasure":
        v = np.zeros(chain.n_states)
        for x, w in weights.items():
            v[chain.state_index(x)] = float(w)
        return cls(chain, v, tolerances)

    @classmethod
    def uniform(cls, chain: ChainSpec) -> "ProbabilityMeasure":
        return cls(chain, np.full(chain.n_states, 1.0 / chain.n_states))

    @classmethod
    def point_mass(cls, chain: ChainSpec, x) -> "ProbabilityMeasure":
        v = np.zeros(chain.n_states)
        v[chain.state_index(x)] = 1.0
        return cls(chain, v)

    def value(self, x) -> float:
        return float(self.values[self.chain.state_index(x)])

    def as_dict(self) -> dict:
        return {s: float(w) for s, w in zip(self.chain.states, self.values)}

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.values > 0)[0]

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.values > 0))

    def __repr__(self):
        return f"ProbabilityMeasure({self.as_dict()})"


class Flow:
    """Nonnegative weights on the chain's edges (zero off the edge set)."""

    def __init__(self, chain: ChainSpec, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.shape != (chain.n_edges,):
            raise ValidationError("flow length does not match edge count")
        if not np.all(np.isfinite(v)):
            raise ValidationError("flow weights must be finite")
        if np.any(v < 0):
            raise ValidationError("flow weights must be nonnegative")
        self.chain = chain
        self.values = _frozen(v.copy())

    @classmethod
    def from_dict(cls, chain: ChainSpec, weights: Mapping) -> "Flow":
        """Keys are (from, to) identifier pairs; missing edges get 0."""
        v = np.zeros(chain.n_edges)
        for (y, z), w in weights.items():
            v[chain.edge_id(y, z)] = float(w)
        return cls(chain, v)

    @classmethod
    def zero(cls, chain: ChainSpec) -> "Flow":
        return cls(chain, np.zeros(chain.n_edges))

    def as_dict(self) -> dict:
        return {
            (self.chain.states[s], self.chain.states[d]): float(w)
            for s, d, w in zip(self.chain.edge_src, self.chain.edge_dst, self.values)
            if w != 0.0
        }

    @property
    def l1_norm(self) -> float:
        return float(self.values.sum())

    def __repr__(self):
        return f"Flow({self.as_dict()})"


class VertexFunction:
    """A finite real value per state."""

    def __init__(self, chain: ChainSpec, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.shape != (chain.n_states,):
            raise ValidationError("vertex function length does not match state count")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vertex function values must be finite")
        self.chain = chain
        self.values = _frozen(v.copy())

    @classmethod
    def from_dict(cls, chain: ChainSpec, values: Mapping, default: float = 0.0):
        v = np.full(chain.n_states, float(default))
        for x, w in values.items():
            v[chain.state_index(x)] = float(w)
        return cls(chain, v)

    @classmethod
    def zero(cls, chain: ChainSpec) -> "VertexFunction":
        return cls(chain, np.zeros(chain.n_states))

    def value(self, x) -> float:
        return float(self.values[self.chain.state_index(x)])

    def as_dict(self) -> dict:
        return {s: float(w) for s, w in zip(self.chain.states, self.values)}

    def __repr__(self):
        return f"VertexFunction({self.as_dict()})"


class EdgeFunction:
    """A finite real value per edge (signed allowed, unlike Flow)."""

    def __init__(self, chain: ChainSpec, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.shape != (chain.n_edges,):
            raise ValidationError("edge function length does not match edge count")
        if not np.all(np.isfinite(v)):
            raise ValidationError("edge function values must be finite")
        self.chain = chain
        self.values = _frozen(v.copy())

    @classmethod
    def from_dict(cls, chain: ChainSpec, values: Mapping, default: float = 0.0):
        v = np.full(chain.n_edges, float(default))
        for (y, z), w in values.items():
            v[chain.edge_id(y, z)] = float(w)
        return cls(chain, v)

    @classmethod
    def zero(cls, chain: ChainSpec) -> "EdgeFunction":
        return cls(chain, np.zeros(chain.n_edges))

    def value(self, y, z) -> float:
        return float(self.values[self.chain.edge_id(y, z)])

    def __repr__(self):
        vals = {
            (self.chain.states[s], self.chain.states[d]): float(w)
            for s, d, w in zip(self.chain.edge_src, self.chain.edge_dst, self.values)
        }
        return f"EdgeFunction({vals})"


# ---------------------------------------------------------------------------
# operations


def total_exit_rate(chain: ChainSpec, x) -> float:
    """r(x) = sum of rates out of x."""
    return float(chain.exit_rates[chain.state_index(x)])


def tilted_exit_rate(
    chain: ChainSpec, F: EdgeFunction, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> VertexFunction:
    """r^F(y) = sum_z r(y,z) e^{F(y,z)}.

    Rejects |F| above tolerances.exp_guard; e^{+F} is evaluated directly.
    """
    _require_same_chain(chain, F, "edge function")
    guard = tolerances.exp_guard
    if np.any(np.abs(F.values) > guard):
        raise OverflowGuardError(f"|F| exceeds the overflow guard {guard:g}")
    weighted = chain.edge_rates * np.exp(F.values)
    out = np.bincount(chain.edge_src, weights=weighted, minlength=chain.n_states)
    return VertexFunction(chain, out)


def apply_generator(chain: ChainSpec, f: VertexFunction) -> VertexFunction:
    """Lf(x) = sum_y r(x,y) [f(y) - f(x)]."""
    _require_same_chain(chain, f, "vertex function")
    v = chain.rate_matrix @ f.values - chain.exit_rates * f.values
    return VertexFunction(chain, v)


def stationary_distribution(
    chain: ChainSpec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ProbabilityMeasure:
    """Unique invariant measure, by a dense solve of pi^T L = 0 with sum pi = 1."""
    n = chain.n_states
    G = chain.rate_matrix - np.diag(chain.exit_rates)
    M = G.T.copy()
    M[-1, :] = 1.0  # replace one balance equation by the normalization
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise DvrateError(
            "singular stationary system for an irreducible chain"
        ) from exc
    if np.any(pi <= 0):
        raise DvrateError("stationary solve produced nonpositive entries")
    pi = pi / pi.sum()
    scale = max(1.0, float(chain.exit_rates.max()))
    residual = np.abs(pi * chain.exit_rates - chain.rate_matrix.T @ pi)
    if residual.max() > tolerances.residual * scale:
        raise DvrateError(
            f"stationary balance residual {residual.max():.3e} exceeds tolerance"
        )
    return ProbabilityMeasure(chain, pi, tolerances)


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
    rev_ok = all(
        chain.has_edge_ix(int(d), int(s))
        for s, d in zip(chain.edge_src, chain.edge_dst)
    )
    if not rev_ok:
        return False
    fwd = pi.values[chain.edge_src] * chain.edge_rates
    rev_rates = chain.rate_matrix[chain.edge_dst, chain.edge_src]
    bwd = pi.values[chain.edge_dst] * rev_rates
    scale = max(1.0, float(fwd.max(initial=0.0)))
    return bool(np.all(np.abs(fwd - bwd) <= tolerances.residual * scale))
