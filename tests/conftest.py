"""Shared random-instance generators.

All randomness flows through explicitly seeded numpy Generators so every
test is deterministic. Divergence-free flows are built from cycle
indicators with dyadic weights (multiples of 1/1024) so that sums,
minima and subtractions stay exact in binary floating point.
"""

import numpy as np
import pytest

from dvrate import ChainSpec, Flow, ProbabilityMeasure, VertexFunction


def random_irreducible_chain(rng, n_min=2, n_max=10):
    """A Hamiltonian cycle (guaranteeing irreducibility) plus random extras."""
    n = int(rng.integers(n_min, n_max + 1))
    states = [f"s{i}" for i in range(n)]
    rates = {}
    perm = rng.permutation(n)
    for i in range(n):
        y, z = int(perm[i]), int(perm[(i + 1) % n])
        rates[(states[y], states[z])] = float(rng.uniform(0.2, 3.0))
    for _ in range(int(rng.integers(0, n * (n - 1) // 2 + 1))):
        y, z = map(int, rng.integers(0, n, size=2))
        if y != z:
            rates[(states[y], states[z])] = float(rng.uniform(0.2, 3.0))
    return ChainSpec(states, rates)


def random_reversible_chain(rng, n_min=2, n_max=8):
    """Random symmetric conductances c on a connected graph and vertex
    weights w; rates r(y,z) = c{y,z}/w(y) satisfy detailed balance with
    stationary measure proportional to w."""
    n = int(rng.integers(n_min, n_max + 1))
    states = [f"s{i}" for i in range(n)]
    cond = {}
    for j in range(1, n):  # random tree keeps the graph connected
        i = int(rng.integers(0, j))
        cond[(i, j)] = float(rng.uniform(0.2, 3.0))
    for _ in range(int(rng.integers(0, n + 1))):
        i, j = sorted(map(int, rng.integers(0, n, size=2)))
        if i != j:
            cond[(i, j)] = float(rng.uniform(0.2, 3.0))
    w = rng.uniform(0.5, 2.0, size=n)
    rates = {}
    for (i, j), c in cond.items():
        rates[(states[i], states[j])] = c / w[i]
        rates[(states[j], states[i])] = c / w[j]
    return ChainSpec(states, rates)


def sparse_chain(rng, n, extra=4, log10_rate_span=None):
    """n states named v0.. with about extra + 1 out-edges each: a random
    Hamiltonian cycle plus `extra` random targets per state (a repeated pair
    keeps its last rate). Rates are U(0.2, 3), or 10^U(-span, span) when
    log10_rate_span is given. Drawn as the benchmark's sparse chains are."""
    perm = rng.permutation(n)
    src = np.concatenate([perm, np.repeat(np.arange(n), extra)])
    dst = np.concatenate([np.roll(perm, -1), rng.integers(0, n, size=n * extra)])
    if log10_rate_span is None:
        rates = rng.uniform(0.2, 3.0, size=src.size)
    else:
        rates = 10.0 ** rng.uniform(-log10_rate_span, log10_rate_span, size=src.size)
    states = [f"v{i}" for i in range(n)]
    return ChainSpec(
        states,
        {
            (states[y], states[z]): r
            for y, z, r in zip(src.tolist(), dst.tolist(), rates.tolist())
            if y != z
        },
    )


def hub_chain(rng, leaves=300):
    """A hub h with an edge to each of `leaves` leaves at rate U(0.2, 3) and
    an edge back at rate 1: one row of high degree among rows of degree 1."""
    names = [f"l{i}" for i in range(leaves)]
    rates = {("h", x): float(r) for x, r in zip(names, rng.uniform(0.2, 3, leaves))}
    rates.update({(x, "h"): 1.0 for x in names})
    return ChainSpec(["h"] + names, rates)


def tenth_zero_measure(rng, chain):
    """Dirichlet draw that vanishes on a random tenth of the states."""
    n = chain.n_states
    v = rng.dirichlet(np.full(n, 2.0))
    v[rng.choice(n, size=n // 10, replace=False)] = 0.0
    return ProbabilityMeasure(chain, v / v.sum())


def random_full_support_measure(rng, chain, floor=0.01):
    """Dirichlet draw mixed with a little uniform so no entry is tiny."""
    v = rng.dirichlet(np.full(chain.n_states, 2.0))
    v = (1.0 - floor) * v + floor / chain.n_states
    return ProbabilityMeasure(chain, v / v.sum())


def random_measure_with_zeros(rng, chain, n_zeros=None):
    """A measure vanishing on a random nonempty proper subset of states."""
    n = chain.n_states
    if n_zeros is None:
        n_zeros = int(rng.integers(1, n))
    dead = rng.choice(n, size=n_zeros, replace=False)
    v = rng.dirichlet(np.full(n, 2.0))
    v[dead] = 0.0
    if v.sum() == 0.0:
        v[(dead[0] + 1) % n] = 1.0
    return ProbabilityMeasure(chain, v / v.sum())


def _random_cycle(rng, chain):
    """Edge ids of one directed cycle found by walking random out-edges."""
    x = int(rng.integers(0, chain.n_states))
    path_v = [x]
    path_e = []
    seen = {x: 0}
    while True:
        lo, hi = chain.row_offsets[x], chain.row_offsets[x + 1]
        e = int(rng.integers(lo, hi))
        path_e.append(e)
        x = int(chain.edge_dst[e])
        if x in seen:
            k = seen[x]
            return path_e[k:]
        seen[x] = len(path_v)
        path_v.append(x)


def random_divergence_free_flow(rng, chain, n_cycles=4):
    """Sum of cycle indicators with dyadic weights; divergence is exactly 0."""
    vals = np.zeros(chain.n_edges)
    for _ in range(n_cycles):
        ids = _random_cycle(rng, chain)
        vals[ids] += int(rng.integers(1, 2048)) / 1024.0
    return Flow(chain, vals)


def random_vertex_function(rng, chain, scale=2.0):
    return VertexFunction(chain, rng.normal(0.0, scale, size=chain.n_states))


@pytest.fixture
def two_state_unit():
    return ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0})


@pytest.fixture
def two_state_12():
    return ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 2.0})


@pytest.fixture
def three_cycle_unit():
    return ChainSpec(
        ["1", "2", "3"], {("1", "2"): 1.0, ("2", "3"): 1.0, ("3", "1"): 1.0}
    )
