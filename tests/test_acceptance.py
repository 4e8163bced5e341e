"""End-to-end acceptance suite.

One test per guarantee, each a single pass/fail line under pytest -v:
rate equality on randomized chains, the reversible closed form, the
directed-cycle analytic value, the convex-conjugate route, degenerate
support behavior, the Monte Carlo decay slope, and the structural
identity battery. Tolerances and runtime budgets are asserted inline.
"""

import math
import time

import numpy as np
import pytest

from dvrate import (
    DEFAULT_TOLERANCES,
    ChainSpec,
    HalfSpaceEvent,
    ProbabilityMeasure,
    VertexFunction,
    cycle_decomposition,
    divergence,
    duality_check,
    dv_objective,
    dv_sup,
    estimate_event_probability,
    estimate_ldp_slope,
    Flow,
    gradient,
    joint_rate,
    legendre_phi_star,
    EdgeFunction,
    minimize_flow,
    mixed_measure_rate,
    mu_flow,
    phi,
    reversible_optimal_flow,
    reversible_rate,
    simulate,
    stationary_distribution,
)

from conftest import (
    random_divergence_free_flow,
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_reversible_chain,
    random_vertex_function,
)
from oracles import fundamental_cycle_basis, phi_star_ref


@pytest.fixture(scope="module")
def random_instances():
    rng = np.random.default_rng(91)
    return [
        (c, random_full_support_measure(rng, c))
        for c in (random_irreducible_chain(rng) for _ in range(200))
    ]


def test_rate_equality_on_random_chains(random_instances):
    # flow infimum and potential supremum agree on 200 randomized chains
    start = time.monotonic()
    for c, mu in random_instances:
        res = minimize_flow(c, mu)
        assert res.duality_gap <= 1e-6 * max(1.0, res.rate_inf)
    assert time.monotonic() - start < 60.0


def test_newton_converges_on_random_chains(random_instances):
    # the line search accepts a step whose gain is below the rounding of the
    # dual value when it lowers the divergence residual; without that, Newton
    # crawled to its iteration limit on instance 13 (2 states)
    for c, mu in random_instances:
        res = minimize_flow(c, mu)
        assert res.method == "newton"
        scale = max(1.0, float(mu_flow(c, mu).values.sum()))
        assert res.residuals["gradient_max"] <= (
            DEFAULT_TOLERANCES.solver_gradient * scale
        )
    assert minimize_flow(*random_instances[13]).iterations <= 10


def test_reversible_closed_form():
    rng = np.random.default_rng(92)
    for _ in range(50):
        c = random_reversible_chain(rng)
        mu = random_full_support_measure(rng, c)
        res = minimize_flow(c, mu)
        assert abs(res.rate_inf - reversible_rate(c, mu)) <= 1e-8
        assert np.abs(
            res.optimal_flow.values - reversible_optimal_flow(c, mu).values
        ).max() <= 1e-8
    # the 2-state unit-rate chain: all three routes give 1 - sqrt(3)/2
    c = ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0})
    mu = ProbabilityMeasure(c, [0.75, 0.25])
    expect = 1 - math.sqrt(3) / 2
    assert abs(reversible_rate(c, mu) - expect) <= 1e-8
    assert abs(minimize_flow(c, mu).rate_inf - expect) <= 1e-8
    assert abs(dv_sup(c, mu).value - expect) <= 1e-8


def test_directed_three_cycle_value():
    c = ChainSpec(
        ["1", "2", "3"], {("1", "2"): 1.0, ("2", "3"): 1.0, ("3", "1"): 1.0}
    )
    mu = ProbabilityMeasure(c, [0.5, 0.3, 0.2])
    expect = 1 - 3 * 0.03 ** (1 / 3)
    assert abs(minimize_flow(c, mu).rate_inf - expect) <= 1e-8


def test_convex_conjugate_route(random_instances):
    # independent duality check plus the closed-form edge conjugate
    rng = np.random.default_rng(94)
    for c, mu in random_instances:
        assert duality_check(c, mu).gap <= 1e-6
        f = EdgeFunction(c, rng.uniform(-2.0, 2.0, size=c.n_edges))
        ref = phi_star_ref(c, mu.values, f.values)
        assert math.isclose(
            legendre_phi_star(c, mu, f), ref, rel_tol=1e-6, abs_tol=1e-6
        )


def test_degenerate_support_behavior():
    c = ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0})
    mu = ProbabilityMeasure(c, [1.0, 0.0])
    res = minimize_flow(c, mu)
    assert abs(res.rate_inf - 1.0) <= 1e-12
    assert dv_objective(c, mu, res.approximating.build(40)) >= 0.999
    mixed = [mixed_measure_rate(c, mu, w) for w in (0.9, 0.99, 0.999)]
    assert mixed[0] < mixed[1] < mixed[2] < 1.0
    for w, v in zip((0.9, 0.99, 0.999), mixed):
        # mixture rate of the point mass has the closed form 1 - sqrt(1-w^2)
        assert abs(v - (1 - math.sqrt(1 - w * w))) <= 1e-8


def test_monte_carlo_decay_slope():
    start = time.monotonic()
    c = ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0})
    event = HalfSpaceEvent.occupancy_at_least(c, "1", 0.6)
    rate = 1 - 2 * math.sqrt(0.24)
    est = estimate_ldp_slope(
        c, event, horizons=(50.0, 100.0, 200.0, 400.0),
        samples=100_000, seed=11,
    )
    assert est.slope is not None
    assert abs(est.slope - rate) <= 0.25 * rate

    g = VertexFunction(c, [0.0, -0.5 * math.log(1.5)])
    naive = estimate_event_probability(c, event, 50.0, 100_000, seed=77)
    tilted = estimate_event_probability(
        c, event, 50.0, 100_000, seed=78, tilt=g
    )
    sigma = math.hypot(naive.stderr, tilted.stderr)
    assert abs(naive.p_hat - tilted.p_hat) <= 3 * sigma
    assert time.monotonic() - start < 120.0


def test_structural_invariants():
    start = time.monotonic()
    canonical = [
        ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0}),
        ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 2.0}),
        ChainSpec(
            ["1", "2", "3"], {("1", "2"): 1.0, ("2", "3"): 1.0, ("3", "1"): 1.0}
        ),
    ]

    # pairing of a circulation with a gradient vanishes: 1000 random pairs
    rng = np.random.default_rng(95)
    for _ in range(100):
        c = random_irreducible_chain(rng)
        for _ in range(10):
            q = random_divergence_free_flow(rng, c)
            g = random_vertex_function(rng, c)
            dg = gradient(g).values
            bound = 1e-10 * q.l1_norm * max(np.abs(dg).max(), 1e-300)
            assert abs(float(q.values @ dg)) <= bound

    # per-edge cost dominates the signed log term: 1e5 random positive pairs
    qs = 10.0 ** rng.uniform(-6, 6, size=100_000)
    ps = 10.0 ** rng.uniform(-6, 6, size=100_000)
    for q_val, p_val in zip(qs, ps):
        lhs = q_val * abs(math.log(q_val / p_val))
        rhs = float(phi(q_val, p_val)) + abs(q_val - p_val)
        assert lhs <= rhs + 1e-9 * (1.0 + q_val + p_val)

    # cycle decomposition reconstructs dyadic circulations bit for bit
    for _ in range(100):
        c = random_irreducible_chain(rng)
        q = random_divergence_free_flow(rng, c)
        dec = cycle_decomposition(c, q)
        assert np.array_equal(dec.reconstruct().values, q.values)

    # jump-count divergence telescopes to the path endpoints, exactly
    for k in range(100):
        c = canonical[k % 3]
        t = simulate(c, c.states[0], 15.0, seed=k)
        counts = np.bincount(t.edge_ids, minlength=c.n_edges).astype(float)
        div = divergence(c, Flow(c, counts)).values
        expect = np.zeros(c.n_states)
        expect[t.x0_index] += 1.0
        expect[t.final_index] -= 1.0
        assert np.array_equal(div, expect)

    # the stationary pair costs nothing, for every chain this suite touches
    batch = canonical + [random_irreducible_chain(rng) for _ in range(30)]
    for c in batch:
        pi = stationary_distribution(c)
        assert minimize_flow(c, pi).rate_inf <= 1e-10
        assert float(joint_rate(c, pi, mu_flow(c, pi))) == 0.0

    # optimal flows vanish exactly off the within-class support edges,
    # and the cycle log-ratio optimality residual stays below 1e-8
    for _ in range(40):
        c = random_irreducible_chain(rng)
        mu = (
            random_full_support_measure(rng, c)
            if rng.integers(2)
            else random_measure_with_zeros(rng, c)
        )
        res = minimize_flow(c, mu)
        internal = {int(e) for ids in res.partition.internal_edges for e in ids}
        for e in range(c.n_edges):
            if e not in internal:
                assert res.optimal_flow.values[e] == 0.0
        p = mu_flow(c, mu).values
        ratio = np.zeros(c.n_edges)
        pos = res.optimal_flow.values > 0
        ratio[pos] = np.log(res.optimal_flow.values[pos]) - np.log(p[pos])
        for verts, eids in zip(res.partition.classes, res.partition.internal_edges):
            if len(eids):
                for ids, signs in fundamental_cycle_basis(c, verts, eids):
                    assert abs(float(signs @ ratio[ids])) <= 1e-8

    assert time.monotonic() - start < 10.0
