import math

import numpy as np
import pytest

from dvrate import (
    APPROX_LEVELS,
    ChainSpec,
    ConvergenceError,
    Flow,
    PathDependenceError,
    ProbabilityMeasure,
    Tolerances,
    ValidationError,
    VertexFunction,
    build_approximating_sequence,
    construct_class_potential,
    divergence,
    dv_objective,
    dv_sup,
    joint_rate,
    minimize_flow,
    mixed_measure_rate,
    mu_flow,
    reversible_optimal_flow,
    reversible_rate,
    stationary_distribution,
)

from conftest import (
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_reversible_chain,
    random_vertex_function,
)
from oracles import (
    cycles_class_ref,
    fundamental_cycle_basis,
    joint_rate_ref,
    single_cycle_rate,
    two_state_symmetric_rate,
)


class TestMinimizeFlowClosedForms:
    def test_stationary_measure_gives_zero_and_typical_flow(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            pi = stationary_distribution(c)
            res = minimize_flow(c, pi)
            assert abs(res.rate_inf) < 1e-11
            assert np.allclose(
                res.optimal_flow.values, mu_flow(c, pi).values, atol=1e-8
            )
            assert res.attained

    def test_two_state_unit_closed_form(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        res = minimize_flow(two_state_unit, mu)
        assert math.isclose(res.rate_inf, 1 - math.sqrt(3) / 2, abs_tol=1e-12)
        assert np.allclose(res.optimal_flow.values, math.sqrt(3) / 4, atol=1e-12)
        assert res.attained
        assert math.isclose(res.rate_sup, res.rate_inf, abs_tol=1e-12)

    def test_three_cycle_geometric_mean(self, three_cycle_unit):
        mu = ProbabilityMeasure(three_cycle_unit, [0.5, 0.3, 0.2])
        res = minimize_flow(three_cycle_unit, mu)
        expect = 1 - 3 * 0.03 ** (1 / 3)
        qstar = 0.03 ** (1 / 3)
        assert math.isclose(res.rate_inf, expect, abs_tol=1e-12)
        assert np.allclose(res.optimal_flow.values, qstar, atol=1e-12)

    def test_two_state_matches_scan_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            a, b = rng.uniform(0.2, 3.0, size=2)
            c = ChainSpec(["1", "2"], {("1", "2"): a, ("2", "1"): b})
            mu = random_full_support_measure(rng, c)
            ref = two_state_symmetric_rate(c, mu.values)
            assert math.isclose(minimize_flow(c, mu).rate_inf, ref, abs_tol=1e-9)

    def test_directed_cycle_matches_scan_oracle(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 5, 6):
            states = [f"s{i}" for i in range(n)]
            rates = {
                (states[i], states[(i + 1) % n]): float(rng.uniform(0.2, 3.0))
                for i in range(n)
            }
            c = ChainSpec(states, rates)
            mu = random_full_support_measure(rng, c)
            ref = single_cycle_rate(c, mu.values)
            assert math.isclose(minimize_flow(c, mu).rate_inf, ref, abs_tol=1e-9)


class TestSolverInvariants:
    def test_flow_is_circulation_and_joint_rate_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = minimize_flow(c, mu)
            scale = max(1.0, res.optimal_flow.l1_norm)
            assert np.abs(divergence(c, res.optimal_flow).values).max() < 1e-12 * scale
            # I(mu, Q*) computed by the independent functional equals rate_inf
            v = joint_rate(c, mu, res.optimal_flow)
            assert v.is_finite
            assert math.isclose(float(v), res.rate_inf, rel_tol=1e-10, abs_tol=1e-12)

    def test_support_containment_on_degenerate_measures(self):
        # optimal flow vanishes exactly on cross-class and off-support edges
        rng = np.random.default_rng(4)
        for _ in range(25):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            res = minimize_flow(c, mu)
            internal = {
                int(e) for ids in res.partition.internal_edges for e in ids
            }
            for e in range(c.n_edges):
                if e not in internal:
                    assert res.optimal_flow.values[e] == 0.0

    def test_first_order_cycle_condition(self):
        # sum of log(Q*/Q^mu) around every fundamental cycle of every class
        rng = np.random.default_rng(5)
        for _ in range(25):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = minimize_flow(c, mu)
            p = mu_flow(c, mu).values
            ratio = np.zeros(c.n_edges)
            pos = p > 0
            ratio[pos] = np.log(res.optimal_flow.values[pos]) - np.log(p[pos])
            for verts, eids in zip(
                res.partition.classes, res.partition.internal_edges
            ):
                if len(eids) == 0:
                    continue
                for ids, signs in fundamental_cycle_basis(c, verts, eids):
                    assert abs(float(signs @ ratio[ids])) < 1e-8

    def test_potential_reproduces_flow_log_ratios(self):
        # log(Q*(y,z)/Q^mu(y,z)) = g(z) - g(y) on internal edges
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = minimize_flow(c, mu)
            p = mu_flow(c, mu).values
            g = np.sum([gk.values for gk in res.class_potentials], axis=0)
            for verts, eids in zip(
                res.partition.classes, res.partition.internal_edges
            ):
                for e in map(int, eids):
                    lr = math.log(res.optimal_flow.values[e]) - math.log(p[e])
                    dg = g[c.edge_dst[e]] - g[c.edge_src[e]]
                    assert abs(lr - dg) < 1e-8

    def test_duality_gap_on_random_full_support(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = minimize_flow(c, mu)
            assert res.duality_gap <= 1e-6 * max(1.0, res.rate_inf)

    def test_methods_agree(self):
        # Newton against the independent cycle-basis descent of the oracles
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = random_irreducible_chain(rng, n_max=6)
            mu = random_full_support_measure(rng, c)
            newton = minimize_flow(c, mu)
            assert newton.partition.n_classes == 1
            verts = newton.partition.classes[0]
            eids = newton.partition.internal_edges[0]
            q_ref, _ = cycles_class_ref(c, verts, eids, mu_flow(c, mu).values[eids])
            cycles = np.zeros(c.n_edges)
            cycles[eids] = q_ref
            assert math.isclose(
                newton.rate_inf, joint_rate_ref(c, mu.values, cycles),
                rel_tol=1e-8, abs_tol=1e-10,
            )
            assert np.allclose(newton.optimal_flow.values, cycles, atol=1e-6)

    def test_reversible_chains_match_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            c = random_reversible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = minimize_flow(c, mu)
            assert math.isclose(
                res.rate_inf, reversible_rate(c, mu), abs_tol=1e-8
            )
            assert np.allclose(
                res.optimal_flow.values,
                reversible_optimal_flow(c, mu).values,
                atol=1e-8,
            )

    def test_exp_guard_reaches_newton(self, two_state_unit):
        # the optimal potential gap is log(3)/2 = 0.55; a guard below it keeps
        # every Newton iterate short of the optimum
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        tol = Tolerances().with_overrides(exp_guard=0.1)
        with pytest.raises(ConvergenceError):
            minimize_flow(two_state_unit, mu, tol)


class TestDegenerateSupport:
    def test_point_mass_on_two_state(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        res = minimize_flow(two_state_unit, mu)
        assert math.isclose(res.rate_inf, 1.0, abs_tol=1e-12)
        assert not res.attained
        assert res.optimal_flow.l1_norm == 0.0
        # rate_sup certified by the staircase sequence
        assert res.rate_sup <= res.rate_inf + 1e-12
        assert res.rate_sup >= 0.999

    def test_cross_edge_mass_adds_linearly(self, three_cycle_unit):
        mu = ProbabilityMeasure(three_cycle_unit, [0.6, 0.4, 0.0])
        res = minimize_flow(three_cycle_unit, mu)
        # no internal cycles: rate is the full escaping typical flux
        assert math.isclose(res.rate_inf, 0.6 + 0.4, abs_tol=1e-12)
        assert not res.attained

    def test_sup_attained_iff_full_support(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            mu_full = random_full_support_measure(rng, c)
            assert minimize_flow(c, mu_full).attained
            mu_deg = random_measure_with_zeros(rng, c)
            assert not minimize_flow(c, mu_deg).attained


class TestDvSup:
    def test_attained_value_and_maximizer(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        res = dv_sup(two_state_unit, mu)
        assert res.attained
        assert math.isclose(res.value, 1 - math.sqrt(3) / 2, abs_tol=1e-12)
        g = res.maximizer.values
        assert math.isclose(g[1] - g[0], -0.5 * math.log(3.0), abs_tol=1e-10)
        # the reported maximizer actually achieves the value
        assert math.isclose(
            dv_objective(two_state_unit, mu, res.maximizer), res.value,
            rel_tol=1e-12,
        )

    def test_objective_never_exceeds_sup_on_random_potentials(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = dv_sup(c, mu)
            for _ in range(20):
                g = random_vertex_function(rng, c)
                assert dv_objective(c, mu, g) <= res.value + 1e-9

    def test_unattained_certificate(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        res = dv_sup(two_state_unit, mu)
        assert not res.attained
        assert res.maximizer is None
        levels = [n for n, _ in res.certificate]
        values = [v for _, v in res.certificate]
        assert levels == list(APPROX_LEVELS)
        assert values[-1] >= 0.999
        # certificate values approach but never exceed the sup
        for v in values:
            assert v <= res.value + 1e-12
        assert math.isclose(res.value, 1.0, abs_tol=1e-12)


class TestClassPotential:
    def test_uniform_on_cycle_gives_zero(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        qstar = mu_flow(three_cycle_unit, mu)
        g = construct_class_potential(
            three_cycle_unit, mu, qstar, np.arange(3)
        )
        assert np.all(g.values == 0.0)

    def test_two_state_log_ratio(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        qstar = Flow(two_state_unit, [math.sqrt(3) / 4, math.sqrt(3) / 4])
        g = construct_class_potential(two_state_unit, mu, qstar, np.array([0, 1]))
        assert g.values[0] == 0.0
        assert math.isclose(g.values[1], -0.5 * math.log(3.0), abs_tol=1e-12)

    def test_path_dependent_flow_rejected(self):
        # on a two-cycle class, the typical flow of pi is a circulation but
        # fails the cycle log-ratio condition for mu != pi
        c = ChainSpec(
            ["a", "b", "c"],
            {
                ("a", "b"): 1.0, ("b", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
                ("a", "c"): 0.5, ("c", "a"): 0.5,
            },
        )
        pi = stationary_distribution(c)
        mu = ProbabilityMeasure(c, [0.7, 0.2, 0.1])
        qpi = mu_flow(c, pi)
        assert np.abs(divergence(c, qpi).values).max() < 1e-15
        with pytest.raises(PathDependenceError):
            construct_class_potential(c, mu, qpi, np.arange(3))


class TestApproximatingSequence:
    def test_full_support_single_class_is_constant_shift(self):
        rng = np.random.default_rng(12)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        res = minimize_flow(c, mu)
        cond = res.condensation
        n = 1000  # far above any |g| here, so no truncation
        gn = build_approximating_sequence(res.class_potentials, cond, n)
        g = np.sum([gk.values for gk in res.class_potentials], axis=0)
        shift = gn.values - g
        assert np.allclose(shift, shift[0], atol=1e-12)
        assert math.isclose(
            dv_objective(c, mu, gn),
            dv_objective(c, mu, VertexFunction(c, g)),
            rel_tol=1e-10,
        )

    def test_point_mass_sequence_reaches_rate(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        res = minimize_flow(two_state_unit, mu)
        vals = [
            dv_objective(
                two_state_unit, mu,
                res.approximating.build(n),
            )
            for n in APPROX_LEVELS
        ]
        # climbs towards rate_inf = 1: 1 - e^{-n}
        for n, v in zip(APPROX_LEVELS, vals):
            assert math.isclose(v, 1 - math.exp(-n), rel_tol=1e-12)

    def test_objective_nondecreasing_in_level(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            res = minimize_flow(c, mu)
            if res.attained:
                continue
            v1 = dv_objective(c, mu, res.approximating.build(1))
            v10 = dv_objective(c, mu, res.approximating.build(10))
            assert v10 >= v1 - 1e-12

    def test_rejects_bad_level(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        res = minimize_flow(two_state_unit, mu)
        with pytest.raises(ValidationError):
            res.approximating.build(0)
        with pytest.raises(ValidationError):
            res.approximating.build(-3)


class TestMixedMeasureRate:
    def test_small_mixing_weight_vanishes(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        assert mixed_measure_rate(two_state_unit, mu, 1e-6) < 1e-4

    def test_stationary_midpoint_is_zero(self, two_state_unit):
        pi = stationary_distribution(two_state_unit)
        assert abs(mixed_measure_rate(two_state_unit, pi, 0.5)) < 1e-12

    def test_increasing_toward_degenerate_rate(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        vals = [
            mixed_measure_rate(two_state_unit, mu, c) for c in (0.9, 0.99, 0.999)
        ]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_rejects_degenerate_weights(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        for c in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                mixed_measure_rate(two_state_unit, mu, c)
