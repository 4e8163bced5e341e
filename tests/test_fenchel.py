import math

import numpy as np
import pytest

from dvrate import (
    APPROX_LEVELS,
    EdgeFunction,
    OverflowGuardError,
    ProbabilityMeasure,
    ValidationError,
    duality_check,
    dv_objective,
    gradient,
    is_gradient,
    legendre_phi_star,
    minimize_flow,
    mu_flow,
    stationary_distribution,
    support_graph,
)

from conftest import (
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_vertex_function,
    rates_large_problems,
)
from oracles import phi_star_ref


class TestPhiStar:
    def test_zero_function_gives_zero(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        f = EdgeFunction(two_state_unit, np.zeros(two_state_unit.n_edges))
        assert legendre_phi_star(two_state_unit, mu, f) == 0.0

    def test_log_two_gives_typical_flow_mass(self):
        rng = np.random.default_rng(20)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        f = EdgeFunction(c, np.full(c.n_edges, math.log(2.0)))
        total = float(mu_flow(c, mu).values.sum())
        assert math.isclose(legendre_phi_star(c, mu, f), total, rel_tol=1e-12)

    def test_large_negative_saturates_at_minus_flow_mass(self):
        rng = np.random.default_rng(21)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        f = EdgeFunction(c, np.full(c.n_edges, -1e4))
        total = float(mu_flow(c, mu).values.sum())
        assert legendre_phi_star(c, mu, f) == -total

    def test_matches_per_edge_scan_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            c = random_irreducible_chain(rng, n_max=6)
            mu = random_full_support_measure(rng, c)
            f = EdgeFunction(c, rng.uniform(-2.0, 2.0, size=c.n_edges))
            ref = phi_star_ref(c, mu.values, f.values)
            assert math.isclose(
                legendre_phi_star(c, mu, f), ref, rel_tol=1e-6, abs_tol=1e-6
            )

    def test_guard_on_support_edges_only(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        hot = EdgeFunction(two_state_unit, [701.0, 0.0])
        with pytest.raises(OverflowGuardError):
            legendre_phi_star(two_state_unit, mu, hot)
        # same magnitude on the edge without typical flow is ignored
        cold = EdgeFunction(two_state_unit, [0.0, 701.0])
        assert legendre_phi_star(two_state_unit, mu, cold) == 0.0

    def test_rejects_foreign_chain(self, two_state_unit, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        f = EdgeFunction(three_cycle_unit, np.zeros(3))
        with pytest.raises(ValidationError):
            legendre_phi_star(two_state_unit, mu, f)


class TestPsiStar:
    # psi*(f), the conjugate of the divergence-free indicator, is 0.0 when f
    # is a gradient on the support graph and math.inf otherwise: is_gradient
    # decides which
    def test_gradients_map_to_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            sg = support_graph(c, mu)
            g = random_vertex_function(rng, c)
            assert is_gradient(sg, gradient(g)).is_gradient

    def test_cycle_of_ones_is_infinite(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        sg = support_graph(three_cycle_unit, mu)
        f = EdgeFunction(three_cycle_unit, np.ones(3))
        assert not is_gradient(sg, f).is_gradient

    def test_verdicts_are_plain_bools(self, three_cycle_unit):
        sg = support_graph(three_cycle_unit, ProbabilityMeasure.uniform(three_cycle_unit))
        verdicts = [is_gradient(sg, EdgeFunction(three_cycle_unit, f)).is_gradient
                    for f in ([0.0] * 3, [1.0] * 3)]
        assert verdicts == [True, False] and [type(v) for v in verdicts] == [bool] * 2

    def test_antisymmetric_two_cycle_is_gradient(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        sg = support_graph(two_state_unit, mu)
        f = EdgeFunction(two_state_unit, [1.0, -1.0])
        assert is_gradient(sg, f).is_gradient


class TestDualityCheck:
    def test_stationary_measure(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            pi = stationary_distribution(c)
            res = duality_check(c, pi)
            assert res.gap <= 1e-9
            assert abs(res.rate_inf) < 1e-11
            assert res.attained
            assert [label for label, _ in res.candidates] == ["maximizer"]

    def test_two_state_closed_form(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        res = duality_check(two_state_unit, mu)
        assert math.isclose(res.rate_inf, 1 - math.sqrt(3) / 2, abs_tol=1e-8)
        assert math.isclose(res.rate_sup, res.rate_inf, abs_tol=1e-8)
        assert res.gap <= 1e-8

    def test_random_full_support_gap(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            res = duality_check(c, mu)
            assert res.gap <= 1e-6 * max(1.0, res.rate_inf)

    def test_degenerate_support_staircase_candidates(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        res = duality_check(two_state_unit, mu)
        assert not res.attained
        labels = [label for label, _ in res.candidates]
        assert labels == ["g^(10)", "g^(20)", "g^(40)"]
        for (_, v), n in zip(res.candidates, (10, 20, 40)):
            assert math.isclose(v, 1 - math.exp(-n), rel_tol=1e-12)
        assert math.isclose(res.rate_inf, 1.0, abs_tol=1e-12)
        assert res.gap <= 1e-9

    def test_degenerate_random_measures(self):
        rng = np.random.default_rng(26)
        for _ in range(15):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            res = duality_check(c, mu)
            assert not res.attained
            # every staircase candidate is a feasible lower bound
            for _, v in res.candidates:
                assert v <= res.rate_inf + 1e-9

    def test_weak_duality_over_random_gradients(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            inf_val = minimize_flow(c, mu).rate_inf
            sg = support_graph(c, mu)
            for _ in range(20):
                g = random_vertex_function(rng, c)
                f = gradient(g)
                assert is_gradient(sg, f).is_gradient  # psi*(f) = 0
                assert -legendre_phi_star(c, mu, f) <= inf_val + 1e-9

    def test_negative_phi_star_equals_dv_objective(self):
        rng = np.random.default_rng(28)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        for _ in range(20):
            g = random_vertex_function(rng, c)
            assert -legendre_phi_star(c, mu, gradient(g)) == dv_objective(c, mu, g)
        # a measure with zeros, on its staircase candidates g^(n), whose
        # exponents run to large negative values off the support
        mu = random_measure_with_zeros(rng, c)
        res = minimize_flow(c, mu)
        assert not res.attained
        for n in APPROX_LEVELS:
            g = res.approximating.build(n)
            assert -legendre_phi_star(c, mu, gradient(g)) == dv_objective(c, mu, g)


def assert_reads_contraction(c, mu):
    """duality_check reports minimize_flow's own sup side: the same numbers
    under ==, labelled by the maximizer or by the staircase level."""
    res = duality_check(c, mu)
    ref = minimize_flow(c, mu)
    assert res.rate_inf == ref.rate_inf
    assert res.rate_sup == ref.rate_sup
    assert res.gap == ref.duality_gap
    assert res.attained == ref.attained
    if ref.attained:
        assert res.candidates == (("maximizer", ref.rate_sup),)
    else:
        assert res.candidates == tuple(
            (f"g^({n})", v) for n, v in ref.certificate
        )
        assert [label for label, _ in res.candidates] == [
            f"g^({n})" for n in APPROX_LEVELS
        ]


class TestDualityContract:
    def test_random_measures(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            assert_reads_contraction(c, random_full_support_measure(rng, c))
            assert_reads_contraction(c, random_measure_with_zeros(rng, c))

    def test_rates_large_problems(self):
        for c, full, degenerate in rates_large_problems(1):
            assert_reads_contraction(c, full)
            assert_reads_contraction(c, degenerate)

    def test_candidate_values_are_negative_phi_star(self):
        # the reported values are -phi*(grad g) at the candidate potentials
        rng = np.random.default_rng(30)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        res = duality_check(c, mu)
        ((_, v),) = res.candidates
        grad = gradient(res.contraction.maximizer)
        assert v == -legendre_phi_star(c, mu, grad)
        mu = random_measure_with_zeros(rng, c)
        res = duality_check(c, mu)
        seq = res.contraction.approximating
        for (_, v), n in zip(res.candidates, APPROX_LEVELS):
            assert v == -legendre_phi_star(c, mu, gradient(seq.build(n)))
