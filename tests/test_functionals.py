import decimal
import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrate import (
    INFINITY,
    ChainSpec,
    EdgeFunction,
    ExtendedReal,
    Flow,
    NotReversibleError,
    OverflowGuardError,
    ProbabilityMeasure,
    ValidationError,
    VertexFunction,
    divergence,
    dv_objective,
    joint_rate,
    mu_flow,
    perturbed_rate,
    phi,
    phi_edge_sum,
    reversible_optimal_flow,
    reversible_rate,
    stationary_distribution,
)

from conftest import (
    random_divergence_free_flow,
    random_full_support_measure,
    random_irreducible_chain,
    random_reversible_chain,
)
from oracles import joint_rate_ref, phi_ref

positive = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestExtendedReal:
    def test_finite_round_trip(self):
        x = ExtendedReal.finite(0.25)
        assert x.is_finite and float(x) == 0.25
        assert x.jsonable() == {"value": 0.25, "infinite": False}

    def test_infinity_serialization(self):
        assert INFINITY.jsonable() == {"value": "inf", "infinite": True}
        assert not INFINITY.is_finite
        # the jsonable form must survive json round-tripping
        assert json.loads(json.dumps(INFINITY.jsonable()))["infinite"] is True

    def test_ordering_against_floats(self):
        assert ExtendedReal.finite(1.0) < INFINITY
        assert ExtendedReal.finite(2.0) > 1.5

    def test_rejects_negative_finite(self):
        with pytest.raises(ValidationError):
            ExtendedReal.finite(-0.5)


class TestPhi:
    def test_zero_on_diagonal(self):
        for p in (1e-6, 0.5, 1.0, 7.3):
            assert float(phi(p, p)) == 0.0

    def test_zero_flow_gives_p(self):
        assert float(phi(0.0, 0.8)) == 0.8

    def test_both_zero(self):
        assert float(phi(0.0, 0.0)) == 0.0

    def test_infinite_branch(self):
        assert phi(0.3, 0.0).infinite

    def test_known_value(self):
        assert math.isclose(float(phi(2.0, 1.0)), 2 * math.log(2) - 1)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValidationError):
            phi(-1.0, 1.0)
        with pytest.raises(ValidationError):
            phi(1.0, -1.0)

    @given(q=positive, p=positive)
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_and_matches_reference(self, q, p):
        v = float(phi(q, p))
        assert v >= 0.0
        # q log(q/p) - (q-p) cancels catastrophically near q = p at large
        # magnitude; allow rounding slack proportional to the operands
        assert abs(v - phi_ref(q, p)) <= 1e-12 * (1.0 + q + p)

    @given(q=positive, p=positive)
    @example(q=999999986.0, p=999999987.0)
    @settings(max_examples=300, deadline=None)
    def test_triangle_bound(self, q, p):
        # q|log(q/p)| <= phi(q,p) + |q-p|, with equality for q >= p; the
        # left side is taken in 50-digit decimals, since near q = p at large
        # magnitude float log q - log p is off by far more than the slack
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            lhs = float(
                Decimal(q) * abs(Decimal(q).ln() - Decimal(p).ln())
            )
        rhs = float(phi(q, p)) + abs(q - p)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12

    @given(q1=positive, q2=positive, p=positive, lam=st.floats(0.0, 1.0))
    @example(q1=509668447.0, q2=509668430.0, p=508540123.0, lam=0.75)
    @settings(max_examples=200, deadline=None)
    def test_convex_in_flow_argument(self, q1, q2, p, lam):
        # the example sits near q = p at large magnitude, where log q - log p
        # loses the digits the cancelling q log(q/p) - (q-p) needs
        mid = lam * q1 + (1 - lam) * q2
        bound = lam * float(phi(q1, p)) + (1 - lam) * float(phi(q2, p))
        assert float(phi(mid, p)) <= bound + 1e-9 * (1 + abs(bound))


class TestPhiEdgeSum:
    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0.0, 3.0, size=50)
        p = rng.uniform(1e-3, 3.0, size=50)
        q[::7] = 0.0
        expect = sum(phi_ref(float(a), float(b)) for a, b in zip(q, p))
        assert math.isclose(phi_edge_sum(q, p), expect, rel_tol=1e-12)

    def test_infinite_when_flow_escapes_support(self):
        assert phi_edge_sum(np.array([1.0]), np.array([0.0])) == math.inf


class TestJointRate:
    def test_zero_at_typical_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            pi = stationary_distribution(c)
            v = joint_rate(c, pi, mu_flow(c, pi))
            assert v.is_finite and abs(float(v)) < 1e-12

    def test_infinite_off_divergence_free_set(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        q = Flow.from_dict(three_cycle_unit, {("1", "2"): 1.0})
        assert joint_rate(three_cycle_unit, mu, q).infinite

    def test_infinite_when_flow_leaves_support(self, three_cycle_unit):
        # circulation on the cycle but mu vanishes at a source vertex
        mu = ProbabilityMeasure(three_cycle_unit, [0.5, 0.5, 0.0])
        q = Flow(three_cycle_unit, [0.3, 0.3, 0.3])
        assert joint_rate(three_cycle_unit, mu, q).infinite

    def test_matches_naive_reference_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            q = random_divergence_free_flow(rng, c)
            got = joint_rate(c, mu, q)
            ref = joint_rate_ref(c, mu.values, q.values)
            assert math.isclose(float(got), ref, rel_tol=1e-12, abs_tol=1e-12)

    def test_divergence_gate_scales_with_flow_mass(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        # same absolute defect 1e-10: accepted at l1 mass ~2e3 (gate 2e-9),
        # rejected at l1 mass ~0.2 (gate floored at 1e-12)
        big = Flow(two_state_unit, [1e3, 1e3 + 1e-10])
        assert joint_rate(two_state_unit, mu, big).is_finite
        small = Flow(two_state_unit, [1e-1, 1e-1 + 1e-10])
        assert joint_rate(two_state_unit, mu, small).infinite


class TestPerturbedRate:
    def test_zero_perturbation_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            q = random_divergence_free_flow(rng, c)
            v = perturbed_rate(
                c, mu, q, VertexFunction.zero(c), EdgeFunction.zero(c)
            )
            assert abs(v) < 1e-12

    def test_never_exceeds_joint_rate(self):
        # the joint rate is the supremum of the perturbed form
        rng = np.random.default_rng(4)
        for _ in range(25):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            q = random_divergence_free_flow(rng, c)
            target = float(joint_rate(c, mu, q))
            for _ in range(10):
                g = VertexFunction(c, rng.normal(0, 1, c.n_states))
                F = EdgeFunction(c, rng.normal(0, 1, c.n_edges))
                v = perturbed_rate(c, mu, q, g, F)
                assert v <= target + 1e-9 * (1 + abs(target))

    def test_gradient_choice_approaches_joint_rate(self, two_state_unit):
        # F = log(Q/Q^mu) with phi arbitrary recovers the full value
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        q = Flow(two_state_unit, [0.4, 0.4])
        p = mu_flow(two_state_unit, mu).values
        F = EdgeFunction(two_state_unit, np.log(q.values / p))
        g = VertexFunction(two_state_unit, [0.7, -0.2])
        v = perturbed_rate(two_state_unit, mu, q, g, F)
        assert math.isclose(v, float(joint_rate(two_state_unit, mu, q)), rel_tol=1e-12)


class TestDvObjective:
    def test_constant_potential_gives_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            g = VertexFunction(c, np.full(c.n_states, rng.normal()))
            assert abs(dv_objective(c, mu, g)) < 1e-14

    def test_two_state_hand_value(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        g = VertexFunction(two_state_unit, [0.0, -0.5 * math.log(3.0)])
        expect = 0.75 * (1 - 3 ** (-0.5)) + 0.25 * (1 - 3 ** 0.5)
        v = dv_objective(two_state_unit, mu, g)
        assert math.isclose(v, expect, rel_tol=1e-14)
        assert math.isclose(v, 1 - math.sqrt(3) / 2, rel_tol=1e-14)

    def test_at_stationary_measure_never_positive(self):
        # pi is the maximizer of a concave functional whose optimum is 0
        rng = np.random.default_rng(6)
        for _ in range(15):
            c = random_irreducible_chain(rng)
            pi = stationary_distribution(c)
            for _ in range(10):
                g = VertexFunction(c, rng.normal(0, 2, c.n_states))
                assert dv_objective(c, pi, g) <= 1e-12

    def test_overflow_guard_trips_on_positive_exponent(self, two_state_unit):
        # with full support every large potential gap is a positive exponent
        # on one of the two edge orientations, so both signs raise here
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        for v in (2000.0, -2000.0):
            with pytest.raises(OverflowGuardError):
                dv_objective(
                    two_state_unit, mu, VertexFunction(two_state_unit, [0.0, v])
                )

    def test_guard_ignores_edges_outside_support(self, two_state_unit):
        # mu = delta_1: the (2,1) edge has zero typical flow, its huge
        # positive difference must not trip the guard
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        g = VertexFunction(two_state_unit, [0.0, -2000.0])
        v = dv_objective(two_state_unit, mu, g)
        assert math.isclose(v, 1.0, rel_tol=1e-12)


class TestReversibleRate:
    def test_zero_at_stationary(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = random_reversible_chain(rng)
            pi = stationary_distribution(c)
            assert abs(reversible_rate(c, pi)) < 1e-12

    def test_two_state_closed_form(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        v = reversible_rate(two_state_unit, mu)
        assert math.isclose(v, (math.sqrt(0.75) - math.sqrt(0.25)) ** 2, rel_tol=1e-14)
        assert math.isclose(v, 1 - math.sqrt(3) / 2, rel_tol=1e-14)

    def test_general_two_state_at_stationary(self):
        a, b = 1.7, 0.4
        c = ChainSpec(["1", "2"], {("1", "2"): a, ("2", "1"): b})
        mu = ProbabilityMeasure(c, [b / (a + b), a / (a + b)])
        assert abs(reversible_rate(c, mu)) < 1e-14

    def test_rejects_irreversible_chain(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        with pytest.raises(NotReversibleError):
            reversible_rate(three_cycle_unit, mu)
        with pytest.raises(NotReversibleError):
            reversible_optimal_flow(three_cycle_unit, mu)


class TestReversibleOptimalFlow:
    def test_stationary_gives_typical_flow(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = random_reversible_chain(rng)
            pi = stationary_distribution(c)
            q = reversible_optimal_flow(c, pi)
            assert np.allclose(q.values, mu_flow(c, pi).values, atol=1e-12)

    def test_two_state_geometric_mean(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        q = reversible_optimal_flow(two_state_unit, mu)
        assert np.allclose(q.values, math.sqrt(3) / 4)

    def test_vanishing_mass_kills_incident_edges(self):
        c = ChainSpec(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "c"): 1.0, ("c", "b"): 1.0},
        )
        mu = ProbabilityMeasure(c, [0.5, 0.5, 0.0])
        q = reversible_optimal_flow(c, mu)
        for y, z in [("b", "c"), ("c", "b")]:
            assert q.values[c.edge_id(y, z)] == 0.0
        assert math.isfinite(reversible_rate(c, mu))

    def test_flow_is_divergence_free_and_optimal(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            c = random_reversible_chain(rng)
            mu = random_full_support_measure(rng, c)
            q = reversible_optimal_flow(c, mu)
            assert np.abs(divergence(c, q).values).max() < 1e-12
            got = joint_rate(c, mu, q)
            assert math.isclose(float(got), reversible_rate(c, mu), rel_tol=1e-10)
