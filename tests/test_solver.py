import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dvrate import (
    APPROX_LEVELS,
    ApproximatingSequence,
    ChainSpec,
    ConvergenceError,
    ProbabilityMeasure,
    Tolerances,
    ValidationError,
    VertexFunction,
    divergence,
    duality_check,
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
from dvrate import solver
from dvrate.solver import CG_RTOL, _reduced_laplacian_cg

from conftest import (
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_reversible_chain,
    random_vertex_function,
    sparse_chain,
    stiff_problem,
    tenth_zero_measure,
)
from oracles import (
    approximating_ref,
    cycles_class_ref,
    fundamental_cycle_basis,
    joint_rate_ref,
    reduced_laplacian_ref,
    reduced_laplacian_solve_ref,
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
            assert math.isfinite(v)
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
            g = res.potential.values
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

    def test_exp_guard_reaches_newton(self, two_state_unit, monkeypatch):
        # the optimal potential gap is log(3)/2 = 0.55; a guard below it keeps
        # every Newton iterate short of the optimum
        mu = ProbabilityMeasure(two_state_unit, [0.75, 0.25])
        monkeypatch.setattr(solver, "EXP_GUARD", 0.1)
        with pytest.raises(ConvergenceError):
            minimize_flow(two_state_unit, mu)

    def test_max_iter_is_honoured(self):
        # five Newton iterations by default; a cap of one stops at the first
        c = ChainSpec(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 0.5, ("b", "a"): 1.0},
        )
        mu = ProbabilityMeasure(c, [0.6, 0.3, 0.1])
        assert minimize_flow(c, mu).iterations == 5
        tol = replace(Tolerances(), solver_max_iter=1)
        with pytest.raises(ConvergenceError, match="after 1 Newton iterations") as exc:
            minimize_flow(c, mu, tol)
        assert math.isclose(exc.value.residual, 0.15371556944658, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "field, value",
        [
            (f, v)
            for f in ("solver_gradient", "duality_rel", "residual")
            for v in (0.0, -1.0, math.nan, math.inf, -math.inf, True, "1e-10")
        ]
        + [
            ("solver_max_iter", v)
            for v in (0, -3, 2.5, 1.0, math.nan, True, "5")
        ],
    )
    def test_tolerances_reject_out_of_range(self, field, value):
        with pytest.raises(ValidationError, match=field):
            replace(Tolerances(), **{field: value})
        with pytest.raises(ValidationError, match=field):
            Tolerances(**{field: value})

    def test_tolerances_accept_small_positive_values(self):
        tol = replace(
            Tolerances(), residual=1e-30, solver_max_iter=1, solver_gradient=5e-324,
        )
        assert tol.solver_max_iter == 1 and tol.residual == 1e-30
        assert Tolerances(solver_max_iter=np.int64(7)).solver_max_iter == 7


class TestSparseNewton:
    """Every class, whatever its size, takes conjugate-gradient Newton steps.
    The goldens were computed when every class was solved by dense LU."""

    # (seed, measure) -> (rate_inf, rate_sup, Newton iterations)
    PARITY = {
        (2000, "full"): (1.5474211056698521, 1.5474211056698521, 6),
        (2000, "tenth"): (2.327984335720058, 2.327984335720058, 8),
        (2001, "full"): (1.5349297394774033, 1.5349297394774035, 7),
        (2001, "tenth"): (2.36326439978426, 2.36326439978426, 8),
    }
    # CG iterations of the four PARITY solves when every Newton step was
    # solved to CG_RTOL
    PARITY_TIGHT_CG = 1057
    # n -> (rate_inf, rate_sup, Newton iterations); the n = 1000 rate_inf is
    # the infimum with every vertex balanced to rounding, 3.8e-14 relative
    # from the rate_sup golden, not a dense LU value: the dense-era value sat
    # 2.0e-11 below the infimum
    STIFF = {
        50: (686.7901691722751, 686.7901691722751, 18),
        1000: (3056.244143114614, 3056.244143114497, 24),
    }

    @staticmethod
    def _check_against(res, mu, golden):
        rate_inf, rate_sup, iterations = golden
        assert math.isclose(res.rate_inf, rate_inf, rel_tol=1e-12)
        assert math.isclose(res.rate_sup, rate_sup, rel_tol=1e-12)
        assert res.iterations == iterations
        scale = max(1.0, float(mu_flow(mu.chain, mu).values.sum()))
        div = divergence(mu.chain, res.optimal_flow).values
        assert np.abs(div).max() <= Tolerances().solver_gradient * scale

    @pytest.mark.parametrize("seed", [2000, 2001])
    def test_2000_state_chains_match_dense_goldens(self, seed):
        rng = np.random.default_rng(seed)
        c = sparse_chain(rng, 2000)
        measures = {
            "full": random_full_support_measure(rng, c),
            "tenth": tenth_zero_measure(rng, c),
        }
        for kind, mu in measures.items():
            res = minimize_flow(c, mu)
            assert res.attained == (kind == "full")
            self._check_against(res, mu, self.PARITY[seed, kind])

    def test_inexact_steps_halve_the_cg_work(self):
        # loop steps solved only to the forcing term take no more than 45 %
        # of the CG iterations of tight steps
        cg = 0
        for seed in (2000, 2001):
            rng = np.random.default_rng(seed)
            c = sparse_chain(rng, 2000)
            for kind, mu in (("full", random_full_support_measure(rng, c)),
                             ("tenth", tenth_zero_measure(rng, c))):
                res = minimize_flow(c, mu)
                assert res.iterations == self.PARITY[seed, kind][2]
                assert dv_sup(c, mu).cg_iterations == res.cg_iterations > 0
                cg += res.cg_iterations
        assert cg <= 0.45 * self.PARITY_TIGHT_CG

    @pytest.mark.parametrize("n", [50, 1000])
    def test_stiff_chain_matches_golden(self, n):
        c, mu = stiff_problem(n)
        res = minimize_flow(c, mu)
        assert res.method == "newton"
        assert res.duality_gap <= Tolerances().duality_rel * max(1.0, res.rate_inf)
        self._check_against(res, mu, self.STIFF[n])

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_stiff_infimum_is_polished_to_the_supremum(self, n):
        res = minimize_flow(*stiff_problem(n))
        assert math.isclose(res.rate_inf, res.rate_sup, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_stiff_solve_takes_at_most_1000_cg_iterations(self, n):
        # Eisenstat-Walker forcing solves each Newton step only as far as
        # the last step's progress shows Newton can use: 847 and 772 here
        assert minimize_flow(*stiff_problem(n)).cg_iterations <= 1000

    @pytest.mark.parametrize("k", [2, 3, 10, 30, 300])
    def test_step_matches_dense_solve(self, k):
        rng = np.random.default_rng(12)
        c = random_irreducible_chain(rng, n_min=k, n_max=k)
        src, dst = c.edge_src, c.edge_dst
        q = 10.0 ** rng.uniform(-3, 3, size=c.n_edges)
        b = rng.normal(size=k - 1)
        solve = _reduced_laplacian_cg(src, dst, k)
        dense = reduced_laplacian_solve_ref(src, dst, k, q, b)
        x, _ = solve(q, b, CG_RTOL)
        assert np.allclose(x, dense, rtol=1e-9, atol=1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("rtol", [0.1, 1e-6, CG_RTOL])
    @pytest.mark.parametrize("k", [10, 300])
    def test_step_meets_its_relative_residual(self, k, rtol):
        rng = np.random.default_rng(13)
        c = random_irreducible_chain(rng, n_min=k, n_max=k)
        src, dst = c.edge_src, c.edge_dst
        q = 10.0 ** rng.uniform(-3, 3, size=c.n_edges)
        b = rng.normal(size=k - 1)
        x, _ = _reduced_laplacian_cg(src, dst, k)(q, b, rtol)
        r = reduced_laplacian_ref(src, dst, k, q) @ x - b
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(b)

    def test_singular_system_raises(self):
        # no flow on b's edges leaves b with a zero row in the reduced Laplacian
        c = ChainSpec(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "b"): 1.0, ("c", "a"): 1.0},
        )
        q = np.array([0.0, 0.0, 1.0, 0.0])  # edges a->b, b->c, c->a, c->b
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                _reduced_laplacian_cg(c.edge_src, c.edge_dst, 3)(
                    q, np.array([1.0, -1.0]), CG_RTOL
                )


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


def _tenth_zero_at_2000_states():
    rng = np.random.default_rng(2000)
    chain = sparse_chain(rng, 2000)
    return chain, tenth_zero_measure(rng, chain)


class TestApproximatingSequence:
    def test_full_support_single_class_is_constant_shift(self):
        rng = np.random.default_rng(12)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        res = minimize_flow(c, mu)
        cond = res.condensation
        n = 1000  # far above any |g| here, so no truncation
        gn = ApproximatingSequence(res.potential, cond).build(n)
        g = res.potential.values
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
        with pytest.raises(ValidationError):
            res.approximating.build(True)

    @staticmethod
    def _assert_matches_class_loop(res):
        cond = res.condensation
        for n in (1, 7, *APPROX_LEVELS):
            want = approximating_ref(
                res.potential.values, res.partition.classes, cond.h, n
            )
            assert np.array_equal(res.approximating.build(n).values, want)

    def test_matches_class_by_class_reference(self):
        rng = np.random.default_rng(14)
        unattained = 0
        for _ in range(30):
            c = random_irreducible_chain(rng)
            res = minimize_flow(c, random_measure_with_zeros(rng, c))
            if not res.attained:
                unattained += 1
                self._assert_matches_class_loop(res)
        assert unattained >= 10

    def test_matches_class_by_class_reference_at_2000_states(self):
        res = minimize_flow(*_tenth_zero_at_2000_states())
        assert res.partition.n_classes > 100
        self._assert_matches_class_loop(res)


class TestPotential:
    def test_gauge_and_zeros(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            res = minimize_flow(c, random_measure_with_zeros(rng, c))
            g = res.potential.values
            cp = res.partition
            for verts, eids in zip(cp.classes, cp.internal_edges):
                assert g[verts[0]] == 0.0
                if len(eids) == 0:
                    assert np.all(g[verts] == 0.0)
            off = np.setdiff1d(np.arange(c.n_states), cp.support.vertices)
            assert np.all(g[off] == 0.0)

    def test_maximizer_is_the_potential_only_when_attained(self, two_state_unit):
        c = two_state_unit
        full = minimize_flow(c, ProbabilityMeasure(c, [0.75, 0.25]))
        assert full.attained and full.maximizer is full.potential
        point = minimize_flow(c, ProbabilityMeasure(c, [1.0, 0.0]))
        assert not point.attained and point.maximizer is None

    def test_class_potentials_split_the_potential(self):
        rng = np.random.default_rng(16)
        c = random_irreducible_chain(rng, n_min=8, n_max=8)
        res = minimize_flow(c, random_measure_with_zeros(rng, c, n_zeros=3))
        views = res.class_potentials
        assert len(views) == res.partition.n_classes
        for verts, gk in zip(res.partition.classes, views):
            outside = np.setdiff1d(np.arange(c.n_states), verts)
            assert np.all(gk.values[outside] == 0.0)
        assert np.array_equal(sum(gk.values for gk in views), res.potential.values)

    def test_memory_at_2000_states_is_not_per_class(self):
        # a zero-padded n-vector per class (206 classes) would alone be 3.3 MB
        chain, mu = _tenth_zero_at_2000_states()
        tracemalloc.start()
        try:
            minimize_flow(chain, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


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


@pytest.fixture
def newton_entries(monkeypatch):
    """A list that grows by one each time _newton_class is entered."""
    entries = []
    inner = solver._newton_class

    def counted(*args):
        entries.append(args)
        return inner(*args)

    monkeypatch.setattr(solver, "_newton_class", counted)
    return entries


def _newton_classes(res):
    return sum(len(e) > 0 for e in res.partition.internal_edges)


class TestSolveReuse:
    """minimize_flow, dv_sup and duality_check share the most recent solve,
    keyed on the chain and measure objects and on equal tolerances."""

    @pytest.fixture(params=["full", "zeros"])
    def problem(self, request):
        # with zeros: 4 classes, 2 of them with edges, so 2 Newton solves
        rng = np.random.default_rng(34)
        c = random_irreducible_chain(rng, n_min=8, n_max=8)
        full = random_full_support_measure(rng, c)
        zeros = random_measure_with_zeros(rng, c, n_zeros=2)
        return c, full if request.param == "full" else zeros

    def test_routes_on_one_measure_run_newton_once(self, problem, newton_entries):
        c, mu = problem
        res = minimize_flow(c, mu)
        d = dv_sup(c, mu)
        f = duality_check(c, mu)
        assert len(newton_entries) == _newton_classes(res) > 0
        assert f.contraction is res
        assert d.residuals is res.residuals
        assert duality_check(c, mu).contraction is minimize_flow(c, mu)
        assert len(newton_entries) == _newton_classes(res)

    def test_equal_tolerances_share_the_solve(self, problem, newton_entries):
        c, mu = problem
        res = minimize_flow(c, mu, Tolerances())
        assert minimize_flow(c, mu) is res
        assert len(newton_entries) == _newton_classes(res)

    def test_an_equal_fresh_measure_solves_again(self, problem, newton_entries):
        c, mu = problem
        res = minimize_flow(c, mu)
        again = minimize_flow(c, ProbabilityMeasure(c, mu.values))
        assert again is not res
        assert len(newton_entries) == 2 * _newton_classes(res)
        assert again.rate_inf == res.rate_inf and again.iterations == res.iterations

    def test_other_tolerances_solve_again(self, problem, newton_entries):
        c, mu = problem
        res = minimize_flow(c, mu)
        tight = minimize_flow(c, mu, replace(Tolerances(), solver_gradient=1e-11))
        assert tight is not res
        assert len(newton_entries) == 2 * _newton_classes(res)

    def test_another_chain_object_solves_again(self, problem, newton_entries):
        c, mu = problem
        res = minimize_flow(c, mu)
        twin = ChainSpec(c.states, dict(zip(c.edge_pairs(), c.edge_rates.tolist())))
        again = minimize_flow(twin, mu)
        assert again is not res and again.optimal_flow.chain is twin
        assert len(newton_entries) == 2 * _newton_classes(res)

    def test_validation_runs_on_every_call(self, problem):
        c, mu = problem
        minimize_flow(c, mu)
        other = random_irreducible_chain(np.random.default_rng(26), n_min=8, n_max=8)
        for _ in range(2):
            with pytest.raises(ValidationError, match="different chain"):
                minimize_flow(other, mu)

    def test_a_failed_solve_is_not_kept(self, problem, newton_entries):
        c, mu = problem
        one_step = Tolerances(solver_max_iter=1)
        for calls in (1, 2):
            with pytest.raises(ConvergenceError):
                minimize_flow(c, mu, one_step)
            assert len(newton_entries) == calls

    def test_one_solve_is_kept_and_freed_without_a_cycle(self, problem):
        # gc is off, so only refcounts can free the first measure and result:
        # the kept slot holds no more than the latest solve, and no cycle
        c, mu = problem
        gc.disable()
        try:
            first = ProbabilityMeasure(c, mu.values)
            res = minimize_flow(c, first)
            dead = weakref.ref(first), weakref.ref(res)
            del first, res
            assert all(r() is not None for r in dead)  # kept in the slot
            minimize_flow(c, mu)
            assert all(r() is None for r in dead)
        finally:
            gc.enable()

    def test_a_shared_result_is_read_only(self, problem):
        c, mu = problem
        res = minimize_flow(c, mu)
        cp = res.partition
        arrays = [
            cp.support.edge_ids, cp.support.vertices, cp.class_of, cp.cross_edges,
            res.condensation.h, res.optimal_flow.values, res.potential.values,
            *cp.classes, *cp.internal_edges,
        ]
        for a in arrays:
            assert not a.flags.writeable
            if a.size:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]
        for residuals in (res.residuals, dv_sup(c, mu).residuals):
            with pytest.raises(TypeError):
                residuals["balance_max"] = 0.0

    def test_a_shared_result_holds_no_list(self, two_state_unit):
        # classes, internal edges and condensation edges are tuples: clearing
        # the kept classes made the next call on the same chain and measure
        # objects report classes == [] and n_classes == 0
        c = two_state_unit
        for values, classes in (([0.75, 0.25], [[0, 1]]), ([1.0, 0.0], [[0], [1]])):
            mu = ProbabilityMeasure(c, values)
            res = minimize_flow(c, mu)
            cp = res.partition
            for seq in (cp.classes, cp.internal_edges, res.condensation.edges):
                assert type(seq) is tuple
                with pytest.raises(AttributeError):
                    seq.clear()
            again = minimize_flow(c, mu)
            assert again is res and again.partition.n_classes == len(classes)
            assert [cls.tolist() for cls in again.partition.classes] == classes
