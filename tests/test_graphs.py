import math

import numpy as np
import pytest

from dvrate import (
    ChainSpec,
    DivergenceError,
    EdgeFunction,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    condensation,
    cycle_decomposition,
    divergence,
    f_star,
    gradient,
    is_gradient,
    mu_flow,
    mutual_reachability_classes,
    path_integral,
    stationary_distribution,
    support_graph,
    witness_flow,
)

from conftest import (
    random_divergence_free_flow,
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_vertex_function,
)
from oracles import (
    fundamental_cycle_basis,
    mutual_classes_ref,
    valid_level_assignments,
)


def two_cycles_bridge():
    """Two 2-cycles joined by a single one-way edge; irreducible via return path."""
    return ChainSpec(
        ["a", "b", "c", "d"],
        {
            ("a", "b"): 1.0, ("b", "a"): 1.0,
            ("c", "d"): 1.0, ("d", "c"): 1.0,
            ("b", "c"): 0.5, ("d", "a"): 0.5,
        },
    )


class TestSupportGraph:
    def test_full_support_keeps_everything(self):
        rng = np.random.default_rng(0)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        sg = support_graph(c, mu)
        assert list(sg.edge_ids) == list(range(c.n_edges))
        assert list(sg.vertices) == list(range(c.n_states))

    def test_point_mass_on_cycle(self, three_cycle_unit):
        mu = ProbabilityMeasure.point_mass(three_cycle_unit, "2")
        sg = support_graph(three_cycle_unit, mu)
        pairs = [
            (three_cycle_unit.states[s], three_cycle_unit.states[d])
            for s, d in zip(sg.edge_src, sg.edge_dst)
        ]
        assert pairs == [("2", "3")]
        assert [three_cycle_unit.states[v] for v in sg.vertices] == ["2", "3"]

    def test_source_mass_decides_membership(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            sg = support_graph(c, mu)
            keep = set(map(int, sg.edge_ids))
            for e in range(c.n_edges):
                assert (mu.values[c.edge_src[e]] > 0) == (e in keep)


class TestMutualReachabilityClasses:
    def test_two_state_degenerate(self, two_state_unit):
        mu = ProbabilityMeasure(two_state_unit, [1.0, 0.0])
        cp = mutual_reachability_classes(support_graph(two_state_unit, mu))
        assert [list(cls) for cls in cp.classes] == [[0], [1]]
        assert all(len(ids) == 0 for ids in cp.internal_edges)
        assert len(cp.cross_edges) == 1

    def test_bridged_cycles_uniform(self):
        c = two_cycles_bridge()
        # kill the return edge (d, a) by zeroing mass at d... keep mu uniform,
        # the support graph keeps all edges and the chain is one class; so
        # instead zero d to break the return path
        mu = ProbabilityMeasure(c, [1 / 3, 1 / 3, 1 / 3, 0.0])
        cp = mutual_reachability_classes(support_graph(c, mu))
        names = [[c.states[v] for v in cls] for cls in cp.classes]
        assert names == [["a", "b"], ["c"], ["d"]]
        cross = {
            (c.states[c.edge_src[e]], c.states[c.edge_dst[e]])
            for e in cp.cross_edges
        }
        assert cross == {("b", "c"), ("c", "d")}

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            sg = support_graph(c, mu)
            cp = mutual_reachability_classes(sg)
            got = [frozenset(map(int, cls)) for cls in cp.classes]
            ref = mutual_classes_ref(
                sg.vertices, list(zip(sg.edge_src, sg.edge_dst))
            )
            assert got == ref

    def test_internal_and_cross_edges_partition_support(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            sg = support_graph(c, mu)
            cp = mutual_reachability_classes(sg)
            all_ids = sorted(
                int(e) for ids in cp.internal_edges for e in ids
            ) + sorted(map(int, cp.cross_edges))
            assert sorted(all_ids) == sorted(map(int, sg.edge_ids))


class TestCondensation:
    def test_single_class_level_one(self):
        rng = np.random.default_rng(4)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        cond = condensation(mutual_reachability_classes(support_graph(c, mu)))
        assert list(cond.h) == [1]
        assert cond.edges == []

    def test_three_singletons_strictly_decreasing(self):
        c = ChainSpec(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0},
        )
        mu = ProbabilityMeasure(c, [0.5, 0.5, 0.0])
        cp = mutual_reachability_classes(support_graph(c, mu))
        cond = condensation(cp)
        assert len(cp.classes) == 3
        for a, b in cond.edges:
            assert cond.h[a] > cond.h[b]
        # the chosen levels must be among the assignments the brute-force
        # enumeration accepts
        valid = valid_level_assignments(3, cond.edges)
        assert tuple(cond.h) in valid

    def test_levels_decrease_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = random_irreducible_chain(rng)
            mu = random_measure_with_zeros(rng, c)
            cp = mutual_reachability_classes(support_graph(c, mu))
            cond = condensation(cp)
            assert sorted(set(map(int, cond.h))) == sorted(set(map(int, cond.h)))
            assert all(1 <= h <= cp.n_classes for h in cond.h)
            for a, b in cond.edges:
                assert cond.h[a] > cond.h[b]


class TestGradient:
    def test_constant_gives_zero(self, three_cycle_unit):
        g = VertexFunction(three_cycle_unit, [5.0, 5.0, 5.0])
        assert np.all(gradient(g).values == 0.0)

    def test_cycle_values(self, three_cycle_unit):
        g = VertexFunction(three_cycle_unit, [0.0, 1.0, 2.0])
        assert list(gradient(g).values) == [1.0, 1.0, -2.0]

    def test_round_trip_with_is_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            sg = support_graph(c, mu)
            g = random_vertex_function(rng, c)
            check = is_gradient(sg, gradient(g))
            assert check.is_gradient
            # recovered potential differs from g by a constant on the
            # (single) connected component
            diff = check.potential.values - g.values
            assert np.allclose(diff, diff[0], atol=1e-9)


class TestIsGradient:
    def test_directed_cycle_of_ones_has_witness(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        sg = support_graph(three_cycle_unit, mu)
        f = EdgeFunction(three_cycle_unit, [1.0, 1.0, 1.0])
        check = is_gradient(sg, f)
        assert not check.is_gradient
        w = check.witness
        assert w is not None
        # the two generalized paths agree on endpoints but not on integrals
        assert w.path_a[0] == w.path_b[0] and w.path_a[-1] == w.path_b[-1]
        assert math.isclose(
            path_integral(sg, f, w.path_a), w.integral_a, rel_tol=1e-12
        )
        assert math.isclose(
            path_integral(sg, f, w.path_b), w.integral_b, rel_tol=1e-12
        )
        assert w.gap > 1e-9

    def test_antisymmetric_two_cycle_is_gradient(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        sg = support_graph(two_state_unit, mu)
        f = EdgeFunction(two_state_unit, [1.0, -1.0])
        check = is_gradient(sg, f)
        assert check.is_gradient
        pot = check.potential.values
        assert math.isclose(pot[1] - pot[0], 1.0, rel_tol=1e-12)

    def test_f_star_orientation(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        sg = support_graph(two_state_unit, mu)
        f = EdgeFunction(two_state_unit, [2.0, 5.0])
        assert f_star(sg, f, 0, 1) == 2.0
        assert f_star(sg, f, 1, 0) == 5.0

    def test_f_star_uses_reverse_when_forward_missing(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        sg = support_graph(three_cycle_unit, mu)
        f = EdgeFunction(three_cycle_unit, [2.0, 3.0, 4.0])
        # (2,1) is not an edge; its generalized value is -f(1,2)
        assert f_star(sg, f, 1, 0) == -2.0

    def test_witness_flow_grows_linearly(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        sg = support_graph(three_cycle_unit, mu)
        f = EdgeFunction(three_cycle_unit, [1.0, 1.0, 1.0])
        w = is_gradient(sg, f).witness
        base = None
        for lam in (1.0, 10.0, 100.0):
            q = witness_flow(sg, w, lam)
            assert np.abs(divergence(three_cycle_unit, q).values).max() < 1e-12
            pairing = float(f.values @ q.values)
            if base is None:
                base = pairing
                assert abs(base) > 1e-9
            else:
                assert math.isclose(pairing, base * lam, rel_tol=1e-12)


class TestCycleDecomposition:
    def test_scaled_cycle_indicator(self, three_cycle_unit):
        q = Flow(three_cycle_unit, [2.0, 2.0, 2.0])
        dec = cycle_decomposition(three_cycle_unit, q)
        assert len(dec.cycles) == 1
        assert list(dec.weights) == [2.0]
        assert dec.cycles_as_states() == [["1", "2", "3", "1"]]

    def test_two_state_typical_flow(self, two_state_12):
        pi = stationary_distribution(two_state_12)
        dec = cycle_decomposition(two_state_12, mu_flow(two_state_12, pi))
        assert len(dec.cycles) == 1
        assert math.isclose(dec.weights[0], 2 / 3, rel_tol=1e-12)
        assert sorted(dec.cycles_as_states()[0][:2]) == ["1", "2"]

    def test_figure_eight_recovers_both_weights(self):
        c = ChainSpec(
            ["m", "a", "b"],
            {
                ("m", "a"): 1.0, ("a", "m"): 1.0,
                ("m", "b"): 1.0, ("b", "m"): 1.0,
            },
        )
        q = Flow.from_dict(
            c,
            {("m", "a"): 1.0, ("a", "m"): 1.0, ("m", "b"): 3.0, ("b", "m"): 3.0},
        )
        dec = cycle_decomposition(c, q)
        assert sorted(dec.weights) == [1.0, 3.0]
        assert np.array_equal(dec.reconstruct().values, q.values)

    def test_rejects_non_circulation(self, three_cycle_unit):
        q = Flow.from_dict(three_cycle_unit, {("1", "2"): 1.0})
        with pytest.raises(DivergenceError):
            cycle_decomposition(three_cycle_unit, q)

    def test_reconstruction_exact_on_random_circulations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = random_irreducible_chain(rng)
            q = random_divergence_free_flow(rng, c)
            dec = cycle_decomposition(c, q)
            # dyadic inputs peel exactly: bit-for-bit reconstruction
            assert np.array_equal(dec.reconstruct().values, q.values)
            for cyc in dec.cycles:
                assert len(set(cyc)) == len(cyc)  # self-avoiding
            assert np.all(dec.weights > 0)

    def test_cycles_follow_chain_edges(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            q = random_divergence_free_flow(rng, c)
            dec = cycle_decomposition(c, q)
            for cyc, ids in zip(dec.cycles, dec.cycle_edges):
                k = len(cyc)
                for i, e in enumerate(ids):
                    assert int(c.edge_src[e]) == cyc[i]
                    assert int(c.edge_dst[e]) == cyc[(i + 1) % k]


class TestFundamentalCycleBasis:
    def test_two_state_single_cycle(self, two_state_unit):
        basis = fundamental_cycle_basis(
            two_state_unit, np.array([0, 1]), np.array([0, 1])
        )
        assert len(basis) == 1
        ids, signs = basis[0]
        q = np.zeros(2)
        np.add.at(q, ids, signs)
        assert np.all(q == 1.0) or np.all(q == -1.0)

    def test_directed_cycle_single_element(self, three_cycle_unit):
        basis = fundamental_cycle_basis(
            three_cycle_unit, np.arange(3), np.arange(3)
        )
        assert len(basis) == 1

    def test_basis_elements_are_circulations(self):
        # every signed basis vector must have zero divergence
        rng = np.random.default_rng(9)
        for _ in range(30):
            c = random_irreducible_chain(rng)
            mu = random_full_support_measure(rng, c)
            sg = support_graph(c, mu)
            cp = mutual_reachability_classes(sg)
            for verts, eids in zip(cp.classes, cp.internal_edges):
                if len(eids) == 0:
                    continue
                basis = fundamental_cycle_basis(c, verts, eids)
                # dimension of the cycle space: |E| - |V| + 1 per connected class
                assert len(basis) == len(eids) - len(verts) + 1
                for ids, signs in basis:
                    vec = np.zeros(c.n_edges)
                    np.add.at(vec, ids, signs)
                    f = EdgeFunction(c, vec)
                    assert np.abs(divergence(c, f).values).max() == 0.0
