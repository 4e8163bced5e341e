import math

import numpy as np
import pytest

from dvrate import (
    ChainSpec,
    ClassPartition,
    DivergenceError,
    EdgeFunction,
    Flow,
    GradientWitness,
    ProbabilityMeasure,
    ValidationError,
    VertexFunction,
    condensation,
    cycle_decomposition,
    divergence,
    gradient,
    is_gradient,
    mu_flow,
    mutual_reachability_classes,
    path_integral,
    stationary_distribution,
    support_graph,
    witness_flow,
)
from dvrate.config import DIVERGENCE_REL, WITNESS

from conftest import (
    random_divergence_free_flow,
    random_full_support_measure,
    random_irreducible_chain,
    random_measure_with_zeros,
    random_vertex_function,
    rates_large_problems,
)
from oracles import (
    fundamental_cycle_basis,
    mutual_classes_ref,
    support_partition_ref,
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
            expected = np.full(c.n_states, -1)
            for k, (verts, ids) in enumerate(zip(cp.classes, cp.internal_edges)):
                expected[verts] = k
                assert np.all(cp.class_of[c.edge_src[ids]] == k)
                assert np.all(cp.class_of[c.edge_dst[ids]] == k)
            assert np.array_equal(cp.class_of, expected)
            cross = cp.cross_edges
            assert np.all(cp.class_of[c.edge_src[cross]] != cp.class_of[c.edge_dst[cross]])


    @pytest.mark.parametrize("seed", [1, 2])
    def test_rates_large_partitions_match_sorting_reference(self, seed):
        # the support graphs, partitions and condensations of the benchmark's
        # rates-large problems, byte for byte, dtypes included
        def same(a, b):
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()

        def all_same(xs, ys):
            return len(xs) == len(ys) and all(map(same, xs, ys))

        n_classes = []
        for c, *measures in rates_large_problems(seed):
            for mu in measures:
                sg = support_graph(c, mu)
                cp = mutual_reachability_classes(sg)
                verts, classes, class_of, internal, cross = support_partition_ref(
                    c, mu.values
                )
                assert same(sg.vertices, verts)
                assert all_same(cp.classes, classes)
                assert same(cp.class_of, class_of)
                assert all_same(cp.internal_edges, internal)
                assert same(cp.cross_edges, cross)
                cond = condensation(cp)
                ref = condensation(ClassPartition(sg, classes, class_of, internal, cross))
                assert cond.edges == ref.edges and same(cond.h, ref.h)
                n_classes.append(cp.n_classes)
        assert n_classes[0::2] == [1] * 4  # full support: the whole chain
        assert min(n_classes[1::2]) > 100  # a tenth of zeros: many classes


class TestCondensation:
    def test_single_class_level_one(self):
        rng = np.random.default_rng(4)
        c = random_irreducible_chain(rng)
        mu = random_full_support_measure(rng, c)
        cond = condensation(mutual_reachability_classes(support_graph(c, mu)))
        assert list(cond.h) == [1]
        assert cond.edges == ()

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

    @pytest.mark.parametrize("gap, gradient", [(0.9e-9, True), (1.1e-9, False)])
    def test_witness_bound_is_witness(self, three_cycle_unit, gap, gradient):
        # the cycle's integral is the one path mismatch: a gradient up to WITNESS
        sg = support_graph(three_cycle_unit, ProbabilityMeasure.uniform(three_cycle_unit))
        f = EdgeFunction(three_cycle_unit, [0.0, 0.0, gap])
        assert WITNESS == 1e-9
        assert is_gradient(sg, f).is_gradient is gradient

    def test_antisymmetric_two_cycle_is_gradient(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        sg = support_graph(two_state_unit, mu)
        f = EdgeFunction(two_state_unit, [1.0, -1.0])
        check = is_gradient(sg, f)
        assert check.is_gradient
        pot = check.potential.values
        assert math.isclose(pot[1] - pot[0], 1.0, rel_tol=1e-12)

    def test_generalized_edge_orientation(self, two_state_unit):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        sg = support_graph(two_state_unit, mu)
        f = EdgeFunction(two_state_unit, [2.0, 5.0])
        assert path_integral(sg, f, (0, 1)) == 2.0
        assert path_integral(sg, f, (1, 0)) == 5.0

    def test_generalized_edge_uses_reverse_when_forward_missing(self, three_cycle_unit):
        mu = ProbabilityMeasure.uniform(three_cycle_unit)
        sg = support_graph(three_cycle_unit, mu)
        f = EdgeFunction(three_cycle_unit, [2.0, 3.0, 4.0])
        # (2,1) is not an edge; its generalized value is -f(1,2)
        assert path_integral(sg, f, (1, 0)) == -2.0

    def test_generalized_edge_rejects_vertices_outside_the_chain(self, two_state_unit):
        # 0 * 2 + 2 is the key of the edge (1, 0): no aliasing onto it
        sg = support_graph(two_state_unit, ProbabilityMeasure.uniform(two_state_unit))
        f = EdgeFunction(two_state_unit, [2.0, 5.0])
        for i, j in ((0, 2), (2, 0), (-1, 1)):
            with pytest.raises(ValidationError, match="not a generalized edge"):
                path_integral(sg, f, (i, j))

    def test_witness_flow_rejects_steps_off_the_support_graph(self):
        # mu(c) = 0. On a <-> b <-> c the step (a, c) has no edge either way;
        # on the cycle a -> b -> c -> a it reverses c -> a, an edge off the
        # support. Either way it is no generalized edge, as path_integral says.
        line = ChainSpec(["a", "b", "c"], {("a", "b"): 1.0, ("b", "a"): 1.0,
                                           ("b", "c"): 1.0, ("c", "b"): 1.0})
        cycle = ChainSpec(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0,
                                            ("c", "a"): 1.0})
        for c in (line, cycle):
            sg = support_graph(c, ProbabilityMeasure(c, [0.5, 0.5, 0.0]))
            w = GradientWitness((0, 2), (0, 1, 2), 0.0, 1.0)
            for call in (lambda: witness_flow(sg, w, 1.0),
                         lambda: path_integral(sg, EdgeFunction.zero(c), (0, 2))):
                with pytest.raises(ValidationError) as info:
                    call()
                assert str(info.value) == "(0,2) is not a generalized edge of the support graph"

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

    @pytest.mark.parametrize(
        "rates", [(1.0, 1.0 - 1e-13), (1.0 - 1e-13, 1.0)], ids=["heavy-out", "heavy-back"]
    )
    def test_stranded_dust_is_dropped(self, two_state_unit, rates):
        # divergence 1e-13 passes the gate; peeling the one cycle leaves
        # 1e-13 on the heavier edge, whose walk finds no way back
        q = Flow.from_dict(two_state_unit, {("1", "2"): rates[0], ("2", "1"): rates[1]})
        dec = cycle_decomposition(two_state_unit, q)
        assert len(dec.cycles) == 1
        assert list(dec.weights) == [min(rates)]
        err = np.abs(dec.reconstruct().values - q.values).max()
        assert err <= 1e-12 * max(1.0, q.l1_norm)

    def test_rejects_non_circulation(self, three_cycle_unit):
        q = Flow.from_dict(three_cycle_unit, {("1", "2"): 1.0})
        with pytest.raises(DivergenceError):
            cycle_decomposition(three_cycle_unit, q)

    @pytest.mark.parametrize("excess, circulation", [(2.9e-12, True), (3.1e-12, False)])
    def test_divergence_gate_is_divergence_rel(self, three_cycle_unit, excess, circulation):
        # divergence +-excess against a gate of DIVERGENCE_REL * |Q|_1 = 3e-12
        q = Flow(three_cycle_unit, [1.0, 1.0, 1.0 + excess])
        assert DIVERGENCE_REL == 1e-12
        if circulation:
            assert list(cycle_decomposition(three_cycle_unit, q).weights) == [1.0]
        else:
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

