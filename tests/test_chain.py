import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import dvrate.chain as chain_module
from dvrate import (
    ChainSpec,
    ConvergenceError,
    DvrateError,
    EdgeFunction,
    Flow,
    NotReversibleError,
    ProbabilityMeasure,
    Tolerances,
    UnknownStateError,
    ValidationError,
    VertexFunction,
    apply_generator,
    divergence,
    is_reversible,
    mu_flow,
    reversible_rate,
    stationary_distribution,
    tilted_exit_rate,
)

from conftest import (
    random_irreducible_chain,
    random_reversible_chain,
    rates_large_problems,
    sparse_chain,
)
from oracles import dense_generator, gather_ref, stationary_ref


class TestChainSpecValidation:
    def test_edge_arrays_sorted_and_consistent(self, two_state_12):
        c = two_state_12
        assert c.n_states == 2 and c.n_edges == 2
        assert list(c.edge_src) == [0, 1]
        assert list(c.edge_dst) == [1, 0]
        assert list(c.edge_rates) == [1.0, 2.0]
        assert list(c.row_offsets) == [0, 1, 2]
        assert list(c.exit_rates) == [1.0, 2.0]

    def test_from_matrix_matches_dict_construction(self, two_state_12):
        c2 = ChainSpec.from_matrix(["1", "2"], [[0.0, 1.0], [2.0, 0.0]])
        assert c2.same_as(two_state_12)

    def test_rejects_empty_states(self):
        with pytest.raises(ValidationError):
            ChainSpec([], {})

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValidationError):
            ChainSpec(["a", "a"], {("a", "a"): 1.0})

    def test_rejects_unknown_state_in_rates(self):
        with pytest.raises(UnknownStateError, match="unknown state 'z' in rates"):
            ChainSpec(["a", "b"], {("a", "z"): 1.0})

    def test_rejects_keys_that_are_not_pairs(self):
        # flattened and paired two by two, ('a','b','c') and ('a',) would
        # build the edges (a, b) and (c, a), "ab" the edge (a, b), and a
        # 4-tuple two edges with one rate
        rest = {("b", "c"): 1.0, ("c", "b"): 1.0, ("b", "a"): 1.0}
        chain = ChainSpec(["a", "b", "c"], {("a", "b"): 1.0, **rest})
        for keys, bad in (
            ({("a", "b", "c"): 1.0, ("a",): 2.0}, ("a", "b", "c")),
            ({"ab": 1.0, "ba": 1.0}, "ab"),
            ({("a", "b", "b", "a"): 1.0}, ("a", "b", "b", "a")),
        ):
            with pytest.raises(ValidationError) as info:
                ChainSpec(["a", "b", "c"], {**keys, **rest})
            assert str(info.value) == f"key {bad!r} in rates is not a (from, to) pair"
            for cls in (Flow, EdgeFunction):
                with pytest.raises(ValidationError) as info:
                    cls.from_dict(chain, {("b", "c"): 1.0, **keys})
                assert str(info.value) == f"key {bad!r} is not a (from, to) pair"
        # the first bad key in mapping order is the one reported
        with pytest.raises(UnknownStateError, match="unknown state 'zz'"):
            Flow.from_dict(chain, {("a", "zz"): 1.0, "ab": 1.0})

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop at state 'a'"):
            ChainSpec(["a", "b"], {("a", "a"): 1.0, ("a", "b"): 1.0})

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_rate(self, bad):
        with pytest.raises(ValidationError, match=r"r\('a','b'\) must be positive"):
            ChainSpec(["a", "b"], {("a", "b"): bad, ("b", "a"): 1.0})

    def test_rate_error_names_the_first_pair_in_edge_order(self):
        # the first offending pair in (src, dst) order, not in dict order
        rates = {("b", "a"): -1.0, ("a", "b"): 0.0}
        with pytest.raises(ValidationError, match=r"r\('a','b'\) .* got 0\.0"):
            ChainSpec(["a", "b"], rates)

    @pytest.mark.parametrize(
        "matrix, match",
        [
            ([[0.0, -1.0], [1.0, 0.0]], r"r\('a','b'\) must be positive"),
            ([[0.0, 1.0], [math.nan, 0.0]], r"r\('b','a'\) must be positive"),
            ([[0.0, math.inf], [1.0, 0.0]], r"r\('a','b'\) must be positive"),
            ([[0.0, 1.0], [1.0, 2.0]], "self-loop at state 'b'"),
            ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "shape does not match"),
        ],
        ids=["negative", "nan", "inf", "diagonal", "shape"],
    )
    def test_from_matrix_rejects(self, matrix, match):
        with pytest.raises(ValidationError, match=match):
            ChainSpec.from_matrix(["a", "b"], matrix)

    def test_constructors_give_bit_identical_arrays(self):
        fields = ("edge_src", "edge_dst", "edge_rates", "row_offsets",
                  "exit_rates", "reverse_edge")
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = random_irreducible_chain(rng)
            R = np.zeros((c.n_states, c.n_states))
            R[c.edge_src, c.edge_dst] = c.edge_rates
            pairs = list(zip(c.edge_pairs(), c.edge_rates.tolist()))
            shuffled = dict(pairs[i] for i in rng.permutation(len(pairs)))
            ix = {s: i for i, s in enumerate(c.states)}  # loop reference
            want = sorted((ix[y], ix[z], r) for (y, z), r in shuffled.items())
            assert list(zip(c.edge_src.tolist(), c.edge_dst.tolist(),
                            c.edge_rates.tolist())) == want
            built = [
                ChainSpec(c.states, shuffled),
                ChainSpec.from_matrix(c.states, R),
                ChainSpec._from_edges(
                    c.states, c.edge_src.copy(), c.edge_dst.copy(), c.edge_rates.copy()
                ),
            ]
            for other in built:
                for f in fields:
                    a, b = getattr(c, f), getattr(other, f)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f

    @pytest.mark.parametrize("src, dst", [
        ([1, 0, 2, 1], [0, 1, 0, 2]),  # unsorted: row_offsets were [0 2 4 4]
        ([0, 0, 1, 2], [1, 1, 0, 0]),  # a repeated edge
    ])
    def test_edge_arrays_must_strictly_ascend(self, src, dst):
        # unchecked, the unsorted chain was built, and minimize_flow on it
        # raised "cycle detected in condensation"
        with pytest.raises(ValidationError, match=r"edge \('a', 'b'\) repeats or is out of order"):
            ChainSpec._from_edges(
                ("a", "b", "c"), np.array(src), np.array(dst), np.ones(len(src))
            )

    def test_rejects_dead_state(self):
        # state with no outgoing edge
        with pytest.raises(ValidationError, match="no outgoing edge"):
            ChainSpec(["a", "b"], {("a", "b"): 3.0})

    def test_rejects_overflowing_exit_rate(self):
        # every rate is finite, but the two out of 'b' sum to inf
        states = ["a", "b", "c"]
        R = [[0.0, 1.0, 0.0], [1e308, 0.0, 1e308], [1.0, 0.0, 0.0]]
        rates = {(states[y], states[z]): r for y, row in enumerate(R)
                 for z, r in enumerate(row) if r}
        for build in (lambda: ChainSpec(states, rates),
                      lambda: ChainSpec.from_matrix(states, R)):
            with pytest.raises(ValidationError, match="exit rate of state 'b' overflows"):
                build()

    def test_rejects_reducible_chain(self):
        # two 2-cycles with a single one-way bridge: strongly disconnected
        rates = {
            ("a", "b"): 1.0, ("b", "a"): 1.0,
            ("c", "d"): 1.0, ("d", "c"): 1.0,
            ("b", "c"): 1.0,
        }
        with pytest.raises(ValidationError, match="not irreducible"):
            ChainSpec(["a", "b", "c", "d"], rates)

    def test_reducible_chain_names_a_state_the_first_cannot_reach(self):
        # c leaves for a but is entered from nowhere
        rates = {("a", "b"): 1.0, ("b", "a"): 1.0, ("c", "a"): 1.0}
        with pytest.raises(ValidationError, match=(
            "not irreducible: state 'c' is not reachable from state 'a'"
        )):
            ChainSpec(["a", "b", "c"], rates)

    def test_reducible_chain_names_a_state_that_cannot_reach_the_first(self):
        # a enters the 2-cycle c <-> d, which never returns
        rates = {
            ("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "c"): 1.0,
            ("c", "d"): 1.0, ("d", "c"): 1.0,
        }
        with pytest.raises(ValidationError, match=(
            "not irreducible: state 'a' is not reachable from state 'c'"
        )):
            ChainSpec(["a", "b", "c", "d"], rates)

    def test_long_birth_death_chain_builds(self):
        # a path of 10^5 states: a recursive search would overflow the stack
        n = 10**5
        states = [f"v{i}" for i in range(n)]
        rates = {(states[i], states[i + 1]): 1.0 for i in range(n - 1)}
        rates.update({(states[i + 1], states[i]): 2.0 for i in range(n - 1)})
        assert ChainSpec(states, rates).n_edges == 2 * (n - 1)
        del rates[(states[-2], states[-1])]
        with pytest.raises(ValidationError, match=(
            f"not irreducible: state 'v{n - 1}' is not reachable from state 'v0'"
        )):
            ChainSpec(states, rates)

    def test_irreducibility_verdict_matches_strong_components(self):
        rng = np.random.default_rng(23)
        verdicts = []
        for _ in range(200):
            n = int(rng.integers(2, 9))
            adj = rng.random((n, n)) < rng.uniform(0.1, 0.6)
            np.fill_diagonal(adj, False)
            for y in np.flatnonzero(~adj.any(axis=1)):  # one out-edge each
                adj[y, (y + rng.integers(1, n)) % n] = True
            states = [f"s{i}" for i in range(n)]
            labels = connected_components(
                csr_array(adj.astype(float)), directed=True, connection="strong"
            )[1]
            try:
                ChainSpec.from_matrix(states, adj.astype(float))
            except ValidationError as exc:
                pair = re.fullmatch(
                    r"chain is not irreducible: state 's(\d+)' is not reachable "
                    r"from state 's(\d+)'", str(exc),
                )
                assert pair and "0" in pair.groups()
                other = int(max(pair.groups(), key=int))
                assert labels[other] != labels[0]
                verdicts.append(False)
            else:
                assert np.all(labels == labels[0])
                verdicts.append(True)
        assert 50 < sum(verdicts) < 150  # both verdicts are well exercised

    def test_edge_id_lookup(self, two_state_12):
        assert two_state_12.edge_id("1", "2") == 0
        assert two_state_12.edge_id("2", "1") == 1
        with pytest.raises(ValidationError):
            two_state_12.edge_id("1", "1")
        with pytest.raises(UnknownStateError):
            two_state_12.state_index("zz")

    def test_reverse_edge_matches_brute_force(self, three_cycle_unit):
        rng = np.random.default_rng(17)
        chains = [random_irreducible_chain(rng) for _ in range(20)]
        chains += [random_reversible_chain(rng) for _ in range(5)]
        for c in chains + [three_cycle_unit]:
            pairs = list(zip(c.edge_src.tolist(), c.edge_dst.tolist()))
            want = [pairs.index((d, s)) if (d, s) in pairs else -1 for s, d in pairs]
            assert c.reverse_edge.tolist() == want
        assert three_cycle_unit.reverse_edge.tolist() == [-1, -1, -1]

    def test_rate_lookup(self, three_cycle_unit):
        assert three_cycle_unit.rate("1", "2") == 1.0
        assert three_cycle_unit.rate("2", "1") == 0.0
        assert three_cycle_unit.rate("1", "1") == 0.0

    def test_build_stores_no_dense_matrix(self):
        # a dense 2000 x 2000 float matrix alone is 32 MB
        c = sparse_chain(np.random.default_rng(2000), 2000)
        rates = dict(zip(c.edge_pairs(), c.edge_rates.tolist()))
        tracemalloc.start()
        try:
            ChainSpec(c.states, rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_arrays_are_read_only(self, two_state_12):
        with pytest.raises(ValueError):
            two_state_12.edge_rates[0] = 5.0


class TestProbabilityMeasure:
    def test_round_trip(self, two_state_12):
        mu = ProbabilityMeasure.from_dict(two_state_12, {"1": 0.25, "2": 0.75})
        assert mu.value("1") == 0.25
        assert mu.as_dict() == {"1": 0.25, "2": 0.75}
        assert mu.full_support

    def test_rejects_negative(self, two_state_12):
        with pytest.raises(ValidationError):
            ProbabilityMeasure(two_state_12, [-0.1, 1.1])

    def test_rejects_unnormalized(self, two_state_12):
        with pytest.raises(ValidationError):
            ProbabilityMeasure(two_state_12, [0.6, 0.5])

    def test_normalization_tolerance_is_tight(self, two_state_12):
        # a 1e-9 defect must be rejected, a 1e-13 defect accepted
        with pytest.raises(ValidationError):
            ProbabilityMeasure(two_state_12, [0.5, 0.5 + 1e-9])
        ProbabilityMeasure(two_state_12, [0.5, 0.5 + 1e-13])

    def test_point_mass_support(self, two_state_12):
        mu = ProbabilityMeasure.point_mass(two_state_12, "2")
        assert list(mu.support) == [1]
        assert not mu.full_support


class TestFlowAndFunctions:
    def test_flow_from_dict(self, two_state_12):
        q = Flow.from_dict(two_state_12, {("1", "2"): 0.5})
        assert list(q.values) == [0.5, 0.0]
        assert q.l1_norm == 0.5
        assert q.as_dict() == {("1", "2"): 0.5}

    def test_flow_rejects_non_edge(self, three_cycle_unit):
        with pytest.raises(ValidationError):
            Flow.from_dict(three_cycle_unit, {("2", "1"): 1.0})

    def test_flow_rejects_negative(self, two_state_12):
        with pytest.raises(ValidationError):
            Flow(two_state_12, [-0.1, 0.0])

    def test_vertex_function_rejects_nonfinite(self, two_state_12):
        with pytest.raises(ValidationError):
            VertexFunction(two_state_12, [0.0, math.inf])

    def test_edge_function_allows_signed(self, two_state_12):
        f = EdgeFunction(two_state_12, [1.0, -1.0])
        assert f.value("2", "1") == -1.0


# each value type, a key of the first state or edge of two_state_12, and a
# weight that key may hold alone
VALUE_TYPES = [
    (ProbabilityMeasure, ("1",), 1.0),
    (Flow, ("1", "2"), 0.5),
    (VertexFunction, ("1",), -2.0),
    (EdgeFunction, ("1", "2"), -2.0),
]


@pytest.mark.parametrize(
    "cls, key, w", VALUE_TYPES, ids=[t[0].__name__ for t in VALUE_TYPES]
)
class TestValueTypes:
    @staticmethod
    def dict_key(key):
        return key if len(key) == 2 else key[0]

    def test_rejects_wrong_length(self, two_state_12, cls, key, w):
        count = "edge" if len(key) == 2 else "state"
        for values in ([1.0], [0.5, 0.25, 0.25]):  # two states, two edges
            with pytest.raises(ValidationError, match=f"does not match {count} count"):
                cls(two_state_12, values)

    def test_rejects_nonfinite(self, two_state_12, cls, key, w):
        with pytest.raises(ValidationError, match="must be finite"):
            cls(two_state_12, [math.nan, 1.0])

    def test_from_dict_fills_missing_keys(self, two_state_12, cls, key, w):
        obj = cls.from_dict(two_state_12, {self.dict_key(key): w})
        assert obj.values.tolist() == [w, 0.0]
        if cls in (VertexFunction, EdgeFunction):
            obj = cls.from_dict(two_state_12, {self.dict_key(key): w}, default=3.0)
            assert obj.values.tolist() == [w, 3.0]

    def test_zero(self, two_state_12, cls, key, w):
        if cls is ProbabilityMeasure:  # no measure is zero
            with pytest.raises(ValidationError, match="sums to 0"):
                cls.zero(two_state_12)
        else:
            assert cls.zero(two_state_12).values.tolist() == [0.0, 0.0]

    def test_value(self, two_state_12, cls, key, w):
        obj = cls.from_dict(two_state_12, {self.dict_key(key): w})
        assert obj.value(*key) == w
        with pytest.raises(UnknownStateError):
            obj.value(*["zz"] * len(key))

    def test_as_dict_and_repr(self, two_state_12, cls, key, w):
        obj = cls.from_dict(two_state_12, {self.dict_key(key): w})
        keys = two_state_12.edge_pairs() if len(key) == 2 else two_state_12.states
        want = dict(zip(keys, [w, 0.0]))
        if cls is Flow:  # zero-weight edges left out
            want = {("1", "2"): w}
        assert obj.as_dict() == want
        assert all(type(v) is float for v in obj.as_dict().values())
        assert repr(obj) == f"{cls.__name__}({want!r})"

    def test_values_are_a_read_only_copy(self, two_state_12, cls, key, w):
        src = np.array([w, 0.0])
        obj = cls(two_state_12, src)
        src[0] = 7.0
        assert obj.values.tolist() == [w, 0.0]
        with pytest.raises(ValueError):
            obj.values[0] = 1.0


class TestGather:
    def test_from_dict_matches_per_key_loop_bit_for_bit(self):
        # the acceptance draw of 200 chains; each mapping leaves out about a
        # third of the keys, in shuffled order
        rng = np.random.default_rng(91)
        for _ in range(200):
            c = random_irreducible_chain(rng)
            for on_edges, types in ((False, (ProbabilityMeasure, VertexFunction)),
                                    (True, (Flow, EdgeFunction))):
                keys = list(c.edge_pairs()) if on_edges else list(c.states)
                keys = [keys[k] for k in rng.permutation(len(keys))]
                keys = keys[: max(1, 2 * len(keys) // 3)]
                w = rng.uniform(0.1, 1.0, size=len(keys))
                weights = dict(zip(keys, (w / w.sum()).tolist()))
                signed = dict(zip(keys, rng.normal(size=len(keys)).tolist()))
                default = float(rng.normal())
                nonneg, real = types
                got = nonneg.from_dict(c, weights).values
                assert got.tobytes() == gather_ref(c, weights, on_edges).tobytes()
                got = real.from_dict(c, signed, default=default).values
                want = gather_ref(c, signed, on_edges, default)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("items, exc, msg", [
        ([(("1", "1"), 1.0), (("1", "zz"), 1.0)], ValidationError,
         "('1', '1') is not an edge"),
        ([(("1", "2"), 1.0), (("zz", "1"), 1.0), (("2", "2"), 1.0)],
         UnknownStateError, "unknown state 'zz'"),
        ([(("1", "zz"), 1.0), (("yy", "1"), 1.0)], UnknownStateError,
         "unknown state 'zz'"),
        ([(("yy", "zz"), 1.0)], UnknownStateError, "unknown state 'yy'"),
    ])
    def test_first_bad_edge_key_in_mapping_order(self, two_state_12, items, exc, msg):
        for cls in (Flow, EdgeFunction):
            with pytest.raises(exc) as info:
                cls.from_dict(two_state_12, dict(items))
            assert type(info.value) is exc and str(info.value) == msg

    def test_first_bad_state_key_in_mapping_order(self, two_state_12):
        with pytest.raises(UnknownStateError, match="^unknown state 'zz'$") as info:
            VertexFunction.from_dict(two_state_12, {"1": 1.0, "zz": 2.0, "yy": 3.0})
        assert info.value.state == "zz"


class TestExitRates:
    def test_single_outgoing_edge(self, two_state_12):
        assert two_state_12.exit_rates[two_state_12.state_index("1")] == 1.0

    def test_sum_of_two_rates(self):
        c = ChainSpec(
            ["1", "2", "3"],
            {("1", "2"): 0.5, ("1", "3"): 1.5, ("2", "1"): 1.0, ("3", "1"): 1.0},
        )
        assert c.exit_rates[c.state_index("1")] == 2.0


class TestApplyGenerator:
    def test_kills_constants(self, three_cycle_unit):
        f = VertexFunction(three_cycle_unit, [4.2, 4.2, 4.2])
        assert np.allclose(apply_generator(three_cycle_unit, f).values, 0.0)

    def test_two_state_direct_substitution(self):
        a, b = 1.3, 0.7
        c = ChainSpec(["1", "2"], {("1", "2"): a, ("2", "1"): b})
        f = VertexFunction(c, [0.0, 1.0])
        out = apply_generator(c, f)
        assert np.allclose(out.values, [a, -b])

    def test_three_cycle_hand_value(self, three_cycle_unit):
        f = VertexFunction(three_cycle_unit, [1.0, 2.0, 3.0])
        out = apply_generator(three_cycle_unit, f)
        assert np.allclose(out.values, [1.0, 1.0, -2.0])

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            f = VertexFunction(c, rng.normal(size=c.n_states))
            L = dense_generator(c)
            assert np.allclose(apply_generator(c, f).values, L @ f.values)


class TestStationaryDistribution:
    def test_symmetric_two_state(self, two_state_unit):
        pi = stationary_distribution(two_state_unit)
        assert np.allclose(pi.values, [0.5, 0.5])

    def test_two_state_hand_solve(self, two_state_12):
        pi = stationary_distribution(two_state_12)
        assert np.allclose(pi.values, [2 / 3, 1 / 3], atol=1e-14)

    def test_directed_cycle_uniform(self, three_cycle_unit):
        pi = stationary_distribution(three_cycle_unit)
        assert np.allclose(pi.values, 1 / 3, atol=1e-14)

    def test_balance_residual_on_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            c = random_irreducible_chain(rng)
            pi = stationary_distribution(c)
            residual = pi.values @ dense_generator(c)
            assert np.abs(residual).max() < 1e-12 * max(1.0, c.exit_rates.max())
            assert np.all(pi.values > 0)

    # seed -> pi at states 0, 999 and 1999, max pi, min pi, sum pi^2; pinned
    # when ChainSpec still kept a dense rate matrix
    GOLDEN = {
        2000: (
            0.0001786538533926232, 0.00026842793669239694, 0.00029705372129440976,
            0.0025926075618186465, 9.127750221289415e-06, 0.0006867973415192496,
        ),
        2001: (
            0.000761715149248347, 0.00023218839092087603, 0.0007454822273714426,
            0.003019372153465067, 1.1545999779214387e-05, 0.0006706270692608919,
        ),
    }

    @pytest.mark.parametrize("seed", [2000, 2001])
    def test_2000_state_chains_match_goldens(self, seed):
        c = sparse_chain(np.random.default_rng(seed), 2000)
        pi = stationary_distribution(c).values
        got = (pi[0], pi[999], pi[-1], pi.max(), pi.min(), (pi**2).sum())
        for g, want in zip(got, self.GOLDEN[seed]):
            assert math.isclose(g, want, rel_tol=1e-12)


def rates_large_chains(seed):
    """The four 2000-state chains of the benchmark's rates-large workload."""
    return [c for c, _, _ in rates_large_problems(seed)]


def max_relative_error(pi, ref):
    ref = ref.astype(float)
    return float(np.max(np.abs(pi - ref) / ref))


class TestSparseStationary:
    """Tree-preconditioned GMRES against a dense LU refined in long double."""

    def test_small_entry_of_a_rates_large_chain(self):
        c = rates_large_chains(1)[2]
        ref = stationary_ref(c)
        pi = stationary_distribution(c).values
        small = 1675  # pi about 6.2e-6, 2e-12 off under the dense LU solve
        assert math.isclose(float(ref[small]), 6.2e-6, rel_tol=0.01)
        assert math.isclose(pi[small], float(ref[small]), rel_tol=1e-13)
        assert max_relative_error(pi, ref) <= 1e-13

    def test_every_entry_of_a_sparse_chain(self):
        c = sparse_chain(np.random.default_rng(2000), 2000)
        pi = stationary_distribution(c).values
        assert max_relative_error(pi, stationary_ref(c)) <= 1e-13

    @pytest.mark.parametrize("seed", [5, 2])
    def test_stiff_chain(self, seed):
        # rates 10^U(-4,4): pi spans 15 decades. Jacobi-scaled GMRES
        # stalls on seed 5; seed 2 stalls unless the pin leaves the last
        # state, whose mass is 4e-13
        c = sparse_chain(np.random.default_rng(seed), 2000, log10_rate_span=4)
        pi = stationary_distribution(c).values
        assert pi.min() < 1e-12
        assert max_relative_error(pi, stationary_ref(c)) <= 1e-12

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps,
        reason="long double is double here: refinement gains no precision",
    )
    def test_refinement_reaches_a_few_ulps(self):
        # the restart cycles alone leave 3.5e-15 on this chain
        c = sparse_chain(np.random.default_rng(5), 2000, log10_rate_span=4)
        pi = stationary_distribution(c).values
        assert max_relative_error(pi, stationary_ref(c)) <= 2e-15

    def test_chain_above_the_old_state_cap(self):
        c = sparse_chain(np.random.default_rng(20_000), 20_000)
        pi = stationary_distribution(c)
        assert np.all(pi.values > 0)
        residual = np.abs(divergence(c, mu_flow(c, pi)).values).max()
        assert residual <= Tolerances().residual * max(1.0, c.exit_rates.max())

    def test_cycle_cap_raises_convergence_error(self, monkeypatch):
        c = sparse_chain(np.random.default_rng(5), 2000, log10_rate_span=4)
        monkeypatch.setattr(chain_module, "STATIONARY_MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError) as exc:
            stationary_distribution(c)
        assert exc.value.residual > chain_module.STATIONARY_RTOL

    def test_stall_is_accepted_only_within_the_residual_tolerance(self, monkeypatch):
        # with no target, the cycles run until the residual stops falling
        c = sparse_chain(np.random.default_rng(2000), 200)
        monkeypatch.setattr(chain_module, "STATIONARY_RTOL", 0.0)
        assert np.all(stationary_distribution(c).values > 0)
        strict = Tolerances().with_overrides(residual=1e-30)
        with pytest.raises(ConvergenceError, match="stalled"):
            stationary_distribution(c, strict)


class TestMuFlow:
    def test_point_mass_supported_on_out_edges(self, three_cycle_unit):
        mu = ProbabilityMeasure.point_mass(three_cycle_unit, "2")
        q = mu_flow(three_cycle_unit, mu)
        assert q.as_dict() == {("2", "3"): 1.0}

    def test_two_state_direct_product(self, two_state_12):
        mu = ProbabilityMeasure(two_state_12, [0.5, 0.5])
        q = mu_flow(two_state_12, mu)
        assert list(q.values) == [0.5, 1.0]


class TestDivergence:
    def test_cycle_indicator_is_divergence_free(self, three_cycle_unit):
        q = Flow(three_cycle_unit, [1.0, 1.0, 1.0])
        assert np.all(divergence(three_cycle_unit, q).values == 0.0)

    def test_single_edge(self, three_cycle_unit):
        q = Flow.from_dict(three_cycle_unit, {("1", "2"): 1.0})
        assert list(divergence(three_cycle_unit, q).values) == [1.0, -1.0, 0.0]

    def test_signed_edge_function_accepted(self, three_cycle_unit):
        f = EdgeFunction(three_cycle_unit, [1.0, -1.0, 0.0])
        assert list(divergence(three_cycle_unit, f).values) == [1.0, -2.0, 1.0]


class TestTiltedExitRate:
    def test_zero_tilt_recovers_exit_rates(self, two_state_12):
        F = EdgeFunction.zero(two_state_12)
        out = tilted_exit_rate(two_state_12, F)
        assert np.allclose(out.values, two_state_12.exit_rates)

    def test_constant_log2_doubles(self, two_state_12):
        F = EdgeFunction(two_state_12, np.full(2, math.log(2.0)))
        out = tilted_exit_rate(two_state_12, F)
        assert np.allclose(out.values, 2 * two_state_12.exit_rates)

    def test_single_edge_exponential(self, two_state_12):
        F = EdgeFunction.from_dict(two_state_12, {("1", "2"): 1.0})
        out = tilted_exit_rate(two_state_12, F)
        assert math.isclose(out.value("1"), math.e)

    def test_overflow_guard_two_sided(self, two_state_12):
        from dvrate import OverflowGuardError

        for v in (701.0, -701.0):
            F = EdgeFunction(two_state_12, [v, 0.0])
            with pytest.raises(OverflowGuardError):
                tilted_exit_rate(two_state_12, F)

    def test_overflow_guard_follows_tolerances(self, two_state_12):
        from dvrate import OverflowGuardError

        F = EdgeFunction(two_state_12, [5.0, 0.0])
        tilted_exit_rate(two_state_12, F)  # within the default guard
        low = Tolerances().with_overrides(exp_guard=4.0)
        with pytest.raises(OverflowGuardError, match="guard 4"):
            tilted_exit_rate(two_state_12, F, low)


class TestIsReversible:
    def test_any_two_state_chain(self, two_state_12):
        pi = stationary_distribution(two_state_12)
        assert is_reversible(two_state_12, pi)

    def test_directed_cycle_is_not(self, three_cycle_unit):
        pi = stationary_distribution(three_cycle_unit)
        assert not is_reversible(three_cycle_unit, pi)

    def test_symmetric_path_walk(self):
        c = ChainSpec(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "c"): 1.0, ("c", "b"): 1.0},
        )
        assert is_reversible(c, stationary_distribution(c))

    def test_symmetric_edges_failing_kolmogorov_is_not(self):
        # rate 2 clockwise, 1 counter-clockwise: every edge has its reverse,
        # but the cycle products 8 and 1 differ
        c = ChainSpec(
            ["1", "2", "3"],
            {
                ("1", "2"): 2.0, ("2", "3"): 2.0, ("3", "1"): 2.0,
                ("2", "1"): 1.0, ("3", "2"): 1.0, ("1", "3"): 1.0,
            },
        )
        assert np.all(c.reverse_edge >= 0)
        assert not is_reversible(c, stationary_distribution(c))
        with pytest.raises(NotReversibleError):
            reversible_rate(c, ProbabilityMeasure.uniform(c))

    def test_conductance_construction_is_reversible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = random_reversible_chain(rng)
            assert is_reversible(c, stationary_distribution(c))


class TestCrossChainGuard:
    def test_objects_must_share_the_chain(self, two_state_unit, two_state_12):
        mu = ProbabilityMeasure.uniform(two_state_unit)
        with pytest.raises(ValidationError, match="different chain"):
            mu_flow(two_state_12, mu)
