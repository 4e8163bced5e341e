import math

import numpy as np
import pytest

from dvrate import (
    ChainSpec,
    EventEstimate,
    Flow,
    HalfSpaceEvent,
    OverflowGuardError,
    ProbabilityMeasure,
    RNG_ALGORITHM,
    Trajectory,
    ValidationError,
    VertexFunction,
    closed_empirical_pair,
    divergence,
    empirical_pair,
    estimate_event_probability,
    estimate_ldp_slope,
    gradient,
    joint_rate,
    simulate,
    stationary_distribution,
    tilted_chain,
    tilted_exit_rate,
    tilted_simulate,
)

from dvrate import montecarlo
from conftest import hub_chain, random_irreducible_chain, sparse_chain
from oracles import cumulative_rates_ref, gillespie_ref, wls_fit_ref


class TestSimulate:
    def test_reproducible_bit_for_bit(self, two_state_unit):
        a = simulate(two_state_unit, "1", 50.0, seed=7)
        b = simulate(two_state_unit, "1", 50.0, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.dests, b.dests)
        assert np.array_equal(a.edge_ids, b.edge_ids)
        c = simulate(two_state_unit, "1", 50.0, seed=8)
        assert not np.array_equal(a.times, c.times)

    def test_rng_provenance(self, two_state_unit):
        t = simulate(two_state_unit, "1", 1.0, seed=3)
        assert t.rng == {"algorithm": RNG_ALGORITHM, "seed": 3}
        assert RNG_ALGORITHM == "numpy-philox4x64"

    def test_tiny_horizon_has_no_jumps(self, two_state_unit):
        t = simulate(two_state_unit, "2", 1e-12, seed=0)
        assert t.n_jumps == 0
        assert t.final_index == t.x0_index == 1
        occ = t.occupation_times()
        assert occ[1] == 1e-12 and occ[0] == 0.0

    def test_jump_count_five_sigma(self, two_state_unit):
        # unit exit rates everywhere: N ~ Poisson(T)
        T = 1e4
        t = simulate(two_state_unit, "1", T, seed=11)
        assert abs(t.n_jumps - T) <= 5 * math.sqrt(T)

    def test_target_selection_five_sigma(self):
        # out of the hub, edge rates 1 and 2: conditional split is 1/3 : 2/3
        c = ChainSpec(
            ["a", "b", "hub"],
            {
                ("hub", "a"): 1.0, ("hub", "b"): 2.0,
                ("a", "hub"): 1.0, ("b", "hub"): 1.0,
            },
        )
        t = simulate(c, "hub", 4000.0, seed=5)
        counts = np.bincount(t.edge_ids, minlength=c.n_edges)
        n_a = counts[c.edge_id("hub", "a")]
        n_b = counts[c.edge_id("hub", "b")]
        n = n_a + n_b
        assert n > 1000
        assert abs(n_b - 2 * n / 3) <= 5 * math.sqrt(n * 2 / 9)

    def test_holding_time_mean_five_sigma(self):
        # exit rate 3 at the hub: mean holding time 1/3
        c = ChainSpec(
            ["a", "b", "hub"],
            {
                ("hub", "a"): 1.0, ("hub", "b"): 2.0,
                ("a", "hub"): 1.0, ("b", "hub"): 1.0,
            },
        )
        t = simulate(c, "hub", 4000.0, seed=6)
        occ = t.occupation_times()
        counts = np.bincount(t.edge_ids, minlength=c.n_edges)
        departures = counts[c.edge_id("hub", "a")] + counts[c.edge_id("hub", "b")]
        mean_hold = occ[2] / departures
        assert abs(mean_hold - 1 / 3) <= 5 * (1 / 3) / math.sqrt(departures)

    def test_times_strictly_increasing_inside_horizon(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            c = random_irreducible_chain(rng)
            t = simulate(c, c.states[0], 25.0, seed=int(rng.integers(1 << 30)))
            assert np.all(np.diff(t.times) > 0)
            if t.n_jumps:
                assert t.times[0] > 0 and t.times[-1] < 25.0
            assert math.isclose(t.occupation_times().sum(), 25.0, rel_tol=1e-12)

    def test_rejects_bad_horizon(self, two_state_unit):
        for T in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                simulate(two_state_unit, "1", T, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True])
    def test_rejects_bad_seed(self, two_state_unit, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            simulate(two_state_unit, "1", 5.0, seed=seed)

    def test_numpy_integer_seed(self, two_state_unit):
        a = simulate(two_state_unit, "1", 20.0, seed=np.int64(7))
        b = simulate(two_state_unit, "1", 20.0, seed=7)
        assert np.array_equal(a.times, b.times)
        assert a.rng == b.rng

    def test_trajectory_rejects_unordered_times(self, two_state_unit):
        with pytest.raises(ValidationError):
            Trajectory(
                two_state_unit, 0, 10.0,
                np.array([2.0, 1.0]), np.array([1, 0]), np.array([0, 1]),
                {},
            )


def philox_keys(seedseqs):
    """The (m, 2) Philox keys of SeedSequences, as the batch kernel takes them."""
    return np.array([ss.generate_state(2, np.uint64) for ss in seedseqs])


class TestBatchKernel:
    """The batch kernel against the scalar reference, and the RNG contract:
    every sample is a pure function of SeedSequence((seed, stream, i)),
    whatever the chunking, block continuations or recording."""

    SEED, STREAM, N = 2024, 3, 200

    @pytest.fixture(
        params=["two_state_unit", "random_10_state", "stiff_500_state", "hub_300_leaves"]
    )
    def case(self, request):
        if request.param == "two_state_unit":
            return request.getfixturevalue("two_state_unit"), 50.0
        if request.param == "random_10_state":
            rng = np.random.default_rng(33)
            return random_irreducible_chain(rng, n_min=10, n_max=10), 10.0
        if request.param == "stiff_500_state":
            # exit rates up to 2.4e4 against a mean path of 25 jumps
            rng = np.random.default_rng(34)
            return sparse_chain(rng, 500, extra=9, log10_rate_span=4), 0.1
        # nine search steps out of the hub, none out of a leaf
        return hub_chain(np.random.default_rng(35)), 10.0

    def seeds(self):
        return [
            np.random.SeedSequence((self.SEED, self.STREAM, i))
            for i in range(self.N)
        ]

    def test_matches_scalar_reference(self, case):
        chain, T = case
        occ, counts = montecarlo._paths(chain, 0, T, philox_keys(self.seeds()))
        assert counts.sum() > 0
        for i, ss in enumerate(self.seeds()):
            ref_occ, ref_counts = gillespie_ref(chain, 0, T, ss)
            assert np.array_equal(counts[i], ref_counts)
            # numpy's SIMD log1p and math.log1p may differ by an ulp
            np.testing.assert_allclose(occ[i], ref_occ, rtol=1e-12, atol=0.0)

    def test_chunking_and_continuation_bit_identical(self, case):
        chain, T = case
        keys = philox_keys(self.seeds())
        occ, counts = montecarlo._paths(chain, 0, T, keys)
        for chunk in (1, 7, 4096):
            parts = [
                montecarlo._paths(chain, 0, T, keys[lo:lo + chunk])
                for lo in range(0, self.N, chunk)
            ]
            assert np.array_equal(np.concatenate([p[0] for p in parts]), occ)
            assert np.array_equal(np.concatenate([p[1] for p in parts]), counts)
        # blocks of 4 and 12 uniforms send every path with more than one or
        # five jumps through continuations
        for n_u in (4, 12):
            occ_c, counts_c = montecarlo._paths(chain, 0, T, keys, n_u=n_u)
            assert np.array_equal(occ_c, occ)
            assert np.array_equal(counts_c, counts)
        assert counts.sum(axis=1).max() > 5

    def test_uniforms_drawn_against_used(self, two_state_unit, monkeypatch):
        # a path at T = 50 reads 2 * jumps + 1 uniforms of its stream, about
        # 101, and draws one block of 2(lam + 4 sqrt(lam)) + 8 (lam = 50)
        # rounded up to 168, plus a block more in the rare long path
        drawn = []
        draw = montecarlo._draw

        def counting_draw(keys, n_u, start=0):
            drawn.append(len(keys) * n_u)
            return draw(keys, n_u, start)

        monkeypatch.setattr(montecarlo, "_draw", counting_draw)
        keys = montecarlo._sample_keys(2024, 0, 0, 4096)
        _, counts = montecarlo._paths(two_state_unit, 0, 50.0, keys)
        used = int((2 * counts.sum(axis=1) + 1).sum())
        assert sum(drawn) <= 1.7 * used

    def test_recording_path_matches_batch(self, case):
        chain, T = case
        keys = philox_keys(self.seeds())
        occ, counts = montecarlo._paths(chain, 0, T, keys)
        for i, key in enumerate(keys):
            for n_u in (None, 4, 12):
                times, dests, edges, rec_occ, rec_counts = montecarlo._record(
                    chain, 0, T, key, n_u=n_u
                )
                assert np.array_equal(rec_occ, occ[i])
                assert np.array_equal(rec_counts, counts[i])
                assert len(times) == len(dests) == len(edges) == counts[i].sum()
        # simulate() is the recorder on SeedSequence(seed)
        plain = [np.random.SeedSequence(s) for s in range(20)]
        occ, counts = montecarlo._paths(chain, 0, T, philox_keys(plain))
        for s in range(20):
            t = simulate(chain, chain.states[0], T, seed=s)
            assert np.array_equal(
                np.bincount(t.edge_ids, minlength=chain.n_edges), counts[s]
            )
            np.testing.assert_allclose(
                t.occupation_times(), occ[s], rtol=1e-12, atol=1e-12 * T
            )

    def test_estimates_independent_of_chunk_size(self, case, monkeypatch):
        chain, T = case
        event = HalfSpaceEvent.occupancy_at_least(
            chain, chain.states[0], 1.2 / chain.n_states
        )
        g = VertexFunction(chain, np.linspace(0.0, -0.4, chain.n_states))
        results = []
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            results.append(
                [
                    estimate_event_probability(
                        chain, event, T, self.N, seed=self.SEED,
                        stream=self.STREAM, tilt=tilt,
                    )
                    for tilt in (None, g)
                ]
            )
        assert results[0] == results[1] == results[2]
        assert results[0][0].hits > 0


class TestRngContract:
    """The bulk keys and the reused Philox against numpy's SeedSequence and
    a fresh Generator(Philox(SeedSequence(...))) per sample."""

    def triples(self):
        rng = np.random.default_rng(50)
        out = [
            (0, 0, 0), (0, 0, 1), (0, 0, 2**32 - 1), (7, 1, 0),
            (2**64, 2**32, 1), (2**64 + 12345, 2**33 + 7, 2**32 - 1),
            (10**22 + 3, 5, 0), (2**31 - 1, 2**32 - 1, 2**31),
        ]
        for _ in range(200):
            seed = int(rng.integers(1 << 62)) >> int(rng.integers(62))
            if rng.random() < 0.3:
                seed = (seed << int(rng.integers(1, 60))) + 1
            stream = int(rng.integers(1 << 40)) >> int(rng.integers(40))
            i = int(rng.integers(1 << 32)) >> int(rng.integers(32))
            out.append((seed, stream, i))
        return out

    def test_keys_equal_seed_sequence(self):
        for seed, stream, i in self.triples():
            keys = montecarlo._sample_keys(seed, stream, i, i + 1)
            ref = np.random.SeedSequence((seed, stream, i)).generate_state(2, np.uint64)
            assert keys.dtype == np.uint64 and keys.shape == (1, 2)
            assert np.array_equal(keys[0], ref), (seed, stream, i)

    def test_chunk_keys_equal_per_sample_keys(self):
        for seed, stream, lo, hi in [(2024, 3, 0, 300), (2**70 + 1, 2**32, 2**32 - 40, 2**32)]:
            seeds = [np.random.SeedSequence((seed, stream, i)) for i in range(lo, hi)]
            keys = montecarlo._sample_keys(seed, stream, lo, hi)
            assert np.array_equal(keys, philox_keys(seeds))

    @pytest.mark.parametrize("n_u", [1, 5, 307, 1264])
    def test_draw_rows_equal_fresh_generators(self, n_u):
        seeds = [np.random.SeedSequence((2**70 + 3, 5, i)) for i in range(6)]
        seeds.append(np.random.SeedSequence(0))
        u, hold = montecarlo._draw(philox_keys(seeds), n_u)
        assert u.shape == (len(seeds), n_u)
        for row, ss in zip(u, seeds):
            ref = np.random.Generator(np.random.Philox(ss)).random(n_u)
            assert np.array_equal(row, ref)
        assert np.array_equal(hold, -np.log1p(-u[:, 0::2]))

    @pytest.mark.parametrize("start", [0, 4, 64, 1264, 2**20])
    def test_draw_continues_the_stream(self, start):
        seeds = [np.random.SeedSequence((2**70 + 3, 5, i)) for i in range(6)]
        seeds.append(np.random.SeedSequence(0))
        u, hold = montecarlo._draw(philox_keys(seeds), 12, start)
        for row, ss in zip(u, seeds):
            ref = np.random.Generator(np.random.Philox(ss)).random(start + 12)
            assert np.array_equal(row, ref[start:])
        assert np.array_equal(hold, -np.log1p(-u[:, 0::2]))


class TestSimArrays:
    def test_cumulative_rates_equal_per_row_cumsum(self):
        rng = np.random.default_rng(41)
        chains = [random_irreducible_chain(rng) for _ in range(20)]
        chains += [sparse_chain(rng, 2000), sparse_chain(rng, 500, extra=9, log10_rate_span=4)]
        chains.append(hub_chain(rng))
        for c in chains:
            assert np.array_equal(montecarlo._sim_arrays(c)[1], cumulative_rates_ref(c))


class TestEmpiricalPair:
    def test_divergence_telescopes_to_endpoints(self):
        rng = np.random.default_rng(31)
        for k in range(20):
            c = random_irreducible_chain(rng)
            t = simulate(c, c.states[0], 20.0, seed=100 + k)
            pair = empirical_pair(t)
            div = divergence(c, Flow(c, pair.counts.astype(float))).values
            expect = np.zeros(c.n_states)
            expect[pair.x0_index] += 1.0
            expect[pair.final_index] -= 1.0
            assert np.array_equal(div, expect)

    def test_measure_and_flow_scaling(self, two_state_12):
        t = simulate(two_state_12, "1", 200.0, seed=1)
        pair = empirical_pair(t)
        assert math.isclose(pair.measure.values.sum(), 1.0, rel_tol=1e-12)
        assert np.array_equal(pair.flow.values, pair.counts / 200.0)
        assert pair.counts.sum() == t.n_jumps

    def test_zero_jump_path_gives_point_mass(self, two_state_unit):
        t = simulate(two_state_unit, "2", 1e-12, seed=0)
        pair = empirical_pair(t)
        assert np.array_equal(pair.measure.values, [0.0, 1.0])
        assert pair.flow.l1_norm == 0.0

    def test_ergodic_convergence(self, two_state_12):
        pi = stationary_distribution(two_state_12).values
        good = 0
        for seed in range(100):
            t = simulate(two_state_12, "1", 1e4, seed=seed)
            mu = empirical_pair(t).measure.values
            if np.abs(mu - pi).sum() <= 0.05:
                good += 1
        assert good >= 95


class TestClosedPair:
    def test_exact_circulation_and_finite_rate(self):
        rng = np.random.default_rng(32)
        for k in range(15):
            c = random_irreducible_chain(rng)
            t = simulate(c, c.states[0], 50.0, seed=200 + k)
            pair = closed_empirical_pair(t)
            if pair.counts.sum() == 0:
                continue
            div = divergence(c, Flow(c, pair.counts.astype(float))).values
            assert np.array_equal(div, np.zeros(c.n_states))
            v = joint_rate(c, pair.measure, pair.flow)
            assert v.is_finite

    def test_truncates_at_last_return(self, two_state_unit):
        t = simulate(two_state_unit, "1", 30.0, seed=2)
        pair = closed_empirical_pair(t)
        returns = np.nonzero(t.dests == t.x0_index)[0]
        assert pair.horizon == float(t.times[returns[-1]])
        assert pair.final_index == pair.x0_index
        assert math.isclose(pair.measure.values.sum(), 1.0, rel_tol=1e-12)

    def test_no_return_falls_back_to_point_mass(self, two_state_unit):
        t = simulate(two_state_unit, "2", 1e-12, seed=0)
        pair = closed_empirical_pair(t)
        assert np.array_equal(pair.measure.values, [0.0, 1.0])
        assert pair.flow.l1_norm == 0.0
        assert pair.counts.sum() == 0
        # rate of the fallback pair is the exit rate, still finite
        v = joint_rate(two_state_unit, pair.measure, pair.flow)
        assert v.is_finite and math.isclose(float(v), 1.0, rel_tol=1e-12)


class TestTilting:
    def test_tilted_rates_and_edge_order(self, two_state_unit):
        g = VertexFunction(two_state_unit, [0.0, math.log(2.0)])
        tc = tilted_chain(two_state_unit, g)
        assert tc.states == two_state_unit.states
        assert np.array_equal(tc.edge_src, two_state_unit.edge_src)
        assert np.array_equal(tc.edge_dst, two_state_unit.edge_dst)
        assert np.allclose(tc.edge_rates, [2.0, 0.5], rtol=1e-15)

    def test_guard_both_signs(self, two_state_unit):
        # the same check as tilted_exit_rate's, with the same message
        for v in (701.0, -701.0):
            g = VertexFunction(two_state_unit, [0.0, v])
            with pytest.raises(OverflowGuardError) as chain_err:
                tilted_chain(two_state_unit, g)
            with pytest.raises(OverflowGuardError) as rate_err:
                tilted_exit_rate(two_state_unit, gradient(g))
            assert str(chain_err.value) == str(rate_err.value)

    def test_exit_rates_are_tilted_exit_rates(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            c = random_irreducible_chain(rng)
            g = VertexFunction(c, rng.normal(0.0, 2.0, size=c.n_states))
            assert np.array_equal(
                tilted_chain(c, g).exit_rates, tilted_exit_rate(c, gradient(g)).values
            )

    def test_underflowing_rate_is_rejected_not_dropped(self):
        # a->b tilts to 1e-300 * e^-700 == 0.0; without a->b the chain is still
        # irreducible, so dropping the edge would silently renumber the edges
        c = ChainSpec(
            ["a", "b", "c"],
            {
                ("a", "b"): 1e-300, ("a", "c"): 1.0, ("b", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "a"): 1.0, ("c", "b"): 1.0,
            },
        )
        g = VertexFunction(c, [0.0, -700.0, -350.0])
        with pytest.raises(ValidationError, match="positive and finite"):
            tilted_chain(c, g)

    def test_constant_potential_is_identity(self, two_state_12):
        g = VertexFunction(two_state_12, [5.0, 5.0])
        tc = tilted_chain(two_state_12, g)
        assert np.array_equal(tc.edge_rates, two_state_12.edge_rates)
        assert tilted_chain(two_state_12, VertexFunction.zero(two_state_12)).same_as(
            two_state_12
        )
        run = tilted_simulate(two_state_12, g, "1", 40.0, seed=9)
        plain = simulate(two_state_12, "1", 40.0, seed=9)
        assert run.log_weight == 0.0
        assert np.array_equal(run.trajectory.times, plain.times)
        assert np.array_equal(run.trajectory.edge_ids, plain.edge_ids)

    def test_log_weight_matches_pathwise_formula(self, two_state_12):
        g = VertexFunction(two_state_12, [0.0, 0.3])
        run = tilted_simulate(two_state_12, g, "1", 25.0, seed=10)
        t = run.trajectory
        counts = np.bincount(t.edge_ids, minlength=two_state_12.n_edges)
        dg = g.values[two_state_12.edge_dst] - g.values[two_state_12.edge_src]
        jump_term = -float(counts @ dg)
        occ = t.occupation_times()
        integral = float(occ @ (run.tilted.exit_rates - two_state_12.exit_rates))
        assert math.isclose(run.log_weight, jump_term + integral, rel_tol=1e-12)

    def test_log_weight_matches_the_estimators_weight(self):
        # tilted_simulate's path and the batch row of the same Philox key carry
        # one weight, up to the rounding of their occupation times; the
        # estimator's weight of a one-sample run is e^(that row's weight)
        rng = np.random.default_rng(41)
        c = random_irreducible_chain(rng)
        g = VertexFunction(c, rng.normal(0.0, 0.5, size=c.n_states))
        tc = tilted_chain(c, g)
        jump = g.values[c.edge_src] - g.values[c.edge_dst]
        gap = tc.exit_rates - c.exit_rates

        def row_weight(key):
            occ, counts = montecarlo._paths(tc, 0, 20.0, np.reshape(key, (1, 2)))
            return float((counts[0] * jump).sum() + (occ[0] * gap).sum())

        everything = HalfSpaceEvent.from_terms(c, [(x, 1.0) for x in c.states], 0.5)
        for seed in range(5):
            run = tilted_simulate(c, g, c.states[0], 20.0, seed)
            key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
            assert math.isclose(run.log_weight, row_weight(key), rel_tol=1e-12)
            est = estimate_event_probability(c, everything, 20.0, 1, seed, tilt=g)
            key = montecarlo._sample_keys(seed, 0, 0, 1)[0]
            assert est.p_hat == math.exp(row_weight(key))

    def test_importance_weights_average_to_one(self, two_state_unit):
        # E[dP/dP~] = 1: estimate the whole simplex under a genuine tilt
        g = VertexFunction(two_state_unit, [0.0, -0.5])
        event = HalfSpaceEvent.from_terms(two_state_unit, [("1", 1.0), ("2", 1.0)], 0.5)
        est = estimate_event_probability(
            two_state_unit, event, horizon=15.0, samples=3000, seed=13, tilt=g
        )
        assert est.hits == 3000
        assert abs(est.p_hat - 1.0) <= 4 * est.stderr

    def test_tilted_and_naive_estimates_agree(self, two_state_unit):
        event = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.6)
        g = VertexFunction(two_state_unit, [0.0, -0.5 * math.log(1.5)])
        naive = estimate_event_probability(
            two_state_unit, event, horizon=60.0, samples=6000, seed=14
        )
        tilt = estimate_event_probability(
            two_state_unit, event, horizon=60.0, samples=2000, seed=15, tilt=g
        )
        sigma = math.hypot(naive.stderr, tilt.stderr)
        assert abs(naive.p_hat - tilt.p_hat) <= 3 * sigma
        # the tilt concentrates on the event: better per-sample efficiency
        assert tilt.stderr * math.sqrt(2000) < naive.stderr * math.sqrt(6000)


class TestEvents:
    def test_occupancy_threshold(self, three_cycle_unit):
        ev = HalfSpaceEvent.occupancy_at_least(three_cycle_unit, "1", 0.5)
        assert ev.satisfied(np.array([0.6, 0.3, 0.1]))
        assert ev.satisfied(np.array([0.5, 0.25, 0.25]))
        assert not ev.satisfied(np.array([0.4, 0.3, 0.3]))

    def test_from_terms_and_intersection(self, three_cycle_unit):
        ev1 = HalfSpaceEvent.from_terms(
            three_cycle_unit, [("1", 0.5), ("2", 0.5)], 0.3
        )
        ev2 = HalfSpaceEvent.occupancy_at_least(three_cycle_unit, "3", 0.2)
        both = ev1.intersect(ev2)
        assert both.satisfied(np.array([0.4, 0.3, 0.3]))
        assert not both.satisfied(np.array([0.5, 0.4, 0.1]))   # fails 3 >= 0.2
        assert not both.satisfied(np.array([0.1, 0.2, 0.7]))   # fails the sum
        assert both.describe() == ["0.5*1 + 0.5*2 >= 0.3", "1*3 >= 0.2"]

    def test_repeated_state_coefficients_accumulate(self, two_state_unit):
        ev = HalfSpaceEvent.from_terms(two_state_unit, [("1", 0.5), ("1", 0.5)], 0.7)
        assert ev.satisfied(np.array([0.8, 0.2]))
        assert not ev.satisfied(np.array([0.6, 0.4]))


class TestEventProbability:
    def test_certain_event(self, two_state_unit):
        ev = HalfSpaceEvent.from_terms(two_state_unit, [("1", 1.0), ("2", 1.0)], 0.5)
        est = estimate_event_probability(two_state_unit, ev, 5.0, 500, seed=0)
        assert est == EventEstimate(1.0, 0.0, 500, 500, 5.0)

    def test_impossible_event(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 2.0)
        est = estimate_event_probability(two_state_unit, ev, 5.0, 300, seed=0)
        assert est.p_hat == 0.0 and est.hits == 0 and est.stderr == 0.0

    def test_reproducible_and_stream_separated(self, two_state_12):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_12, "2", 0.5)
        a = estimate_event_probability(two_state_12, ev, 30.0, 400, seed=21)
        b = estimate_event_probability(two_state_12, ev, 30.0, 400, seed=21)
        assert a == b
        c = estimate_event_probability(two_state_12, ev, 30.0, 400, seed=21, stream=1)
        d = estimate_event_probability(two_state_12, ev, 30.0, 400, seed=22)
        assert a != c
        assert a != d

    def test_start_state_changes_short_horizon_odds(self, two_state_12):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_12, "2", 0.9)
        from2 = estimate_event_probability(
            two_state_12, ev, 0.5, 400, seed=23, x0="2"
        )
        from1 = estimate_event_probability(
            two_state_12, ev, 0.5, 400, seed=23, x0="1"
        )
        assert from2.p_hat > from1.p_hat

    def test_rejects_zero_samples(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError):
            estimate_event_probability(two_state_unit, ev, 5.0, 0, seed=0)

    @pytest.mark.parametrize("T", [-5.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, two_state_unit, T):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match="horizon must be positive"):
            estimate_event_probability(two_state_unit, ev, T, 10, seed=0)

    @pytest.mark.parametrize(
        "kw, what",
        [({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"),
         ({"seed": 0, "stream": -2}, "stream"), ({"seed": 0, "stream": 1.0}, "stream")],
    )
    def test_rejects_bad_seed_or_stream(self, two_state_unit, kw, what):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match=f"{what} must be a non-negative integer"):
            estimate_event_probability(two_state_unit, ev, 5.0, 10, **kw)

    @pytest.mark.parametrize("samples", [0, -3, 2.5, 10.0, True, "5", None])
    def test_rejects_bad_samples(self, two_state_unit, samples):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match="samples must be a positive integer"):
            estimate_event_probability(two_state_unit, ev, 5.0, samples, seed=0)
        with pytest.raises(ValidationError, match="samples must be a positive integer"):
            estimate_ldp_slope(two_state_unit, ev, (5.0, 10.0), samples, seed=0)

    def test_numpy_integer_samples(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        a = estimate_event_probability(two_state_unit, ev, 5.0, np.int64(50), seed=0)
        assert a == estimate_event_probability(two_state_unit, ev, 5.0, 50, seed=0)
        assert type(a.samples) is int

    def test_rejects_more_samples_than_index_words(self, two_state_unit):
        # one 32-bit word of sample index; raised before anything is allocated
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match="at most 2\\*\\*32 samples"):
            estimate_event_probability(two_state_unit, ev, 5.0, 2**32 + 1, seed=0)


class TestSlope:
    def test_two_state_slope_near_rate(self, two_state_unit):
        # decay of P(mu_T(1) >= 0.6) with the 1/T correction stripped
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.6)
        est = estimate_ldp_slope(
            two_state_unit, ev, horizons=(25.0, 50.0, 100.0), samples=4000, seed=40
        )
        rate = 1 - 2 * math.sqrt(0.24)
        assert est.slope is not None
        assert abs(est.slope - rate) <= 0.4 * rate
        assert est.lower_bounds == {}
        assert all(s is not None for s in est.per_horizon_slopes)

    def test_fit_matches_weighted_least_squares_reference(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.6)
        est = estimate_ldp_slope(
            two_state_unit, ev, horizons=(20.0, 40.0, 80.0), samples=2000, seed=41
        )
        xs = [1.0 / T for T in est.horizons]
        ys = list(est.per_horizon_slopes)
        ws = [
            1.0 / max(se / (T * p), 1e-12) ** 2
            for T, p, se in zip(est.horizons, est.probabilities, est.stderrs)
        ]
        a, b = wls_fit_ref(xs, ys, ws)
        assert math.isclose(a, est.slope, rel_tol=1e-10)
        assert math.isclose(b, est.intercept_over_t, rel_tol=1e-10)

    def test_zero_hits_reported_as_bounds(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 2.0)
        est = estimate_ldp_slope(
            two_state_unit, ev, horizons=(5.0, 10.0), samples=100, seed=42
        )
        assert est.slope is None and est.slope_stderr is None
        assert est.per_horizon_slopes == (None, None)
        assert est.probabilities == (0.0, 0.0)
        assert est.lower_bounds == {
            5.0: -math.log(3.0 / 100) / 5.0,
            10.0: -math.log(3.0 / 100) / 10.0,
        }

    def test_single_usable_horizon_gives_no_fit(self, two_state_unit):
        # certain at the short horizon, unobservable at the long one
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.9)
        est = estimate_ldp_slope(
            two_state_unit, ev, horizons=(0.05, 400.0), samples=60, seed=43, x0="1"
        )
        assert est.per_horizon_slopes[0] is not None
        assert est.per_horizon_slopes[1] is None
        assert est.slope is None
        assert list(est.lower_bounds) == [400.0]

    def test_rejects_empty_horizons(self, two_state_unit):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError):
            estimate_ldp_slope(two_state_unit, ev, horizons=(), samples=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, two_state_unit, seed):
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            estimate_ldp_slope(two_state_unit, ev, (5.0, 10.0), samples=10, seed=seed)

    @pytest.mark.parametrize("T", [-5.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, two_state_unit, T):
        # checked before any horizon is simulated, wherever the bad one sits
        ev = HalfSpaceEvent.occupancy_at_least(two_state_unit, "1", 0.5)
        with pytest.raises(ValidationError, match="horizon must be positive"):
            estimate_ldp_slope(two_state_unit, ev, (5.0, T), samples=10, seed=0)
