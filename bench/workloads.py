"""The four workloads: seeded inputs, one round of public calls, and the
traced probe that adds the per-layer calls.

A workload object is built from (seed, work directory), which makes its
inputs; `warm_up()` ends the set-up. `round(rec)` makes the workload's
public calls once, in the order the entry point makes them, and checks each
output. `probe(rec)` makes the same calls plus the per-layer ones (graph
partition, functionals, certification, allocation peaks) under a tracer.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import inputs
from dvrate import (
    DEFAULT_TOLERANCES,
    ChainSpec,
    HalfSpaceEvent,
    ProbabilityMeasure,
    VertexFunction,
    condensation,
    duality_check,
    dv_objective,
    dv_sup,
    estimate_event_probability,
    estimate_ldp_slope,
    gradient,
    is_gradient,
    joint_rate,
    load_chain,
    load_measure,
    minimize_flow,
    mutual_reachability_classes,
    simulate,
    stationary_distribution,
    support_graph,
)
from dvrate.solver import APPROX_LEVELS

TOL = DEFAULT_TOLERANCES


def own_edges(n: int, rates: dict):
    """Edge arrays sorted by (src, dst) from a rate dict keyed by index pairs."""
    keys = sorted(rates)
    src = np.array([y for y, _ in keys], dtype=np.int64)
    dst = np.array([z for _, z in keys], dtype=np.int64)
    return src, dst, np.array([rates[k] for k in keys])


def edge_problems(chain, src, dst, rates) -> list:
    """The program's edge arrays are the ones we built, in (src, dst) order."""
    if not (np.array_equal(chain.edge_src, src) and np.array_equal(chain.edge_dst, dst)
            and np.array_equal(chain.edge_rates, rates)):
        return ["chain edge arrays differ from the input"]
    return []


def peak_alloc_mb(fn) -> float:
    """tracemalloc peak of fn(), in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# rate solves, shared by rates-small and rates-large


class Problem:
    """One (chain, measure) input with our own copy of its arrays."""

    def __init__(self, workload, ident, chain, src, dst, rates, mu_vals, kind, potentials):
        self.workload = workload
        self.ident = ident
        self.chain = chain
        self.src, self.dst, self.rates = src, dst, rates
        self.mu_vals = mu_vals
        self.mu = ProbabilityMeasure(chain, mu_vals)
        self.kind = kind
        self.potentials = potentials  # random potentials for weak duality

    @property
    def arrays(self):
        return self.src, self.dst, self.rates, self.mu_vals


def optimal_potential(res) -> VertexFunction:
    """The maximizer when attained, else the top approximating level."""
    if res.attained:
        return VertexFunction(res.optimal_flow.chain,
                              np.sum([g.values for g in res.class_potentials], axis=0))
    return res.approximating.build(APPROX_LEVELS[-1])


def _mf_problems(pb: Problem, r) -> list:
    out = checks.flow_problems(*pb.arrays, r.optimal_flow.values, r.rate_inf,
                               TOL.solver_gradient)
    out += checks.close_problems("rate_sup", r.rate_sup, r.rate_inf, TOL.duality_rel)
    pots = list(pb.potentials)
    if not r.attained:
        pots += [r.approximating.build(n).values for n in APPROX_LEVELS]
    return out + checks.weak_duality_problems(*pb.arrays, r.rate_inf, pots)


def _dv_problems(pb: Problem, d, ref: float) -> list:
    seq = {} if d.attained else {n: d.sequence.build(n).values for n in APPROX_LEVELS}
    return checks.dv_sup_problems(
        *pb.arrays, d.value, d.maximizer.values if d.attained else None,
        d.certificate, seq, ref, TOL.duality_rel,
    )


def solve(rec, pb: Problem, fenchel: bool, probe: bool = False):
    """minimize_flow, dv_sup and (optionally) duality_check on one problem;
    with probe, also the graph, functional and certification calls."""
    chain, mu = pb.chain, pb.mu
    tag = {"workload": pb.workload, "input": pb.ident, "kind": pb.kind}
    if probe:
        rec.call("graphs.partition",
                 lambda: condensation(mutual_reachability_classes(support_graph(chain, mu))),
                 counted=False, **tag)
    r = rec.call("solver.minimize_flow", lambda: minimize_flow(chain, mu),
                 check=lambda r: _mf_problems(pb, r), **tag)
    ref = math.nan if r is None else r.rate_inf
    if r is not None:
        rec.annotate(method=r.method, iterations=r.iterations)
    if probe and r is not None:
        g = optimal_potential(r)
        rec.call("functionals.dv_objective", lambda: dv_objective(chain, mu, g), counted=False,
                 check=lambda v: checks.close_problems("DV at optimum", v, ref, TOL.duality_rel), **tag)
        rec.call("functionals.joint_rate", lambda: joint_rate(chain, mu, r.optimal_flow),
                 counted=False,
                 check=lambda v: checks.close_problems("joint rate", float(v), ref, checks.ARITH_REL),
                 **tag)
        if not r.attained:
            rec.call("solver.certify",
                     lambda: [dv_objective(chain, mu, r.approximating.build(n)) for n in APPROX_LEVELS],
                     counted=False,
                     check=lambda vs: checks.weak_duality_problems(
                         *pb.arrays, ref, [r.approximating.build(n).values for n in APPROX_LEVELS]),
                     **tag)
    rec.call("solver.dv_sup", lambda: dv_sup(chain, mu),
             check=lambda d: _dv_problems(pb, d, ref), **tag)
    if not fenchel:
        return
    f = rec.call("fenchel.duality_check", lambda: duality_check(chain, mu),
                 check=lambda f: checks.duality_problems(f.rate_inf, f.rate_sup, f.candidates,
                                                         ref, TOL.duality_rel), **tag)
    if probe and f is not None:
        res = f.contraction
        cands = [optimal_potential(res)] if res.attained else [
            res.approximating.build(n) for n in APPROX_LEVELS]
        sg = res.partition.support
        for g in cands:
            grad = gradient(g)
            rec.call("graphs.is_gradient", lambda: is_gradient(sg, grad), counted=False,
                     check=lambda c: [] if c.is_gradient else ["candidate is not a gradient"],
                     **tag)


class RatesSmall:
    """200 chains of 2-10 states, each with a full-support measure and a
    measure with zeros; minimize_flow, dv_sup and duality_check on each."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.problems = []
        family = inputs.small_family()
        for i in rng.permutation(len(family)):
            n, rates, full, zeros = family[i]
            names = inputs.state_names(rng, n)
            chain = ChainSpec(names, {(names[y], names[z]): r for (y, z), r in rates.items()})
            src, dst, r = own_edges(n, rates)
            pots = [rng.normal(0.0, 2.0, size=n) for _ in range(2)]
            for kind, vals in (("full", full), ("degenerate", zeros)):
                self.problems.append(Problem("rates-small", f"small{i}-{kind}", chain,
                                             src, dst, r, vals, kind, pots))

    def warm_up(self):
        minimize_flow(self.problems[0].chain, self.problems[0].mu)

    def round(self, rec):
        for pb in self.problems:
            solve(rec, pb, fenchel=True)

    def probe(self, rec):
        for pb in self.problems:
            solve(rec, pb, fenchel=True, probe=True)

    def peak_rss_mb(self) -> float:
        return self_rss_mb()


class RatesLarge:
    """Chains at the 2000-state cap, built through ChainSpec in the loop;
    stationary_distribution, then minimize_flow and dv_sup on a full-support
    measure and on one that vanishes on a tenth of the states."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        n = inputs.LARGE_STATES
        self.chains = []
        for c in range(inputs.LARGE_CHAINS):
            states = [f"v{i}" for i in range(n)]
            src, dst, r = inputs.sparse_chain(rng, n)
            by_index = dict(zip(zip(src.tolist(), dst.tolist()), r.tolist()))
            self.chains.append({
                "ident": f"large{c}",
                "states": states,
                "rates": inputs.rates_dict(states, src, dst, r),
                "own": own_edges(n, by_index),
                "measures": (("full", inputs.full_measure(rng, n)),
                             ("degenerate", inputs.tenth_zero_measure(rng, n))),
                "potentials": [rng.normal(0.0, 2.0, size=n) for _ in range(2)],
            })

    def warm_up(self):
        rng = np.random.default_rng(0)
        src, dst, r = inputs.sparse_chain(rng, 50)
        states = [f"w{i}" for i in range(50)]
        chain = ChainSpec(states, inputs.rates_dict(states, src, dst, r))
        minimize_flow(chain, ProbabilityMeasure.uniform(chain))

    def _chain(self, rec, c, probe=False):
        src, dst, r = c["own"]
        chain = rec.call("chain.build", lambda: ChainSpec(c["states"], c["rates"]),
                         counted=False, check=lambda ch: edge_problems(ch, src, dst, r),
                         input=c["ident"])
        if chain is None:
            return
        rec.call("chain.stationary", lambda: stationary_distribution(chain),
                 check=lambda pi: checks.stationary_problems(src, dst, r, pi.values, TOL.residual),
                 input=c["ident"])
        for kind, vals in c["measures"]:
            pb = Problem("rates-large", f"{c['ident']}-{kind}", chain, src, dst, r, vals, kind,
                         c["potentials"])
            solve(rec, pb, fenchel=False, probe=probe)

    def round(self, rec):
        for c in self.chains:
            self._chain(rec, c)

    def probe(self, rec):
        """The first chain only, plus tracemalloc peaks of its build and
        stationary solve and of minimize_flow on each of its measures."""
        c = self.chains[0]
        self._chain(rec, c, probe=True)
        built = {}

        def build_and_solve():
            built["chain"] = ChainSpec(c["states"], c["rates"])
            stationary_distribution(built["chain"])

        with rec.tracer.span("chain.alloc") as s:
            s["peak_mb"] = peak_alloc_mb(build_and_solve)
        chain = built["chain"]
        with rec.tracer.span("solver.alloc") as s:
            s["peak_mb"] = max(
                peak_alloc_mb(lambda: minimize_flow(chain, ProbabilityMeasure(chain, vals)))
                for _, vals in c["measures"]
            )

    def peak_rss_mb(self) -> float:
        return self_rss_mb()


# ---------------------------------------------------------------------------
# Monte Carlo


class McSlope:
    """The decay slope of mu(1) >= 0.6 on the unit 2-state chain, naive and
    tilted estimates at T=50, one estimate on a 50-state chain, and one
    recorded path of about 1e5 jumps."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=5)]
        a, b = inputs.MC_TWO_RATES
        self.two = ChainSpec(["1", "2"], {("1", "2"): a, ("2", "1"): b})
        self.event = HalfSpaceEvent.occupancy_at_least(self.two, "1", inputs.MC_THETA)
        self.tilt = VertexFunction(self.two, np.array(inputs.MC_TILT))
        n = inputs.MC_N50_STATES
        states = [f"m{i}" for i in range(n)]
        src, dst, r = inputs.sparse_chain(rng, n)
        self.n50 = ChainSpec(states, inputs.rates_dict(states, src, dst, r))
        self.n50_event = HalfSpaceEvent.occupancy_at_least(self.n50, states[0], inputs.MC_N50_THETA)
        self.two_arrays = (np.array([0, 1]), np.array([1, 0]))
        # expected jumps per unit time, sum_x pi(x) r(x); for rates a = r(1,2),
        # b = r(2,1): pi = (b, a) / (a + b), so it is 2ab / (a + b)
        self.jumps_per_time = 2.0 * a * b / (a + b)
        self.closed_form = 1.0 - 2.0 * math.sqrt(0.24)

    def warm_up(self):
        estimate_event_probability(self.two, self.event, 50.0, 64, 0)

    def _estimate(self, horizon, seed, chain=None, event=None, tilt=None):
        return lambda: estimate_event_probability(chain or self.two, event or self.event, horizon,
                                                  inputs.MC_SAMPLES, seed, tilt=tilt)

    @staticmethod
    def _naive_check(e):
        return checks.naive_estimate_problems(e.p_hat, e.stderr, e.hits, e.samples)

    def _path_check(self, traj):
        src, dst = self.two_arrays
        return checks.path_problems(src, dst, 2, traj.x0_index, traj.horizon, traj.times,
                                    traj.dests, traj.edge_ids, traj.occupation_times())

    def _common(self, rec):
        s_naive, s_tilt, s_n50, s_sim = self.seeds[1:]
        naive = rec.call("montecarlo.estimate", self._estimate(50.0, s_naive),
                         check=self._naive_check, kind="naive", horizon=50.0)
        rec.call("montecarlo.estimate", self._estimate(50.0, s_tilt, tilt=self.tilt),
                 check=lambda t: ["no naive estimate to compare"] if naive is None else
                 checks.agree_problems(naive.p_hat, naive.stderr, t.p_hat, t.stderr),
                 kind="tilted", horizon=50.0)
        rec.call("montecarlo.estimate",
                 self._estimate(50.0, s_n50, chain=self.n50, event=self.n50_event),
                 check=self._naive_check, kind="n50", horizon=50.0)
        traj = rec.call("montecarlo.simulate",
                        lambda: simulate(self.two, "1", inputs.MC_SIMULATE_HORIZON, s_sim),
                        check=self._path_check)
        if traj is not None:
            rec.annotate(jumps=traj.n_jumps)

    def round(self, rec):
        rec.call("montecarlo.slope",
                 lambda: estimate_ldp_slope(self.two, self.event, inputs.MC_HORIZONS,
                                            inputs.MC_SAMPLES, self.seeds[0]),
                 check=lambda est: checks.slope_problems(est.slope, self.closed_form))
        self._common(rec)

    def probe(self, rec):
        """The round's estimators and path without the slope, plus a naive
        estimate at T=400, one at a horizon so short that paths barely jump,
        and the tracemalloc peak of one estimator call."""
        self._common(rec)
        for T in (inputs.MC_HORIZONS[-1], inputs.MC_SHORT_HORIZON):
            rec.call("montecarlo.estimate", self._estimate(T, self.seeds[1]),
                     check=self._naive_check, kind="naive", horizon=T, counted=False)
        with rec.tracer.span("montecarlo.alloc") as s:
            s["peak_mb"] = peak_alloc_mb(self._estimate(50.0, self.seeds[1]))

    def peak_rss_mb(self) -> float:
        return self_rss_mb()


# ---------------------------------------------------------------------------
# CLI


class Cli:
    """One `python -m dvrate.cli` process per command, one at a time, on
    small JSON files written at set-up."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        f = inputs.write_cli_inputs(rng, work)
        self.files = f
        self.work = work
        four = f["four"]
        s_sim, s_slope = (str(int(s)) for s in rng.integers(0, 2**31, size=2))
        self.expect = {
            "cycle_rate": inputs.three_cycle_rate(),
            "cycle_mu": list(inputs.THREE_CYCLE_MU),
            "duality_rel": TOL.duality_rel,
            "gradient_tol": TOL.solver_gradient,
            "joint_rate": checks.phi_sum(four["flow"], four["mu"][four["src"]] * four["rates"]),
            "samples": inputs.CLI_SLOPE_SAMPLES,
            "horizons": [50.0, 100.0, 200.0, 400.0],
            **four,
        }
        cyc, mu = f["cycle.json"], f["cycle_mu.json"]
        self.commands = [
            ("validate", [cyc]),
            ("stationary", [cyc]),
            ("rate", [f["four.json"], f["four_mu.json"], "--flow", f["four_flow.json"]]),
            ("min-flow", [cyc, mu]),
            ("dv-sup", [cyc, mu]),
            ("duality", [cyc, mu]),
            ("decompose", [f["four.json"], f["four_flow.json"]]),
            ("simulate", [cyc, "--horizon", str(inputs.CLI_SIMULATE_HORIZON), "--seed", s_sim]),
            ("ldp-slope", [f["two.json"], "--event", "1>=0.6", "--samples",
                           str(inputs.CLI_SLOPE_SAMPLES), "--seed", s_slope]),
        ]
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
        self.max_child_kb = 0

    def run(self, argv):
        """Run one child to its end; returns (exit code, stdout bytes) and
        keeps the largest child's peak RSS."""
        with open(self.work / "stderr.txt", "wb") as err:
            p = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                 stderr=err, env=self.env, cwd=self.work)
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_kb = max(self.max_child_kb, usage.ru_maxrss)
        return p.returncode, out

    def _check(self, command, result):
        code, out = result
        if code != 0:
            err = (self.work / "stderr.txt").read_text()
            return [f"{command} exited {code}: {err.strip()[:200]}"]
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return [f"{command} wrote invalid JSON: {exc}"]
        return checks.cli_problems(command, payload, self.expect)

    def warm_up(self):
        self.run(["-m", "dvrate.cli", "validate", self.files["cycle.json"]])
        self.max_child_kb = 0

    def round(self, rec):
        for command, args in self.commands:
            rec.call(f"cli.{command.replace('-', '_')}",
                     lambda: self.run(["-m", "dvrate.cli", command, *args]),
                     check=lambda res: self._check(command, res))

    def probe(self, rec):
        """The round, then `import dvrate` against a bare interpreter in fresh
        processes, and load_chain + load_measure on the cli inputs."""
        self.round(rec)
        for _ in range(3):
            for name, code in (("init.bare", "pass"), ("init.import", "import dvrate")):
                rec.call(name, lambda: self.run(["-c", code]), counted=False,
                         check=lambda res: [] if res[0] == 0 else [f"{name} exited {res[0]}"])
        f = self.files
        for _ in range(20):
            rec.call("fileio.load", lambda: [
                load_measure(f[m], load_chain(f[c]))
                for c, m in (("cycle.json", "cycle_mu.json"), ("four.json", "four_mu.json"))
            ], counted=False)

    def peak_rss_mb(self) -> float:
        return self.max_child_kb / 1024.0


WORKLOADS = {
    "rates-small": RatesSmall,
    "rates-large": RatesLarge,
    "mc-slope": McSlope,
    "cli": Cli,
}
