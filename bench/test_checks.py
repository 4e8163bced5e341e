"""Every correctness check of the benchmark passes a right answer and
rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
import inputs
import spans
import workloads
from dvrate import ChainSpec, dv_sup, duality_check, minimize_flow, simulate
from dvrate.cli import main as cli_main

CYCLE = (np.arange(3), np.array([1, 2, 0]), np.ones(3))
MU = np.array(inputs.THREE_CYCLE_MU)
RATE = inputs.three_cycle_rate()
QSTAR = np.full(3, float(np.prod(MU)) ** (1.0 / 3.0))  # constant optimal circulation
TOL = workloads.TOL


def flow_check(q, rate, mu=MU, chain=CYCLE):
    return checks.flow_problems(*chain, mu, q, rate, TOL.solver_gradient)


def test_flow_check_accepts_the_closed_form():
    assert flow_check(QSTAR, RATE) == []


def test_flow_check_rejects_a_perturbed_rate():
    assert flow_check(QSTAR, RATE * (1 + 1e-6))


def test_flow_check_rejects_nonzero_divergence():
    assert flow_check(QSTAR + np.array([1e-6, 0.0, 0.0]), RATE)


def test_flow_check_rejects_negative_flow():
    assert flow_check(np.array([-1e-3, 0.0, 0.0]), RATE)


def test_two_state_closed_form():
    two = (np.array([0, 1]), np.array([1, 0]), np.array([1.5, 0.5]))
    mu = np.array([0.3, 0.7])
    rate = checks.two_state_rate(0.3, 1.5, 0.5)
    q = np.full(2, math.sqrt(0.3 * 1.5 * 0.7 * 0.5))
    assert flow_check(q, rate, mu, two) == []
    assert flow_check(q, rate + 1e-6, mu, two)
    # a circulation that is not optimal, reported with its own joint rate:
    # only the closed form catches it
    q_off = 1.1 * q
    rate_off = checks.phi_sum(q_off, mu[two[0]] * two[2])
    assert [p for p in flow_check(q_off, rate_off, mu, two) if "closed form" in p]
    assert len(flow_check(q_off, rate_off, mu, two)) == 1


def test_weak_duality_rejects_a_rate_below_the_supremum():
    g = np.log(QSTAR / (MU * CYCLE[2]))  # log-ratios along the cycle give the maximizer
    pot = np.concatenate([[0.0], np.cumsum(g)[:2]])
    assert abs(checks.dv_value(*CYCLE, MU, pot) - RATE) < 1e-12
    assert checks.weak_duality_problems(*CYCLE, MU, RATE, [pot]) == []
    assert checks.weak_duality_problems(*CYCLE, MU, RATE - 1e-6, [pot])


@pytest.fixture(scope="module")
def solved():
    """A degenerate and a full-support problem solved by the program."""
    rng = np.random.default_rng(5)
    n, rates, full, zeros = inputs.small_family()[3]
    names = [f"s{i}" for i in range(n)]
    chain = ChainSpec(names, {(names[y], names[z]): r for (y, z), r in rates.items()})
    src, dst, r = workloads.own_edges(n, rates)
    out = {}
    for kind, vals in (("full", full), ("degenerate", zeros)):
        pb = workloads.Problem("test", kind, chain, src, dst, r, vals, kind,
                               [rng.normal(size=n) for _ in range(2)])
        out[kind] = (pb, minimize_flow(chain, pb.mu), dv_sup(chain, pb.mu),
                     duality_check(chain, pb.mu))
    return out


@pytest.mark.parametrize("kind", ["full", "degenerate"])
def test_program_solutions_pass(solved, kind):
    pb, r, d, f = solved[kind]
    assert workloads._mf_problems(pb, r) == []
    assert workloads._dv_problems(pb, d, r.rate_inf) == []
    assert checks.duality_problems(f.rate_inf, f.rate_sup, f.candidates, r.rate_inf,
                                   TOL.duality_rel) == []


@pytest.mark.parametrize("kind", ["full", "degenerate"])
def test_perturbed_rate_fails_every_rate_check(solved, kind):
    pb, r, d, f = solved[kind]
    wrong = r.rate_inf * (1 + 1e-4) + 1e-4
    assert checks.flow_problems(*pb.arrays, r.optimal_flow.values, wrong, TOL.solver_gradient)
    assert workloads._dv_problems(pb, d, wrong)
    assert checks.duality_problems(f.rate_inf, f.rate_sup, f.candidates, wrong, TOL.duality_rel)


def test_dv_sup_check_rejects_a_wrong_maximizer_or_certificate(solved):
    pb, r, d, _ = solved["full"]
    g = d.maximizer.values + np.linspace(0.0, 0.1, pb.chain.n_states)
    assert checks.dv_sup_problems(*pb.arrays, d.value, g, (), {}, r.rate_inf, TOL.duality_rel)
    pb, r, d, _ = solved["degenerate"]
    seq = {n: d.sequence.build(n).values for n in (10, 20, 40)}
    cert = [(n, v + 1e-6) for n, v in d.certificate]
    assert checks.dv_sup_problems(*pb.arrays, d.value, None, cert, seq, r.rate_inf,
                                  TOL.duality_rel)


def test_stationary_check():
    src, dst, r = CYCLE
    pi = np.full(3, 1.0 / 3.0)
    assert checks.stationary_problems(src, dst, r, pi, TOL.residual) == []
    assert checks.stationary_problems(src, dst, r, pi + [1e-6, -1e-6, 0.0], TOL.residual)
    assert checks.stationary_problems(src, dst, r, np.array([0.5, 0.5, 0.0]), TOL.residual)
    assert checks.stationary_problems(src, dst, r, pi * 1.001, TOL.residual)


def test_slope_check():
    rate = 1 - 2 * math.sqrt(0.24)
    lo, hi = checks.slope_band(rate)
    assert lo < rate * (1 + checks.SLOPE_BIAS) < hi
    assert checks.slope_problems(rate * 1.2, rate) == []
    assert checks.slope_problems(hi * 1.01, rate)
    assert checks.slope_problems(lo * 0.99, rate)
    assert checks.slope_problems(rate * 0.8, rate)  # biased low by 20 %
    assert checks.slope_problems(None, rate)


def test_agreement_check():
    assert checks.agree_problems(0.10, 0.002, 0.105, 0.002) == []
    assert checks.agree_problems(0.10, 0.002, 0.13, 0.002)


def test_naive_estimate_check():
    p = 37 / 1000
    se = math.sqrt(p * (1 - p) / 1000)
    assert checks.naive_estimate_problems(p, se, 37, 1000) == []
    assert checks.naive_estimate_problems(p + 1e-3, se, 37, 1000)
    assert checks.naive_estimate_problems(p, se * 1.01, 37, 1000)


def test_path_check():
    two = ChainSpec(["1", "2"], {("1", "2"): 1.0, ("2", "1"): 1.0})
    t = simulate(two, "1", 50.0, 3)
    src, dst = two.edge_src, two.edge_dst
    args = (src, dst, 2, t.x0_index, t.horizon, t.times, t.dests, t.edge_ids)
    assert checks.path_problems(*args, t.occupation_times()) == []
    assert checks.path_problems(*args, t.occupation_times() * 1.001)
    dropped = (src, dst, 2, t.x0_index, t.horizon, t.times[1:], t.dests[1:], t.edge_ids[1:])
    assert checks.path_problems(*dropped, t.occupation_times())


@pytest.fixture(scope="module")
def cli_payloads(tmp_path_factory):
    """Each cli command's real payload, produced in-process."""
    import contextlib
    import io

    cli = workloads.Cli(7, tmp_path_factory.mktemp("cli"))
    out = {}
    for command, args in cli.commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main([command, *args]) == 0
        out[command] = json.loads(buf.getvalue())
    return cli, out


# one wrong value per command: (path into the payload, wrong value)
WRONG = {
    "validate": (("states",), 4),
    "stationary": (("stationary", "1"), 0.4),
    "rate": (("joint_rate", "value"), 0.123),
    "min-flow": (("rate_inf",), RATE + 1e-3),
    "dv-sup": (("value",), RATE + 1e-3),
    "duality": (("rate_sup",), RATE - 1e-3),
    "decompose": (("cycles", 0, "weight"), 0.5),
    "simulate": (("jumps", 0, "to"), "1"),
    "ldp-slope": (("stderrs", 0), 0.5),
}


@pytest.mark.parametrize("command", sorted(WRONG))
def test_cli_checks(cli_payloads, command):
    cli, payloads = cli_payloads
    payload = payloads[command]
    assert checks.cli_problems(command, payload, cli.expect) == []
    wrong = copy.deepcopy(payload)
    *path, last = WRONG[command][0]
    node = wrong
    for key in path:
        node = node[key]
    assert node[last] != WRONG[command][1]
    node[last] = WRONG[command][1]
    assert checks.cli_problems(command, wrong, cli.expect)
    assert checks.cli_problems(command, {"schema": 1}, cli.expect)


def test_cli_min_flow_rejects_a_flow_with_divergence(cli_payloads):
    cli, payloads = cli_payloads
    wrong = copy.deepcopy(payloads["min-flow"])
    wrong["optimal_flow"][0]["weight"] += 1e-6
    assert checks.cli_problems("min-flow", wrong, cli.expect)


def test_a_call_that_raises_makes_the_run_incorrect():
    rec = spans.Recorder()
    assert rec.call("ok", lambda: 1) == 1
    assert spans.result([rec], {})["correct"] is True
    assert rec.call("raises", lambda: 1 / 0) is None
    out = spans.result([rec], {})
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)


def test_a_failed_check_makes_the_run_incorrect():
    rec = spans.Recorder(spans.Tracer())
    assert rec.call("wrong", lambda: 2, check=lambda v: ["wrong value"]) is None
    assert spans.result([rec], {})["correct"] is False


def test_a_paired_call_runs_bare_and_traced():
    tracer = spans.Tracer()
    rec = spans.Recorder(tracer, paired=True)
    runs = []
    for i in range(3):
        assert rec.call("op", lambda: runs.append(i) or i) == i
    assert runs == [0, 0, 1, 1, 2, 2]
    assert len(tracer.spans) == 3 and len(rec.overhead) == 3 and len(rec.op_s) == 3
    assert rec.call("raises", lambda: 1 / 0) is None
    assert spans.result([rec], {})["correct"] is False
