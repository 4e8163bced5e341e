"""Per-layer metrics from the spans of the traced probe.

Times are busy time: the summed duration of a layer's spans over the probe
of every workload, unless the name says otherwise (a median, a rate or a
difference). See README, "Per-layer metrics", for what each should move.
"""

from __future__ import annotations

import statistics

import inputs


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def _dur(s) -> float:
    return s["end"] - s["start"]


def _self_time(tracer, outer: str) -> float:
    """Sum over rates-small inputs of the `outer` call minus minimize_flow on
    the same input, over the inputs that stayed on Newton. A fallback solve,
    or a rates-large one, takes seconds with a tenth of it in noise, which
    would hide a self time of a fraction of a millisecond a call."""
    inner = {s["input"]: _dur(s) for s in tracer.select(
        "solver.minimize_flow", method="newton", workload="rates-small")}
    return sum(_dur(s) - inner[s["input"]] for s in tracer.select(outer) if s["input"] in inner)


def _estimate_s(tracer, kind: str, horizon: float) -> float:
    (s,) = tracer.select("montecarlo.estimate", kind=kind, horizon=horizon)
    return _dur(s)


def layer_metrics(tracer, mc) -> dict:
    t = tracer
    out = {}
    imports = [_dur(s) for s in t.select("init.import")]
    bare = [_dur(s) for s in t.select("init.bare")]
    out["init.import_s"] = _m(statistics.median(imports) - statistics.median(bare), "s")
    out["fileio.load_s"] = _m(statistics.median(_dur(s) for s in t.select("fileio.load")), "s")
    for cmd in ("validate", "stationary", "rate", "min_flow", "dv_sup", "duality",
                "decompose", "simulate", "ldp_slope"):
        out[f"cli.{cmd}_s"] = _m(t.total(f"cli.{cmd}"), "s")

    out["chain.build_s"] = _m(t.total("chain.build"), "s")
    out["chain.stationary_s"] = _m(t.total("chain.stationary"), "s")
    out["chain.peak_alloc_mb"] = _m(t.select("chain.alloc")[0]["peak_mb"], "MB")
    out["graphs.partition_s"] = _m(t.total("graphs.partition"), "s")
    out["graphs.is_gradient_s"] = _m(t.total("graphs.is_gradient"), "s")

    solves = t.select("solver.minimize_flow")
    fallbacks = [s for s in solves if "cycles" in s.get("method", "")]
    # without the fallbacks: their seconds would swamp the rest, and
    # solver.fallback_s reports them
    for kind in ("full", "degenerate"):
        out[f"solver.minimize_flow_{kind}_s"] = _m(sum(
            _dur(s) for s in solves
            if s.get("kind") == kind and "cycles" not in s.get("method", "")), "s")
    out["solver.newton_iters"] = _m(
        sum(s["iterations"] for s in solves if s.get("method") == "newton"), "count")
    out["solver.fallbacks"] = _m(len(fallbacks), "count")
    out["solver.fallback_s"] = _m(sum(_dur(s) for s in fallbacks), "s")
    out["solver.certify_s"] = _m(t.total("solver.certify"), "s")
    out["solver.dv_sup_self_s"] = _m(_self_time(t, "solver.dv_sup"), "s")
    out["solver.peak_alloc_mb"] = _m(t.select("solver.alloc")[0]["peak_mb"], "MB")
    out["functionals.dv_objective_s"] = _m(t.total("functionals.dv_objective"), "s")
    out["functionals.joint_rate_s"] = _m(t.total("functionals.joint_rate"), "s")
    out["fenchel.duality_check_self_s"] = _m(_self_time(t, "fenchel.duality_check"), "s")

    n = inputs.MC_SAMPLES
    t_short = _estimate_s(t, "naive", inputs.MC_SHORT_HORIZON)
    t50 = _estimate_s(t, "naive", 50.0)
    t400 = _estimate_s(t, "naive", inputs.MC_HORIZONS[-1])
    # computed, not counted: samples * T * sum_x pi(x) r(x)
    expected_jumps = n * inputs.MC_HORIZONS[-1] * mc.jumps_per_time
    (sim,) = t.select("montecarlo.simulate")
    out["montecarlo.seed_us_per_path"] = _m(1e6 * t_short / n, "us")
    out["montecarlo.paths_per_s.T50"] = _m(n / t50, "paths/s")
    out["montecarlo.paths_per_s.T400"] = _m(n / t400, "paths/s")
    out["montecarlo.ns_per_jump"] = _m(1e9 * (t400 - t_short) / expected_jumps, "ns")
    out["montecarlo.tilted_paths_per_s"] = _m(n / _estimate_s(t, "tilted", 50.0), "paths/s")
    out["montecarlo.paths_per_s.n50"] = _m(n / _estimate_s(t, "n50", 50.0), "paths/s")
    out["montecarlo.simulate_jumps_per_s"] = _m(sim["jumps"] / _dur(sim), "jumps/s")
    out["montecarlo.peak_alloc_mb"] = _m(t.select("montecarlo.alloc")[0]["peak_mb"], "MB")
    return out
