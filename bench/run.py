#!/usr/bin/env python3
"""dvrate benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload rates-small --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Spans of a traced run go to .bench_out/ under the checkout.
"""

import os

# one BLAS thread: steadier timings on a small shared machine, and the
# workload process starts no threads of its own
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rates-small", "rates-large", "mc-slope", "cli")
SETUP_SAMPLES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def make_workload(args, work: Path):
    import workloads  # imports dvrate: part of the timed set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    wl.warm_up()
    return wl


def time_setup(args) -> float:
    """Wall time from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as p:
        line = p.stdout.readline()
        elapsed = perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process failed with exit code {p.returncode}")
    return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, work: Path) -> dict:
    from spans import Recorder, result

    # set-up samples spread through the run: half before the timed loop, one
    # between rounds, the rest after it; only the loop's rounds are timed
    setups = [time_setup(args) for _ in range(SETUP_SAMPLES // 2)]
    wl = make_workload(args, work)
    rec = Recorder()
    loop_s = 0.0
    while True:  # whole rounds only, so every run fails the same share
        t0 = perf_counter()
        wl.round(rec)
        loop_s += perf_counter() - t0
        if loop_s >= args.seconds:
            break
        if len(setups) < SETUP_SAMPLES - 1:
            setups.append(time_setup(args))
    setups += [time_setup(args) for _ in range(SETUP_SAMPLES - len(setups))]
    return result([rec], {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(rec.op_s) / rec.program_s, "ops/s"),
        "op_median_s": metric(statistics.median(rec.op_s), "s"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
    })


def traced(args, work: Path) -> dict:
    import layers
    from spans import Recorder, Tracer, result

    import workloads

    wls = {}
    for name in WORKLOAD_NAMES:
        wls[name] = workloads.WORKLOADS[name](args.seed, work)
        wls[name].warm_up()

    # the named workload's round, each call bare and traced in turn: the
    # median difference is the tracing cost
    round_tracer = Tracer()
    paired = Recorder(round_tracer, paired=True)
    wls[args.workload].round(paired)

    tracer = Tracer()
    probe = Recorder(tracer)
    for name, w in wls.items():
        with tracer.span("probe", workload=name):
            w.probe(probe)

    metrics = layers.layer_metrics(tracer, wls["mc-slope"])
    metrics["trace.overhead_pct"] = metric(100.0 * statistics.median(paired.overhead), "%")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"round": round_tracer.spans, "probe": tracer.spans}, default=float))
    return result([paired, probe], metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dvrate" / "__init__.py").is_file():
        print(f"error: no dvrate sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.setup_only:
        for d in (SRC, ROOT / "bench"):  # set-up starts from warm bytecode
            compileall.compile_dir(str(d), quiet=1)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.setup_only:
            make_workload(args, work)
            print("ready", flush=True)
            return 0
        result = traced(args, work) if args.trace else end_to_end(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
