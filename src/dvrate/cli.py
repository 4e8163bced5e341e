"""Command-line interface.

All results go to stdout as JSON (or CSV with --format csv); diagnostics go
to stderr. Exit codes: 0 success, 1 domain error (validation, convergence,
divergence gates), 2 malformed input files or arguments. Infinite rates are
serialized as {"value": "inf", "infinite": true}.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import fileio, graphs, montecarlo, solver
from .chain import (
    Flow,
    divergence,
    is_reversible,
    mu_flow,
    stationary_distribution,
)
from .config import DEFAULT_TOLERANCES
from .errors import DvrateError, InputFormatError, ValidationError
from .functionals import joint_rate

SCHEMA = 2


def _tolerances(args):
    """DEFAULT_TOLERANCES with the --tol and --max-iter overrides of the
    solver commands, the only ones that take them; a value Tolerances
    rejects is a malformed argument."""
    tol = DEFAULT_TOLERANCES
    for option, value, field in (("--tol", args.tol, "solver_gradient"),
                                 ("--max-iter", args.max_iter, "solver_max_iter")):
        try:
            tol = tol if value is None else replace(tol, **{field: value})
        except ValidationError as exc:
            raise InputFormatError(f"malformed {option}: {exc}") from None
    return tol


def _start_state(chain, x0):
    """--x0, or the first state; an unknown name is a malformed argument."""
    with fileio._known_states("--x0"):
        return chain.states[0 if x0 is None else chain.state_index(x0)]


def _cmd_validate(args):
    chain = fileio.load_chain(args.chain)
    pi = stationary_distribution(chain)
    return {
        "schema": SCHEMA,
        "states": chain.n_states,
        "edges": chain.n_edges,
        "irreducible": True,
        "reversible": is_reversible(chain, pi),
        "max_exit_rate": float(chain.exit_rates.max()),
    }


def _cmd_stationary(args):
    chain = fileio.load_chain(args.chain)
    pi = stationary_distribution(chain)
    residual = float(np.abs(divergence(chain, mu_flow(chain, pi)).values).max())
    return {
        "schema": SCHEMA,
        "stationary": pi.as_dict(),
        "residual": residual,
    }


def _cmd_rate(args):
    chain = fileio.load_chain(args.chain)
    mu = fileio.load_measure(args.measure, chain)
    q = fileio.load_flow(args.flow, chain) if args.flow else Flow.zero(chain)
    value = joint_rate(chain, mu, q)
    return {
        "schema": SCHEMA,
        "joint_rate": fileio.rate_to_jsonable(value),
        "divergence_max": float(np.abs(divergence(chain, q).values).max(initial=0.0)),
        "flow_l1": q.l1_norm,
    }


def _cmd_min_flow(args):
    tol = _tolerances(args)
    chain = fileio.load_chain(args.chain)
    mu = fileio.load_measure(args.measure, chain)
    res = solver.minimize_flow(chain, mu, tol)
    print(
        f"method={res.method} iterations={res.iterations} "
        f"divergence_max={res.residuals['divergence_max']:.3e} "
        f"cg_iterations={res.cg_iterations}",
        file=sys.stderr,
    )
    return {
        "schema": SCHEMA,
        "rate_inf": res.rate_inf,
        "rate_sup": res.rate_sup,
        "duality_gap": res.duality_gap,
        "attained": res.attained,
        "method": res.method,
        "iterations": res.iterations,
        "residuals": dict(res.residuals),  # json cannot write a mappingproxy
        "optimal_flow": fileio.flow_to_jsonable(res.optimal_flow),
        "classes": [
            [chain.states[int(v)] for v in cls] for cls in res.partition.classes
        ],
        "potential": res.potential.as_dict(),
    }


def _cmd_dv_sup(args):
    tol = _tolerances(args)
    chain = fileio.load_chain(args.chain)
    mu = fileio.load_measure(args.measure, chain)
    res = solver.dv_sup(chain, mu, tol)
    return {
        "schema": SCHEMA,
        "value": res.value,
        "attained": res.attained,
        "maximizer": None if res.maximizer is None else res.maximizer.as_dict(),
        "certificate": [[n, v] for n, v in res.certificate],
    }


def _cmd_duality(args):
    tol = _tolerances(args)
    chain = fileio.load_chain(args.chain)
    mu = fileio.load_measure(args.measure, chain)
    if args.method == "fenchel":
        res = solver.duality_check(chain, mu, tol)
        rate_inf, rate_sup, gap = res.rate_inf, res.rate_sup, res.gap
        extra = {"candidates": [[label, v] for label, v in res.candidates]}
    else:
        res = solver.minimize_flow(chain, mu, tol)
        rate_inf, rate_sup, gap = res.rate_inf, res.rate_sup, res.duality_gap
        extra = {"attained": res.attained}
    payload = {
        "schema": SCHEMA,
        "method": args.method,
        "rate_inf": rate_inf,
        "rate_sup": rate_sup,
        "gap": gap,
        "within_tolerance": gap <= tol.duality_rel * max(1.0, abs(rate_inf)),
    }
    payload.update(extra)
    return payload


def _cmd_decompose(args):
    chain = fileio.load_chain(args.chain)
    q = fileio.load_flow(args.flow, chain)
    dec = graphs.cycle_decomposition(chain, q)
    err = float(np.abs(dec.reconstruct().values - q.values).max(initial=0.0))
    return {
        "schema": SCHEMA,
        "cycles": [
            {"cycle": names, "weight": float(w)}
            for names, w in zip(dec.cycles_as_states(), dec.weights)
        ],
        "reconstruction_error": err,
    }


def _cmd_simulate(args):
    chain = fileio.load_chain(args.chain)
    x0 = _start_state(chain, args.x0)
    traj = montecarlo.simulate(chain, x0, args.horizon, args.seed)
    if args.empirical:
        pair = montecarlo.empirical_pair(traj)
        return {
            "schema": SCHEMA,
            "x0": x0,
            "horizon": traj.horizon,
            "final_state": chain.states[pair.final_index],
            "jump_count": int(pair.counts.sum()),
            "measure": pair.measure.as_dict(),
            "flow": fileio.flow_to_jsonable(pair.flow),
            "rng": traj.rng,
        }
    return {
        "schema": SCHEMA,
        "x0": x0,
        "horizon": traj.horizon,
        "final_state": chain.states[traj.final_index],
        "n_jumps": traj.n_jumps,
        "jumps": [
            {"t": float(t), "to": chain.states[int(d)]}
            for t, d in zip(traj.times, traj.dests)
        ],
        "rng": traj.rng,
    }


def parse_event(chain, specs):
    """Each spec is "<linear combination> >= <number>" with terms joined by
    '+', each term "state" or "coef*state"."""
    if not specs:
        raise InputFormatError("at least one --event condition is required")
    event = None
    for spec in specs:
        parts = spec.split(">=")
        if len(parts) != 2:
            raise InputFormatError(
                f"event {spec!r} must contain exactly one '>='"
            )
        lhs, rhs = parts
        try:
            theta = float(rhs)
        except ValueError:
            raise InputFormatError(
                f"event threshold {rhs.strip()!r} is not a number"
            ) from None
        terms = []
        for term in lhs.split("+"):
            term = term.strip()
            if not term:
                raise InputFormatError(f"empty term in event {spec!r}")
            if "*" in term:
                coef_s, name = term.split("*", 1)
                try:
                    coef = float(coef_s)
                except ValueError:
                    raise InputFormatError(
                        f"coefficient {coef_s.strip()!r} in event {spec!r} "
                        "is not a number"
                    ) from None
            else:
                coef, name = 1.0, term
            terms.append((name.strip(), coef))
        try:
            with fileio._known_states(f"event {spec!r}"):
                cond = montecarlo.HalfSpaceEvent.from_terms(chain, terms, theta)
        except ValidationError as exc:
            raise InputFormatError(f"malformed event {spec!r}: {exc}") from None
        event = cond if event is None else event.intersect(cond)
    return event


def _cmd_ldp_slope(args):
    chain = fileio.load_chain(args.chain)
    event = parse_event(chain, args.event)
    try:
        horizons = [float(t) for t in args.horizons.split(",") if t.strip()]
    except ValueError:
        raise InputFormatError(
            f"--horizons must be comma-separated numbers, got {args.horizons!r}"
        ) from None
    est = montecarlo.estimate_ldp_slope(
        chain, event, horizons, args.samples, args.seed,
        x0=_start_state(chain, args.x0),
    )
    return {
        "schema": SCHEMA,
        "event": event.describe(),
        "samples": est.samples,
        "horizons": list(est.horizons),
        "probabilities": list(est.probabilities),
        "stderrs": list(est.stderrs),
        "per_horizon_slopes": list(est.per_horizon_slopes),
        "slope": est.slope,
        "slope_stderr": est.slope_stderr,
        "intercept_over_t": est.intercept_over_t,
        "lower_bounds": {str(t): v for t, v in est.lower_bounds.items()},
        "rng": est.rng,
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (default json)",
    )
    solving = argparse.ArgumentParser(add_help=False, parents=[common])
    solving.add_argument(
        "--tol", type=float, default=None,
        help="override solver_gradient, the bound on each state's relative balance",
    )
    solving.add_argument(
        "--max-iter", type=int, default=None,
        help="override the solver iteration cap",
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = argparse.ArgumentParser(
        prog="dvrate",
        description="Large-deviations rate functions of finite CTMCs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", parents=[common],
                       help="check a chain file and report its shape")
    s.add_argument("chain")
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser("stationary", parents=[common],
                       help="stationary distribution")
    s.add_argument("chain")
    s.set_defaults(func=_cmd_stationary)

    s = sub.add_parser("rate", parents=[common],
                       help="joint rate of a measure and a flow")
    s.add_argument("chain")
    s.add_argument("measure")
    s.add_argument("--flow", default=None,
                   help="flow file (default: the zero flow)")
    s.set_defaults(func=_cmd_rate)

    s = sub.add_parser("min-flow", parents=[solving],
                       help="rate of a measure via the optimal circulation")
    s.add_argument("chain")
    s.add_argument("measure")
    s.set_defaults(func=_cmd_min_flow)

    s = sub.add_parser("dv-sup", parents=[solving],
                       help="rate of a measure via the potential supremum")
    s.add_argument("chain")
    s.add_argument("measure")
    s.set_defaults(func=_cmd_dv_sup)

    s = sub.add_parser("duality", parents=[solving],
                       help="compare the two sides of the rate")
    s.add_argument("chain")
    s.add_argument("measure")
    s.add_argument("--method", choices=("contraction", "fenchel"),
                   default="contraction")
    s.set_defaults(func=_cmd_duality)

    s = sub.add_parser("decompose", parents=[common],
                       help="write a circulation as weighted cycles")
    s.add_argument("chain")
    s.add_argument("flow")
    s.set_defaults(func=_cmd_decompose)

    s = sub.add_parser("simulate", parents=[seeded],
                       help="sample one trajectory")
    s.add_argument("chain")
    s.add_argument("--x0", default=None, help="start state (default: first)")
    s.add_argument("--horizon", type=float, required=True)
    s.add_argument("--empirical", action="store_true",
                   help="emit the empirical measure and flow instead of jumps")
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("ldp-slope", parents=[seeded],
                       help="Monte Carlo decay slope of an occupation event")
    s.add_argument("chain")
    s.add_argument("--event", action="append", required=True,
                   help='half-space condition like "a>=0.6" or '
                        '"0.5*a+0.5*b>=0.3"; repeat to intersect')
    s.add_argument("--horizons", default="50,100,200,400")
    s.add_argument("--samples", type=int, default=1000)
    s.add_argument("--x0", default=None, help="start state (default: first)")
    s.set_defaults(func=_cmd_ldp_slope)

    return p


def _emit(args, payload):
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2, allow_nan=False)
        sys.stdout.write("\n")
        return
    w = csv.writer(sys.stdout)
    if args.command == "simulate" and "jumps" in payload:
        w.writerow(["t", "to"])
        for j in payload["jumps"]:
            w.writerow([repr(j["t"]), j["to"]])
    elif args.command == "ldp-slope":
        w.writerow(["horizon", "p_hat", "stderr", "slope"])
        for row in zip(
            payload["horizons"], payload["probabilities"],
            payload["stderrs"], payload["per_horizon_slopes"],
        ):
            w.writerow(["" if x is None else repr(x) for x in row])
        for key in ("slope", "slope_stderr", "intercept_over_t"):
            v = payload[key]
            w.writerow([key, "" if v is None else repr(v)])
    else:
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                w.writerow([key, json.dumps(value)])
            else:
                w.writerow([key, value])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DvrateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
