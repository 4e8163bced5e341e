"""Correctness checks, computed apart from the program with numpy alone.

Each check takes plain arrays or decoded JSON and returns a list of problems;
an empty list means the output passed. Chains are given as edge arrays
(src, dst, rates) over states 0..n-1.
"""

from __future__ import annotations

import math

import numpy as np

# The 1/T fit over horizons 50..400 with 20 000 samples overshoots the closed
# form by SLOPE_BIAS of it on average, with standard deviation SLOPE_BIAS_SD
# (50 seeds, README "Monte Carlo"). The slope must lie within SLOPE_SDS
# standard deviations of that mean bias.
SLOPE_BIAS = 0.21
SLOPE_BIAS_SD = 0.042
SLOPE_SDS = 5.0
# naive and tilted estimates of one probability must agree within this many
# combined standard errors; two-sided normal false-alarm rate 6.3e-5
AGREE_SIGMAS = 4.0
# identities that hold up to rounding of sums over at most 10^4 terms
ARITH_REL = 1e-9


def _scale(x: float) -> float:
    return max(1.0, abs(x))


def divergence(src, dst, q, n: int) -> np.ndarray:
    return np.bincount(src, weights=q, minlength=n) - np.bincount(dst, weights=q, minlength=n)


def phi_sum(q, p) -> float:
    """sum of Phi(q, p) = q log(q/p) - q + p; Phi(0, p) = p, Phi(q>0, 0) = inf."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(q[p == 0.0] > 0.0):
        return math.inf
    m = q > 0.0
    return float(p[~m].sum() + np.sum(q[m] * np.log(q[m] / p[m]) - q[m] + p[m]))


def dv_value(src, dst, rates, mu, g) -> float:
    """sum over edges of mu(y) r(y,z) (1 - exp(g(z) - g(y)))."""
    p = mu[src] * rates
    m = p > 0.0
    return float(np.sum(p[m] * (1.0 - np.exp(g[dst[m]] - g[src[m]]))))


def two_state_rate(m: float, a: float, b: float) -> float:
    """Rate of (m, 1-m) for rates a = r(0,1), b = r(1,0)."""
    return (math.sqrt(m * a) - math.sqrt((1.0 - m) * b)) ** 2


def flow_problems(src, dst, rates, mu, q, rate_inf, gradient_tol) -> list:
    """The optimal flow is a nonnegative circulation whose joint rate, the
    sum of Phi over class edges plus the flux on the other support edges,
    is rate_inf."""
    out = []
    n = len(mu)
    p = mu[src] * rates
    if np.any(q < 0.0):
        out.append(f"negative flow {q.min():.3e}")
    div = float(np.abs(divergence(src, dst, q, n)).max(initial=0.0))
    if div > gradient_tol * max(1.0, float(p.sum())):
        out.append(f"flow divergence {div:.3e}")
    total = phi_sum(q, p)
    if not abs(total - rate_inf) <= ARITH_REL * _scale(rate_inf):
        out.append(f"sum of Phi {total!r} != rate_inf {rate_inf!r}")
    if n == 2:
        ref = two_state_rate(mu[0], rates[src == 0][0], rates[src == 1][0])
        if not abs(ref - rate_inf) <= 1e-9 * _scale(ref):
            out.append(f"2-state rate {rate_inf!r} != closed form {ref!r}")
    return out


def weak_duality_problems(src, dst, rates, mu, rate_inf, potentials) -> list:
    """No potential gives a DV objective above the rate."""
    out = []
    for g in potentials:
        v = dv_value(src, dst, rates, mu, g)
        if v > rate_inf + ARITH_REL * _scale(rate_inf):
            out.append(f"DV objective {v!r} exceeds rate_inf {rate_inf!r}")
    return out


def close_problems(what: str, value: float, ref: float, rel: float) -> list:
    if value is None or not abs(value - ref) <= rel * _scale(ref):
        return [f"{what} {value!r} != {ref!r} within {rel:g}"]
    return []


def dv_sup_problems(src, dst, rates, mu, value, maximizer, certificate,
                    sequence, rate_inf, duality_rel) -> list:
    """dv_sup equals rate_inf; its maximizer attains it, or its certificate
    is our own DV objective of the approximating potentials, never above the
    rate and reaching it within duality_rel."""
    out = close_problems("dv_sup value", value, rate_inf, duality_rel)
    if maximizer is not None:
        out += close_problems(
            "DV objective at the maximizer",
            dv_value(src, dst, rates, mu, maximizer), rate_inf, duality_rel,
        )
        return out
    best = -math.inf
    for n, v in certificate:
        own = dv_value(src, dst, rates, mu, sequence[n])
        out += close_problems(f"certificate at n={n}", v, own, ARITH_REL)
        best = max(best, own)
    out += weak_duality_problems(src, dst, rates, mu, rate_inf, sequence.values())
    if not best >= rate_inf - duality_rel * _scale(rate_inf):
        out.append(f"certificate reaches {best!r}, rate is {rate_inf!r}")
    return out


def duality_problems(rate_inf, rate_sup, candidates, ref_rate, duality_rel) -> list:
    """The Fenchel pairing agrees with the flow side and respects weak duality."""
    out = close_problems("duality rate_inf", rate_inf, ref_rate, ARITH_REL)
    out += close_problems("duality rate_sup", rate_sup, ref_rate, duality_rel)
    for label, v in candidates:
        if v > ref_rate + ARITH_REL * _scale(ref_rate):
            out.append(f"candidate {label} value {v!r} exceeds the rate")
    return out


def stationary_problems(src, dst, rates, pi, residual_tol) -> list:
    """pi > 0, sums to 1, and balances pi(x) r(x) = sum_y pi(y) r(y, x)."""
    out = []
    n = len(pi)
    if not np.all(pi > 0.0):
        out.append("stationary measure has a nonpositive entry")
    if not abs(pi.sum() - 1.0) <= 1e-12:
        out.append(f"stationary measure sums to {pi.sum()!r}")
    exit_rates = np.bincount(src, weights=rates, minlength=n)
    inflow = np.bincount(dst, weights=pi[src] * rates, minlength=n)
    res = float(np.abs(pi * exit_rates - inflow).max())
    if res > residual_tol * max(1.0, float(exit_rates.max())):
        out.append(f"balance residual {res:.3e}")
    return out


def slope_band(closed_form: float) -> tuple:
    """The range of slopes the biased 1/T fit may give."""
    return tuple(closed_form * (1.0 + SLOPE_BIAS + k * SLOPE_SDS * SLOPE_BIAS_SD)
                 for k in (-1.0, 1.0))


def slope_problems(slope, closed_form: float) -> list:
    lo, hi = slope_band(closed_form)
    if slope is None or not lo <= slope <= hi:
        return [f"slope {slope!r} outside [{lo:.5g}, {hi:.5g}] around closed form {closed_form!r}"]
    return []


def agree_problems(p1, se1, p2, se2) -> list:
    sigma = math.hypot(se1, se2)
    if not abs(p1 - p2) <= AGREE_SIGMAS * sigma:
        return [f"estimates {p1!r} and {p2!r} differ by more than {AGREE_SIGMAS:g} sigma ({sigma:.3e})"]
    return []


def naive_estimate_problems(p_hat, stderr, hits, samples) -> list:
    """A direct estimate is the hit fraction, with the binomial standard error."""
    out = []
    if not (0 <= hits <= samples and p_hat == hits / samples):
        out.append(f"p_hat {p_hat!r} is not hits/samples = {hits}/{samples}")
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    if not abs(stderr - se) <= 1e-12 + 1e-9 * se:
        out.append(f"stderr {stderr!r} != binomial {se!r}")
    return out


def path_problems(src, dst, n, x0, horizon, times, dests, edge_ids, occupation) -> list:
    """Jumps follow chain edges; the jump-count divergence telescopes to
    1[x0] - 1[final]; occupation times sum to the horizon."""
    out = []
    if len(times) and not (np.all(np.diff(times) > 0) and times[0] > 0 and times[-1] < horizon):
        out.append("jump times are not increasing inside (0, T)")
    prev = np.concatenate([[x0], dests[:-1]]).astype(np.int64)
    if not (np.array_equal(src[edge_ids], prev) and np.array_equal(dst[edge_ids], dests)):
        out.append("a jump does not follow its recorded edge")
    counts = np.bincount(edge_ids, minlength=len(src)).astype(float)
    final = int(dests[-1]) if len(dests) else x0
    expect = np.zeros(n)
    expect[x0] += 1.0
    expect[final] -= 1.0
    if not np.array_equal(divergence(src, dst, counts, n), expect):
        out.append("jump-count divergence does not telescope to the endpoints")
    if not abs(float(np.sum(occupation)) - horizon) <= ARITH_REL * horizon:
        out.append(f"occupation times sum to {float(np.sum(occupation))!r}, not {horizon!r}")
    return out


# ---------------------------------------------------------------------------
# cli payloads


def cli_problems(command: str, payload, expect: dict) -> list:
    """Check one decoded CLI payload against `expect`, which holds the
    values computed apart from the program for this command's inputs."""
    try:
        return _CLI[command](payload, expect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{command}: malformed payload ({exc!r})"]


def _cli_validate(p, e):
    ok = (p["states"], p["edges"], p["irreducible"], p["reversible"]) == (3, 3, True, False)
    return [] if ok and p["max_exit_rate"] == 1.0 else [f"validate payload {p!r}"]


def _cli_stationary(p, e):
    pi = p["stationary"]
    if sorted(pi) != ["1", "2", "3"] or max(abs(v - 1.0 / 3.0) for v in pi.values()) > 1e-12:
        return [f"stationary {pi!r} is not uniform"]
    return []


def _cli_rate(p, e):
    got = p["joint_rate"]
    if got["infinite"]:
        return ["joint rate of a circulation is infinite"]
    return close_problems("joint rate", got["value"], e["joint_rate"], ARITH_REL)


def _cycle_flow_problems(p, e, rate):
    names = ["1", "2", "3"]
    q = {(f["from"], f["to"]): f["weight"] for f in p["optimal_flow"]}
    qv = np.array([q.get((names[i], names[(i + 1) % 3]), 0.0) for i in range(3)])
    mu = np.array(e["cycle_mu"])
    return flow_problems(np.arange(3), np.roll(np.arange(3), -1), np.ones(3), mu, qv,
                         rate, e["gradient_tol"])


def _cli_min_flow(p, e):
    out = close_problems("min-flow rate_inf", p["rate_inf"], e["cycle_rate"], e["duality_rel"])
    out += close_problems("min-flow rate_sup", p["rate_sup"], e["cycle_rate"], e["duality_rel"])
    return out + _cycle_flow_problems(p, e, p["rate_inf"])


def _cli_dv_sup(p, e):
    out = close_problems("dv-sup value", p["value"], e["cycle_rate"], e["duality_rel"])
    g = np.array([p["maximizer"][s] for s in ("1", "2", "3")])
    mu = np.array(e["cycle_mu"])
    v = dv_value(np.arange(3), np.roll(np.arange(3), -1), np.ones(3), mu, g)
    return out + close_problems("DV objective at the dv-sup maximizer", v, e["cycle_rate"], e["duality_rel"])


def _cli_duality(p, e):
    out = close_problems("duality rate_inf", p["rate_inf"], e["cycle_rate"], e["duality_rel"])
    out += close_problems("duality rate_sup", p["rate_sup"], e["cycle_rate"], e["duality_rel"])
    return out if p["within_tolerance"] is True else out + ["duality not within tolerance"]


def _cli_decompose(p, e):
    idx = {s: i for i, s in enumerate(e["names"])}
    flow = np.zeros((len(idx), len(idx)))
    for c in p["cycles"]:
        vs = [idx[s] for s in c["cycle"]]
        if vs[0] != vs[-1] or len(set(vs[:-1])) != len(vs) - 1:
            return [f"not a closed simple cycle: {c['cycle']}"]
        for y, z in zip(vs[:-1], vs[1:]):
            flow[y, z] += c["weight"]
    err = float(np.abs(flow[e["src"], e["dst"]] - e["flow"]).max())
    if flow.sum() != flow[e["src"], e["dst"]].sum() or err > ARITH_REL:
        return [f"decomposition reconstructs the flow with error {err:.3e}"]
    return []


def _cli_simulate(p, e):
    names = ["1", "2", "3"]
    times = np.array([j["t"] for j in p["jumps"]])
    seq = [p["x0"]] + [j["to"] for j in p["jumps"]]
    steps_ok = all(names[(names.index(a) + 1) % 3] == b for a, b in zip(seq[:-1], seq[1:]))
    out = [] if steps_ok else ["a simulated jump leaves the 3-cycle"]
    if len(times) and not (np.all(np.diff(times) > 0) and 0 < times[0] and times[-1] < p["horizon"]):
        out.append("simulated jump times are not increasing inside (0, T)")
    if p["n_jumps"] != len(times) or p["final_state"] != seq[-1]:
        out.append("simulate n_jumps or final_state disagrees with its jumps")
    return out


def _cli_ldp_slope(p, e):
    out = []
    n = p["samples"]
    for T, prob, se, s in zip(p["horizons"], p["probabilities"], p["stderrs"],
                              p["per_horizon_slopes"]):
        if not 0.0 <= prob <= 1.0:
            out.append(f"probability {prob!r} at T={T}")
            continue
        out += close_problems(f"stderr at T={T}", se, math.sqrt(prob * (1 - prob) / n), ARITH_REL)
        if prob > 0:
            out += close_problems(f"slope at T={T}", s, -math.log(prob) / T, ARITH_REL)
        elif s is not None:
            out.append(f"slope {s!r} at T={T} without hits")
    if n != e["samples"] or p["horizons"] != list(e["horizons"]):
        out.append("ldp-slope samples or horizons differ from the request")
    return out


_CLI = {
    "validate": _cli_validate,
    "stationary": _cli_stationary,
    "rate": _cli_rate,
    "min-flow": _cli_min_flow,
    "dv-sup": _cli_dv_sup,
    "duality": _cli_duality,
    "decompose": _cli_decompose,
    "simulate": _cli_simulate,
    "ldp-slope": _cli_ldp_slope,
}
