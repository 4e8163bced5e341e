"""Seeded inputs of the four workloads, drawn with numpy alone.

Every generator takes a numpy Generator, so the same --seed gives the same
inputs. The program receives only what these return: state names, rate
dictionaries, measure vectors and JSON files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# rates-small draws its 200 problems from this fixed family seed; --seed only
# renames the states and reorders the problems (see README, "rates-small").
SMALL_FAMILY_SEED = 91
SMALL_CHAINS = 200

LARGE_STATES = 2000
LARGE_EXTRA_OUT = 4  # random out-edges per state on top of a Hamiltonian cycle
LARGE_CHAINS = 4

MC_TWO_RATES = (1.0, 1.0)  # the unit 2-state chain: r(1,2), r(2,1)
MC_SAMPLES = 20_000
MC_HORIZONS = (50.0, 100.0, 200.0, 400.0)
MC_THETA = 0.6
MC_TILT = (0.0, -0.5 * math.log(1.5))
MC_SHORT_HORIZON = 1e-3  # paths barely jump: the estimator's fixed cost per path
MC_N50_STATES = 50
MC_N50_THETA = 0.03  # occupancy of the first state; its stationary mass is near 1/50
MC_SIMULATE_HORIZON = 1e5  # about 1e5 jumps on the unit 2-state chain

CLI_SLOPE_SAMPLES = 2000
CLI_SIMULATE_HORIZON = 200.0
THREE_CYCLE_MU = (0.5, 0.3, 0.2)


def small_family(n_min: int = 2, n_max: int = 10):
    """The family of tests/conftest.py: a Hamiltonian cycle plus random extra
    edges, one full-support measure and one measure with zeros per chain.

    Yields (n, rates by index pair, full measure, measure with zeros), drawn
    in the same order as the tests draw them.
    """
    rng = np.random.default_rng(SMALL_FAMILY_SEED)
    out = []
    for _ in range(SMALL_CHAINS):
        n = int(rng.integers(n_min, n_max + 1))
        rates = {}
        perm = rng.permutation(n)
        for i in range(n):
            rates[(int(perm[i]), int(perm[(i + 1) % n]))] = float(rng.uniform(0.2, 3.0))
        for _ in range(int(rng.integers(0, n * (n - 1) // 2 + 1))):
            y, z = map(int, rng.integers(0, n, size=2))
            if y != z:
                rates[(y, z)] = float(rng.uniform(0.2, 3.0))
        full = rng.dirichlet(np.full(n, 2.0))
        full = 0.99 * full + 0.01 / n
        full = full / full.sum()
        dead = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        zeros = rng.dirichlet(np.full(n, 2.0))
        zeros[dead] = 0.0
        if zeros.sum() == 0.0:
            zeros[(dead[0] + 1) % n] = 1.0
        out.append((n, rates, full, zeros / zeros.sum()))
    return out


def state_names(rng, n: int) -> list:
    """n distinct random identifiers; they carry no numerical meaning."""
    codes = rng.choice(36 ** 6, size=n, replace=False)
    return [np.base_repr(int(c), 36).lower().rjust(6, "0") for c in codes]


def sparse_chain(rng, n: int, extra: int = LARGE_EXTRA_OUT):
    """Irreducible chain with about extra + 1 out-edges per state, as index
    arrays: a random Hamiltonian cycle plus `extra` random targets each."""
    perm = rng.permutation(n)
    src = np.concatenate([perm, np.repeat(np.arange(n), extra)])
    dst = np.concatenate([np.roll(perm, -1), rng.integers(0, n, size=n * extra)])
    rates = rng.uniform(0.2, 3.0, size=src.size)
    keep = src != dst
    return src[keep], dst[keep], rates[keep]


def rates_dict(states: list, src, dst, rates) -> dict:
    """{(y, z): r}; a repeated pair keeps its last rate."""
    return {
        (states[y], states[z]): r
        for y, z, r in zip(src.tolist(), dst.tolist(), rates.tolist())
    }


def full_measure(rng, n: int) -> np.ndarray:
    v = 0.99 * rng.dirichlet(np.full(n, 2.0)) + 0.01 / n
    return v / v.sum()


def tenth_zero_measure(rng, n: int) -> np.ndarray:
    """Vanishes on a random tenth of the states."""
    v = rng.dirichlet(np.full(n, 2.0))
    v[rng.choice(n, size=n // 10, replace=False)] = 0.0
    return v / v.sum()


def three_cycle_rate() -> float:
    """Rate of THREE_CYCLE_MU on the unit 3-cycle: 1 - 3 (prod mu)^(1/3)."""
    return 1.0 - 3.0 * float(np.prod(THREE_CYCLE_MU)) ** (1.0 / 3.0)


def write_cli_inputs(rng, work: Path) -> dict:
    """JSON inputs of the cli workload; returns their paths and the values
    the checks need."""
    files = {}

    def dump(name, obj):
        path = work / name
        path.write_text(json.dumps(obj))
        files[name] = str(path)

    def edges(states, src, dst, rates):
        return [
            {"from": states[y], "to": states[z], "rate": r}
            for y, z, r in zip(src, dst, rates)
        ]

    dump("two.json", {"states": ["1", "2"], "edges": edges(["1", "2"], [0, 1], [1, 0], [1.0, 1.0])})
    cyc = ["1", "2", "3"]
    dump("cycle.json", {"states": cyc, "edges": edges(cyc, [0, 1, 2], [1, 2, 0], [1.0] * 3)})
    dump("cycle_mu.json", dict(zip(cyc, THREE_CYCLE_MU)))

    # complete 4-state chain, a measure on it, and a circulation made of
    # cycle indicators with dyadic weights, so its divergence is exactly 0
    names = ["a", "b", "c", "d"]
    src, dst = map(np.ravel, np.nonzero(~np.eye(4, dtype=bool)))
    rates = rng.uniform(0.2, 3.0, size=src.size)
    dump("four.json", {"states": names, "edges": edges(names, src.tolist(), dst.tolist(), rates.tolist())})
    mu4 = full_measure(rng, 4)
    dump("four_mu.json", dict(zip(names, mu4.tolist())))
    flow = np.zeros((4, 4))
    for _ in range(3):
        cyc_v = rng.permutation(4)[: int(rng.integers(2, 5))]
        w = int(rng.integers(1, 2048)) / 1024.0
        for y, z in zip(cyc_v, np.roll(cyc_v, -1)):
            flow[y, z] += w
    dump("four_flow.json", [
        {"from": names[y], "to": names[z], "weight": float(flow[y, z])}
        for y, z in zip(src.tolist(), dst.tolist()) if flow[y, z] > 0
    ])
    files["four"] = {
        "src": src, "dst": dst, "rates": rates, "mu": mu4,
        "flow": flow[src, dst], "names": names,
    }
    return files
