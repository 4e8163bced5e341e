"""The Monte Carlo route runs without scipy: only the solver, stationary and
graph functions import it, on their first call. The public names resolve."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import dvrate

ROUTE = r"""
import json, sys

from dvrate import (
    ChainSpec, HalfSpaceEvent, VertexFunction, estimate_event_probability,
    estimate_ldp_slope, load_chain, minimize_flow, simulate,
    stationary_distribution,
)
from dvrate.cli import main

chain = load_chain(sys.argv[1])
two = ChainSpec.from_matrix(["1", "2"], [[0.0, 1.0], [1.0, 0.0]])
event = HalfSpaceEvent.occupancy_at_least(two, "1", 0.6)
simulate(chain, "a", 20.0, seed=1)
estimate_event_probability(two, event, 5.0, 200, seed=2)
estimate_event_probability(two, event, 5.0, 200, seed=2,
                           tilt=VertexFunction(two, [0.0, -0.2]))
estimate_ldp_slope(two, event, (5.0, 10.0), 200, seed=3)
assert main(["simulate", sys.argv[1], "--horizon", "5", "--seed", "4"]) == 0
assert main(["ldp-slope", sys.argv[1], "--event", "a>=0.6", "--horizons",
             "5,10", "--samples", "50", "--seed", "5"]) == 0
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

pi = stationary_distribution(chain)
rate = minimize_flow(chain, pi).rate_inf
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "rate": rate}))
"""


def test_monte_carlo_route_loads_no_scipy(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "states": ["a", "b", "c"],
        "edges": [{"from": y, "to": z, "rate": r} for y, z, r in (
            ("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 0.5), ("b", "a", 1.5),
        )],
    }))
    src = str(Path(dvrate.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", ROUTE, str(path)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["before"] == []
    # the lazy imports work: the solves after the route load scipy
    assert result["after"] is True
    assert abs(result["rate"]) < 1e-9  # the stationary law has rate 0


# public names deleted because another public call does their work
DELETED = (
    "legendre_psi_star",  # is_gradient(sg, f).is_gradient: 0.0 or math.inf
    "f_star",  # path_integral(sg, f, (i, j))
    "total_exit_rate",  # chain.exit_rates[chain.state_index(x)]
    "build_approximating_sequence",  # ApproximatingSequence(g, cond).build(n)
    "tilted_simulate",  # simulate(tilted_chain(chain, g), ...)
    "TiltedRun",
)


def test_public_names_resolve():
    names = dvrate.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(dvrate, name)]
    assert missing == []
    assert not [name for name in DELETED if hasattr(dvrate, name)]
    # duality_check and FenchelResult live in dvrate.solver
    assert importlib.util.find_spec("dvrate.fenchel") is None
