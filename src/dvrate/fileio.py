"""JSON file formats for chains, measures, and flows, and the JSON form
of flows and rates the CLI writes.

Structural problems (bad JSON, wrong shape, unknown keys or state names,
duplicates) raise InputFormatError; well-formed files whose values violate
domain preconditions (nonpositive rate, reducible chain, unnormalized
measure, weight on a non-edge) raise the ordinary validation errors. The
CLI maps the two to different exit codes.

Rates are plain floats; rate_to_jsonable is the one place that tags an
infinite rate, as the string "inf", since JSON has no number for it.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

from .chain import ChainSpec, Flow, ProbabilityMeasure
from .errors import InputFormatError, UnknownStateError


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def _require_keys(obj: dict, required: set, what: str, path: str):
    if type(obj) is dict and obj.keys() == required:
        return
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} in {path} must be a JSON object")
    if missing := required - obj.keys():
        raise InputFormatError(f"{what} in {path} is missing key(s) {sorted(missing)}")
    if extra := obj.keys() - required:
        raise InputFormatError(f"{what} in {path} has unknown key(s) {sorted(extra)}")


def _require_number(x, what: str, path: str) -> float:
    if type(x) is not float and type(x) is not int:  # JSON numbers; bool is not one
        raise InputFormatError(f"{what} in {path} must be a number, got {x!r}")
    return float(x)


@contextmanager
def _known_states(what: str):
    """Raise an UnknownStateError from the block as the InputFormatError
    "<what> names unknown state ..."."""
    try:
        yield
    except UnknownStateError as exc:
        raise InputFormatError(f"{what} names unknown state {exc.state!r}") from None


def _read_edges(edges: list, value_key: str, noun: str, path: str) -> dict:
    """{(from, to): value} of the edge objects, each named noun in messages."""
    values = {}
    edge_keys = {"from", "to", value_key}
    for e in edges:
        _require_keys(e, edge_keys, noun, path)
        y, z = e["from"], e["to"]
        if (y, z) in values:
            raise InputFormatError(f"duplicate {noun} ({y!r}, {z!r}) in {path}")
        values[(y, z)] = _require_number(e[value_key], value_key, path)
    return values


def load_chain(path: str) -> ChainSpec:
    """{"states": [...], "edges": [{"from":..,"to":..,"rate":..}, ...]}"""
    data = _load_json(path)
    _require_keys(data, {"states", "edges"}, "chain", path)
    states = data["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise InputFormatError(f"states in {path} must be a list of strings")
    if len(set(states)) != len(states):
        raise InputFormatError(f"duplicate state names in {path}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise InputFormatError(f"edges in {path} must be a list")
    with _known_states(f"edge in {path}"):
        return ChainSpec(states, _read_edges(edges, "rate", "edge", path))


def load_measure(path: str, chain: ChainSpec) -> ProbabilityMeasure:
    """Object mapping state name to weight; omitted states get 0."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputFormatError(f"measure in {path} must be a JSON object")
    weights = {
        x: _require_number(w, f"weight of {x!r}", path) for x, w in data.items()
    }
    with _known_states(f"measure in {path}"):
        return ProbabilityMeasure.from_dict(chain, weights)


def load_flow(path: str, chain: ChainSpec) -> Flow:
    """[{"from":..,"to":..,"weight":..}, ...], optionally under an "edges" key.

    Weight on a pair that is not a chain edge is a domain error, not a
    format error: the file is well-formed, the flow is not supported."""
    data = _load_json(path)
    if isinstance(data, dict):
        _require_keys(data, {"edges"}, "flow", path)
        data = data["edges"]
    if not isinstance(data, list):
        raise InputFormatError(f"flow in {path} must be a list of edge objects")
    with _known_states(f"flow in {path}"):
        return Flow.from_dict(chain, _read_edges(data, "weight", "flow edge", path))


# ---------------------------------------------------------------------------
# serialization helpers shared by the CLI


def flow_to_jsonable(q: Flow) -> list:
    """The edges of q.as_dict() (those of nonzero weight), as load_flow
    reads them."""
    return [{"from": y, "to": z, "weight": w} for (y, z), w in q.as_dict().items()]


def rate_to_jsonable(x: float) -> dict:
    """{"value": x, "infinite": false}, or {"value": "inf", "infinite": true}
    for math.inf, which JSON cannot carry as a number."""
    x = float(x)
    if x == math.inf:
        return {"value": "inf", "infinite": True}
    return {"value": x, "infinite": False}
