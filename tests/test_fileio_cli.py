import csv
import io
import json
import math

import numpy as np
import pytest

from dvrate import (
    Flow,
    InputFormatError,
    ProbabilityMeasure,
    ValidationError,
    VertexFunction,
    flow_to_jsonable,
    load_chain,
    load_flow,
    load_measure,
    mu_flow,
    rate_to_jsonable,
)
from dvrate.cli import main, parse_event

from oracles import cycles_class_ref, joint_rate_ref


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def chain_file(tmp_path, name="chain.json"):
    return write_json(
        tmp_path, name,
        {
            "states": ["1", "2"],
            "edges": [
                {"from": "1", "to": "2", "rate": 1.0},
                {"from": "2", "to": "1", "rate": 1.0},
            ],
        },
    )


class TestLoadChain:
    def test_round_trip(self, tmp_path):
        path = chain_file(tmp_path)
        c = load_chain(path)
        assert c.states == ("1", "2")
        assert c.n_edges == 2
        assert np.array_equal(c.edge_rates, [1.0, 1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_chain(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            load_chain(str(path))

    def test_key_errors(self, tmp_path, capsys):
        for obj, message in (
            ({"states": ["1", "2"]}, "missing key"),                  # missing edges
            ({"states": ["1"], "edges": [], "extra": 1}, "unknown key"),
            ({"states": "12", "edges": []}, "list of strings"),       # not a list
            ({"states": ["1", "1"], "edges": []}, "duplicate"),
            ([{"states": ["1"], "edges": []}], "chain in .* must be a JSON object"),
            ({"states": ["1"], "edges": {}}, "edges in .* must be a list"),
        ):
            path = write_json(tmp_path, "c.json", obj)
            with pytest.raises(InputFormatError, match=message):
                load_chain(path)
            assert main(["validate", path]) == 2
            capsys.readouterr()

    def test_edge_errors(self, tmp_path):
        base = {"states": ["1", "2"]}
        for edges in (
            [{"from": "1", "to": "2"}],                               # missing rate
            [{"from": "1", "to": "2", "rate": 1.0, "x": 1}],          # extra key
            [{"from": "1", "to": "3", "rate": 1.0}],                  # unknown state
            [{"from": "1", "to": "2", "rate": "fast"}],               # non-number
            [{"from": "1", "to": "2", "rate": True}],                 # bool
            [
                {"from": "1", "to": "2", "rate": 1.0},
                {"from": "1", "to": "2", "rate": 2.0},                # duplicate
            ],
        ):
            with pytest.raises(InputFormatError):
                load_chain(write_json(tmp_path, "c.json", dict(base, edges=edges)))

    def test_domain_errors_are_not_format_errors(self, tmp_path):
        bad_rate = {
            "states": ["1", "2"],
            "edges": [
                {"from": "1", "to": "2", "rate": -1.0},
                {"from": "2", "to": "1", "rate": 1.0},
            ],
        }
        with pytest.raises(ValidationError):
            load_chain(write_json(tmp_path, "c.json", bad_rate))
        one_way = {
            "states": ["1", "2"],
            "edges": [{"from": "1", "to": "2", "rate": 1.0}],
        }
        with pytest.raises(ValidationError):
            load_chain(write_json(tmp_path, "c.json", one_way))


class TestLoadMeasure:
    def test_round_trip_and_omitted_states(self, tmp_path, two_state_unit):
        path = write_json(tmp_path, "mu.json", {"1": 1.0})
        mu = load_measure(path, two_state_unit)
        assert np.array_equal(mu.values, [1.0, 0.0])
        full = ProbabilityMeasure(two_state_unit, [0.25, 0.75])
        again = load_measure(
            write_json(tmp_path, "mu2.json", full.as_dict()),
            two_state_unit,
        )
        assert np.array_equal(again.values, full.values)

    def test_errors(self, tmp_path, two_state_unit):
        for obj in (
            ["1", 1.0],                       # not an object
            {"9": 1.0},                       # unknown state
            {"1": "half", "2": 0.5},          # non-number
        ):
            with pytest.raises(InputFormatError):
                load_measure(write_json(tmp_path, "mu.json", obj), two_state_unit)
        with pytest.raises(ValidationError):
            load_measure(
                write_json(tmp_path, "mu.json", {"1": 0.7}), two_state_unit
            )


class TestLoadFlow:
    def test_bare_list_and_wrapped_forms(self, tmp_path, two_state_unit):
        rows = [
            {"from": "1", "to": "2", "weight": 0.5},
            {"from": "2", "to": "1", "weight": 0.5},
        ]
        for obj in (rows, {"edges": rows}):
            q = load_flow(write_json(tmp_path, "q.json", obj), two_state_unit)
            assert np.array_equal(q.values, [0.5, 0.5])

    def test_errors(self, tmp_path, two_state_unit):
        for obj in (
            {"flows": []},                                            # wrong key
            {"edges": 3},                                             # not a list
            [{"from": "1", "to": "2"}],                               # missing weight
            [{"from": "1", "to": "9", "weight": 1.0}],                # unknown state
            [
                {"from": "1", "to": "2", "weight": 1.0},
                {"from": "1", "to": "2", "weight": 2.0},              # duplicate
            ],
        ):
            with pytest.raises(InputFormatError):
                load_flow(write_json(tmp_path, "q.json", obj), two_state_unit)

    def test_weight_off_the_edge_set_is_domain_error(self, tmp_path, three_cycle_unit):
        obj = [{"from": "2", "to": "1", "weight": 1.0}]
        with pytest.raises(ValidationError):
            load_flow(write_json(tmp_path, "q.json", obj), three_cycle_unit)


def test_unknown_state_message_names_file_and_state(tmp_path, two_state_unit):
    edges = [
        {"from": "1", "to": "2", "rate": 1.0},
        {"from": "2", "to": "9", "rate": 1.0},
        {"from": "8", "to": "1", "rate": 1.0},
    ]
    cases = (
        ("edge", "c.json", {"states": ["1", "2"], "edges": edges}, load_chain, "9"),
        ("measure", "mu.json", {"1": 0.5, "7": 0.5},
         lambda p: load_measure(p, two_state_unit), "7"),
        ("flow", "q.json", [{"from": "6", "to": "2", "weight": 1.0}],
         lambda p: load_flow(p, two_state_unit), "6"),
    )
    for what, name, obj, load, state in cases:
        path = write_json(tmp_path, name, obj)
        with pytest.raises(InputFormatError) as info:
            load(path)
        assert str(info.value) == f"{what} in {path} names unknown state {state!r}"


class TestSerializers:
    def test_rate_tags_only_infinity(self):
        assert rate_to_jsonable(0.5) == {"value": 0.5, "infinite": False}
        assert rate_to_jsonable(math.inf) == {"value": "inf", "infinite": True}
        # the tagged form survives a strict JSON round trip
        tagged = json.dumps(rate_to_jsonable(math.inf), allow_nan=False)
        assert json.loads(tagged)["infinite"] is True

    def test_flow_skips_zero_weights_by_default(self, two_state_unit):
        q = Flow(two_state_unit, [0.3, 0.0])
        assert flow_to_jsonable(q) == [{"from": "1", "to": "2", "weight": 0.3}]

    def test_vertex_function(self, two_state_unit):
        g = VertexFunction(two_state_unit, [0.0, -1.5])
        assert g.as_dict() == {"1": 0.0, "2": -1.5}


class TestParseEvent:
    def test_single_condition(self, two_state_unit):
        ev = parse_event(two_state_unit, ["1>=0.6"])
        ((c, theta),) = ev.conditions
        assert np.array_equal(c, [1.0, 0.0]) and theta == 0.6

    def test_weighted_terms_and_intersection(self, three_cycle_unit):
        ev = parse_event(
            three_cycle_unit, ["0.5*1 + 0.5*2 >= 0.3", "3>=0.2"]
        )
        assert len(ev.conditions) == 2
        c0, theta0 = ev.conditions[0]
        assert np.array_equal(c0, [0.5, 0.5, 0.0]) and theta0 == 0.3

    def test_errors(self, two_state_unit):
        for specs in (
            [],                       # nothing to parse
            ["1>0.6"],                # wrong operator
            ["1>=0.5>=0.6"],          # two operators
            ["1>=high"],              # threshold not a number
            ["9>=0.5"],               # unknown state
            ["x*1>=0.5"],             # coefficient not a number
            ["+1>=0.5"],              # empty term
        ):
            with pytest.raises(InputFormatError):
                parse_event(two_state_unit, specs)

    @pytest.mark.parametrize(
        "spec",
        ["1>=nan", "1>=inf", "1>=-inf", "nan*1>=0.5", "inf*1>=0.5",
         "0.5*1 + -inf*2>=0.5"],
    )
    def test_non_finite_numbers(self, two_state_unit, spec):
        with pytest.raises(InputFormatError, match="must be finite"):
            parse_event(two_state_unit, [spec])


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, (json.loads(out) if out else None)


class TestCliCommands:
    def test_validate(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["validate", chain_file(tmp_path)])
        assert code == 0
        assert payload == {
            "schema": 2,
            "states": 2,
            "edges": 2,
            "irreducible": True,
            "reversible": True,
            "max_exit_rate": 1.0,
        }

    def test_stationary(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "c.json",
            {
                "states": ["1", "2"],
                "edges": [
                    {"from": "1", "to": "2", "rate": 1.0},
                    {"from": "2", "to": "1", "rate": 2.0},
                ],
            },
        )
        code, payload = run_json(capsys, ["stationary", path])
        assert code == 0
        assert math.isclose(payload["stationary"]["1"], 2 / 3, rel_tol=1e-12)
        assert math.isclose(payload["stationary"]["2"], 1 / 3, rel_tol=1e-12)
        assert payload["residual"] <= 1e-12

    def test_rate_with_default_zero_flow(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.5, "2": 0.5})
        code, payload = run_json(capsys, ["rate", chain, mu])
        assert code == 0
        assert payload["joint_rate"] == {"value": 1.0, "infinite": False}
        assert payload["divergence_max"] == 0.0
        assert payload["flow_l1"] == 0.0

    def test_rate_with_unbalanced_flow_is_infinite(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.5, "2": 0.5})
        q = write_json(
            tmp_path, "q.json", [{"from": "1", "to": "2", "weight": 1.0}]
        )
        code, payload = run_json(capsys, ["rate", chain, mu, "--flow", q])
        assert code == 0
        assert payload["joint_rate"] == {"value": "inf", "infinite": True}
        assert payload["divergence_max"] == 1.0

    def test_min_flow(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        code = main(["min-flow", chain, mu])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert "method=" in captured.err   # diagnostics stay on stderr
        assert "cg_iterations=" in captured.err
        assert math.isclose(
            payload["rate_inf"], 1 - math.sqrt(3) / 2, abs_tol=1e-10
        )
        assert payload["attained"] is True
        assert payload["classes"] == [["1", "2"]]
        for row in payload["optimal_flow"]:
            assert math.isclose(row["weight"], math.sqrt(3) / 4, abs_tol=1e-10)

    def test_min_flow_cycles_method(self, tmp_path, capsys):
        # the CLI's flow and rate against the independent cycle-basis descent
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        code, payload = run_json(capsys, ["min-flow", chain, mu])
        assert code == 0
        assert payload["method"] == "newton"
        c = load_chain(chain)
        m = load_measure(mu, c)
        eids = np.arange(c.n_edges)
        q_ref, _ = cycles_class_ref(c, np.arange(2), eids, mu_flow(c, m).values)
        flow = write_json(tmp_path, "q.json", payload["optimal_flow"])
        assert np.allclose(load_flow(flow, c).values, q_ref, atol=1e-8)
        assert math.isclose(
            payload["rate_inf"], joint_rate_ref(c, m.values, q_ref), rel_tol=1e-8
        )
        assert math.isclose(
            payload["rate_inf"], 1 - math.sqrt(3) / 2, abs_tol=1e-8
        )

    def test_min_flow_potential_on_measure_with_zeros(self, tmp_path, capsys):
        # classes {a, b, c} and {d}; the edge c -> d leaves the support class
        rates = {("a", "b"): 1.0, ("b", "a"): 2.0, ("b", "c"): 0.5,
                 ("c", "a"): 1.5, ("c", "d"): 1.0, ("d", "a"): 3.0}
        chain = write_json(tmp_path, "c.json", {
            "states": ["a", "b", "c", "d"],
            "edges": [{"from": y, "to": z, "rate": r} for (y, z), r in rates.items()],
        })
        mu_vals = {"a": 0.5, "b": 0.3, "c": 0.2, "d": 0.0}
        mu = write_json(tmp_path, "mu.json", mu_vals)
        code, payload = run_json(capsys, ["min-flow", chain, mu])
        assert code == 0
        assert payload["attained"] is False
        assert payload["classes"] == [["a", "b", "c"], ["d"]]
        assert "class_potentials" not in payload
        g = payload["potential"]
        assert sorted(g) == ["a", "b", "c", "d"]
        assert g["a"] == 0.0 and g["d"] == 0.0
        flow = {
            (row["from"], row["to"]): row["weight"] for row in payload["optimal_flow"]
        }
        internal = [(y, z) for y, z in rates if "d" not in (y, z)]
        assert sorted(flow) == sorted(internal)
        for y, z in internal:
            log_ratio = math.log(flow[y, z]) - math.log(mu_vals[y] * rates[y, z])
            assert math.isclose(g[z] - g[y], log_ratio, rel_tol=1e-9, abs_tol=1e-9)

    def test_solver_method_flag_removed(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        for cmd in ("min-flow", "dv-sup"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, chain, mu, "--method", "newton"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_dv_sup_attained(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        code, payload = run_json(capsys, ["dv-sup", chain, mu])
        assert code == 0
        assert payload["attained"] is True
        assert payload["certificate"] == []
        g = payload["maximizer"]
        assert math.isclose(
            g["2"] - g["1"], -0.5 * math.log(3.0), abs_tol=1e-8
        )

    def test_dv_sup_degenerate_certificate(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 1.0})
        code, payload = run_json(capsys, ["dv-sup", chain, mu])
        assert code == 0
        assert payload["attained"] is False
        assert payload["maximizer"] is None
        levels = [n for n, _ in payload["certificate"]]
        assert levels == [10, 20, 40]
        assert payload["certificate"][-1][1] >= 0.999

    def test_duality_both_methods(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        for method in ("contraction", "fenchel"):
            code, payload = run_json(
                capsys, ["duality", chain, mu, "--method", method]
            )
            assert code == 0
            assert payload["within_tolerance"] is True
            assert math.isclose(payload["rate_inf"], 0.1339745962155614, abs_tol=1e-9)
            assert math.isclose(payload["rate_sup"], 0.1339745962155614, abs_tol=1e-7)
        assert [label for label, _ in payload["candidates"]] == ["maximizer"]

    def test_decompose(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "c.json",
            {
                "states": ["1", "2", "3"],
                "edges": [
                    {"from": "1", "to": "2", "rate": 1.0},
                    {"from": "2", "to": "3", "rate": 1.0},
                    {"from": "3", "to": "1", "rate": 1.0},
                ],
            },
        )
        q = write_json(
            tmp_path, "q.json",
            [
                {"from": "1", "to": "2", "weight": 0.25},
                {"from": "2", "to": "3", "weight": 0.25},
                {"from": "3", "to": "1", "weight": 0.25},
            ],
        )
        code, payload = run_json(capsys, ["decompose", path, q])
        assert code == 0
        assert payload["cycles"] == [
            {"cycle": ["1", "2", "3", "1"], "weight": 0.25}
        ]
        assert payload["reconstruction_error"] == 0.0

    def test_simulate_jump_list(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        code, payload = run_json(
            capsys, ["simulate", chain, "--horizon", "25", "--seed", "3"]
        )
        assert code == 0
        assert payload["x0"] == "1"
        assert payload["n_jumps"] == len(payload["jumps"])
        assert payload["rng"]["algorithm"] == "numpy-philox4x64"
        ts = [j["t"] for j in payload["jumps"]]
        assert ts == sorted(ts)

    def test_simulate_empirical(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        code, payload = run_json(
            capsys,
            ["simulate", chain, "--horizon", "50", "--seed", "4",
             "--empirical", "--x0", "2"],
        )
        assert code == 0
        assert payload["x0"] == "2"
        total = sum(payload["measure"].values())
        assert math.isclose(total, 1.0, rel_tol=1e-12)
        assert payload["jump_count"] >= 1
        assert {row["from"] for row in payload["flow"]} <= {"1", "2"}

    def test_simulate_csv(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        code, out = run_cli(
            capsys,
            ["simulate", chain, "--horizon", "25", "--seed", "3",
             "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "to"]
        assert len(rows) >= 2
        assert float(rows[1][0]) > 0 and rows[1][1] in ("1", "2")

    def test_ldp_slope(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        code, payload = run_json(
            capsys,
            ["ldp-slope", chain, "--event", "1>=0.6",
             "--horizons", "5,10", "--samples", "200", "--seed", "1"],
        )
        assert code == 0
        assert payload["event"] == ["1*1 >= 0.6"]
        assert payload["horizons"] == [5.0, 10.0]
        assert payload["slope"] is not None
        assert len(payload["per_horizon_slopes"]) == 2

    def test_ldp_slope_csv(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        code, out = run_cli(
            capsys,
            ["ldp-slope", chain, "--event", "1>=0.6",
             "--horizons", "5,10", "--samples", "100", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["horizon", "p_hat", "stderr", "slope"]
        assert len(rows) == 6   # two horizons + three summary rows
        assert rows[3][0] == "slope"

    def test_csv_nested_cells_are_json(self, tmp_path, capsys):
        # duality --method fenchel has a list of [label, value] candidates,
        # which the generic CSV branch writes as one JSON cell
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 1.0})
        argv = ["duality", chain, mu, "--method", "fenchel"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        code, out = run_cli(capsys, argv + ["--format", "csv"])
        assert code == 0
        table = dict(csv.reader(io.StringIO(out)))
        assert json.loads(table["candidates"]) == payload["candidates"]
        assert [label for label, _ in payload["candidates"]] == [
            "g^(10)", "g^(20)", "g^(40)"
        ]
        assert float(table["rate_sup"]) == payload["rate_sup"]

    def test_csv_generic_fallback(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, ["validate", chain_file(tmp_path), "--format", "csv"]
        )
        assert code == 0
        table = dict(csv.reader(io.StringIO(out)))
        assert table["schema"] == "2"
        assert table["irreducible"] == "True"


class TestCliExitCodes:
    def test_domain_errors_exit_one(self, tmp_path, capsys):
        dead_end = write_json(
            tmp_path, "c.json",
            {
                "states": ["1", "2"],
                "edges": [{"from": "1", "to": "2", "rate": 1.0}],
            },
        )
        code, out = run_cli(capsys, ["validate", dead_end])
        assert code == 1 and out == ""

        chain = chain_file(tmp_path)
        unnormalized = write_json(tmp_path, "mu.json", {"1": 0.9})
        assert main(["min-flow", chain, unnormalized]) == 1
        capsys.readouterr()

        mu = write_json(tmp_path, "mu2.json", {"1": 0.5, "2": 0.5})
        off_edge = write_json(
            tmp_path, "q.json",
            [{"from": "1", "to": "1", "weight": 1.0}],
        )
        assert main(["rate", chain, mu, "--flow", off_edge]) == 1
        capsys.readouterr()

    def test_format_errors_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["validate", str(bad)]) == 2
        capsys.readouterr()

        assert main(["validate", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

        chain = chain_file(tmp_path)
        unknown = write_json(tmp_path, "mu.json", {"9": 1.0})
        assert main(["min-flow", chain, unknown]) == 2
        capsys.readouterr()

        assert main(
            ["ldp-slope", chain, "--event", "1>0.6", "--samples", "5"]
        ) == 2
        capsys.readouterr()

        assert main(
            ["ldp-slope", chain, "--event", "1>=0.6", "--horizons", "a,b",
             "--samples", "5"]
        ) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "event", ["1>=nan", "1>=inf", "nan*1>=0.6", "inf*1>=0.6"]
    )
    def test_non_finite_event_exits_two(self, tmp_path, capsys, event):
        chain = chain_file(tmp_path)
        code, out = run_cli(
            capsys,
            ["ldp-slope", chain, "--event", event, "--samples", "5",
             "--horizons", "5,10"],
        )
        assert code == 2 and out == ""

    def test_unknown_start_state_exits_two(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        for argv in (
            ["simulate", chain, "--horizon", "5", "--x0", "9"],
            ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "5",
             "--x0", "9"],
        ):
            code, out = run_cli(capsys, argv)
            assert code == 2 and out == ""

    @pytest.mark.parametrize("horizons", ["-5", "0", "5,inf", "nan"])
    def test_bad_slope_horizons_exit_one(self, tmp_path, capsys, horizons):
        chain = chain_file(tmp_path)
        code = main(
            ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "5",
             f"--horizons={horizons}"]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "horizon must be positive and finite" in captured.err

    def test_repeated_horizon_exits_one(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        for horizons in ("5,5", "5,5.0", "5,10,5"):
            code = main(
                ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "200",
                 f"--horizons={horizons}"]
            )
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: horizons must be distinct")

    def test_near_equal_horizons_give_a_valid_payload(self, tmp_path, capsys):
        # the fit cannot separate these horizons: its normal matrix is
        # singular or its slope variance not positive, by rounding alone
        chain = chain_file(tmp_path)
        for seed in range(4):
            code, payload = run_json(
                capsys,
                ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "200",
                 "--horizons", "5,5.000000000001", "--seed", str(seed)],
            )
            assert code == 0
            fit = [payload[k] for k in ("slope", "slope_stderr", "intercept_over_t")]
            assert fit == [None] * 3 or payload["slope_stderr"] > 0.0

    def test_overflowing_exit_rate_exits_one(self, tmp_path, capsys):
        chain = write_json(
            tmp_path, "big.json",
            {
                "states": ["1", "2", "3"],
                "edges": [{"from": "1", "to": "2", "rate": 1e308},
                          {"from": "2", "to": "1", "rate": 1.0},
                          {"from": "1", "to": "3", "rate": 1e308},
                          {"from": "3", "to": "1", "rate": 1.0}],
            },
        )
        for argv in (["validate", chain], ["stationary", chain],
                     ["simulate", chain, "--horizon", "5"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == "error: exit rate of state '1' overflows to inf\n"

    def test_horizon_past_the_jump_limit_exits_one(self, tmp_path, capsys):
        chain = write_json(
            tmp_path, "fast.json",
            {
                "states": ["1", "2"],
                "edges": [{"from": "1", "to": "2", "rate": 10.0},
                          {"from": "2", "to": "1", "rate": 10.0}],
            },
        )
        for T, lam in (("1e300", "1e+301"), ("1e308", "inf")):
            for argv in (["simulate", chain, "--horizon", T],
                         ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "5",
                          "--horizons", f"5,{T}"]):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 1 and captured.out == ""
                assert captured.err == (
                    f"error: horizon * max exit rate = {lam} is above the limit "
                    "of 1e+07 mean jumps per path\n"
                )

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        for argv in (
            ["simulate", chain, "--horizon", "5", "--seed", "-1"],
            ["ldp-slope", chain, "--event", "1>=0.6", "--samples", "5",
             "--seed", "-1"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert "error: seed must be a non-negative integer" in captured.err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_error_message_goes_to_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        main(["validate", str(bad)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestCliToleranceFlags:
    @pytest.mark.parametrize(
        "command, option",
        [
            (cmd, opt)
            for cmd in ("validate", "stationary", "rate", "decompose",
                        "simulate", "ldp-slope")
            for opt in ("--tol", "--max-iter")
        ]
        + [(cmd, "--seed") for cmd in ("validate", "stationary", "rate",
                                       "min-flow", "dv-sup", "duality",
                                       "decompose")],
    )
    def test_options_a_command_does_not_read_are_rejected(
        self, tmp_path, capsys, command, option
    ):
        chain = chain_file(tmp_path)
        extra = {
            "rate": ["mu.json"], "min-flow": ["mu.json"],
            "dv-sup": ["mu.json"], "duality": ["mu.json"],
            "decompose": ["q.json"], "simulate": ["--horizon", "5"],
            "ldp-slope": ["--event", "1>=0.6"],
        }.get(command, [])
        with pytest.raises(SystemExit) as exc:
            main([command, chain, *extra, option, "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_overrides_accepted(self, tmp_path, capsys):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        code, payload = run_json(
            capsys,
            ["min-flow", chain, mu, "--tol", "1e-10", "--max-iter", "500"],
        )
        assert code == 0
        assert math.isclose(
            payload["rate_inf"], 1 - math.sqrt(3) / 2, abs_tol=1e-9
        )

    def test_max_iter_reaches_newton(self, tmp_path, capsys):
        # this chain and measure take five Newton iterations by default
        chain = write_json(
            tmp_path, "chain.json",
            {
                "states": ["a", "b", "c"],
                "edges": [
                    {"from": "a", "to": "b", "rate": 1.0},
                    {"from": "b", "to": "c", "rate": 2.0},
                    {"from": "c", "to": "a", "rate": 0.5},
                    {"from": "b", "to": "a", "rate": 1.0},
                ],
            },
        )
        mu = write_json(tmp_path, "mu.json", {"a": 0.6, "b": 0.3, "c": 0.1})
        code = main(["min-flow", chain, mu, "--max-iter", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "no convergence after 1 Newton iterations" in captured.err

    @pytest.mark.parametrize(
        "option, value",
        [("--tol", v) for v in ("nan", "0", "-1", "inf")]
        + [("--max-iter", v) for v in ("0", "-3")],
    )
    @pytest.mark.parametrize("command", ["min-flow", "dv-sup", "duality"])
    def test_out_of_range_overrides_exit_two(
        self, tmp_path, capsys, command, option, value
    ):
        chain = chain_file(tmp_path)
        mu = write_json(tmp_path, "mu.json", {"1": 0.75, "2": 0.25})
        code = main([command, chain, mu, option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: malformed {option}:" in captured.err
        assert "Newton" not in captured.err
