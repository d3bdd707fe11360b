"""Scenario documents and the command-line front end."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import COLLAPSE_CONFIG, crowded_instance, recipe_x0, routing_matrix
import scpnum
from scpnum import (
    BUILT_IN_SCENARIOS,
    GridSpec,
    ParseError,
    ScenarioValidationError,
    SolverConfig,
    built_in_scenario,
    grid_search,
    load_scenario,
    parse_scenario,
    scenario_to_json,
    solve,
    total_utility,
)
from scpnum.cli import main

MINIMAL = {
    "links": [{"id": 1, "capacity_kbps": 500.0}],
    "sources": [{"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0, "route": [1]}],
}


def test_built_in_names():
    assert set(BUILT_IN_SCENARIOS) == {"paper-scenario-1", "chain-3",
                                       "single-source"}


def test_shared_link_built_in_shape():
    net, utilities, config = load_scenario("paper-scenario-1")
    assert net.n_links == 1 and net.n_sources == 5
    assert net.capacities == (1000.0,)
    assert np.array_equal(routing_matrix(net), np.ones((1, 5)))
    assert [u.c2 for u in utilities] == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert all(u.r == 256.0 and u.c1 == 6.0 for u in utilities)
    assert config.gamma == 1e-4
    assert config.epsilon == 0.1


def test_built_ins_round_trip():
    for name in BUILT_IN_SCENARIOS:
        net, utilities, config = load_scenario(name)
        text = scenario_to_json(net, utilities, config)
        net2, utilities2, config2 = parse_scenario(text, origin=name)
        assert net2 == net
        assert utilities2 == utilities
        assert config2 == config


def test_feas_tol_is_a_constant_and_chain_3_round_trips():
    # the feasibility tolerance is not a setting, so every SolverConfig
    # is one a scenario can store
    net, utilities, config = load_scenario("chain-3")
    assert config.feas_tol == SolverConfig.feas_tol == 0.5
    with pytest.raises(TypeError):
        replace(config, feas_tol=0.1)
    with pytest.raises(TypeError):
        SolverConfig(feas_tol=0.1)
    assert parse_scenario(scenario_to_json(net, utilities, config)) == (net, utilities, config)


def test_numpy_scalars_in_a_config_round_trip():
    # the config stores them as Python numbers, which json can write
    net, utilities, _ = load_scenario("single-source")
    config = SolverConfig(gamma=np.float32(0.5), max_iter=np.int64(7), mu0=np.float64(0.1),
                          x0=np.array([90.0]))
    text = scenario_to_json(net, utilities, config)
    assert parse_scenario(text)[2] == config


# sha256 of scenario_to_json's text for each built-in, so a change to the
# written bytes (key order, number formatting, defaults written) shows
BUILT_IN_JSON_SHA256 = {
    "paper-scenario-1": "ee1c7a0ca5c9780673864ceab2d51d43c7813f12954993aebbcfd8c95d880ff8",
    "chain-3": "93277d73167672d01e0fbbb9f8475735139f40af2a9fd3698bc2ce7832c0955c",
    "single-source": "5ec0bc6cc063282d8c50a8e491f03507be8fc83876094a4608d3ca1aa5e8b2e4",
}


@pytest.mark.parametrize("name", sorted(BUILT_IN_JSON_SHA256))
def test_serializer_bytes_are_pinned(name):
    text = scenario_to_json(*load_scenario(name))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILT_IN_JSON_SHA256[name]


def test_minimal_document_gets_defaults():
    net, utilities, config = parse_scenario(json.dumps(MINIMAL))
    assert net.n_links == 1 and net.n_sources == 1
    assert utilities[0].m == 1.0
    assert utilities[0].big_m == 256.0
    assert config == SolverConfig()


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MINIMAL))
    net, utilities, config = load_scenario(path)
    assert net.capacities == (500.0,)


def test_parse_error_is_located():
    with pytest.raises(ParseError) as exc:
        parse_scenario('{\n  "links": [}', origin="broken.json")
    assert exc.value.origin == "broken.json"
    assert exc.value.line == 2
    assert "broken.json:2:" in str(exc.value)


def test_missing_field_path():
    doc = {"links": [{"id": 1}], "sources": []}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "links[0].capacity_kbps"


def test_unknown_fields_rejected():
    doc = dict(MINIMAL, plots=True)
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "plots"

    doc = json.loads(json.dumps(MINIMAL))
    doc["sources"][0]["priority"] = 3
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "sources[0].priority"


def test_route_over_undeclared_link_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sources"][0]["route"] = [1, 9]
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


NO_SOURCES = {"links": [{"id": 1, "capacity_kbps": 100.0}], "sources": []}


def test_no_sources_rejected():
    with pytest.raises(ScenarioValidationError, match="at least one source"):
        parse_scenario(json.dumps(NO_SOURCES))


@pytest.mark.parametrize("command", [["validate"], ["run", "--mode", "both"]],
                         ids=["validate", "run"])
def test_cli_rejects_no_sources(tmp_path, command):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(NO_SOURCES))
    src = str(Path(scpnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "scpnum.cli", *command, str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "at least one source" in proc.stderr


def test_utility_invariants_surface_with_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["sources"][0]["c2"] = 0.5
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "sources[0]"


@pytest.mark.parametrize("section,key,value", [
    ("links", "capacity_kbps", float("nan")),
    ("links", "capacity_kbps", float("inf")),
    ("sources", "r_kbps", float("inf")),
    ("sources", "c1", float("nan")),
    ("sources", "c2", float("inf")),
    ("sources", "big_m_kbps", float("inf")),
    ("solver", "gamma", float("nan")),
    ("solver", "epsilon", float("inf")),
    ("solver", "mu0", float("nan")),
    ("solver", "mu0", [float("inf")]),
    ("solver", "x0", [float("nan")]),
])
def test_nonfinite_numbers_rejected(section, key, value):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts
    doc = json.loads(json.dumps(MINIMAL))
    if section == "solver":
        doc["solver"] = {key: value}
    else:
        doc[section][0][key] = value
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


def test_solver_field_validation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"x0": [100.0, 200.0]}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "solver.x0"

    doc["solver"] = {"mu0": [0.1, 0.2]}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "solver.mu0"

    doc["solver"] = {"max_iter": 10.5}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "solver.max_iter"


def test_price_lag_is_an_unknown_field(tmp_path):
    # there is one price order; a document that still names one is rejected
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"price_lag": "fresh"}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "solver.price_lag"
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key,value,path", [
    ("x0", ["abc"], "solver.x0[0]"),
    ("x0", [None], "solver.x0[0]"),
    ("x0", [True], "solver.x0[0]"),
    ("mu0", [None], "solver.mu0[0]"),
    ("mu0", ["1"], "solver.mu0[0]"),
    ("mu0", [[0.1]], "solver.mu0[0]"),
])
def test_solver_list_entries_must_be_numbers(key, value, path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {key: value}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == path


@pytest.mark.parametrize("x0", [1000.0, 0.5])
def test_x0_outside_rate_window_rejected(x0):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"x0": [x0]}
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "solver.x0[0]"
    assert "[1, 256]" in str(exc.value)


@pytest.mark.parametrize("key,value", [
    ("x0", [168.0, 168.0, 180.0]),
    ("x0", [168.0, 168.0, 180.0, 160.0, 160.0]),
    ("x0", [168.0, 168.0, 0.5, 160.0]),
    ("x0", [168.0, 300.0, 180.0, 160.0]),
    ("mu0", [0.002, 0.002]),
], ids=["x0-short", "x0-long", "x0-below", "x0-above", "mu0-length"])
def test_parser_and_solve_reject_a_start_alike(key, value):
    # one start check: solve's ValueError reads as the parser's error
    # without its "solver." prefix
    doc = built_in_scenario("chain-3")
    net, utilities, config = parse_scenario(json.dumps(doc))
    doc["solver"][key] = value
    with pytest.raises(ScenarioValidationError) as parsed:
        parse_scenario(json.dumps(doc))
    with pytest.raises(ValueError) as solved:
        solve(net, utilities, replace(config, **{key: tuple(value)}))
    assert str(parsed.value).startswith("solver.")
    assert str(solved.value) == str(parsed.value).removeprefix("solver.")


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("x0", [1000.0, 0.5])
def test_cli_rejects_x0_outside_rate_window(tmp_path, capsys, command, x0):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"x0": [x0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "solver.x0[0]" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("x0", ["abc"]), ("mu0", [None])])
def test_cli_run_rejects_non_number_list_entry(tmp_path, key, value):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {key: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = str(Path(scpnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "scpnum.cli", "run", str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"solver.{key}[0]" in proc.stderr


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("section,key", [("links", "capacity_kbps"), ("sources", "c1")])
def test_cli_rejects_integer_too_large_for_a_float(tmp_path, command, section, key):
    doc = json.loads(json.dumps(MINIMAL))
    doc[section][0][key] = 10 ** 400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    src = str(Path(scpnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "scpnum.cli", command, str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{section}[0].{key}: integer too large for a float" in proc.stderr


# a UTF-16 byte-order mark and text: not UTF-8
NOT_UTF8 = b"\xff\xfe" + "{}".encode("utf-16-le")


def test_scenario_file_that_is_not_utf8_is_a_validation_error(tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(NOT_UTF8)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(bad)
    assert exc.value.path == "$" and "utf-8" in str(exc.value)


@pytest.mark.parametrize("command", [["validate"], ["run", "--mode", "both"]],
                         ids=["validate", "run"])
def test_cli_rejects_a_scenario_file_that_is_not_utf8(tmp_path, command):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(NOT_UTF8)
    src = str(Path(scpnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "scpnum.cli", *command, str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: $: cannot read scenario")


def test_unknown_scenario_name():
    with pytest.raises(ScenarioValidationError):
        load_scenario("no-such-scenario")


def test_cli_scenarios_lists_built_ins(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in BUILT_IN_SCENARIOS:
        assert name in out


def test_cli_run_writes_trace_and_result(tmp_path):
    assert main(["run", "single-source", "--out", str(tmp_path)]) == 0
    net, utilities, config = load_scenario("single-source")
    res = solve(net, utilities, config)

    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,mu_1,stopping_metric,g_1,ghat_1"
    assert len(lines) == res.iterations + 2  # header + t=0 row + iterations
    # full double precision: the cells round-trip bit-exactly
    last = lines[-1].split(",")
    assert int(last[0]) == res.iterations
    assert float(last[1]) == res.x[0]
    assert float(last[2]) == res.mu[0]

    result = (tmp_path / "result.txt").read_text()
    assert "converged: true" in result
    assert "steady_state_check" in result
    assert "stationarity" in result


def test_cli_run_both_reports_equivalence(tmp_path):
    assert main(["run", "paper-scenario-1", "--mode", "both",
                 "--out", str(tmp_path)]) == 0
    eq = (tmp_path / "equivalence.txt").read_text()
    assert "max relative trace deviation" in eq
    assert "equivalent (tol 1e-12): true" in eq
    assert (tmp_path / "messages.csv").exists()


def test_cli_run_agents_writes_messages(tmp_path):
    assert main(["run", "chain-3", "--mode", "agents",
                 "--out", str(tmp_path)]) == 0
    net, utilities, config = load_scenario("chain-3")
    res = solve(net, utilities, config)
    lines = (tmp_path / "messages.csv").read_text().splitlines()
    assert len(lines) == net.nnz * (2 * res.iterations + 1) + 1


def test_cli_run_uncongested_source_saturates(tmp_path):
    # capacity above the max rate: the price drains to zero and the
    # source saturates; mu0 must start at link-price scale (the huge
    # all-defaults mu0 pins the rate at its minimum instead)
    doc = {
        "links": [{"id": 1, "capacity_kbps": 300.0}],
        "sources": [{"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0,
                     "route": [1]}],
        "solver": {"mu0": 0.001},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert float(lines[-1].split(",")[1]) == 256.0


def test_cli_run_exit_codes(tmp_path):
    # iteration cap exhausted
    doc = json.loads(scenario_to_json(*load_scenario("paper-scenario-1")))
    doc["solver"]["max_iter"] = 5
    doc["solver"]["epsilon"] = 1e-6
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(doc))
    assert main(["run", str(capped), "--out", str(tmp_path / "a")]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken), "--out", str(tmp_path / "b")]) == 2

    assert main(["run", "no-such-name", "--out", str(tmp_path / "c")]) == 2


def _collapsed_scenario():
    net, utilities = crowded_instance(0)
    return net, utilities, SolverConfig(**COLLAPSE_CONFIG, x0=recipe_x0(net, utilities))


def _capped_scenario():
    net, utilities, config = load_scenario("paper-scenario-1")
    return net, utilities, replace(config, max_iter=1)


@pytest.mark.parametrize("scenario,reason,code", [
    (lambda: load_scenario("single-source"), "converged", 0),
    (_collapsed_scenario, "collapsed", 0),
    (_capped_scenario, "max_iter", 1),
], ids=["converged", "collapsed", "max_iter"])
def test_cli_run_reports_stop_reason(tmp_path, capsys, scenario, reason, code):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(*scenario()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    assert f"stop_reason={reason}," in capsys.readouterr().out
    result = (tmp_path / "out" / "result.txt").read_text().splitlines()
    assert f"stop_reason: {reason}" in result


def test_cli_validate_reports_stop_reason(tmp_path):
    # two sources on a link of about twice their knee sum, started high
    # enough in price that the engine collapses to x = (1, 1)
    source = {"r_kbps": 256.0, "c1": 6.0, "c2": 2.0, "route": [1]}
    doc = {"links": [{"id": 1, "capacity_kbps": 300.0}],
           "sources": [{"id": 1, **source}, {"id": 2, **source}],
           "solver": {"gamma": 1e-4, "epsilon": 1e-6, "mu0": 0.1}}
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(doc))
    main(["validate", str(path), "--out", str(tmp_path)])
    lines = (tmp_path / "validation.txt").read_text().splitlines()
    engine = next(line for line in lines if line.startswith("engine: "))
    polish_line = next(line for line in lines if line.startswith("polish: "))
    assert re.match(r"engine: converged=true iterations=\d+ stop_reason=collapsed ", engine)
    assert re.fullmatch(r"polish: converged=true iterations=\d+ stop_reason=collapsed",
                        polish_line)


def test_cli_validate_single_source(tmp_path):
    assert main(["validate", "single-source", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "validation.txt").read_text()
    assert "verdict: PASS" in report
    assert "local_opt_test" in report
    assert "grid_search" in report


def test_cli_validate_prints_scanned_points(tmp_path):
    # chain-3's row bound leaves one 64**2-point row per pass of 64**4
    assert main(["validate", "chain-3", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "validation.txt").read_text()
    assert f" evaluations={3 * 64 ** 4} scanned={3 * 64 ** 2} " in report


def test_cli_validate_sums_both_sides_in_one_order(tmp_path, monkeypatch):
    # the oracle's own utility is the scan's sum; the gap and the printed
    # oracle utility come from total_utility at the oracle's rates, as the
    # engine side's do, so an oracle utility of -1 changes neither
    def scan_sum_off(net, utilities, spec):
        return replace(grid_search(net, utilities, spec), utility=-1.0)

    monkeypatch.setattr(scpnum.cli, "grid_search", scan_sum_off)
    assert main(["validate", "chain-3", "--out", str(tmp_path)]) == 0
    net, utilities, _ = load_scenario("chain-3")
    oracle_u = total_utility(utilities, grid_search(net, utilities, GridSpec()).x)
    report = (tmp_path / "validation.txt").read_text()
    assert f"oracle aggregate utility: {oracle_u:.10f}\n" in report
    assert "(|gap| <= 1e-3: true)" in report


def test_cli_validate_budget_guard(tmp_path, capsys):
    doc = {
        "links": [{"id": 1, "capacity_kbps": 5000.0}],
        "sources": [{"id": s, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0,
                     "route": [1]} for s in range(1, 9)],
    }
    path = tmp_path / "eight.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "5-source" in err


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_rejects_an_unusable_out(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    assert main([command, "chain-3", "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", ["abc", "1.5", "-5"])
def test_cli_validate_rejects_a_bad_seed_before_solving(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("SCPNUM_SEED", raw)
    monkeypatch.setattr("scpnum.cli.solve", lambda *a: pytest.fail("solved before the seed"))
    assert main(["validate", "chain-3", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: SCPNUM_SEED")
    assert not (tmp_path / "out").exists()


def test_cli_validate_no_feasible_grid_point(tmp_path, capsys):
    # two 1 Kbps minima on a 1.5 Kbps link fit within run's feas_tol of
    # 0.5 Kbps, but no grid point fits within the oracle's 1e-6
    doc = {
        "links": [{"id": 1, "capacity_kbps": 1.5}],
        "sources": [{"id": s, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0, "m_kbps": 1.0,
                     "route": [1]} for s in (1, 2)],
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no feasible grid point")


@pytest.mark.parametrize("value,kind", [([], "list"), ("x", "str"), (3, "int"), (None, "NoneType")])
@pytest.mark.parametrize("section,path", [("links", "links[0]"), ("sources", "sources[0]"),
                                          ("solver", "solver")])
def test_a_document_object_that_is_not_an_object(section, path, value, kind):
    doc = json.loads(json.dumps(MINIMAL))
    if section == "solver":
        doc["solver"] = value
    else:
        doc[section][0] = value
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: expected object, got {kind}"


def test_cli_validate_reports_an_infeasible_polished_point(tmp_path, capsys):
    # polish stops within feas_tol (0.5 Kbps) of every capacity; here its
    # point overloads link 2 by 0.26 Kbps, beyond local_opt_test's 1e-6,
    # and the utility still matches the oracle's
    doc = {
        "links": [{"id": 1, "capacity_kbps": 303.9437045903419},
                  {"id": 2, "capacity_kbps": 299.8836869951146},
                  {"id": 3, "capacity_kbps": 300.4033492210511}],
        "sources": [{"id": 1, "r_kbps": 318.01126048891985, "c1": 7.230568234838982,
                     "c2": 9.0, "route": [1, 2, 3]}],
        "solver": {"gamma": 1e-5, "epsilon": 1e-6, "max_iter": 20000, "mu0": 0.001,
                   "x0": [264.53587702446083]},
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "validation.txt").read_text().splitlines()
    local = next(line for line in lines if line.startswith("local_opt_test "))
    assert local.endswith("): passed=false infeasible_candidate=capacity 2 "
                          "(excess 2.598e-01 Kbps)")
    assert "utility gap (engine - oracle):  9.560870e-04  (|gap| <= 1e-3: true)" in lines
    assert lines[-1] == "verdict: PASS (utility match)"
