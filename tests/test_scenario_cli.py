"""Scenario documents and the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scpnum
from scpnum import (
    BUILT_IN_SCENARIOS,
    ParseError,
    ScenarioValidationError,
    SolverConfig,
    load_scenario,
    parse_scenario,
    scenario_to_json,
    solve,
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
    assert np.array_equal(net.routing_matrix(), np.ones((1, 5)))
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

    doc["solver"] = {"price_lag": "stale"}
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


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


def test_cli_validate_single_source(tmp_path):
    assert main(["validate", "single-source", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "validation.txt").read_text()
    assert "verdict: PASS" in report
    assert "local_opt_test" in report
    assert "grid_search" in report


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
