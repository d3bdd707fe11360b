"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a run prints every metric of BENCHMARK.json with its unit,
that the output checks catch a wrong expected rate, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
from speed import Speedometer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    proc = run_bench("--workload", "builtin-run", "--seed", "1", "--seconds", "0.5",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
        assert name in proc.stdout.split("{", 1)[0], f"{name} missing from the readable lines"


def test_wrong_expected_rate_fails_the_checks(tmp_path):
    wl = worker.WORKLOADS["builtin-run"]()
    wl.prepare(1, tmp_path)
    assert wl.op(Speedometer()).failed == []
    out = tmp_path / "out" / "paper-scenario-1"
    assert worker.check_run_outputs("paper-scenario-1", 0, out)[0] == []
    wrong = list(worker.REFERENCE_RATES)
    wrong[2] += 3 * worker.RATE_TOL_KBPS
    problems, _ = worker.check_run_outputs("paper-scenario-1", 0, out, tuple(wrong))
    assert any("reference optimum" in p for p in problems)


def test_a_crashing_call_is_counted_not_fatal(tmp_path, monkeypatch):
    wl = worker.WORKLOADS["validate"]()
    wl.prepare(1, tmp_path)

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(worker.cli, "main", crash)
    ops = wl.op(Speedometer())
    assert sorted(ops.failed) == sorted(worker.VALIDATED)
    assert any("RuntimeError: boom" in p for p in ops.problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "builtin-run", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
