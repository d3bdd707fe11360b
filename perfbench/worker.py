"""One run of one benchmark workload, measured in this process.

Started by ``run.py``, which pins the numpy/BLAS thread pools to one
thread and puts the checkout's ``src`` on the import path. Prints
readable lines, then one JSON object as the last line of stdout. Exits
non-zero, without a JSON line, if the benchmark itself breaks.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scpnum import agents, cli, engine, network, scenario  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import layers  # noqa: E402
import mesh  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import CHECK_OP, Tracer, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out"

BUILTINS = ("paper-scenario-1", "chain-3", "single-source")
# paper-scenario-1 is left out: its validate is one ~30 s, ~580 MB call
# (see README.md)
VALIDATED = ("chain-3", "single-source")
# independently computed optimum of paper-scenario-1 (tests/helpers.py)
REFERENCE_RATES = (117.9658, 191.1745, 219.3638, 232.2520, 239.2439)
RATE_TOL_KBPS = 2.0
# priced links must sit within this share of capacity (complementary slackness)
SATURATION_REL = 1e-2
PRICED_MU = 1e-6
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, scpnum; "
                "print(time.perf_counter() - t0)")
WARMUP_ITERS = 3


@dataclasses.dataclass
class OpSet:
    """One pass over a workload's inputs.

    ``calls`` holds (label, seconds) for each call into the program;
    ``failed`` names the calls whose output checks failed.
    """

    calls: list[tuple[str, float]]
    failed: list[str]
    problems: list[str]
    iterations: int
    output_bytes: int = 0

    @property
    def seconds(self) -> float:
        return sum(dt for _, dt in self.calls)


def _timed(fn, *args):
    """One call into the program, as (result, seconds, error). A call that
    raises is a failed call, not an aborted run."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


def _timed_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return _timed(cli.main, argv)


def _write_builtins(workdir: Path, seed: int, names):
    """Built-in scenarios as JSON files, so each call parses its input; the
    seed rotates their order."""
    k = seed % len(names)
    paths = []
    for name in names[k:] + names[:k]:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(scenario.built_in_scenario(name), indent=2))
        paths.append((name, path))
    return paths


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def check_run_outputs(name: str, rc: int, out: Path,
                      expected=REFERENCE_RATES) -> tuple[list[str], int]:
    """Problems with one `scpnum run --mode both` output, and its iterations."""
    problems = []
    if rc != 0:
        problems.append(f"{name}: exit code {rc}")
    try:
        result = (out / "result.txt").read_text()
        equiv = (out / "equivalence.txt").read_text()
    except OSError as exc:
        return problems + [f"{name}: missing output ({exc})"], 0
    m = re.search(r"^iterations: (\d+)$", result, re.M)
    iterations = int(m.group(1)) if m else 0
    if "converged: true" not in result:
        problems.append(f"{name}: not converged")
    if name == "paper-scenario-1":
        rates = [float(v) for v in re.findall(r"^  source \d+: x = (\S+)", result, re.M)]
        if len(rates) != len(expected):
            problems.append(f"{name}: {len(rates)} rates, expected {len(expected)}")
        else:
            worst = max(abs(a - b) for a, b in zip(rates, expected))
            if worst > RATE_TOL_KBPS:
                problems.append(f"{name}: rate off the reference optimum by {worst:.4f} Kbps")
    if not re.search(r"^equivalent \(tol [^)]*\): true$", equiv, re.M):
        problems.append(f"{name}: engine and agents traces not equivalent")
    m = re.search(r"^messages in round 1: (\d+)  \(2 \* nnz\(R\) = (\d+)\)$", equiv, re.M)
    if not m or m.group(1) != m.group(2):
        problems.append(f"{name}: round 1 does not carry 2*nnz messages")
    return problems, iterations


def check_validate_outputs(name: str, rc: int, out: Path) -> tuple[list[str], int]:
    """Problems with one `scpnum validate` output, and its iterations
    (engine solve plus polish)."""
    problems = []
    if rc != 0:
        problems.append(f"{name}: exit code {rc}")
    try:
        text = (out / "validation.txt").read_text()
    except OSError as exc:
        return problems + [f"{name}: missing output ({exc})"], 0
    if not re.search(r"^verdict: PASS", text, re.M):
        problems.append(f"{name}: verdict is not PASS")
    its = [int(v) for v in re.findall(r"^(?:engine|polish): converged=\w+ iterations=(\d+)",
                                      text, re.M)]
    if len(its) != 2:
        problems.append(f"{name}: iteration counts missing")
    return problems, sum(its)


def traces_equal(trace_a, trace_b) -> bool:
    """Bitwise equality of two traces, row by row."""
    if len(trace_a) != len(trace_b):
        return False
    for ra, rb in zip(trace_a, trace_b):
        if ra.t != rb.t or not (ra.metric == rb.metric
                                or (np.isnan(ra.metric) and np.isnan(rb.metric))):
            return False
        for f in ("x", "x_tilde", "mu", "rho", "g", "g_hat"):
            if not np.array_equal(getattr(ra, f), getattr(rb, f)):
                return False
    return True


def check_solution(net, utilities, config, res, label: str) -> list[str]:
    """Converged, feasible at feas_tol, and every priced link saturated."""
    problems = []
    if not res.converged:
        problems.append(f"{label}: not converged after {res.iterations} iterations")
    bounds = [(u.m, u.big_m) for u in utilities]
    if not network.is_feasible(net, res.x, bounds, config.feas_tol).ok:
        problems.append(f"{label}: infeasible at feas_tol {config.feas_tol}")
    g = res.trace[-1].g
    for i, cap in enumerate(net.capacities):
        if res.mu[i] > PRICED_MU and abs(g[i] - cap) > SATURATION_REL * cap:
            problems.append(f"{label}: priced link {net.link_ids[i]} at {g[i]:.3f} of {cap:.3f}")
            break
    return problems


class CliWorkload:
    """Each op set calls `scpnum <command> <scenario>.json ... --out DIR` once
    per scenario, in process through ``scpnum.cli.main``."""

    def __init__(self, command, names, warmup_names, check):
        self.command = command
        self.names = names
        self.warmup_names = warmup_names
        self.check = check

    def prepare(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.paths = _write_builtins(workdir, seed, self.names)

    def _call(self, name, path):
        out = self.workdir / "out" / name
        argv = [self.command[0], str(path), *self.command[1:], "--out", str(out)]
        return _timed_cli(argv) + (out,)

    def warmup(self) -> None:
        for name, path in self.paths:
            if name in self.warmup_names:
                self._call(name, path)

    def op(self, speed, tracer=None) -> OpSet:
        ops = OpSet([], [], [], 0)
        for name, path in self.paths:
            rc, dt, error, out = self._call(name, path)
            ops.calls.append((name, dt))
            speed.tick()
            with _checking(tracer):
                problems, iterations = self.check(name, rc, out)
                ops.output_bytes += _dir_bytes(out)
            if error:
                problems.insert(0, f"{name}: {error}")
            ops.iterations += iterations
            if problems:
                ops.failed.append(name)
                ops.problems += problems
        return ops


class Mesh1k:
    """engine.solve, then agents.run_to_convergence, on each of a seed's meshes."""

    def prepare(self, seed: int, workdir: Path) -> None:
        self.models = [
            scenario.parse_scenario(json.dumps(mesh.generate(seed, k)),
                                    origin=f"mesh-1k seed {seed} mesh {k}")
            for k in range(mesh.MESHES_PER_SEED)
        ]

    def warmup(self) -> None:
        net, utilities, config = self.models[0]
        cfg = dataclasses.replace(config, max_iter=WARMUP_ITERS)
        engine.solve(net, utilities, cfg)
        agents.run_to_convergence(net, utilities, cfg)

    def op(self, speed, tracer=None) -> OpSet:
        ops = OpSet([], [], [], 0)
        for k, (net, utilities, config) in enumerate(self.models):
            res_e, dt_e, err_e = _timed(engine.solve, net, utilities, config)
            speed.tick()
            out_a, dt_a, err_a = _timed(agents.run_to_convergence, net, utilities, config)
            speed.tick()
            ops.calls += [("engine", dt_e), ("agents", dt_a)]
            p_e = [f"mesh {k} engine: {err_e}"] if err_e else []
            p_a = [f"mesh {k} agents: {err_a}"] if err_a else []
            with _checking(tracer):
                if res_e is not None:
                    ops.iterations += res_e.iterations
                    p_e += check_solution(net, utilities, config, res_e, f"mesh {k} engine")
                if out_a is not None:
                    p_a += self.check_agents(k, net, utilities, config, res_e, *out_a)
            del out_a
            for label, problems in (("engine", p_e), ("agents", p_a)):
                if problems:
                    ops.failed.append(f"mesh {k} {label}")
                    ops.problems += problems
        return ops

    @staticmethod
    def check_agents(k, net, utilities, config, res_e, res_a, log) -> list[str]:
        problems = check_solution(net, utilities, config, res_a, f"mesh {k} agents")
        if res_e is None or not traces_equal(res_e.trace, res_a.trace):
            problems.append(f"mesh {k} agents: trace differs from the engine's")
        if len(log) != net.nnz * (1 + 2 * res_a.iterations):
            problems.append(f"mesh {k} agents: {len(log)} messages, expected nnz*(1 + 2*rounds)")
        if agents.audit_locality(net, log):
            problems.append(f"mesh {k} agents: messages between unrouted link/source pairs")
        return problems


WORKLOADS = {
    "builtin-run": lambda: CliWorkload(("run", "--mode", "both"), BUILTINS, BUILTINS,
                                       check_run_outputs),
    # single-source is the cheapest scenario that runs every validate stage
    "validate": lambda: CliWorkload(("validate",), VALIDATED, ("single-source",),
                                    check_validate_outputs),
    "mesh-1k": Mesh1k,
}


@contextlib.contextmanager
def _checking(tracer):
    """Spans opened by output checks are kept apart from the op's."""
    if tracer is None:
        yield
        return
    op, tracer.op = tracer.op, CHECK_OP
    try:
        yield
    finally:
        tracer.op = op


def setup(workload, seed: int, workdir: Path) -> float:
    """Set-up seconds at the reference speed: the median import time (this
    process's and fresh interpreters'), plus the median of several rounds
    of input preparation and warm-up."""
    speed = Speedometer()
    imports = [IMPORT_S]
    for _ in range(IMPORT_REPEATS - 1):
        speed.tick(force=True)
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=os.environ,
                               capture_output=True, text=True, check=True, timeout=60)
        imports.append(float(probe.stdout))
    rounds = []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        t0 = time.perf_counter()
        workload.prepare(seed, workdir)
        workload.warmup()
        rounds.append(time.perf_counter() - t0)
    speed.tick(force=True)
    return (statistics.median(imports) + statistics.median(rounds)) * speed.scale()


def measure(workload, seconds: float) -> tuple[list[OpSet], float]:
    """Closed loop: each op set starts when the previous one has finished.
    Returns the op sets and the factor to the reference speed."""
    speed = Speedometer()
    speed.tick(force=True)
    done = []
    deadline = time.perf_counter() + seconds
    while True:
        done.append(workload.op(speed))
        if time.perf_counter() >= deadline:
            speed.tick(force=True)
            return done, speed.scale()


def measure_traced(workload, seconds: float, tracer):
    """Closed loop alternating untraced and traced op sets, so that a slow
    spell of the shared machine hits both alike. Returns (untraced,
    traced, factor to the reference speed)."""
    speed = Speedometer()
    speed.tick(force=True)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not (plain and traced and time.perf_counter() >= deadline):
        if len(plain) > len(traced):
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(workload.op(speed, tracer))
            finally:
                tracer.restore()
        else:
            plain.append(workload.op(speed))
    speed.tick(force=True)
    return plain, traced, speed.scale()


def op_ms(opsets: list[OpSet], scale: float) -> list[float]:
    return [o.seconds * 1e3 * scale for o in opsets]


def tail(values):
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile); the maximum when that percentile would not lie above the
    median."""
    v = sorted(values)
    k = len(v) - 11
    if 2 * k <= len(v):
        return v[-1], 100.0
    return v[k], 100.0 * (k + 1) / len(v)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(opsets: list[OpSet], scale: float, setup_s: float) -> dict:
    times = op_ms(opsets, scale)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_tail": (tail(times)[0], "ms"),
        "iterations": (statistics.median(o.iterations for o in opsets), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_lines(name: str, opsets: list[OpSet], scale: float, setup_s: float) -> list[str]:
    """Readable report, including the workload-specific names. Times are
    at the reference speed (see speed.py) unless marked as wall time."""
    times = op_ms(opsets, scale)
    tail_ms, tail_p = tail(times)
    calls = [(label, dt * scale) for o in opsets for label, dt in o.calls]
    failed = sum(len(o.failed) for o in opsets)
    lines = [
        f"workload {name}: {len(opsets)} op sets, {len(calls)} calls, closed loop, 1 caller",
        f"  speed factor       {scale:.4f} (wall time x factor = reference-speed time)",
        f"  setup_s            {setup_s:.4f} s",
        f"  op_ms_p50          {statistics.median(times):.3f} ms "
        f"(wall {statistics.median(times) / scale:.3f} ms)",
        f"  op_ms_tail         {tail_ms:.3f} ms (p{tail_p:.1f} of {len(times)})",
        f"  iterations         {opsets[0].iterations} per op set",
        f"  peak_rss_mb        {peak_rss_mb():.1f} MB",
        f"  failed_share       {failed}/{len(calls)}",
    ]
    if name == "builtin-run":
        run_ms = [dt * 1e3 for _, dt in calls]
        t, p = tail(run_ms)
        lines += [f"  run_ms_p50         {statistics.median(run_ms):.3f} ms",
                  f"  run_ms_p99         {t:.3f} ms (p{p:.1f} of {len(run_ms)} runs)"]
    elif name == "mesh-1k":
        for label in ("engine", "agents"):
            v = [dt for lab, dt in calls if lab == label]
            lines.append(f"  {label}_solve_s     {statistics.median(v):.4f} s "
                         f"(median of {len(v)})")
    elif name == "validate":
        lines.append(f"  validate_s         {statistics.mean(dt for _, dt in calls):.4f} s "
                     f"per validate (mean of {len(calls)})")
    for o in opsets:
        for p in o.problems:
            lines.append(f"  FAILED: {p}")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        if not trace:
            setup_s = setup(workload, seed, workdir)
            opsets, scale = measure(workload, seconds)
            print("\n".join(report_lines(name, opsets, scale, setup_s)))
            metrics = end_to_end(opsets, scale, setup_s)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                setup(workload, seed, workdir)
            finally:
                tracer.restore()
            plain, opsets, scale = measure_traced(workload, seconds, tracer)
            metrics, lines = layers.per_layer(name, tracer, opsets, plain, scale,
                                              span_cost_s() * scale)
            print("\n".join(lines))
            tracer.save(SCRATCH / f"spans-{name}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(o.calls) for o in opsets)
    failed = sum(len(o.failed) for o in opsets)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
