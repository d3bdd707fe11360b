"""Command-line front end.

    scpnum run <scenario> [--mode engine|agents|both] [--out DIR]
    scpnum validate <scenario> [--out DIR]
    scpnum scenarios

``<scenario>`` is a built-in name or a path to a scenario JSON file.
``run`` writes trace.csv and result.txt (plus messages.csv in agent
modes and equivalence.txt in both mode) and exits 0 only when the
solver converged and the final rates are feasible (inside their windows,
per-link sums within capacity). ``validate``
cross-checks the engine against the grid-search oracle and a sampled
local-optimality test, writing validation.txt.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .agents import MessageLog, audit_locality, export_messages, run_to_convergence
from .engine import (
    AllocationResult,
    SolverConfig,
    kkt_residual,
    polish,
    solve,
    steady,
)
from .network import Network, is_feasible
from .oracle import (
    MAX_SOURCES,
    BudgetExceededError,
    GridSpec,
    InfeasibleCandidateError,
    NoFeasiblePointError,
    grid_search,
    local_opt_test,
    perturbation_seed,
    total_utility,
)
from .scenario import (
    BUILT_IN_SCENARIOS,
    ParseError,
    ScenarioValidationError,
    load_scenario,
)

__all__ = ["main", "build_parser"]

TRACE_TOL = 1e-12
# interior-source margin for reporting stationarity residuals, Kbps
BOUND_MARGIN = 1e-6
# validate's sampled local-optimality test: perturbation radius in Kbps,
# and sample count
LOCAL_OPT_RADIUS = 2.0
LOCAL_OPT_SAMPLES = 1000


def _stacked(trace, fields) -> np.ndarray:
    """The named fields of every trace row side by side, as one
    (rows x columns) float block: each field is stacked across the rows
    once, a per-row scalar such as the metric as one column."""
    return np.column_stack([np.array([getattr(rec, f) for rec in trace], dtype=float)
                            for f in fields])


def write_trace(path: Path, net: Network, trace) -> None:
    """CSV trace, one row per iterate including the t=0 state: t, then
    x, mu, the stopping metric, g and ĝ, each value at full double
    precision (%.17g, which spells nan, inf and -0 as Python does).

    The fields are stacked into one block and each row is written with
    a single format string."""
    cols = (["t"]
            + [f"x_{sid}" for sid in net.source_ids]
            + [f"mu_{lid}" for lid in net.link_ids]
            + ["stopping_metric"]
            + [f"g_{lid}" for lid in net.link_ids]
            + [f"ghat_{lid}" for lid in net.link_ids])
    block = _stacked(trace, ("x", "mu", "metric", "g", "g_hat"))
    fmt = "%d," + ",".join(["%.17g"] * block.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write("".join(fmt % (rec.t, *row) for rec, row in zip(trace, block.tolist())))


def write_result(path: Path, scenario: str, mode: str, net: Network, utilities,
                 config: SolverConfig, res: AllocationResult, runtime: float,
                 feasible: bool) -> None:
    """result.txt; ``feasible`` is the caller's ``is_feasible`` verdict on
    res.x at config.feas_tol."""
    # the last trace row holds the loads at (x_tilde, x_tilde_prev)
    g, gh = res.trace[-1].g, res.trace[-1].g_hat
    steady_ok = steady(g, gh, np.array(net.capacities), config.feas_tol)
    kkt = kkt_residual(net, utilities, res.x_tilde, res.x_tilde_prev, res.mu)
    util = total_utility(utilities, res.x)
    interior = [u.m + BOUND_MARGIN < x < u.big_m - BOUND_MARGIN for u, x in zip(utilities, res.x)]

    lines = [
        f"scenario: {scenario}",
        f"mode: {mode}",
        f"converged: {str(res.converged).lower()}",
        f"stop_reason: {res.stop_reason}",
        f"iterations: {res.iterations}",
        f"runtime_s: {runtime:.3f}",
        f"aggregate_utility: {util:.10f}",
        "",
        "final rates (Kbps):",
    ]
    for j, sid in enumerate(net.source_ids):
        u = utilities[j]
        tag = "interior" if interior[j] else "at bound"
        lines.append(
            f"  source {sid}: x = {res.x[j]:.6f}  window [{u.m:g}, {u.big_m:g}]  "
            f"rho = {res.rho[j]:.8g}  ({tag})")
    lines.append("")
    lines.append("final links:")
    for i, lid in enumerate(net.link_ids):
        lines.append(
            f"  link {lid}: mu = {res.mu[i]:.8g}  g_true = {g[i]:.6f}  "
            f"g_hat = {gh[i]:.6f}  capacity = {net.capacities[i]:g}  "
            f"slack = {net.capacities[i] - g[i]:.6f}")
    lines.append("")
    lines.append(f"feasible (m <= x <= M and per-link sum of x <= c, within "
                 f"{config.feas_tol:g} Kbps): {str(feasible).lower()}")
    lines.append(f"steady_state_check (tol {config.feas_tol:g}): {str(steady_ok).lower()}")
    lines.append("")
    lines.append("KKT residuals:")
    for j, sid in enumerate(net.source_ids):
        note = "" if interior[j] else "  (at bound; bound multiplier not modeled)"
        lines.append(
            f"  source {sid}: stationarity = {kkt.stationarity[j]: .3e}  "
            f"normalized = {kkt.stationarity_normalized[j]: .3e}{note}")
    for i, lid in enumerate(net.link_ids):
        lines.append(
            f"  link {lid}: mu*(g - c) = {kkt.slack[i]: .3e}  "
            f"normalized = {kkt.slack_normalized[i]: .3e}")
    path.write_text("\n".join(lines) + "\n")


def _trace_deviation(trace_a, trace_b) -> float:
    """Worst relative deviation |a - b| / max(|a|, |b|, 1) over x, mu, g
    and ĝ of the paired trace rows (the shorter trace's length), as one
    array expression over the two stacked blocks. A NaN in either trace
    makes the deviation NaN, which no tolerance accepts."""
    rows = min(len(trace_a), len(trace_b))
    fields = ("x", "mu", "g", "g_hat")
    a, b = _stacked(trace_a[:rows], fields), _stacked(trace_b[:rows], fields)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / den, initial=0.0))


def write_equivalence(path: Path, net: Network, res_e: AllocationResult,
                      res_a: AllocationResult, messages: MessageLog) -> float:
    per_round = sum(len(messages.senders[kind]) for t, kind, _, _ in messages.blocks if t == 1)
    violations = audit_locality(net, messages)
    dev = (_trace_deviation(res_e.trace, res_a.trace)
           if res_e.iterations == res_a.iterations else float("inf"))
    lines = [
        f"engine iterations: {res_e.iterations}",
        f"agents rounds: {res_a.iterations}",
        f"trace rows compared: {min(len(res_e.trace), len(res_a.trace))}",
        f"max relative trace deviation (x, mu, g, ghat): {dev:.3e}",
        f"messages in round 1: {per_round}  (2 * nnz(R) = {2 * net.nnz})",
        f"total messages: {len(messages)}",
        f"locality violations: {len(violations)}",
        f"equivalent (tol {TRACE_TOL:g}): {str(dev <= TRACE_TOL).lower()}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return dev


def _setup(args):
    """(net, utilities, config, out) for run and validate, or None after
    printing why the scenario did not load or --out could not be made."""
    try:
        net, utilities, config = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ParseError, ScenarioValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return net, utilities, config, out


def cmd_run(args) -> int:
    if (setup := _setup(args)) is None:
        return 2
    net, utilities, config, out = setup

    t0 = time.perf_counter()
    messages = None
    res_agents = None
    if args.mode == "engine":
        res = solve(net, utilities, config)
    elif args.mode == "agents":
        res, messages = run_to_convergence(net, utilities, config)
    else:
        res = solve(net, utilities, config)
        res_agents, messages = run_to_convergence(net, utilities, config)
    runtime = time.perf_counter() - t0

    feasible = is_feasible(net, res.x, [(u.m, u.big_m) for u in utilities],
                           config.feas_tol).ok
    write_trace(out / "trace.csv", net, res.trace)
    write_result(out / "result.txt", args.scenario, args.mode, net, utilities,
                 config, res, runtime, feasible)
    if messages is not None:
        export_messages(messages, out / "messages.csv")
    if res_agents is not None:
        dev = write_equivalence(out / "equivalence.txt", net, res, res_agents, messages)
        print(f"equivalence: max relative trace deviation {dev:.3e}")

    status = "converged" if res.converged else "NOT converged"
    print(f"{args.scenario} [{args.mode}]: {status} after {res.iterations} iterations, "
          f"stop_reason={res.stop_reason}, feasible={feasible}, outputs in {out}")
    if not res.converged:
        print(f"error: stopping criterion not met within {config.max_iter} iterations",
              file=sys.stderr)
        return 1
    if not feasible:
        print(f"error: final rates violate a rate window or a link capacity by more "
              f"than {config.feas_tol} Kbps", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    try:
        seed = perturbation_seed()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (setup := _setup(args)) is None:
        return 2
    net, utilities, config, out = setup

    t0 = time.perf_counter()
    res = solve(net, utilities, config)
    engine_time = time.perf_counter() - t0
    util_engine = total_utility(utilities, res.x)

    spec = GridSpec()
    t0 = time.perf_counter()
    try:
        oracle = grid_search(net, utilities, spec)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("validate enumerates a full rate grid per source and is capped at "
              f"{MAX_SOURCES} sources; split the scenario or use run + external checks.",
              file=sys.stderr)
        return 2
    except NoFeasiblePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    oracle_time = time.perf_counter() - t0
    # both sides summed in total_utility's order, not the scan's own
    util_oracle = total_utility(utilities, oracle.x)
    gap = util_engine - util_oracle
    utility_ok = abs(gap) <= 1e-3

    # only a machine-precision fixed point can survive the sampled
    # improvement test, so re-run to a tight tolerance first
    polished = polish(net, utilities, res, config)
    # polish stops within feas_tol of every capacity, which the test's
    # tighter tolerance can still reject: that is a failed test, reported
    try:
        report = local_opt_test(net, utilities, polished.x, radius=LOCAL_OPT_RADIUS,
                                samples=LOCAL_OPT_SAMPLES, seed=seed)
    except InfeasibleCandidateError as exc:
        local_ok = False
        local_result = "passed=false infeasible_candidate=" + ", ".join(
            f"{v.kind} {v.ident} (excess {v.excess:.3e} Kbps)" for v in exc.violations)
    else:
        local_ok = report.passed
        local_result = (f"passed={str(local_ok).lower()} feasible_samples="
                        f"{report.samples_feasible} best_gain={report.best_gain: .3e}")
    verdict = utility_ok or local_ok
    if verdict:
        held = [case for case, ok in (("utility match", utility_ok),
                                      ("local optimum", local_ok)) if ok]
        verdict_line = f"verdict: PASS ({' and '.join(held)})"
    else:
        verdict_line = "verdict: FAIL (utility gap > 1e-3 and local_opt_test failed)"

    lines = [
        f"scenario: {args.scenario}",
        f"sources: {net.n_sources}  links: {net.n_links}",
        "",
        f"engine: converged={str(res.converged).lower()} iterations={res.iterations} "
        f"stop_reason={res.stop_reason} runtime_s={engine_time:.3f}",
        f"engine rates (Kbps): {np.array2string(res.x, precision=4)}",
        f"engine aggregate utility: {util_engine:.10f}",
        "",
        f"oracle grid_search: passes={spec.refinement_passes} "
        f"evaluations={oracle.evaluations} scanned={oracle.scanned} "
        f"resolution_kbps={oracle.resolution:.6f} "
        f"runtime_s={oracle_time:.3f}",
        f"oracle rates (Kbps): {np.array2string(oracle.x, precision=4)}",
        f"oracle aggregate utility: {util_oracle:.10f}",
        "",
        f"utility gap (engine - oracle): {gap: .6e}  (|gap| <= 1e-3: "
        f"{str(utility_ok).lower()})",
        f"local_opt_test at polished engine point (radius {LOCAL_OPT_RADIUS:g} Kbps, "
        f"{LOCAL_OPT_SAMPLES} samples, seed {seed}): {local_result}",
        f"polish: converged={str(polished.converged).lower()} "
        f"iterations={polished.iterations} stop_reason={polished.stop_reason}",
        "",
        verdict_line,
    ]
    (out / "validation.txt").write_text("\n".join(lines) + "\n")
    print(f"{args.scenario}: verdict {'PASS' if verdict else 'FAIL'} "
          f"(utility gap {gap:.2e}, local_opt_test "
          f"{'passed' if local_ok else 'failed'}), outputs in {out}")
    return 0 if (verdict and res.converged) else 1


def cmd_scenarios(_args) -> int:
    for name in sorted(BUILT_IN_SCENARIOS):
        net, utilities, config = load_scenario(name)
        caps = ", ".join(f"{c:g}" for c in net.capacities)
        print(f"{name}: {net.n_sources} sources over {net.n_links} link(s), "
              f"capacity [{caps}] Kbps, gamma={config.gamma:g}, "
              f"epsilon={config.epsilon:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scpnum",
        description="Rate allocation for streaming flows with S-shaped utilities "
                    "via successive convexification and dual link pricing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario and write trace/result files")
    p_run.add_argument("scenario", help="built-in name or scenario JSON path")
    p_run.add_argument("--mode", choices=("engine", "agents", "both"),
                       default="engine",
                       help="centralized loop, message-passing simulation, or both "
                            "with an equivalence report")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate",
                           help="cross-check a scenario against the grid oracle")
    p_val.add_argument("scenario", help="built-in name or scenario JSON path")
    p_val.add_argument("--out", default=".", help="output directory")
    p_val.set_defaults(func=cmd_validate)

    p_ls = sub.add_parser("scenarios", help="list built-in scenarios")
    p_ls.set_defaults(func=cmd_scenarios)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use and reused: parsing
    leaves it unchanged, and building it costs about ten parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
