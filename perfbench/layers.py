"""Per-layer metrics from a traced run.

Each metric is read off the spans the tracer recorded around calls into
one scpnum module. Unless a name says otherwise, a metric is per op set
and counts only spans opened by the timed ops (not set-up or output
checks). Times are at the reference speed of speed.py, like the
end-to-end ones. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

# run-to-run noise on a shared 2-vCPU machine is of this order
ACCOUNTING_TOL = 0.1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    def __init__(self, tracer, scale: float):
        self.tracer = tracer
        self.cols = cols = tracer.arrays()
        cols["dur"] *= scale
        cols["self"] *= scale
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.timed = cols["op"] >= 0
        self.n_ops = len(np.unique(cols["op"][self.timed])) if self.timed.any() else 0

    def mask(self, name: str, timed: bool = True) -> np.ndarray:
        nid = self.ids.get(name, -1)
        m = self.cols["name"] == nid
        return m & self.timed if timed else m

    def calls(self, name: str, timed: bool = True) -> int:
        return int(self.mask(name, timed).sum())

    def total(self, name: str, col: str = "dur", timed: bool = True) -> float:
        return float(self.cols[col][self.mask(name, timed)].sum())

    def count(self, key: str) -> int:
        return sum(n for (k, op), n in self.tracer.counts.items() if k == key and op >= 0)

    def per_call(self, name: str, timed: bool = True) -> float:
        return _ratio(self.total(name, timed=timed), self.calls(name, timed))

    def per_op(self, value: float) -> float:
        return _ratio(value, self.n_ops)

    def subtree_breakdown(self, root: str):
        """Self seconds per span name under every timed ``root`` span, and
        the number of spans there."""
        c = self.cols
        roots = np.flatnonzero(self.mask(root))
        inside = np.zeros(len(c["dur"]), dtype=bool)
        for i in roots:
            inside |= ((c["op"] == c["op"][i]) & (c["start"] >= c["start"][i])
                       & (c["end"] <= c["end"][i]))
        names = c["name"][inside]
        selfs = c["self"][inside]
        breakdown = {self.tracer.names[n]: float(selfs[names == n].sum())
                     for n in np.unique(names)}
        return breakdown, int(inside.sum())


def per_layer(workload: str, tracer, traced, plain, scale: float, span_cost: float):
    """Per-layer metrics and readable lines for one traced run: ``traced``
    and ``plain`` are its traced and untraced op sets, ``scale`` the factor
    to the reference speed and ``span_cost`` the cost of one span in
    seconds at that speed."""
    s = Spans(tracer, scale)
    us, ms = 1e6, 1e3
    iters = s.count("engine.iterations")
    rounds = s.count("agents.rounds")
    grid_s = s.total("oracle.grid_search")
    evals = s.count("oracle.evaluations")

    m = {
        "scenario.parse_scenario.us": (s.per_call("scenario.parse_scenario", timed=False) * us, "us"),
        "network.build_network.ms": (s.per_call("network.build_network", timed=False) * ms, "ms"),
        "network.is_feasible.calls": (s.per_op(s.calls("network.is_feasible")), "count"),
        "network.is_feasible.us_per_call": (s.per_call("network.is_feasible") * us, "us"),
        "utility.transformed_bounds.calls": (s.per_op(s.calls("utility.transformed_bounds")), "count"),
        "utility.transformed_bounds.self_ms": (
            s.per_op(s.total("utility.transformed_bounds", "self")) * ms, "ms"),
        "utility.eval_scurve.calls": (s.per_op(s.calls("utility.eval_scurve")), "count"),
        "utility.eval_scurve.self_ms": (s.per_op(s.total("utility.eval_scurve", "self")) * ms, "ms"),
        "engine.iterations": (s.per_op(iters), "count"),
        "engine.update_prices.us_per_iter": (_ratio(s.total("engine.update_prices"), iters) * us, "us"),
        "engine.update_rates.us_per_iter": (_ratio(s.total("engine.update_rates"), iters) * us, "us"),
        "engine.rate_step.us_per_call": (s.per_call("engine.rate_step") * us, "us"),
        "engine.path_prices.us_per_iter": (_ratio(s.total("engine.path_prices"), iters) * us, "us"),
        "engine.g_true.us_per_iter": (_ratio(s.total("engine.g_true"), iters) * us, "us"),
        "engine.g_hat.us_per_iter": (_ratio(s.total("engine.g_hat"), iters) * us, "us"),
        "engine.solve.self_us_per_iter": (_ratio(s.total("engine.solve", "self"), iters) * us, "us"),
        "engine.us_per_incidence_iter": (
            _ratio(s.total("engine.solve"), s.count("engine.incidence_iters")) * us, "us"),
        "engine.kkt_residual.us": (s.per_call("engine.kkt_residual") * us, "us"),
        "engine.steady_state_check.us": (s.per_call("engine.steady_state_check") * us, "us"),
        "agents.build_agents.ms": (s.per_call("agents.build_agents") * ms, "ms"),
        "agents.run_round.self_us_per_round": (
            _ratio(s.total("agents.run_round", "self"), rounds) * us, "us"),
        "agents.rate_step.us_per_call": (s.per_call("agents.rate_step") * us, "us"),
        "agents.monitor.self_us_per_round": (
            _ratio(s.total("agents.run_to_convergence", "self"), rounds) * us, "us"),
        "agents.messages": (s.per_op(s.count("agents.messages")), "count"),
        "oracle.grid_search.s": (s.per_op(grid_s), "s"),
        "oracle.evaluations": (s.per_op(evals), "count"),
        "oracle.evals_per_s": (_ratio(evals, grid_s), "1/s"),
        "oracle.local_opt_test.ms": (s.per_op(s.total("oracle.local_opt_test")) * ms, "ms"),
        "cli.write_trace.ms": (s.per_op(s.total("cli.write_trace")) * ms, "ms"),
        "cli.write_result.ms": (s.per_op(s.total("cli.write_result")) * ms, "ms"),
        "cli.write_equivalence.ms": (s.per_op(s.total("cli.write_equivalence")) * ms, "ms"),
        "agents.export_messages.ms": (s.per_op(s.total("agents.export_messages")) * ms, "ms"),
        "agents.audit_locality.ms": (s.per_op(s.total("agents.audit_locality")) * ms, "ms"),
        "cli.output_bytes": (statistics.median(o.output_bytes for o in traced), "B"),
    }

    # tracing overhead: traced op-set time against the untraced op sets of
    # the same process, and the part of it the span count explains
    traced_ms = statistics.median(o.seconds for o in traced) * ms * scale
    plain_ms = statistics.median(o.seconds for o in plain) * ms * scale
    n_spans = int(s.timed.sum())
    spans_per_op = s.per_op(n_spans)
    m["trace.span_cost_us"] = (span_cost * us, "us")
    m["trace.spans"] = (spans_per_op, "count")
    m["trace.overhead_pct"] = (100.0 * _ratio(traced_ms - plain_ms, plain_ms), "%")
    m["trace.unaccounted_pct"] = (
        100.0 * _ratio(traced_ms - spans_per_op * span_cost * ms - plain_ms, plain_ms), "%")

    lines = [
        f"traced workload {workload}: {len(traced)} traced op sets after "
        f"{len(plain)} untraced ones, {n_spans} spans",
        f"  op set: untraced {plain_ms:.3f} ms, traced {traced_ms:.3f} ms, "
        f"overhead {m['trace.overhead_pct'][0]:+.1f}% "
        f"({spans_per_op:.0f} spans x {span_cost * us:.2f} us predicts "
        f"{spans_per_op * span_cost * ms:.3f} ms)",
    ]
    for key, (value, unit) in m.items():
        lines.append(f"  {key:40s} {value:.6g} {unit}")

    if workload == "mesh-1k":
        lines += accounting(s, plain, scale, span_cost)
    return m, lines


def accounting(s: Spans, plain, scale: float, span_cost: float) -> list[str]:
    """Summed self times of the layer spans under each scheduler's solves,
    less the tracing overhead, against the untraced solves of the same run;
    both per op set."""
    lines = []
    for root, label in (("engine.solve", "engine"), ("agents.run_to_convergence", "agents")):
        breakdown, n_spans = s.subtree_breakdown(root)
        self_sum = s.per_op(sum(breakdown.values()))
        corrected = self_sum - s.per_op(n_spans) * span_cost
        untraced = scale * statistics.mean(
            sum(dt for lab, dt in o.calls if lab == label) for o in plain)
        residual = _ratio(corrected - untraced, untraced)
        verdict = "accounted" if abs(residual) <= ACCOUNTING_TOL else "NOT accounted"
        lines.append(f"  accounting {label}: summed self times {self_sum:.4f} s per op set, "
                     f"less {s.per_op(n_spans):.0f} spans x {span_cost * 1e6:.2f} us "
                     f"= {corrected:.4f} s; untraced {untraced:.4f} s "
                     f"({100.0 * residual:+.1f}%, {verdict} within "
                     f"{100.0 * ACCOUNTING_TOL:.0f}%)")
        for name, sec in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:34s} self {s.per_op(sec) * 1e3:10.3f} ms per op set")
    return lines
