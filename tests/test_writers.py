"""`scpnum run`'s output writers: byte-identity with row-by-row reference
writers, the equivalence verdict on NaN traces, and one feasibility
check per run."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import scpnum.cli
from scpnum import (
    SCurveUtility,
    SolverConfig,
    build_network,
    export_messages,
    load_scenario,
    run_to_convergence,
    solve,
)
from scpnum.cli import _trace_deviation, main, write_equivalence, write_trace

BUILT_INS = ("paper-scenario-1", "chain-3", "single-source")
SPECIALS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, -1.0 / 3.0)


# ---------------------------------------------------------------------------
# row-by-row reference writers: one formatted value and one csv row at a time

def reference_write_trace(path, net, trace) -> None:
    def fmt(v):
        return format(float(v), ".17g")

    cols = (["t"]
            + [f"x_{sid}" for sid in net.source_ids]
            + [f"mu_{lid}" for lid in net.link_ids]
            + ["stopping_metric"]
            + [f"g_{lid}" for lid in net.link_ids]
            + [f"ghat_{lid}" for lid in net.link_ids])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in trace:
            row = ([str(rec.t)]
                   + [fmt(v) for v in rec.x]
                   + [fmt(v) for v in rec.mu]
                   + [fmt(rec.metric)]
                   + [fmt(v) for v in rec.g]
                   + [fmt(v) for v in rec.g_hat])
            fh.write(",".join(row) + "\n")


def reference_export_messages(messages, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "kind", "sender", "receiver", "value", "value_prev"])
        for m in messages:
            w.writerow([
                m.round, m.kind, m.sender, m.receiver,
                f"{m.value:.17g}",
                "" if m.value_prev is None else f"{m.value_prev:.17g}",
            ])


def reference_trace_deviation(trace_a, trace_b) -> float:
    worst = 0.0
    for ra, rb in zip(trace_a, trace_b):
        for a, b in ((ra.x, rb.x), (ra.mu, rb.mu), (ra.g, rb.g), (ra.g_hat, rb.g_hat)):
            num = np.abs(np.asarray(a) - np.asarray(b))
            den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            worst = max(worst, float(np.max(num / den))) if num.size else worst
    return worst


def assert_writers_match(tmp_path, net, trace, log) -> None:
    write_trace(tmp_path / "trace.csv", net, trace)
    reference_write_trace(tmp_path / "trace_ref.csv", net, trace)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "trace_ref.csv").read_bytes()
    export_messages(log, tmp_path / "messages.csv")
    reference_export_messages(log, tmp_path / "messages_ref.csv")
    assert ((tmp_path / "messages.csv").read_bytes()
            == (tmp_path / "messages_ref.csv").read_bytes())


def scrambled_ids_model():
    """Source and link ids that are neither contiguous nor listed in order."""
    net = build_network([(10, 420.0), (5, 300.0), (77, 650.0)],
                        [(42, (5, 77)), (7, (10,)), (3, (10, 5, 77)), (19, (77,))])
    utilities = tuple(SCurveUtility(r=r, c1=c1, c2=c2)
                      for r, c1, c2 in ((256.0, 6.0, 2.0), (192.0, 4.0, 3.0),
                                        (320.0, 7.0, 5.0), (150.0, 5.0, 2.0)))
    return net, utilities, SolverConfig(gamma=1e-5, epsilon=1e-3, mu0=1e-3, max_iter=600,
                                        x0=tuple(0.8 * u.r for u in utilities))


@pytest.mark.parametrize("name", BUILT_INS)
def test_writers_match_the_reference_on_built_ins(tmp_path, name):
    net, utilities, config = load_scenario(name)
    res, log = run_to_convergence(net, utilities, config)
    assert math.isnan(res.trace[0].metric)
    assert_writers_match(tmp_path, net, res.trace, log)


def test_writers_match_the_reference_on_a_capped_run(tmp_path):
    # a long trace cut by max_iter; at epsilon 1e-12 chain-3 stops after 189
    net, utilities, config = load_scenario("chain-3")
    res, log = run_to_convergence(net, utilities, replace(config, epsilon=1e-12,
                                                          max_iter=150))
    assert res.stop_reason == "max_iter" and len(res.trace) == 151
    assert_writers_match(tmp_path, net, res.trace, log)


def test_writers_match_the_reference_on_scrambled_ids(tmp_path):
    net, utilities, config = scrambled_ids_model()
    res, log = run_to_convergence(net, utilities, config)
    assert res.stop_reason == "converged"
    assert net.source_ids == (3, 7, 19, 42) and net.link_ids == (5, 10, 77)
    assert_writers_match(tmp_path, net, res.trace, log)
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == ("t,x_3,x_7,x_19,x_42,mu_5,mu_10,mu_77,stopping_metric,"
                      "g_5,g_10,g_77,ghat_5,ghat_10,ghat_77")


def test_writers_match_the_reference_on_one_iteration(tmp_path):
    net, utilities, config = load_scenario("chain-3")
    res, log = run_to_convergence(net, utilities, replace(config, max_iter=1))
    assert len(res.trace) == 2
    assert_writers_match(tmp_path, net, res.trace, log)


def test_writers_match_the_reference_on_special_values(tmp_path):
    # nan, ±inf, -0, the smallest subnormal, a huge and a repeating value
    # in every field of the trace and in both value columns of the log
    net, utilities, config = scrambled_ids_model()
    res, log = run_to_convergence(net, utilities, replace(config, max_iter=3))

    def salt(a, k):
        a = np.array(a, dtype=float)
        a[k % a.size] = SPECIALS[k % len(SPECIALS)]
        return a

    trace = tuple(rec._replace(x=salt(rec.x, k), mu=salt(rec.mu, k + 1),
                              metric=SPECIALS[(k + 2) % len(SPECIALS)],
                              g=salt(rec.g, k + 3), g_hat=salt(rec.g_hat, k + 4))
                  for k, rec in enumerate(res.trace))
    log.blocks = [(t, kind, salt(values, k),
                   None if values_prev is None else salt(values_prev, k + 5))
                  for k, (t, kind, values, values_prev) in enumerate(log.blocks)]
    assert_writers_match(tmp_path, net, trace, log)


def test_trace_deviation_matches_the_reference():
    net, utilities, config = load_scenario("paper-scenario-1")
    res = solve(net, utilities, config)
    rng = np.random.default_rng(8)

    def jitter(a):
        return a * (1.0 + rng.uniform(-1e-9, 1e-9, np.shape(a)))

    other = tuple(rec._replace(x=jitter(rec.x), mu=jitter(rec.mu), g=jitter(rec.g),
                              g_hat=jitter(rec.g_hat)) for rec in res.trace)
    dev = _trace_deviation(res.trace, other)
    assert 0.0 < dev == reference_trace_deviation(res.trace, other)
    # the shorter trace sets the rows compared
    assert _trace_deviation(res.trace, other[:3]) == reference_trace_deviation(
        res.trace, other[:3])


@pytest.mark.parametrize("which", ["engine", "agents"])
def test_nan_row_is_not_equivalent(tmp_path, which):
    net, utilities, config = load_scenario("chain-3")
    res_e = solve(net, utilities, config)
    res_a, log = run_to_convergence(net, utilities, config)
    assert _trace_deviation(res_e.trace, res_a.trace) == 0.0
    k = 5
    trace = list((res_e if which == "engine" else res_a).trace)
    trace[k] = trace[k]._replace(x=np.full_like(trace[k].x, np.nan))
    if which == "engine":
        res_e = replace(res_e, trace=tuple(trace))
    else:
        res_a = replace(res_a, trace=tuple(trace))
    assert math.isnan(_trace_deviation(res_e.trace, res_a.trace))
    dev = write_equivalence(tmp_path / "equivalence.txt", net, res_e, res_a, log)
    assert math.isnan(dev)
    text = (tmp_path / "equivalence.txt").read_text()
    assert "max relative trace deviation (x, mu, g, ghat): nan\n" in text
    assert text.endswith("equivalent (tol 1e-12): false\n")


def test_run_checks_feasibility_once(tmp_path, monkeypatch):
    calls = []
    is_feasible = scpnum.cli.is_feasible

    def counting(*args, **kwargs):
        calls.append(args)
        return is_feasible(*args, **kwargs)

    monkeypatch.setattr(scpnum.cli, "is_feasible", counting)
    assert main(["run", "chain-3", "--mode", "both", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    result = (tmp_path / "result.txt").read_text()
    assert ("feasible (m <= x <= M and per-link sum of x <= c, within 0.5 Kbps): true\n"
            in result)
