"""Message-passing simulation: equivalence with the engine, message
accounting, and locality."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from scpnum import (
    Message,
    SCurveUtility,
    SolverConfig,
    audit_locality,
    build_agents,
    build_network,
    export_messages,
    load_scenario,
    run_round,
    run_to_convergence,
    solve,
)
from scpnum.agents import PRICE_UPDATE, RATE_REPORT


def assert_traces_identical(res_engine, res_agents):
    assert res_agents.converged == res_engine.converged
    assert res_agents.iterations == res_engine.iterations
    assert len(res_agents.trace) == len(res_engine.trace)
    for re_, ra in zip(res_engine.trace, res_agents.trace):
        assert ra.t == re_.t
        assert np.array_equal(ra.x, re_.x)
        assert np.array_equal(ra.x_tilde, re_.x_tilde)
        assert np.array_equal(ra.mu, re_.mu)
        assert np.array_equal(ra.rho, re_.rho)
        assert np.array_equal(ra.g, re_.g)
        assert np.array_equal(ra.g_hat, re_.g_hat)
        assert ra.metric == re_.metric or (math.isnan(ra.metric)
                                           and math.isnan(re_.metric))


def test_round_zero_seeds_every_link():
    net, utilities, config = load_scenario("chain-3")
    _, seed = build_agents(net, utilities, config)
    assert len(seed) == net.nnz
    assert all(m.round == 0 and m.kind == RATE_REPORT for m in seed)
    routed = [(lid, sid) for lid, on in zip(net.link_ids, net.sources_on_link) for sid in on]
    assert sorted((m.receiver, m.sender) for m in seed) == sorted(routed)


def test_one_round_equals_one_engine_iteration():
    net, utilities, config = load_scenario("paper-scenario-1")
    agents, _ = build_agents(net, utilities, config)
    run_round(agents, 1, config)
    cfg1 = SolverConfig(gamma=config.gamma, epsilon=1e-15, max_iter=1,
                        mu0=config.mu0, x0=config.x0,
                        price_lag=config.price_lag)
    ref = solve(net, utilities, cfg1).trace[1]
    x = agents.state.x
    mu = agents.state.mu
    assert np.array_equal(x, ref.x)
    assert np.array_equal(mu, ref.mu)


def test_shared_link_trace_equivalence():
    net, utilities, config = load_scenario("paper-scenario-1")
    res_engine = solve(net, utilities, config)
    res_agents, log = run_to_convergence(net, utilities, config)
    assert_traces_identical(res_engine, res_agents)
    assert audit_locality(net, log) == []


def test_chain_trace_equivalence():
    net, utilities, config = load_scenario("chain-3")
    res_engine = solve(net, utilities, config)
    res_agents, log = run_to_convergence(net, utilities, config)
    assert_traces_identical(res_engine, res_agents)
    assert audit_locality(net, log) == []


def test_lagged_trace_equivalence():
    net, utilities, _ = load_scenario("paper-scenario-1")
    config = SolverConfig(gamma=2e-5, epsilon=0.1, max_iter=10000, mu0=0.01,
                          x0=(200.0,) * 5,
                          price_lag="lagged")
    res_engine = solve(net, utilities, config)
    res_agents, _ = run_to_convergence(net, utilities, config)
    assert res_engine.converged
    assert_traces_identical(res_engine, res_agents)


def test_message_counts():
    net, utilities, config = load_scenario("chain-3")
    res, log = run_to_convergence(net, utilities, config)
    nnz = net.nnz
    rounds = res.iterations
    # each round: one price update and one rate report per incidence
    for t in (1, 2, rounds):
        assert sum(1 for m in log if m.round == t) == 2 * nnz
    # plus the round-0 seeding reports
    assert len(log) == nnz * (2 * rounds + 1)


def test_round_message_phases():
    net, utilities, config = load_scenario("chain-3")
    agents, _ = build_agents(net, utilities, config)
    msgs = run_round(agents, 1, config)
    kinds = [m.kind for m in msgs]
    flip = kinds.index(RATE_REPORT)
    assert all(k == PRICE_UPDATE for k in kinds[:flip])
    assert all(k == RATE_REPORT for k in kinds[flip:])
    assert len(msgs) == 2 * net.nnz


def test_rate_reports_carry_both_iterates():
    net, utilities, config = load_scenario("paper-scenario-1")
    agents, _ = build_agents(net, utilities, config)
    before = dict(zip(net.source_ids, agents.state.x_tilde.tolist()))
    msgs = run_round(agents, 1, config)
    for m in msgs:
        if m.kind == RATE_REPORT:
            assert m.value_prev == before[m.sender]
        else:
            assert m.value_prev is None


@pytest.mark.parametrize("name,price_lag", [("chain-3", "fresh"),
                                             ("paper-scenario-1", "lagged")])
def test_message_log_follows_the_trace(name, price_lag):
    net, utilities, config = load_scenario(name)
    config = replace(config, price_lag=price_lag)
    res, log = run_to_convergence(net, utilities, config)
    trace = res.trace
    routed = [(lid, sid) for lid, on in zip(net.link_ids, net.sources_on_link) for sid in on]
    by_route = sorted((sid, lid) for lid, sid in routed)
    by_round = {}
    for m in log:
        by_round.setdefault(m.round, []).append(m)
    assert sorted(by_round) == list(range(res.iterations + 1))
    for t, msgs in by_round.items():
        prices = [m for m in msgs if m.kind == PRICE_UPDATE]
        reports = [m for m in msgs if m.kind == RATE_REPORT]
        assert msgs == prices + reports
        # price updates in (link, source id) order, reports in (source, link id) order
        assert [(m.sender, m.receiver) for m in prices] == (routed if t else [])
        assert [(m.sender, m.receiver) for m in reports] == by_route
        for m in prices:
            assert m.value == trace[t].mu[net.link_index[m.sender]]
            assert m.value_prev is None
        prev = trace[t - 1] if t else trace[0]
        for m in reports:
            j = net.source_index[m.sender]
            assert m.value == trace[t].x_tilde[j]
            assert m.value_prev == prev.x_tilde[j]


def test_locality_audit_flags_unrouted_pairs():
    net, utilities, config = load_scenario("chain-3")
    _, log = run_to_convergence(net, utilities, config)
    assert audit_locality(net, log) == []
    # source 3 rides link 2 only, so link 1 must never price it
    forged = Message(1, PRICE_UPDATE, 1, 3, 0.5)
    assert audit_locality(net, list(log) + [forged]) == [forged]
    bogus_kind = Message(1, "gossip", 1, 2, 0.5)
    assert audit_locality(net, [bogus_kind]) == [bogus_kind]


def test_huge_tolerance_stops_after_first_round():
    # a source already saturated on an uncongested link is a fixed
    # point, so the loosest possible tolerance stops in one round
    net = build_network([(1, 300.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),)
    config = SolverConfig(gamma=1e-4, epsilon=1e6, max_iter=50, mu0=0.001,
                          x0=(256.0,))
    res, log = run_to_convergence(net, utilities, config)
    assert res.converged
    assert res.iterations == 1
    assert res.x[0] == 256.0
    assert len(log) == 3  # seed report, one price update, one report


def test_export_messages_round_trips(tmp_path):
    net, utilities, config = load_scenario("paper-scenario-1")
    _, log = run_to_convergence(net, utilities, config)
    path = tmp_path / "messages.csv"
    export_messages(log, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(log)
    for row, msg in zip(rows, log):
        assert int(row["round"]) == msg.round
        assert row["kind"] == msg.kind
        assert int(row["sender"]) == msg.sender
        assert int(row["receiver"]) == msg.receiver
        assert float(row["value"]) == msg.value
        if msg.value_prev is None:
            assert row["value_prev"] == ""
        else:
            assert float(row["value_prev"]) == msg.value_prev
