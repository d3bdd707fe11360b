"""Message-passing simulation: equivalence with the engine, message
accounting, and locality."""

import csv
import math
import tracemalloc

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
    inflection_point,
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
                        mu0=config.mu0, x0=config.x0)
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


def test_run_round_takes_only_the_next_round():
    # the state's t comes from Model.step, so a skipped or repeated round
    # would log a round number other than its trace row's
    net, utilities, config = load_scenario("chain-3")
    agents, _ = build_agents(net, utilities, config)
    for t in (0, 2, -1):
        with pytest.raises(ValueError, match=f"^round {t} does not follow round 0$"):
            run_round(agents, t, config)
    assert agents.state.t == 0
    run_round(agents, 1, config)
    with pytest.raises(ValueError, match="^round 1 does not follow round 1$"):
        run_round(agents, 1, config)
    assert run_round(agents, 2, config).blocks[0][0] == agents.state.t == 2


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


@pytest.mark.parametrize("name", ["chain-3", "paper-scenario-1"])
def test_message_log_follows_the_trace(name):
    net, utilities, config = load_scenario(name)
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


def test_log_blocks_are_the_rounds_own_arrays():
    # a broadcast is logged once per sender, by reference to what the
    # round produced: the arrays its trace row holds
    net, utilities, config = load_scenario("chain-3")
    res, log = run_to_convergence(net, utilities, config)
    trace = res.trace
    prices = [b for b in log.blocks if b[1] == PRICE_UPDATE]
    reports = [b for b in log.blocks if b[1] == RATE_REPORT]
    assert [b[0] for b in prices] == list(range(1, res.iterations + 1))
    assert [b[0] for b in reports] == list(range(res.iterations + 1))
    for t, _, values, values_prev in prices:
        assert values is trace[t].mu and values_prev is None
    for t, _, values, values_prev in reports:
        assert values is trace[t].x_tilde
        assert values_prev is trace[max(t - 1, 0)].x_tilde


def test_locality_audit_flags_unrouted_pairs():
    net, utilities, config = load_scenario("chain-3")
    _, log = run_to_convergence(net, utilities, config)
    assert audit_locality(net, log) == []
    # source 3 rides link 2 only, so link 1 must never price it
    forged = Message(1, PRICE_UPDATE, 1, 3, 0.5)
    assert audit_locality(net, list(log) + [forged]) == [forged]
    bogus_kind = Message(1, "gossip", 1, 2, 0.5)
    assert audit_locality(net, [bogus_kind]) == [bogus_kind]


def test_locality_audit_of_a_log_matches_the_row_by_row_audit():
    net, utilities, config = load_scenario("chain-3")
    _, log = run_to_convergence(net, utilities, config)
    # redirect one report column to link 3, which source 2 never crosses
    senders, receivers = log.ends[RATE_REPORT]
    k = senders.index(2)
    log.ends[RATE_REPORT] = (senders, receivers[:k] + (3,) + receivers[k + 1:])
    stray = audit_locality(net, log)
    assert stray == audit_locality(net, iter(log))
    assert len(stray) == sum(kind == RATE_REPORT for _, kind, _, _ in log.blocks)
    assert {(m.sender, m.receiver) for m in stray} == {(2, 3)}


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


def test_message_log_memory_is_bounded():
    # 250 sources over 4 of 20 links each (nnz = 1000), capacity 1.6x
    # the knee sum, started above the knee: 20 rounds of 2000 messages,
    # and the log alone may keep at most 32 B of each
    n_links, n_sources = 20, 250
    u = SCurveUtility(r=256.0, c1=6.0, c2=4.0)
    net = build_network([(lid, 1.6 * 50 * inflection_point(u)) for lid in range(1, n_links + 1)],
                        [(sid, tuple((sid + k) % n_links + 1 for k in range(4)))
                         for sid in range(1, n_sources + 1)])
    config = SolverConfig(gamma=3e-7, epsilon=1e-3, max_iter=20, mu0=1e-5,
                          x0=(180.0,) * n_sources)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res, log = run_to_convergence(net, (u,) * n_sources, config)
        del res
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == net.nnz * (2 * config.max_iter + 1) == 41000
    assert retained <= 32 * len(log), f"{retained / len(log):.1f} B per message"


def test_message_log_keeps_one_value_per_sender():
    # the instance above: each block keeps a reference to the round's mu
    # (20 links) or x̃ (250 sources), not one value per message, so the
    # log alone keeps at most 4 B of each of its 41000 messages
    n_links, n_sources = 20, 250
    u = SCurveUtility(r=256.0, c1=6.0, c2=4.0)
    net = build_network([(lid, 1.6 * 50 * inflection_point(u)) for lid in range(1, n_links + 1)],
                        [(sid, tuple((sid + k) % n_links + 1 for k in range(4)))
                         for sid in range(1, n_sources + 1)])
    config = SolverConfig(gamma=3e-7, epsilon=1e-3, max_iter=20, mu0=1e-5,
                          x0=(180.0,) * n_sources)
    net.incidence  # the network's own arrays, built once per network
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res, log = run_to_convergence(net, (u,) * n_sources, config)
        del res
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 41000
    assert retained <= 4 * len(log), f"{retained / len(log):.1f} B per message"
