"""Distributed execution of the price/rate loop as message-passing agents.

Link agents own prices, source agents own rates, and all cross-agent
state moves through explicit messages in synchronous two-phase rounds:
links update and announce prices, then sources update and report rates.

Each agent is its segment of the engine's CSR incidence list
(:class:`scpnum.engine.Incidence`): link i owns mu[i] and a mailbox of
its sources' reports (x̃, x̃_prev) in link order; source j owns x̃,
x̃_prev, x and rho and a mailbox of its route's prices in route order.
Mailboxes are written only from the values of delivered messages. Each
phase runs a kernel once over all agents; every output reads only its
own agent's segment and the sums add each segment left to right, so
the trace is bit-identical to ``engine.solve`` on the same inputs.

The rounds are the step of the engine's driver loop
(:func:`scpnum.engine.iterate`). Its stopping rule (max rate change
plus steady-state feasibility) needs a view no single agent has; the
driver evaluates it between rounds, outside the message protocol.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .engine import (
    IterateState,
    Model,
    SolverConfig,
    g_hat_terms,
    iterate,
    price_step,
    rates,
    sums,
)
from .network import Network

__all__ = [
    "Message",
    "Agents",
    "build_agents",
    "run_round",
    "run_to_convergence",
    "export_messages",
    "audit_locality",
]

PRICE_UPDATE = "price_update"
RATE_REPORT = "rate_report"


class Message(NamedTuple):
    """One point-to-point exchange.

    Price updates carry the link's new price in ``value`` and leave
    ``value_prev`` as None; rate reports carry the source's new
    transformed rate in ``value`` and the previous one in
    ``value_prev`` (the link needs both for its tangent load).
    """

    round: int
    kind: str
    sender: int
    receiver: int
    value: float
    value_prev: float | None = None


@dataclass
class Agents:
    """Every link and source agent, one array per field.

    ``state`` holds what the agents own: mu per link; x̃, x̃_prev, x and
    rho per source. ``reports`` holds the report mailboxes, rows x̃ and
    x̃_prev, one column per incidence in link order; ``prices`` holds the
    price mailboxes, one entry per incidence in route order.
    ``link_id``/``source_id`` are the network's ids as Python ints.
    """

    model: Model
    state: IterateState
    reports: np.ndarray
    prices: np.ndarray
    link_id: np.ndarray
    source_id: np.ndarray


def _boxed(values) -> np.ndarray:
    """One Python float per agent, so that the rows an agent sends share it."""
    return np.array(values.tolist(), dtype=object)


def _rows(t: int, kind: str, senders, receivers, values, values_prev=None) -> list[Message]:
    """Messages from object arrays of equal length, one per row."""
    n = len(values)
    prev = repeat(None, n) if values_prev is None else values_prev.tolist()
    return list(map(Message, repeat(t, n), repeat(kind, n), senders.tolist(),
                    receivers.tolist(), values.tolist(), prev))


def _values(messages: list[Message], name: str = "value") -> np.ndarray:
    return np.fromiter(map(attrgetter(name), messages), dtype=float, count=len(messages))


def _report(agents: Agents, t: int) -> list[Message]:
    """Every source reports (x̃, x̃_prev) to each link on its route, in
    (source, link id) order; the barrier delivers the reports."""
    m, s = agents.model, agents.state
    rows = _rows(t, RATE_REPORT, agents.source_id[m.route_src], agents.link_id[m.route_link],
                 _boxed(s.x_tilde)[m.route_src], _boxed(s.x_tilde_prev)[m.route_src])
    # route-order row k lands in link-order column route[k]
    agents.reports[:, m.route] = _values(rows), _values(rows, "value_prev")
    return rows


def build_agents(net: Network, utilities, config: SolverConfig):
    """All agents of a model, already consistent: sources start at the
    configured rates holding the initial prices of their routes, links
    hold the round-0 reports.

    Returns (agents, round-0 seeding messages).
    """
    model = Model(net, utilities)
    state = model.initial_state(config)
    agents = Agents(model, state, reports=np.empty((2, len(model.link))),
                    prices=state.mu[model.route_link],
                    link_id=np.array(net.link_ids, dtype=object),
                    source_id=np.array(net.source_ids, dtype=object))
    return agents, _report(agents, 0)


def run_round(agents: Agents, t: int, config: SolverConfig) -> list[Message]:
    """One synchronous round: price phase, barrier, rate phase, barrier.

    Agents read only messages delivered at the preceding barrier.
    Returns the round's messages in emission order: price updates in
    (link, source id) order, then rate reports in (source, link id)
    order.
    """
    m, s = agents.model, agents.state
    c = m.curves

    # phase A: every link prices against the tangent load of its reports
    ghat = sums(m.link, g_hat_terms(c.r[m.src], c.p[m.src], *agents.reports), m.n_links)
    mu = price_step(s.mu, config.gamma, m.capacities, ghat)
    prices = _rows(t, PRICE_UPDATE, agents.link_id[m.link], agents.source_id[m.src],
                   _boxed(mu)[m.link])

    # barrier: route-order slot k takes link-order row route[k]; the
    # prices held before delivery stay for lagged pricing
    held, agents.prices = agents.prices, _values(prices)[m.route]

    # phase B: every source sums its route's prices and updates its rate
    rho = sums(m.route_src, agents.prices if config.price_lag == "fresh" else held,
               m.n_sources)
    xt, x = rates(c, s.x_tilde, rho)
    agents.state = IterateState(t, xt, s.x_tilde, mu, rho, x)
    return prices + _report(agents, t)


def run_to_convergence(net: Network, utilities, config: SolverConfig | None = None):
    """The engine's driver loop with one message round as its step.

    Returns (AllocationResult, message log). The result, including the
    per-round trace, matches ``engine.solve`` exactly.
    """
    if config is None:
        config = SolverConfig()
    agents, log = build_agents(net, utilities, config)

    def step(state: IterateState) -> IterateState:
        log.extend(run_round(agents, state.t + 1, config))
        return agents.state

    result = iterate(agents.model, config, step)
    return result, tuple(log)


def export_messages(messages, path) -> None:
    """Write the message log as CSV (full double precision)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "kind", "sender", "receiver", "value", "value_prev"])
        for m in messages:
            w.writerow([
                m.round, m.kind, m.sender, m.receiver,
                f"{m.value:.17g}",
                "" if m.value_prev is None else f"{m.value_prev:.17g}",
            ])


def audit_locality(net: Network, messages) -> list[Message]:
    """Messages that cross a link/source pair absent from the routing.

    Empty list means every price went to a routed source and every
    report came from a routed source.
    """
    routed = {(lid, sid) for lid, on in zip(net.link_ids, net.sources_on_link) for sid in on}
    return [m for m in messages
            if not (m.kind == PRICE_UPDATE and (m.sender, m.receiver) in routed
                    or m.kind == RATE_REPORT and (m.receiver, m.sender) in routed)]
