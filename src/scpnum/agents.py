"""Distributed execution of the price/rate loop as message-passing agents.

Link agents own prices, source agents own rates, and all cross-agent
state moves through explicit messages in synchronous two-phase rounds:
links update and announce prices, then sources update and report rates.
Each agent runs the engine's array kernels on its own slice: a link
applies the tangent-load kernel to its sources' reports and sums the
terms left to right in ascending source-id order, and a source applies
the rate kernel to its length-1 slice of the per-source constants. The
kernels give the same bits on a slice as on the full arrays, so the
trace is bit-identical to ``engine.solve`` on the same inputs.

The rounds are the step of the engine's driver loop
(:func:`scpnum.engine.iterate`). Its stopping rule (max rate change
plus steady-state feasibility) needs a view no single agent has; the
driver evaluates it between rounds, outside the message protocol.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    Curves,
    IterateState,
    Model,
    SolverConfig,
    g_hat_terms,
    iterate,
    price_step,
    rates,
    total,
)
from .network import Network

__all__ = [
    "Message",
    "LinkAgent",
    "SourceAgent",
    "MissingReportError",
    "build_agents",
    "run_round",
    "run_to_convergence",
    "export_messages",
    "audit_locality",
]

PRICE_UPDATE = "price_update"
RATE_REPORT = "rate_report"


class MissingReportError(RuntimeError):
    """A link has no stored rate report from a source routed through it."""


@dataclass(frozen=True)
class Message:
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
class LinkAgent:
    """Holds one link's price and the rate reports of its sources.

    ``terms`` caches each routed source's encoding rate r and load
    exponent p = 1/c2, so the tangent load is computable locally from
    reports alone.
    """

    link_id: int
    capacity: float
    mu: float
    terms: dict[int, tuple[float, float]]
    reports: dict[int, tuple[float, float]] = field(default_factory=dict)

    def tangent_load(self) -> float:
        """Tangent (linearized) load from the stored reports, accumulated
        in ascending source-id order."""
        sids = sorted(self.terms)
        for sid in sids:
            if sid not in self.reports:
                raise MissingReportError(
                    f"link {self.link_id} has no report from source {sid}"
                )
        rows = [self.terms[sid] + self.reports[sid] for sid in sids]
        r, p, xt, xt_prev = np.array(rows, dtype=float).reshape(len(rows), 4).T.copy()
        return total(g_hat_terms(r, p, xt, xt_prev))


@dataclass
class SourceAgent:
    """Holds one source's rate state and the prices of its route links.

    ``curve`` is the source's length-1 slice of the per-source kernel
    constants. ``prices`` are the prices the next rate update will use;
    freshly delivered ones wait in ``pending`` until the configured
    delivery moment (before the update for fresh pricing, after it for
    lagged). ``rho`` is the path price the last update saw.
    """

    source_id: int
    curve: Curves
    route: tuple[int, ...]
    x_tilde: float
    x_tilde_prev: float
    x: float
    prices: dict[int, float]
    rho: float
    pending: dict[int, float] = field(default_factory=dict)

    def path_price(self) -> float:
        return total(np.array([self.prices[lid] for lid in self.route]))

    def update_rate(self, rho_floor: float) -> None:
        self.rho = self.path_price()
        xt, x = rates(self.curve, np.array([self.x_tilde]), np.array([self.rho]), rho_floor)
        self.x_tilde_prev, self.x_tilde, self.x = self.x_tilde, float(xt[0]), float(x[0])


def build_agents(net: Network, utilities, config: SolverConfig):
    """Instantiate agents from a model, already consistent: sources
    start at the configured rates, links hold the round-0 reports.

    Returns (links, sources, round-0 seeding messages).
    """
    model = Model(net, utilities)
    c = model.curves
    state = model.initial_state(config)

    sources = [
        SourceAgent(
            source_id=sid, curve=c.at(j), route=net.routes[j],
            x_tilde=float(state.x_tilde[j]), x_tilde_prev=float(state.x_tilde_prev[j]),
            x=float(state.x[j]), rho=float(state.rho[j]),
            prices={lid: float(state.mu[net.link_index[lid]]) for lid in net.routes[j]},
        )
        for j, sid in enumerate(net.source_ids)
    ]
    links = [
        LinkAgent(link_id=lid, capacity=net.capacities[i], mu=float(state.mu[i]),
                  terms={sid: (float(c.r[net.source_index[sid]]),
                               float(c.p[net.source_index[sid]]))
                         for sid in net.sources_on_link[i]})
        for i, lid in enumerate(net.link_ids)
    ]
    seed = [Message(0, RATE_REPORT, src.source_id, lid, src.x_tilde, src.x_tilde_prev)
            for src in sources for lid in src.route]
    _deliver_reports(links, seed)
    return links, sources, seed


def _deliver_reports(links: list[LinkAgent], messages: list[Message]) -> None:
    by_id = {ln.link_id: ln for ln in links}
    for msg in messages:
        if msg.kind == RATE_REPORT:
            by_id[msg.receiver].reports[msg.sender] = (msg.value, msg.value_prev)


def run_round(links: list[LinkAgent], sources: list[SourceAgent], t: int,
              config: SolverConfig) -> list[Message]:
    """One synchronous round: price phase, barrier, rate phase, barrier.

    Within each phase agents act in ascending id order; results are
    order-independent because agents only read messages delivered at
    the preceding barrier. Returns the round's messages in emission
    order.
    """
    messages: list[Message] = []

    # phase A: every link updates its price from the stored reports
    for ln in sorted(links, key=lambda a: a.link_id):
        ln.mu = float(price_step(ln.mu, config.gamma, ln.capacity, ln.tangent_load()))
        for sid in sorted(ln.terms):
            messages.append(Message(t, PRICE_UPDATE, ln.link_id, sid, ln.mu))

    # barrier: deliver prices
    by_id = {src.source_id: src for src in sources}
    for msg in messages:
        by_id[msg.receiver].pending[msg.sender] = msg.value

    # phase B: every source updates its rate and reports it
    reports: list[Message] = []
    for src in sorted(sources, key=lambda a: a.source_id):
        if config.price_lag == "fresh":
            src.prices.update(src.pending)
            src.pending.clear()
        src.update_rate(config.rho_floor)
        if config.price_lag == "lagged":
            src.prices.update(src.pending)
            src.pending.clear()
        for lid in src.route:
            reports.append(Message(t, RATE_REPORT, src.source_id, lid,
                                   src.x_tilde, src.x_tilde_prev))

    # barrier: deliver reports
    _deliver_reports(links, reports)
    messages.extend(reports)
    return messages


def run_to_convergence(net: Network, utilities, config: SolverConfig | None = None):
    """The engine's driver loop with one message round as its step.

    Returns (AllocationResult, message log). The result, including the
    per-round trace, matches ``engine.solve`` exactly.
    """
    if config is None:
        config = SolverConfig()
    # build_agents lists both kinds of agent in ascending id order
    links, sources, log = build_agents(net, utilities, config)

    def step(state: IterateState) -> IterateState:
        t = state.t + 1
        log.extend(run_round(links, sources, t, config))
        return IterateState(
            t,
            x_tilde=np.array([src.x_tilde for src in sources]),
            x_tilde_prev=np.array([src.x_tilde_prev for src in sources]),
            mu=np.array([ln.mu for ln in links]),
            rho=np.array([src.rho for src in sources]),
            x=np.array([src.x for src in sources]),
        )

    result = iterate(Model(net, utilities), config, step)
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
    violations = []
    for m in messages:
        if m.kind == PRICE_UPDATE:
            i = net.link_index.get(m.sender)
            ok = i is not None and m.receiver in net.sources_on_link[i]
        elif m.kind == RATE_REPORT:
            i = net.link_index.get(m.receiver)
            ok = i is not None and m.sender in net.sources_on_link[i]
        else:
            ok = False
        if not ok:
            violations.append(m)
    return violations
