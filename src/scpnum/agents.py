"""Distributed execution of the price/rate loop as message-passing agents.

Link agents own prices, source agents own rates, and all cross-agent
state moves through explicit messages in synchronous two-phase rounds:
links update and announce prices, then sources update and report rates.

Each agent owns its pairs of the engine's incidence list
(:class:`scpnum.engine.Incidence`): link i owns mu[i] and a mailbox of
its sources' reports (x̃, x̃_prev); source j owns x̃, x̃_prev, x and
rho and a mailbox of its route's prices in route order, which it sums
in the round they are delivered. The report mailboxes are laid out in
rank-major order (``rank_link``/``rank_src``): every link's first
slot, then every link's second, and so on, so a link's slots are
interleaved with those of other links, and each link still adds its
reports in ascending source order. Mailboxes are written only from the
values of delivered messages, each filled by one gather from the
senders' values: a price mailbox from mu (``mu[route_link]``), the
reports from x̃ (``x̃[rank_src]``). Each phase runs a kernel once over
all agents; every output reads only its own agent's slots and the sums
add each agent's slots in that order, so the trace is bit-identical to
``engine.solve`` on the same inputs. A broadcast carries one value
per sender, so the log (:class:`MessageLog`) keeps each phase as one
block of the senders' values.

Links sum their loads when the reports are delivered: the true load g
and the tangent load ĝ of x̃ expanded at x̃_prev. What a link keeps of
its mailbox is those two sums and, per incidence, the delivered x̃ and
its x̃**p: the expansion point and the first term of the next round's
tangent, so the x̃_prev of a report is the x̃ its link already holds.
The link prices against the stored ĝ in the next round.

The rounds are the step of the engine's driver loop
(:func:`scpnum.engine.iterate`). Its stopping rule (max rate change
plus steady-state feasibility) needs a view no single agent has; the
driver evaluates it between rounds, outside the message protocol. That
monitor reads the links' load sums; it evaluates no kernel of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "MessageLog",
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


class MessageLog:
    """Messages stored per sender: one (round, kind, values, values_prev)
    block per phase, whose float arrays hold one value per sending agent.
    A price block holds the round's mu, one entry per link; a report
    block holds the round's x̃ and the x̃ before it, one entry per source
    (``values_prev`` is None for price updates). They are the arrays the
    round produced, kept by reference: the same ones the trace rows hold.

    Blocks of a kind share ``ends[kind]``, tuples of the network's sender
    and receiver ids in emission order, and ``senders[kind]``, the index
    of each message's sender into its block's values. :meth:`columns`
    expands a block to one value per message; iterating yields
    :class:`Message` rows, one at a time.
    """

    def __init__(self, ends: dict, senders: dict, blocks: list):
        self.ends, self.senders, self.blocks = ends, senders, blocks

    def __len__(self) -> int:
        return sum(len(self.senders[block[1]]) for block in self.blocks)

    def columns(self, block) -> tuple:
        """A block's (values, values_prev) with one entry per message, in
        emission order; values_prev stays None on price updates."""
        _, kind, values, values_prev = block
        k = self.senders[kind]
        return values[k], None if values_prev is None else values_prev[k]

    def __iter__(self):
        for block in self.blocks:
            t, kind = block[:2]
            values, values_prev = self.columns(block)
            prev = [None] * len(values) if values_prev is None else values_prev.tolist()
            for row in zip(*self.ends[kind], values.tolist(), prev):
                yield Message(t, kind, *row)


@dataclass
class Agents:
    """Every link and source agent, one array per field.

    ``state`` holds what the agents own: mu per link; x̃, x̃_prev, x, rho
    and x̃**p per source; and per link the loads g and ĝ its agent summed
    from the last delivered reports. ``r``, ``p`` and ``p_minus_1`` are
    each incidence's source constants in rank-major order. ``xt`` and
    ``w`` are the report mailbox, in rank-major order: the x̃ of each
    incidence's last delivered report and its x̃**p (of the initial
    rates before the first delivery). ``ends`` and ``senders`` are the
    :class:`MessageLog`'s per-kind id tuples and sender indices.
    """

    model: Model
    state: IterateState
    r: np.ndarray
    p: np.ndarray
    p_minus_1: np.ndarray
    xt: np.ndarray
    w: np.ndarray
    ends: dict
    senders: dict


def _report(agents: Agents, t: int, x_tilde, x_tilde_prev) -> tuple:
    """Every source reports (x̃, x̃_prev) to each link on its route, in
    (source, link id) order; the barrier delivers the reports and each
    link sums its true and tangent loads from them, expanded at the x̃
    of the report it holds from the round before, which is x̃_prev.
    Returns the block of reports and the links' loads (g, ĝ)."""
    m = agents.model
    xt = x_tilde[m.rank_src]
    w = np.power(xt, agents.p)
    g = sums(m.rank_link, agents.r * w, m.n_links)
    ghat = sums(m.rank_link, g_hat_terms(agents.r, agents.p, xt, agents.xt, agents.w,
                                         agents.p_minus_1), m.n_links)
    agents.xt, agents.w = xt, w
    return (t, RATE_REPORT, x_tilde, x_tilde_prev), g, ghat


def build_agents(net: Network, utilities, config: SolverConfig):
    """All agents of a model, already consistent: sources start at the
    configured rates and the path prices of the initial link prices,
    links hold the loads of the round-0 reports.

    Returns (agents, round-0 seeding messages as a MessageLog).
    """
    model = Model(net, utilities)
    state = model.initial_state(config)
    ends = dict(zip((PRICE_UPDATE, RATE_REPORT), net.incidence_ids))
    senders = {PRICE_UPDATE: model.link, RATE_REPORT: model.route_src}
    c = model.curves
    slot = model.rank_src
    agents = Agents(model, state, r=c.r[slot], p=c.p[slot], p_minus_1=c.p_minus_1[slot],
                    xt=state.x_tilde_prev[slot], w=state.w[slot], ends=ends, senders=senders)
    block, g, ghat = _report(agents, 0, state.x_tilde, state.x_tilde_prev)
    agents.state = replace(state, g=g, g_hat=ghat)
    return agents, MessageLog(ends, senders, [block])


def run_round(agents: Agents, t: int, config: SolverConfig) -> MessageLog:
    """One synchronous round: price phase, barrier, rate phase, barrier.

    Agents read only messages delivered at the preceding barrier.
    Returns the round's messages in emission order: price updates in
    (link, source id) order, then rate reports in (source, link id)
    order.
    """
    m, s = agents.model, agents.state

    # phase A: every link prices against the tangent load of its reports
    mu = price_step(s.mu, config.gamma, m.capacities, s.g_hat)

    # barrier: the price mailboxes, route-order slot k from link route_link[k]
    prices = mu[m.route_link]

    # phase B: every source sums the prices just delivered and updates its rate
    rho = sums(m.route_src, prices, m.n_sources)
    xt, x, w = rates(m.curves, s.x_tilde, rho)
    block, g, ghat = _report(agents, t, xt, s.x_tilde)
    agents.state = IterateState(t, xt, s.x_tilde, mu, rho, x, g, ghat, w)
    return MessageLog(agents.ends, agents.senders, [(t, PRICE_UPDATE, mu, None), block])


def run_to_convergence(net: Network, utilities, config: SolverConfig | None = None):
    """The engine's driver loop with one message round as its step.

    Returns (AllocationResult, MessageLog). The result, including the
    per-round trace, matches ``engine.solve`` exactly.
    """
    if config is None:
        config = SolverConfig()
    agents, log = build_agents(net, utilities, config)

    def step(state: IterateState) -> IterateState:
        log.blocks += run_round(agents, state.t + 1, config).blocks
        return agents.state

    return iterate(agents.model, agents.state, config, step), log


def export_messages(log: MessageLog, path) -> None:
    """Write the message log as CSV, one row per message in emission
    order, values at full double precision (%.17g) and ``value_prev``
    empty on price updates, with the csv module's \\r\\n line ends.

    Each block is written whole: one format string per block, applied
    to its kind's id columns zipped with its value columns, expanded to
    one entry per message.
    """
    with open(path, "w", newline="") as fh:
        fh.write("round,kind,sender,receiver,value,value_prev\r\n")
        for block in log.blocks:
            t, kind = block[:2]
            values, values_prev = log.columns(block)
            if values_prev is None:
                fmt = f"{t},{kind},%d,%d,%.17g,\r\n"
                rows = zip(*log.ends[kind], values.tolist())
            else:
                fmt = f"{t},{kind},%d,%d,%.17g,%.17g\r\n"
                rows = zip(*log.ends[kind], values.tolist(), values_prev.tolist())
            fh.write("".join(map(fmt.__mod__, rows)))


def audit_locality(net: Network, messages) -> list[Message]:
    """Messages that cross a link/source pair absent from the routing.

    Empty list means every price went to a routed source and every
    report came from a routed source. Takes a :class:`MessageLog` or
    any iterable of :class:`Message`. Every block of a log shares its
    kind's id columns, so a log's columns are checked once, in O(nnz),
    and only the failing ones are expanded into rows, in emission order.
    """
    routed = {(lid, sid) for lid, on in zip(net.link_ids, net.sources_on_link) for sid in on}

    def local(kind, sender, receiver) -> bool:
        return (kind == PRICE_UPDATE and (sender, receiver) in routed
                or kind == RATE_REPORT and (receiver, sender) in routed)

    if not isinstance(messages, MessageLog):
        return [m for m in messages if not local(m.kind, m.sender, m.receiver)]
    stray = {kind: [k for k, pair in enumerate(zip(*ends)) if not local(kind, *pair)]
             for kind, ends in messages.ends.items()}
    found = []
    for t, kind, values, values_prev in messages.blocks:
        (from_ids, to_ids), index = messages.ends[kind], messages.senders[kind]
        for k in stray[kind]:
            j = index[k]
            found.append(Message(t, kind, from_ids[k], to_ids[k], float(values[j]),
                                 None if values_prev is None else float(values_prev[j])))
    return found
