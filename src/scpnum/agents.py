"""Distributed execution of the price/rate loop as message-passing agents.

Link agents own prices and loads, source agents own rates, and all
cross-agent state moves through explicit messages in synchronous
rounds. A round is one :meth:`scpnum.engine.Model.step`, the engine's
own iteration, whose four phases are each one kind of agent acting on
what it owns and on what the last barrier delivered:

1. every link steps its price against the tangent load it summed in
   the round before and announces it to the sources on it; a barrier
   delivers the price updates;
2. every source sums the prices delivered from its route;
3. every source picks its rate against that path price and reports its
   new x̃, with the x̃ before it, to each link on its route; a barrier
   delivers the reports;
4. every link sums its true load g and its tangent load ĝ, expanded at
   the reports' x̃_prev, from the reports delivered to it.

Each phase runs one kernel over all agents, and every output reads only
its own agent's inputs. A link's load terms depend only on the
reporting source's values, so each is computed once per source and
summed by every link on its route. Since a round is the engine's step,
the agents' trace is the engine's, bit for bit.

The message log (:class:`MessageLog`) is the protocol's record. Each
phase that sends is one block of its senders' values: a round's price
updates, one per (link, source) pair on the routing, then its rate
reports, one per (source, link) pair, 2·nnz messages in all, plus the
round-0 reports that seed the links' first loads. :func:`audit_locality`
checks from the log that every message crossed a routed pair.

The rounds are the step of the engine's driver loop
(:func:`scpnum.engine.iterate`). Its stopping rule (max rate change
plus steady-state feasibility) needs a view no single agent has; the
driver evaluates it between rounds, outside the message protocol. That
monitor reads the links' load sums; it evaluates no kernel of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import IterateState, Model, SolverConfig, iterate
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
    """Every link and source agent, as one :class:`IterateState`.

    ``state`` holds what the agents own: mu and the loads g and ĝ per
    link; x̃, x̃_prev, x, rho and x̃**p per source. ``ends`` and
    ``senders`` are the :class:`MessageLog`'s per-kind id tuples and
    sender indices.
    """

    model: Model
    state: IterateState
    ends: dict
    senders: dict


def build_agents(net: Network, utilities, config: SolverConfig):
    """All agents of a model, already consistent: sources start at the
    configured rates and the path prices of the initial link prices,
    links hold the loads of the round-0 reports.

    Returns (agents, round-0 seeding messages as a MessageLog).
    """
    model = Model(net, utilities)
    state = model.initial_state(config)
    ends = dict(zip((PRICE_UPDATE, RATE_REPORT), net.incidence_ids))
    senders = {PRICE_UPDATE: model.inc.link, RATE_REPORT: model.inc.route_src}
    block = (0, RATE_REPORT, state.x_tilde, state.x_tilde)
    return Agents(model, state, ends, senders), MessageLog(ends, senders, [block])


def run_round(agents: Agents, t: int, config: SolverConfig) -> MessageLog:
    """Round t, which must follow the agents' last round: one
    :meth:`Model.step`, whose price and rate phases each end at a barrier
    that delivers their messages.

    Returns the round's messages in emission order: price updates in
    (link, source id) order, then rate reports in (source, link id)
    order.
    """
    s = agents.state
    if t != s.t + 1:
        raise ValueError(f"round {t} does not follow round {s.t}")
    agents.state = new = agents.model.step(s, config.gamma)
    return MessageLog(agents.ends, agents.senders,
                      [(t, PRICE_UPDATE, new.mu, None), (t, RATE_REPORT, new.x_tilde, s.x_tilde)])


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
