"""Network model: links, capacities, and source routes.

Capacities and rates are in Kbps throughout. Links and sources are
identified by integer ids; all iteration orders are ascending id so
repeated runs accumulate floating point in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Network",
    "FeasibilityReport",
    "Violation",
    "build_network",
    "link_load",
    "is_feasible",
    "DuplicateIdError",
    "EmptyRouteError",
    "UnknownLinkError",
    "NonPositiveCapacityError",
]


class DuplicateIdError(ValueError):
    """A link or source id occurs more than once."""


class EmptyRouteError(ValueError):
    """A source declares no links."""


class UnknownLinkError(ValueError):
    """A route references a link id that was never declared."""


class NonPositiveCapacityError(ValueError):
    """A link capacity is zero or negative."""


@dataclass(frozen=True)
class Network:
    """Immutable routing topology.

    Attributes
    ----------
    link_ids : tuple of int
        Declared link ids, ascending.
    capacities : tuple of float
        Capacity in Kbps per link, aligned with ``link_ids``.
    source_ids : tuple of int
        Declared source ids, ascending.
    routes : tuple of tuple of int
        Per source, the link ids it crosses (ascending), aligned with
        ``source_ids``.
    sources_on_link : tuple of tuple of int
        Per link, the source ids crossing it (ascending), aligned with
        ``link_ids``.
    """

    link_ids: tuple[int, ...]
    capacities: tuple[float, ...]
    source_ids: tuple[int, ...]
    routes: tuple[tuple[int, ...], ...]
    sources_on_link: tuple[tuple[int, ...], ...]
    link_index: dict[int, int] = field(repr=False)
    source_index: dict[int, int] = field(repr=False)

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    @property
    def nnz(self) -> int:
        """Number of (link, source) incidences."""
        return sum(len(r) for r in self.routes)

    def routing_matrix(self) -> np.ndarray:
        """Dense 0/1 incidence matrix, shape (n_links, n_sources)."""
        mat = np.zeros((self.n_links, self.n_sources))
        for j, route in enumerate(self.routes):
            for lid in route:
                mat[self.link_index[lid], j] = 1.0
        return mat


@dataclass(frozen=True)
class Violation:
    """One violated constraint: kind is 'bounds' or 'capacity'."""

    kind: str
    ident: int
    excess: float


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def build_network(links, routes) -> Network:
    """Validate and assemble a Network.

    Parameters
    ----------
    links : iterable of (link_id, capacity_kbps)
    routes : iterable of (source_id, iterable of link_id)

    Raises
    ------
    DuplicateIdError, NonPositiveCapacityError, EmptyRouteError,
    UnknownLinkError
        and ValueError for a capacity that is NaN or infinite, or for a
        network with no sources (there is nothing to allocate, and the
        oracle's grid scan needs at least one axis).
    """
    link_list = sorted((int(lid), float(cap)) for lid, cap in links)
    seen: set[int] = set()
    for lid, cap in link_list:
        if lid in seen:
            raise DuplicateIdError(f"duplicate link id {lid}")
        seen.add(lid)
        if not math.isfinite(cap):
            raise ValueError(f"link {lid} capacity {cap} must be finite")
        if cap <= 0.0:
            raise NonPositiveCapacityError(f"link {lid} capacity {cap} must be > 0")

    route_list = sorted((int(sid), tuple(sorted({int(l) for l in route}))) for sid, route in routes)
    if not route_list:
        raise ValueError("a network needs at least one source")
    seen.clear()
    declared = {lid for lid, _ in link_list}
    for sid, route in route_list:
        if sid in seen:
            raise DuplicateIdError(f"duplicate source id {sid}")
        seen.add(sid)
        if not route:
            raise EmptyRouteError(f"source {sid} has an empty route")
        for lid in route:
            if lid not in declared:
                raise UnknownLinkError(f"source {sid} routed over undeclared link {lid}")

    link_ids = tuple(lid for lid, _ in link_list)
    source_ids = tuple(sid for sid, _ in route_list)
    on_link: dict[int, list[int]] = {lid: [] for lid in link_ids}
    for sid, route in route_list:
        for lid in route:
            on_link[lid].append(sid)

    return Network(
        link_ids=link_ids,
        capacities=tuple(cap for _, cap in link_list),
        source_ids=source_ids,
        routes=tuple(route for _, route in route_list),
        sources_on_link=tuple(tuple(on_link[lid]) for lid in link_ids),
        link_index={lid: i for i, lid in enumerate(link_ids)},
        source_index={sid: j for j, sid in enumerate(source_ids)},
    )


def link_load(net: Network, x, link_id: int) -> float:
    """Aggregate rate over one link: sum of x_s over sources crossing it.

    ``x`` is aligned with ``net.source_ids``. Sources are accumulated in
    ascending id order.
    """
    if link_id not in net.link_index:
        raise UnknownLinkError(f"unknown link {link_id}")
    total = 0.0
    for sid in net.sources_on_link[net.link_index[link_id]]:
        total += float(x[net.source_index[sid]])
    return total


def is_feasible(net: Network, x, bounds, tol: float = 0.0) -> FeasibilityReport:
    """Check rate bounds and link capacities within an absolute tolerance.

    Parameters
    ----------
    x : sequence of float
        Rates in Kbps, aligned with ``net.source_ids``.
    bounds : sequence of (m, M)
        Per-source rate bounds, same alignment.
    tol : float
        Absolute slack in Kbps allowed on every constraint.

    Returns
    -------
    FeasibilityReport
        ``ok`` plus one Violation per breached constraint, each carrying
        the overshoot magnitude.
    """
    violations: list[Violation] = []
    for j, sid in enumerate(net.source_ids):
        lo, hi = bounds[j]
        xv = float(x[j])
        if xv < lo - tol:
            violations.append(Violation("bounds", sid, lo - xv))
        elif xv > hi + tol:
            violations.append(Violation("bounds", sid, xv - hi))
    for i, lid in enumerate(net.link_ids):
        load = link_load(net, x, lid)
        if load > net.capacities[i] + tol:
            violations.append(Violation("capacity", lid, load - net.capacities[i]))
    return FeasibilityReport(not violations, tuple(violations))
