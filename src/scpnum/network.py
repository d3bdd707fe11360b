"""Network model: links, capacities, and source routes.

Capacities and rates are in Kbps throughout. Links and sources are
identified by integer ids; all iteration orders are ascending id so
repeated runs accumulate floating point in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .utility import finite_real, integer, per_item

__all__ = [
    "Network",
    "IncidenceArrays",
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


def sums(index, weights, n: int) -> np.ndarray:
    """Per-group sums of weights, each added strictly left to right."""
    return np.bincount(index, weights=weights, minlength=n)


class IncidenceArrays(NamedTuple):
    """A network's routing as read-only arrays, with the two routing sums
    over them as methods, so that no other module reads the rank-major
    or doubled orders.

    ``link``/``src`` is the CSR incidence list: one entry per (link,
    source) pair as link and source indices, sorted by link index and
    then by ascending source id. ``route_link``/``route_src`` are the
    same pairs in route order (by source, then ascending link id).
    ``rank_link``/``rank_src`` are the same pairs in rank-major order:
    every link's first pair (in CSR order), then every link's second,
    and so on. Each link's pairs keep their ascending source order, so
    ``np.bincount`` over that order adds each link's terms in the CSR
    order, from 0.0, with no one link's additions in a single dependent
    chain. ``block_link``/``block_src`` are the rank-major pairs twice,
    2·nnz entries: once as they are, then with every link index raised
    by L and every source index by S. They index a flattened (2, S)
    block of two per-source rows, and one ``np.bincount`` over them sums
    the first row into bins [0, L) and the second into bins [L, 2L),
    each bin in the order of the rank-major sum of its row alone;
    ``rank_link``/``rank_src`` are views of their first halves.
    ``capacities`` is aligned with the link ids.
    """

    capacities: np.ndarray
    link: np.ndarray
    src: np.ndarray
    route_link: np.ndarray
    route_src: np.ndarray
    rank_link: np.ndarray
    rank_src: np.ndarray
    block_link: np.ndarray
    block_src: np.ndarray

    def link_sums(self, terms) -> np.ndarray:
        """Per-link sums of a float row of per-source terms, shape (S,),
        or of both rows of a (2, S) block, shape (2, L). Each link adds
        its sources' terms in ascending source order, from 0.0."""
        n = len(self.capacities)
        if terms.ndim == 1:
            return sums(self.rank_link, terms[self.rank_src], n)
        return sums(self.block_link, terms.reshape(-1)[self.block_src], 2 * n).reshape(2, n)

    def path_prices(self, mu) -> np.ndarray:
        """Per-source sums of the float per-link array mu along each
        route, in ascending link order. Every source has a route, so the
        last route-order pair is the last source's."""
        return sums(self.route_src, mu[self.route_link], self.route_src[-1] + 1)


def _incidence_arrays(net: Network) -> IncidenceArrays:
    counts = [len(on) for on in net.sources_on_link]
    link = np.repeat(np.arange(net.n_links, dtype=np.intp), counts)
    src = np.fromiter(map(net.source_index.__getitem__,
                          chain.from_iterable(net.sources_on_link)),
                      dtype=np.intp, count=net.nnz)
    route = np.argsort(src, kind="stable")
    # each pair's rank within its link
    starts = np.cumsum(counts) - counts
    by_rank = np.argsort(np.arange(net.nnz) - starts[link], kind="stable")
    block_link = np.concatenate((link[by_rank], link[by_rank] + net.n_links))
    block_src = np.concatenate((src[by_rank], src[by_rank] + net.n_sources))
    arrays = IncidenceArrays(np.array(net.capacities, dtype=float), link, src,
                             link[route], src[route], block_link[:net.nnz],
                             block_src[:net.nnz], block_link, block_src)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _incidence_ids(net: Network) -> tuple:
    inc = net.incidence
    lid = np.array(net.link_ids, dtype=object)
    sid = np.array(net.source_ids, dtype=object)
    return ((tuple(lid[inc.link].tolist()), tuple(sid[inc.src].tolist())),
            (tuple(sid[inc.route_src].tolist()), tuple(lid[inc.route_link].tolist())))


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

    @cached_property
    def incidence(self) -> IncidenceArrays:
        """The routing as read-only index arrays, derived on first use
        and kept for the life of the network. Equality and pickling see
        only the fields above."""
        return _incidence_arrays(self)

    @cached_property
    def incidence_ids(self) -> tuple:
        """The incidences as ids, derived on first use and kept like
        ``incidence``: (link ids, source ids) in CSR order, then
        (source ids, link ids) in route order, each a tuple of ints."""
        return _incidence_ids(self)

    def link_position(self, link_id) -> int:
        """The index of ``link_id`` in ``link_ids``; UnknownLinkError
        if the network declares no such link."""
        if link_id not in self.link_index:
            raise UnknownLinkError(f"unknown link {link_id}")
        return self.link_index[link_id]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items()
                if k not in ("incidence", "incidence_ids")}


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
        and ValueError for an id that is not an integer, a capacity that
        is not a finite real (see ``utility.finite_real``), or a network
        with no sources (there is nothing to allocate, and the oracle's
        grid scan needs at least one axis).
    """
    capacity: dict[int, float] = {}
    for lid, cap in links:
        lid = integer("link id", lid)
        if lid in capacity:
            raise DuplicateIdError(f"duplicate link id {lid}")
        cap = capacity[lid] = finite_real(f"link {lid} capacity", cap)
        if cap <= 0.0:
            raise NonPositiveCapacityError(f"link {lid} capacity {cap} must be > 0")
    link_list = sorted(capacity.items())

    route_list = sorted((integer("source id", sid),
                         tuple(sorted({integer("route link id", l) for l in route})))
                        for sid, route in routes)
    if not route_list:
        raise ValueError("a network needs at least one source")
    seen: set[int] = set()
    for sid, route in route_list:
        if sid in seen:
            raise DuplicateIdError(f"duplicate source id {sid}")
        seen.add(sid)
        if not route:
            raise EmptyRouteError(f"source {sid} has an empty route")
        for lid in route:
            if lid not in capacity:
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

    ``x`` is aligned with ``net.source_ids``, shape (S,). Sources are
    accumulated in ascending id order, from 0.0.
    """
    i = net.link_position(link_id)
    return float(net.incidence.link_sums(per_item("x", x, net.n_sources))[i])


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
        the overshoot magnitude as a float: the bounds by source, then
        the capacities by link, each in ascending id order. A link's
        load is :func:`link_load`'s sum. A NaN rate breaches its bounds
        and every link on its route, with a NaN overshoot.

    Raises
    ------
    ValueError
        If ``x`` is not of shape (S,) or ``bounds`` of shape (S, 2) (see
        ``utility.per_item``), or ``tol`` is not a finite real >= 0 (see
        ``utility.finite_real``).
    """
    x = per_item("x", x, net.n_sources)
    lo, hi = per_item("bounds", bounds, net.n_sources, 2).T
    tol = finite_real("tol", tol, ge=0.0)
    inc = net.incidence
    load = inc.link_sums(x)
    outside = np.flatnonzero(~((lo - tol <= x) & (x <= hi + tol)))
    over = np.flatnonzero(~(load <= inc.capacities + tol))
    # an infinite bound beside an infinite rate makes the unused branch NaN
    with np.errstate(invalid="ignore"):
        excess = np.where(x < lo - tol, lo - x, x - hi)
    violations = ([Violation("bounds", net.source_ids[j], float(excess[j])) for j in outside]
                  + [Violation("capacity", net.link_ids[i], float(load[i] - inc.capacities[i]))
                     for i in over])
    return FeasibilityReport(not violations, tuple(violations))
