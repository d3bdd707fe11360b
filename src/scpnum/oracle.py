"""Independent checks for allocation results.

Three tools, deliberately free of any engine machinery: an exhaustive
refined grid search over the original (non-convex) problem, a sampled
local-optimality test, and a central-difference gradient checker. The
grid search certifies "no better feasible point at the achieved
resolution", which is the strongest statement available without
convexity.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .network import Network, is_feasible
from .utility import eval_scurve, finite_real, integer, per_item

__all__ = [
    "GridSpec",
    "OracleResult",
    "LocalOptReport",
    "grid_search",
    "local_opt_test",
    "fd_gradient_check",
    "total_utility",
    "perturbation_seed",
    "DEFAULT_PERTURBATION_SEED",
    "NoFeasiblePointError",
    "BudgetExceededError",
    "InfeasibleCandidateError",
    "DomainBoundaryError",
]

# fixed so reruns sample identical perturbations; override via SCPNUM_SEED
DEFAULT_PERTURBATION_SEED = 1729

MAX_SOURCES = 5

# points per scan chunk (see _chunk_buffers): 2**17 float64 values are
# 1 MiB, a quarter of a 4 MiB L2 cache. On chain-3 (2 vCPU Xeon, numpy
# 2.4) a grid_search took 3.9 ms with it, against 4.1 ms at 2**16 and
# 2**18 points and 4.9 ms at 2**15; one-row chunks of 4096 points were
# slower than no chunks at all, when every row of a slice was scanned
CHUNK_POINTS = 2 ** 17

# the grid bounds sum in another order than the scan, so each link budget
# in them is raised by BUDGET_PAD Kbps and each bound by a relative
# BOUND_PAD, far above the rounding of five-term sums: a block of the
# grid is skipped only when it is strictly worse
BUDGET_PAD = 1e-9
BOUND_PAD = 1e-12


class NoFeasiblePointError(ValueError):
    """No grid point satisfies the constraints (capacity below total minimum)."""


class BudgetExceededError(ValueError):
    """Grid would exceed the evaluation budget."""


class InfeasibleCandidateError(ValueError):
    """Candidate point violates constraints beyond tolerance."""


class DomainBoundaryError(ValueError):
    """Finite-difference stencil would leave the stated domain."""


@dataclass(frozen=True)
class GridSpec:
    """Grid-search controls.

    points_per_dim grid nodes per source; after the full-box pass,
    each refinement pass re-grids a box 4x smaller per dimension around
    the incumbent. feas_tol is the Kbps slack allowed when keeping a
    grid point. max_evals_per_pass caps points_per_dim**S.

    The counts are integers, stored as ints: points_per_dim >= 2,
    refinement_passes >= 0, max_evals_per_pass >= 1; feas_tol is a
    finite real >= 0 (see ``utility.finite_real``), stored as a float.
    """

    points_per_dim: int = 64
    refinement_passes: int = 2
    feas_tol: float = 1e-6
    max_evals_per_pass: int = 2 ** 30

    def __post_init__(self):
        # a numpy integer would wrap in points_per_dim ** S
        for name, least in (("points_per_dim", 2), ("refinement_passes", 0),
                            ("max_evals_per_pass", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), ge=least))
        object.__setattr__(self, "feas_tol", finite_real("feas_tol", self.feas_tol, ge=0.0))


@dataclass(frozen=True)
class OracleResult:
    """A grid_search result. ``evaluations`` is the nominal count,
    points_per_dim**S per pass; ``scanned`` is the number of grid points
    the scan actually tested, the rest being ruled out by bounds."""

    x: np.ndarray
    utility: float
    feasible: bool
    resolution: float
    evaluations: int
    scanned: int


@dataclass(frozen=True)
class LocalOptReport:
    passed: bool
    samples_feasible: int
    best_gain: float
    best_point: np.ndarray | None

    def __bool__(self) -> bool:
        return self.passed


def total_utility(utilities, x) -> float:
    """Aggregate utility of a rate vector, ascending source order; x has
    shape (S,) (see ``utility.per_item``)."""
    x = per_item("x", x, len(utilities))
    total = 0.0
    for j, u in enumerate(utilities):
        total += eval_scurve(u, float(x[j]))
    return total


def perturbation_seed() -> int:
    """Perturbation seed: SCPNUM_SEED when it is set and not empty, else
    the default. ValueError unless it is a non-negative integer."""
    raw = os.environ.get("SCPNUM_SEED")
    try:
        return integer("SCPNUM_SEED", int(raw), ge=0) if raw else DEFAULT_PERTURBATION_SEED
    except ValueError:
        raise ValueError(f"SCPNUM_SEED must be a non-negative integer, got {raw!r}") from None


def _front(buf, shape):
    """The first prod(shape) elements of the contiguous buffer buf, viewed
    with that shape: room for an array no larger than buf."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _sum_into(terms, zero, buf):
    """zero + terms[0] + terms[1] + ..., added left to right and
    broadcast into the front of buf. The last term is copied there and
    the sum of the others added to it: addition commutes, so the bits
    are those of adding it last, and a broadcasting copy and add run
    faster than one add that broadcasts both its operands."""
    *head, last = [zero, *terms]
    out = _front(buf, np.broadcast(zero, *terms).shape)
    np.copyto(out, last)
    return np.add(sum(head, zero), out, out=out)


def _chunk_buffers(tail_shape):
    """The scan's chunk buffers for a grid whose tail (every source but
    the first) has shape tail_shape: room for the whole tail if it fits
    in CHUNK_POINTS points, else for one row of its first axis if that
    fits, else for the whole rows of its second axis (sub-rows) that
    fit, and for at least one. One float array holds a chunk's loads and
    then its utilities; two bool arrays hold its feasibility mask and
    one link's test, then the mask's complement."""
    total, row, sub = (math.prod(tail_shape[k:]) for k in range(3))
    size = (total if total <= CHUNK_POINTS else row if row <= CHUNK_POINTS
            else max(1, CHUNK_POINTS // sub) * sub)
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size, dtype=bool)


def _best_within(loads, utils):
    """A table for :func:`_at_budget`: loads ascending and, before each,
    -inf and then the running maximum of their utilities."""
    order = np.argsort(loads, kind="stable")
    return loads[order], np.concatenate(([-np.inf], np.maximum.accumulate(utils[order])))


def _at_budget(table, budget):
    """The best utility of a table whose load is <= budget (-inf if
    none), elementwise over budget."""
    loads, best = table
    return best[np.searchsorted(loads, budget, side="right")]


def _tail_bound(grids, utils, links):
    """Upper bound on the scan's sum at every feasible grid point whose
    leading sources (the prefix) are fixed, vectorised over k prefix
    values.

    ``grids`` and ``utils`` are the grid values and their utilities of
    the free sources (those after the prefix), in source order; each
    entry of ``links`` is the free positions on a link and its limit
    (capacity + feas_tol). Returns ``bound(prefix_u, prefix_load)``,
    where ``prefix_u`` is the prefix's utility, shape (k,), and
    ``prefix_load`` the prefix's load on each link, shape (L, k). The
    bound is -inf where no free values fit.

    Loads are counted above the corner where every free source sits at
    its lowest grid value: a link's slack is its limit less the prefix's
    load and the corner's. The bound is the smaller of two:

    - per source: each free source at its best grid value whose extra
      load fits the slack of every link it crosses;
    - meet in the middle, for each link that two or more free sources
      cross, keeping only that link's constraint: its free sources are
      split in two halves and each half's (extra load, utility) sums are
      formed. The second half becomes a table of its best utility within
      each load; each entry of the first half's Pareto front (utility
      strictly rising with load) looks up the rest of the slack in it.
      Free sources off the link take their per-source value.

    Grids ascend, so every feasible point passes each test. The sums
    here run in another order than the scan's, so every slack is raised
    by BUDGET_PAD Kbps and the bound by a relative BOUND_PAD (utilities
    are positive): a block is skipped only when it is strictly worse.

    With one free source no link has two, so the bound is the
    per-source one and nothing else is built; with none free it is the
    prefix's utility wherever the prefix fits.
    """
    lows = [g[0] for g in grids]
    headroom = np.array([limit + BUDGET_PAD - sum((lows[b] for b in on), 0.0)
                         for on, limit in links])[:, None]
    if not grids:
        return lambda prefix_u, prefix_load: np.where(
            (headroom - prefix_load >= 0.0).all(axis=0), prefix_u, -np.inf) * (1.0 + BOUND_PAD)
    singles = [_best_within(g - lo, u) for g, lo, u in zip(grids, lows, utils)]
    crossed = [[l for l, (on, _) in enumerate(links) if b in on] for b in range(len(grids))]

    def per_source(slack):
        """Each free source's best utility within the slack of its links,
        and their sum (-inf where some slack is negative)."""
        per = np.empty((len(grids),) + slack.shape[1:])
        for b, (table, ls) in enumerate(zip(singles, crossed)):
            per[b] = _at_budget(table, slack[ls].min(axis=0))
        return per, np.where((slack >= 0.0).all(axis=0), per.sum(axis=0), -np.inf)

    if len(grids) == 1:
        return lambda prefix_u, prefix_load: (
            (prefix_u + per_source(headroom - prefix_load)[1]) * (1.0 + BOUND_PAD))

    def sums(on):
        """The (extra load, utility) sums over every grid point of the sources on"""
        return (sum(np.ix_(*(grids[b] - lows[b] for b in on))).ravel(),
                sum(np.ix_(*(utils[b] for b in on))).ravel())

    meets = []
    for l, (on, _) in enumerate(links):
        if len(on) >= 2:
            loads, best = _best_within(*sums(on[:len(on) // 2]))
            front = best[1:] > best[:-1]
            meets.append((l, loads[front], best[1:][front], _best_within(*sums(on[len(on) // 2:])),
                          [b for b in range(len(grids)) if b not in on]))

    def bound(prefix_u, prefix_load):
        slack = headroom - prefix_load
        per, total = per_source(slack)
        for l, loads, gains, table, off in meets:
            best = (_at_budget(table, slack[l][:, None] - loads) + gains).max(axis=1)
            total = np.minimum(total, best + per[off].sum(axis=0))
        return (prefix_u + total) * (1.0 + BOUND_PAD)

    return bound


def _scan_parts(net: Network, feas_tol):
    """The parts of the scan that depend on the network alone: per link,
    whether the first source crosses it, the tail axes it crosses (in
    source order) and the largest load it accepts; and, as 0/1 columns,
    which links the first and the second source cross."""
    tail_pos = {sid: b for b, sid in enumerate(net.source_ids[1:])}
    links = [(net.source_ids[0] in on, [tail_pos[sid] for sid in on if sid in tail_pos],
              cap + feas_tol)
             for on, cap in zip(net.sources_on_link, net.capacities)]
    first_on = np.array([[float(first)] for first, _, _ in links])
    second_on = np.array([[float(0 in on)] for _, on, _ in links])
    return links, first_on, second_on


def _best_on_grid(utilities, grids, parts, incumbent):
    """Scan one grid; returns ((best_x, best_u), scanned), carrying the
    incumbent forward; scanned counts the grid points of the chunks
    whose links were tested. ``parts`` is :func:`_scan_parts`'s.

    The first axis is scanned slice by slice. A slice is the grid of the
    remaining (tail) axes. If it fits in CHUNK_POINTS points, it is
    scanned whole as one chunk; otherwise it is scanned one row of its
    first axis (one value of the second source) at a time, each row in
    chunks of whole rows of its own first axis (sub-rows), as many as
    the buffers hold. The chunk buffers (:func:`_chunk_buffers`) are
    allocated once per pass, after the slice bounds, so that those
    bounds' temporaries are freed before the buffers fill. No array of
    the whole tail's shape is made. In each chunk, every link's tail
    load is summed from the sparse tail axes, cut to the chunk, and
    tested; the tests are ANDed into the chunk's mask; a chunk with no
    feasible point is skipped before any utility is summed. Otherwise
    the tail utilities are summed in the same way, U0(x0) is added,
    infeasible points are set to -inf and the argmax is taken, which is
    the chunk's first best point (C order).

    Every tail sum starts from a 0-d zero and runs in source order, so a
    link that no tail source crosses gives a 0-d load and a single
    source gives one 0-d chunk with an empty tail index. A point's
    utility is U0 + ((U1 + U2) + ...), the scan's own sum: ties, and
    "first best point", are decided under that sum, which can differ by
    an ulp from :func:`total_utility`'s left-to-right order.
    ``build_network`` guarantees S >= 1, L >= 1 and a link on every
    route, so the links' masks together span every tail axis.

    Bounds (:func:`_tail_bound`): slice x0 gets U0(x0) plus the bound on
    the tail sources with the first fixed at x0; in a slice scanned by
    rows, row x1 gets U0(x0) + U1(x1) plus the bound on the sources
    after the second with both fixed. No feasible point of a slice or
    row exceeds its bound.

    The scan keeps one running best: a utility and the flat index of
    its point in this pass's grid (C order). An incumbent carried in
    from an earlier pass enters with index -1. Each chunk offers its
    first best feasible point, which replaces the best if its utility is
    larger, or equal with a smaller index. Slices, and the rows of a
    slice scanned by rows, are visited in descending bound, ties by
    index, up to the first bound that is -inf or below the best's
    utility. The result is that of scanning every point in lexicographic
    order: the first best point under the scan's sum, or the incoming
    incumbent if none beats it.
    """
    links, first_on, second_on = parts
    grid_shape = tuple(len(g) for g in grids)
    tail_shape = grid_shape[1:]
    total, row, sub = (math.prod(tail_shape[k:]) for k in range(3))
    n_sub = math.prod(tail_shape[1:2])  # sub-rows per row
    axes = np.meshgrid(*grids[1:], indexing="ij", sparse=True)
    zero = np.zeros(())
    grid_u = [eval_scurve(u, g) for u, g in zip(utilities, grids)]
    tail_u = [v.reshape(ax.shape) for v, ax in zip(grid_u[1:], axes)]

    def free_bound(p):
        """The bound with the first p sources fixed (tail axis b is
        source b + 1, so free position b + 1 - p)"""
        return _tail_bound(grids[p:], grid_u[p:], [([b + 1 - p for b in on if b + 1 >= p], limit)
                                                   for _, on, limit in links])

    slice_bound = free_bound(1)(grid_u[0], first_on * grids[0])
    row_bound = free_bound(2) if total > CHUNK_POINTS else None
    load, feas, spare = _chunk_buffers(tail_shape)
    best_u = -np.inf if incumbent[1] is None else incumbent[1]
    best_k, scanned = -1, 0

    def cut(arrays, lead):
        """The sparse tail arrays, each of the first len(lead) cut along
        its own axis to its slice in lead."""
        return [a[(slice(None),) * k + (lead[k],)] if k < len(lead) else a
                for k, a in enumerate(arrays)]

    def chunk(i, lead):
        """One chunk of slice i, whose leading tail axes are cut to the
        slices in lead: offers its first best feasible point to the
        running best."""
        nonlocal scanned, best_u, best_k
        x0 = grids[0][i]
        chunk_axes = cut(axes, lead)
        shape = np.broadcast(zero, *chunk_axes).shape
        scanned += math.prod(shape)
        mask = None
        for first, on, limit in links:
            link_load = _sum_into([chunk_axes[b] for b in on], zero, load)
            if first:
                np.add(link_load, x0, out=link_load)
            # a test or AND of the chunk's shape goes into feas, or into
            # spare while feas holds the mask; smaller ones (links that
            # cross few tail sources) are small temporaries, ANDed
            # before they broadcast
            full = mask is not None and mask.shape == shape
            test = np.less_equal(link_load, limit, out=_front(spare if full else feas, shape)
                                 if link_load.shape == shape else None)
            if mask is None:
                mask = test
            else:
                both = np.broadcast(mask, test).shape
                mask = np.logical_and(mask, test, out=_front(feas, shape) if both == shape else None)
        if not mask.any():
            return
        u_here = _sum_into(cut(tail_u, lead), zero, load)
        np.add(u_here, grid_u[0][i], out=u_here)
        np.copyto(u_here, -np.inf, where=np.logical_not(mask, out=_front(spare, shape)))
        flat = int(np.argmax(u_here))
        u = float(u_here.flat[flat])
        k = i * total + sum(s.start * n for s, n in zip(lead, (row, sub))) + flat
        if u > best_u or u == best_u and k < best_k:
            best_u, best_k = u, k

    def visit(bounds):
        """The indices of bounds in descending bound order, ties by
        index, up to the first bound that is -inf or below the best's
        utility."""
        for k in np.argsort(-bounds, kind="stable"):
            if bounds[k] == -np.inf or bounds[k] < best_u:
                return
            yield k

    step = load.size // sub  # sub-rows per chunk; a buffer holds one at least
    for i in visit(slice_bound):
        if row_bound is None:
            chunk(i, [])  # the whole slice
            continue
        for r in visit(row_bound(grid_u[0][i] + grid_u[1], first_on * grids[0][i] + second_on * grids[1])):
            for c in range(0, n_sub, step):
                chunk(i, [slice(r, r + 1), slice(c, c + step)])
    if best_k < 0:
        return incumbent, scanned
    return (np.array([g[k] for g, k in zip(grids, np.unravel_index(best_k, grid_shape))]), best_u), scanned


def grid_search(net: Network, utilities, spec: GridSpec | None = None) -> OracleResult:
    """Exhaustive refined grid search over the boxed feasible set.

    Enumerates Π[m_s, M_s] at points_per_dim nodes per source, keeps the
    best feasible point, then re-grids successively smaller boxes around
    it. One tie rule holds throughout: of points with equal utility
    under the scan's sum U0 + ((U1 + U2) + ...), the first in
    lexicographic order wins, and the incumbent of an earlier pass comes
    before every point of a refinement pass. That sum is also the
    ``utility`` returned and can differ by an ulp from
    :func:`total_utility`.

    Each pass visits the first source's grid values in descending order
    of a slice bound and skips the slices whose bound is below the best
    so far. A slice larger than CHUNK_POINTS points is scanned one row
    (the second source's value) at a time, in descending order of a row
    bound, and its rows whose bound is below the best so far are
    skipped. The bound (``_tail_bound``) is the smaller of two
    upper bounds on the remaining sources' utility: each source at its
    best rate that fits with the others at their lowest, and, for each
    link that two or more of them cross, a meet-in-the-middle maximum
    under that link's capacity alone. It is padded (BUDGET_PAD Kbps on
    each link, a relative BOUND_PAD on the utility) so that rounding
    never skips a point that could tie. See ``_best_on_grid`` for the
    visit order and the tie rule.

    ``evaluations`` still counts points_per_dim**S points per pass: each
    point is certified either by the scan or by a bound. ``scanned``
    counts the points the scan tested, in chunks of at most about
    CHUNK_POINTS points (a whole slice, a row, or whole sub-rows of a
    row); no array of points_per_dim**(S-1) entries is made.

    Raises
    ------
    BudgetExceededError
        If there are more than five sources or a pass would exceed
        max_evals_per_pass evaluations.
    NoFeasiblePointError
        If the full-box pass finds no feasible grid point.
    """
    if spec is None:
        spec = GridSpec()
    S = net.n_sources
    if len(utilities) != S:
        raise ValueError(f"{len(utilities)} utilities for {S} sources")
    if S > MAX_SOURCES:
        raise BudgetExceededError(f"{S} sources exceed the {MAX_SOURCES}-source grid cap")
    if spec.points_per_dim ** S > spec.max_evals_per_pass:
        raise BudgetExceededError(
            f"{spec.points_per_dim}^{S} points exceed max_evals_per_pass={spec.max_evals_per_pass}"
        )

    n = spec.points_per_dim
    lows = np.array([u.m for u in utilities])
    highs = np.array([u.big_m for u in utilities])
    widths = highs - lows

    parts = _scan_parts(net, spec.feas_tol)
    best = (None, None)
    evals = scanned = 0
    for p in range(spec.refinement_passes + 1):
        grids = [np.linspace(lows[j], highs[j], n) for j in range(S)]
        best, visited = _best_on_grid(utilities, grids, parts, best)
        evals += n ** S
        scanned += visited
        if best[1] is None:
            raise NoFeasiblePointError("no feasible grid point (is capacity below total minimum rate?)")
        widths = widths / 4.0
        lows = np.array([min(max(u.m, bx - w / 2.0), u.big_m - w)
                         for u, bx, w in zip(utilities, best[0], widths)])
        highs = lows + widths

    x_best = best[0]
    bounds = [(u.m, u.big_m) for u in utilities]
    feasible = bool(is_feasible(net, x_best, bounds, spec.feas_tol))
    resolution = float(np.max(widths * 4.0 / (n - 1)))
    return OracleResult(x=x_best, utility=float(best[1]), feasible=feasible,
                        resolution=resolution, evaluations=evals, scanned=scanned)


def local_opt_test(net: Network, utilities, x_star, radius: float = 2.0,
                   samples: int = 1000, seed: int | None = None,
                   feas_tol: float = 1e-6, improvement_tol: float = 1e-9) -> LocalOptReport:
    """Sampled local-optimality check at a candidate allocation.

    Draws uniform perturbations within +-radius Kbps per source, clips
    to the rate windows, discards infeasible points, and reports whether
    any survivor improves aggregate utility by more than improvement_tol.

    All samples are drawn by one ``rng.uniform`` call of shape
    (samples, S), which is the stream of one call per sample. Rate
    windows and link loads are checked, and utilities summed, one source
    column at a time in ascending source id order from 0.0: the order in
    which ``is_feasible``'s link sums add each link's rates, and in
    which ``total_utility`` adds the utilities. So the report equals a
    sample-by-sample loop's. The best point is the first sample with
    the largest positive gain.

    A report passes only if some sample is feasible and none improves
    by more than improvement_tol: without a feasible sample there is no
    evidence, and the report fails.

    Raises
    ------
    ValueError
        Naming the argument, unless samples is an integer >= 1, seed None
        or an integer >= 0, radius a finite real > 0 and each tolerance a
        finite real >= 0 (see ``utility.finite_real``).
    InfeasibleCandidateError
        If x_star itself is infeasible at feas_tol.
    """
    samples = integer("samples", samples, ge=1)
    radius = finite_real("radius", radius, gt=0.0)
    feas_tol = finite_real("feas_tol", feas_tol, ge=0.0)
    improvement_tol = finite_real("improvement_tol", improvement_tol, ge=0.0)
    seed = perturbation_seed() if seed is None else integer("seed", seed, ge=0)
    x_star = np.asarray(x_star, dtype=float)
    bounds = [(u.m, u.big_m) for u in utilities]
    rep = is_feasible(net, x_star, bounds, feas_tol)
    if not rep.ok:
        raise InfeasibleCandidateError(f"candidate infeasible: {rep.violations}")

    rng = np.random.default_rng(seed)
    base_u = total_utility(utilities, x_star)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    cand = np.clip(x_star + rng.uniform(-radius, radius, size=(samples, x_star.size)), lo, hi)
    cols = np.ascontiguousarray(cand.T)  # one row of samples per source
    ok = ((cols >= lo[:, None] - feas_tol) & (cols <= hi[:, None] + feas_tol)).all(axis=0)
    for on, cap in zip(net.sources_on_link, net.capacities):
        ok &= sum((cols[net.source_index[sid]] for sid in on), 0.0) <= cap + feas_tol
    gains = sum((eval_scurve(u, c) for u, c in zip(utilities, cols)), 0.0) - base_u
    feasible = np.flatnonzero(ok)
    best_gain, best_point = 0.0, None
    if feasible.size:
        k = feasible[np.argmax(gains[feasible])]
        if gains[k] > 0.0:
            best_gain, best_point = float(gains[k]), cand[k].copy()
    return LocalOptReport(passed=bool(feasible.size) and best_gain <= improvement_tol,
                          samples_feasible=int(feasible.size),
                          best_gain=best_gain, best_point=best_point)


def fd_gradient_check(fn, point, step: float = 1e-6, bounds=None) -> float:
    """Compare an analytic gradient against central differences.

    ``fn(x)`` must return (value, gradient) at a point x (1-D array).
    Returns max over coordinates of |analytic - fd| / (|analytic| + 1e-15).
    A NaN anywhere (the value at x, a gradient component or a
    difference quotient) makes the result NaN, which no tolerance
    accepts.

    Raises
    ------
    ValueError
        Unless step is a finite real > 0 (see ``utility.finite_real``).
    DomainBoundaryError
        If ``bounds=(lo, hi)`` is given and any stencil point x +- step*e_i
        is not inside [lo, hi] (a NaN bound or coordinate is not).
    """
    step = finite_real("step", step, gt=0.0)
    x = np.asarray(point, dtype=float)
    value, grad = fn(x)
    grad = np.asarray(grad, dtype=float)
    if bounds is not None:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        # written so that a NaN bound or coordinate fails it
        if not (np.all(x - step >= lo) and np.all(x + step <= hi)):
            raise DomainBoundaryError(
                f"stencil of half-width {step} leaves the domain at {x}"
            )
    worst = math.nan if math.isnan(value) else 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp, _ = fn(x + e)
        fm, _ = fn(x - e)
        fd = (fp - fm) / (2.0 * step)
        rel = abs(grad[i] - fd) / (abs(grad[i]) + 1e-15)
        # np.maximum keeps a NaN where max() would drop it
        worst = float(np.maximum(worst, rel))
    return worst
