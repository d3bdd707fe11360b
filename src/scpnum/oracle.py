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

# most points per scan chunk: 2**14 float64 values are 128 KiB, glibc's
# default mmap threshold, so a chunk's temporaries come from the heap and
# not from fresh mmapped pages. On a 2 vCPU Xeon (numpy 2.4), 65536-point
# chunks (GridSpec(16, 3) on paper-scenario-1) made 1408 minor page
# faults per grid_search and took 5.9 ms, against none and 1.9 ms with
# the deeper descent that 2**14 gives; 4096-point chunks were no faster
CHUNK_POINTS = 2 ** 14

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
    """Candidate point violates constraints beyond tolerance;
    ``violations`` holds the violated constraints, as
    :class:`~scpnum.network.Violation` records."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


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

    With one free source no link has two, so the bound is the per-source
    one; with none free it is the prefix's utility plus 0.0 wherever the
    prefix fits.
    """
    lows = [g[0] for g in grids]
    headroom = np.array([limit + BUDGET_PAD - sum((lows[b] for b in on), 0.0)
                         for on, limit in links])[:, None]
    singles = [_best_within(g - lo, u) for g, lo, u in zip(grids, lows, utils)]
    crossed = [[l for l, (on, _) in enumerate(links) if b in on] for b in range(len(grids))]

    def per_source(slack):
        """Each free source's best utility within the slack of its links,
        and their sum (-inf where some slack is negative)."""
        per = np.empty((len(grids),) + slack.shape[1:])
        for b, (table, ls) in enumerate(zip(singles, crossed)):
            per[b] = _at_budget(table, slack[ls].min(axis=0))
        return per, np.where((slack >= 0.0).all(axis=0), per.sum(axis=0), -np.inf)

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
    the positions of the sources that cross it (ascending) and the
    largest load it accepts; and per source, a 0/1 column of the links
    it crosses."""
    links = [([net.source_index[sid] for sid in on], cap + feas_tol)
             for on, cap in zip(net.sources_on_link, net.capacities)]
    on = np.array([[[float(j in srcs)] for srcs, _ in links] for j in range(net.n_sources)])
    return links, on


def _best_on_grid(utilities, grids, parts, incumbent):
    """Scan one grid; returns ((best_x, best_u), scanned), carrying the
    incumbent forward; scanned counts the grid points of the chunks
    whose links were tested. ``parts`` is :func:`_scan_parts`'s.

    The scan is one descent that fixes the sources in order. Its depth is
    the least d >= 1 such that the grid of the sources after the first d
    has at most CHUNK_POINTS points. At each level p < d, source p's grid
    values get the prefix's utility plus the bound (:func:`_tail_bound`)
    on the sources after p, with sources 0 to p fixed; no feasible point
    under a value exceeds its bound. The values are visited in
    descending bound, ties by index, up to the first bound that is -inf
    or below the running best's utility. Below level d - 1, the grid of
    the remaining sources (a chunk) is tested whole, with plain numpy
    temporaries of at most CHUNK_POINTS points each.

    In a chunk, each link's load is summed from the fixed sources' values
    and the chunk's sparse axes and tested; a chunk with no feasible point
    is skipped before any utility is summed. Otherwise the utilities are
    summed in the same way, infeasible points are set to -inf and the
    argmax is taken, which is the chunk's first best point (C order).
    Every sum starts from a 0-d zero, adds the terms of sources 1 to S-1
    in source order, and then x0 or U0(x0). A point's utility is thus
    U0 + ((U1 + U2) + ...), the scan's own sum: ties, and "first best
    point", are decided under that sum, which can differ by an ulp from
    :func:`total_utility`'s left-to-right order. ``build_network``
    guarantees S >= 1, L >= 1 and a link on every route, so the links'
    tests together span every axis of the chunk.

    The scan keeps one running best: a utility and the flat index of
    its point in this pass's grid (C order). An incumbent carried in
    from an earlier pass enters with index -1. Each chunk offers its
    first best feasible point, which replaces the best if its utility is
    larger, or equal with a smaller index. The result is that of
    scanning every point in lexicographic order: the first best point
    under the scan's sum, or the incoming incumbent if none beats it.
    """
    links, on = parts
    grid_shape = tuple(len(g) for g in grids)
    depth = next(d for d in range(1, len(grids) + 1) if math.prod(grid_shape[d:]) <= CHUNK_POINTS)
    size = math.prod(grid_shape[depth:])
    grid_u = [eval_scurve(u, g) for u, g in zip(utilities, grids)]
    axes = np.meshgrid(*grids[depth:], indexing="ij", sparse=True)
    axes_u = [v.reshape(ax.shape) for v, ax in zip(grid_u[depth:], axes)]
    # level p's bound: sources 0 to p fixed, source b > p free at b - p - 1
    bounds = [_tail_bound(grids[p + 1:], grid_u[p + 1:],
                          [([b - p - 1 for b in srcs if b > p], limit) for srcs, limit in links])
              for p in range(depth)]
    zero = np.zeros(())
    best_u = -np.inf if incumbent[1] is None else incumbent[1]
    best_k, scanned = -1, 0

    def visit(bound):
        """The indices of bound in descending bound order, ties by
        index, up to the first bound that is -inf or below the best's
        utility."""
        for i in np.argsort(-bound, kind="stable"):
            if bound[i] == -np.inf or bound[i] < best_u:
                return
            yield i

    def chunk(idx):
        """Tests the chunk under the fixed grid indices idx and offers its
        first best feasible point to the running best."""
        nonlocal scanned, best_u, best_k
        scanned += size
        xs = [g[i] for g, i in zip(grids, idx)] + list(axes)
        ok = True
        for srcs, limit in links:
            load = sum((xs[b] for b in srcs if b), zero)
            ok = ok & ((load + xs[0] if 0 in srcs else load) <= limit)
        if not np.any(ok):
            return
        us = [v[i] for v, i in zip(grid_u, idx)] + axes_u
        u_here = np.where(ok, sum(us[1:], zero) + us[0], -np.inf)
        flat = int(np.argmax(u_here))
        u = float(u_here.flat[flat])
        k = int(np.ravel_multi_index(idx, grid_shape[:depth])) * size + flat
        if u > best_u or u == best_u and k < best_k:
            best_u, best_k = u, k

    def descend(idx, prefix_u, prefix_load):
        """Visits source len(idx)'s grid values under the fixed indices idx,
        whose utility is prefix_u and whose load on each link prefix_load."""
        p = len(idx)
        us, loads = prefix_u + grid_u[p], prefix_load + on[p] * grids[p]
        for i in visit(bounds[p](us, loads)):
            if p + 1 == depth:
                chunk(idx + (i,))
            else:
                descend(idx + (i,), us[i], loads[:, i:i + 1])

    descend((), 0.0, np.zeros((len(links), 1)))
    # descend refers to itself, a reference cycle that would keep this
    # pass's bound tables alive until the garbage collector runs
    del descend
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

    Each pass is one descent that fixes the sources in order, visiting
    each source's grid values in descending order of a bound and skipping
    those whose bound is below the best so far, until the grid of the
    sources still free has at most CHUNK_POINTS points; that grid is
    tested whole. The bound (``_tail_bound``) is the smaller of two upper
    bounds on the free sources' utility: each source at its best rate
    that fits with the others at their lowest, and, for each link that
    two or more of them cross, a meet-in-the-middle maximum under that
    link's capacity alone. It is padded (BUDGET_PAD Kbps on each link, a
    relative BOUND_PAD on the utility) so that rounding never skips a
    point that could tie. See ``_best_on_grid`` for the visit order and
    the tie rule.

    ``evaluations`` still counts points_per_dim**S points per pass: each
    point is certified either by the scan or by a bound. ``scanned``
    counts the points the scan tested, in chunks of at most CHUNK_POINTS
    points.

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
        If there is not one utility per source. Naming the argument,
        unless x_star is a real array of shape (S,) (see
        ``utility.per_item``), samples an integer >= 1, seed None or an
        integer >= 0, radius a finite real > 0 and each tolerance a
        finite real >= 0 (see ``utility.finite_real``).
    InfeasibleCandidateError
        If x_star itself is infeasible at feas_tol.
    """
    if len(utilities) != net.n_sources:
        raise ValueError(f"{len(utilities)} utilities for {net.n_sources} sources")
    samples = integer("samples", samples, ge=1)
    radius = finite_real("radius", radius, gt=0.0)
    feas_tol = finite_real("feas_tol", feas_tol, ge=0.0)
    improvement_tol = finite_real("improvement_tol", improvement_tol, ge=0.0)
    seed = perturbation_seed() if seed is None else integer("seed", seed, ge=0)
    x_star = per_item("x_star", x_star, net.n_sources)
    bounds = [(u.m, u.big_m) for u in utilities]
    rep = is_feasible(net, x_star, bounds, feas_tol)
    if not rep.ok:
        raise InfeasibleCandidateError(f"candidate infeasible: {rep.violations}", rep.violations)

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
