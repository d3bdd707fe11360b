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
from .utility import eval_scurve

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
    """

    points_per_dim: int = 64
    refinement_passes: int = 2
    feas_tol: float = 1e-6
    max_evals_per_pass: int = 2 ** 30

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError(f"points_per_dim must be >= 2, got {self.points_per_dim}")
        if self.refinement_passes < 0:
            raise ValueError(f"refinement_passes must be >= 0, got {self.refinement_passes}")


@dataclass(frozen=True)
class OracleResult:
    x: np.ndarray
    utility: float
    feasible: bool
    resolution: float
    evaluations: int


@dataclass(frozen=True)
class LocalOptReport:
    passed: bool
    samples_feasible: int
    best_gain: float
    best_point: np.ndarray | None

    def __bool__(self) -> bool:
        return self.passed


def total_utility(utilities, x) -> float:
    """Aggregate utility of a rate vector, ascending source order."""
    total = 0.0
    for j, u in enumerate(utilities):
        total += eval_scurve(u, float(x[j]))
    return total


def perturbation_seed() -> int:
    """Perturbation seed, honoring the SCPNUM_SEED environment variable."""
    raw = os.environ.get("SCPNUM_SEED")
    return int(raw) if raw else DEFAULT_PERTURBATION_SEED


def _front(buf, shape):
    """The first prod(shape) elements of the contiguous buffer buf, viewed
    with that shape: room for an array no larger than buf."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _best_on_grid(net: Network, utilities, grids, feas_tol, incumbent, buffers):
    """Scan one grid; returns (best_x, best_u) carrying the incumbent forward.

    The first axis is scanned slice by slice and the remaining axes are
    broadcast, which keeps memory at points**(S-1). ``buffers`` holds the
    scan's four arrays of that shape, which the caller allocates once
    for all its passes: the tail utility sum, one slice's utilities, the
    slice's feasibility mask and its complement. They are filled in
    place, so a pass and a slice create no array of that size.

    Every tail sum starts from a 0-d zero and runs in source order, so a
    link that no tail source crosses gives a 0-d load and a single
    source gives 0-d buffers with an empty tail index. ``build_network``
    guarantees S >= 1, L >= 1 and a link on every route, so the links'
    masks together span every tail axis. Within a slice the first-found
    argmax (C order) wins.

    Bound: slice x0 gets U0(x0) + sum_j max U_j, where the max for tail
    source j runs over its grid values that pass every link mask while
    the other tail sources sit at their lowest grid value (-inf if none
    passes). It is built from the scan's own arrays and summed in the
    scan's order. Grids ascend and float addition is monotone, so every
    feasible point of the slice passes those masks and none exceeds the
    bound.

    Visit order: slices in descending bound, ties by slice index; the
    scan stops at the first bound below the incumbent, or at -inf.

    Tie rule: a slice's candidate replaces the incumbent if it is
    larger, or if it is equal and the incumbent came from a later slice
    of this pass; an incoming incumbent is kept on a tie. The result is
    that of scanning every slice in index order: the lexicographically
    first best point, or the incoming incumbent if none beats it.
    """
    util_tail, u_here, feas, infeas = buffers
    axes = np.meshgrid(*grids[1:], indexing="ij", sparse=True)
    zero = np.zeros(())
    # per link: whether source 1 crosses it, the load of sources 2..S, the capacity
    link_tails = [(net.source_ids[0] in on,
                   sum((ax for sid, ax in zip(net.source_ids[1:], axes) if sid in on), zero),
                   cap)
                  for on, cap in zip(net.sources_on_link, net.capacities)]

    tail_shape = tuple(len(g) for g in grids[1:])

    def fits(x0, at=None, into=None):
        """Whether every link holds with the first source at x0 and the
        tail sources on the whole tail grid, or on its nodes ``at``.

        With ``into``, the whole grid's answer is written into that mask:
        the first link's test fills it and every other link's is ANDed
        in. Until then u_here and infeas are free, and their fronts hold
        one link's loads and test."""
        mask = None
        for first, tail, cap in link_tails:
            if at is not None:
                tail = np.broadcast_to(tail, tail_shape)[at]
            load_room = test_room = None
            if into is not None:
                load_room = _front(u_here, tail.shape)
                test_room = into if mask is None else _front(infeas, tail.shape)
            test = np.less_equal(np.add(x0 if first else 0.0, tail, out=load_room),
                                 cap + feas_tol, out=test_room)
            mask = test if mask is None else np.logical_and(mask, test, out=into)
        return mask

    def line(a):
        """Tail source a's nodes, every other tail source at its lowest."""
        return tuple(slice(None) if b == a else 0 for b in range(len(tail_shape)))

    # slice bounds; the corner (every tail source at its lowest) must fit
    first_u = [eval_scurve(utilities[0], x0) for x0 in grids[0]]
    tail_u = [eval_scurve(u, g) for u, g in zip(utilities[1:], grids[1:])]
    tail_max = [np.where(fits(grids[0][:, None], line(a)), v, -np.inf).max(axis=-1)
                for a, v in enumerate(tail_u)]
    bound = np.where(fits(grids[0], (0,) * len(tail_shape)),
                     np.array(first_u) + sum(tail_max, zero), -np.inf)

    # the tail utilities summed from zero in source order, the last
    # addition into util_tail (with one source, zero + zero)
    *head, last = [zero, *(v.reshape(ax.shape) for v, ax in zip(tail_u, axes))]
    np.add(sum(head, zero), last, out=util_tail)
    best_x, best_u = incumbent
    best_i = -1  # slice of this pass that holds the incumbent; -1 keeps an incoming one on ties
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] == -np.inf or best_u is not None and bound[i] < best_u:
            break
        x0 = grids[0][i]
        if not fits(x0, into=feas).any():
            continue
        np.add(first_u[i], util_tail, out=u_here)
        u_here[np.logical_not(feas, out=infeas)] = -np.inf
        flat = int(np.argmax(u_here))
        cand_u = float(u_here.flat[flat])
        if best_u is None or cand_u > best_u or cand_u == best_u and i < best_i:
            idx = np.unravel_index(flat, u_here.shape)
            best_x = np.array([x0, *(g[k] for g, k in zip(grids[1:], idx))])
            best_u, best_i = cand_u, i
    return best_x, best_u


def grid_search(net: Network, utilities, spec: GridSpec | None = None) -> OracleResult:
    """Exhaustive refined grid search over the boxed feasible set.

    Enumerates Π[m_s, M_s] at points_per_dim nodes per source, keeps the
    best feasible point, then re-grids successively smaller boxes around
    it. Ties break toward the lexicographically smallest rate vector,
    and a refinement pass keeps the incumbent unless it finds a strictly
    better point.

    Each pass visits the first source's grid values in descending order
    of a slice bound (the first source's utility plus each other
    source's best utility on its own, with the others at their lowest
    rate) and skips the slices whose bound is below the incumbent; see
    ``_best_on_grid`` for the bound, the visit order and the tie rule.
    ``evaluations`` still counts points_per_dim**S points per pass: each
    point is certified either by the scan or by its slice's bound.

    The scan's four arrays of points_per_dim**(S-1) entries are
    allocated once per call, and every pass and slice fills them in
    place.

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

    tail = (n,) * (S - 1)
    buffers = (np.empty(tail), np.empty(tail), np.empty(tail, dtype=bool),
               np.empty(tail, dtype=bool))
    best = (None, None)
    evals = 0
    for p in range(spec.refinement_passes + 1):
        grids = [np.linspace(lows[j], highs[j], n) for j in range(S)]
        best = _best_on_grid(net, utilities, grids, spec.feas_tol, best, buffers)
        evals += n ** S
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
                        resolution=resolution, evaluations=evals)


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
    column at a time in ascending source id order, the order of
    ``is_feasible`` and ``total_utility``, so the report equals a
    sample-by-sample loop's. The best point is the first sample with
    the largest positive gain.

    Raises
    ------
    InfeasibleCandidateError
        If x_star itself is infeasible at feas_tol.
    """
    x_star = np.asarray(x_star, dtype=float)
    bounds = [(u.m, u.big_m) for u in utilities]
    rep = is_feasible(net, x_star, bounds, feas_tol)
    if not rep.ok:
        raise InfeasibleCandidateError(f"candidate infeasible: {rep.violations}")

    rng = np.random.default_rng(perturbation_seed() if seed is None else seed)
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
    return LocalOptReport(passed=best_gain <= improvement_tol,
                          samples_feasible=int(feasible.size),
                          best_gain=best_gain, best_point=best_point)


def fd_gradient_check(fn, point, step: float = 1e-6, bounds=None) -> float:
    """Compare an analytic gradient against central differences.

    ``fn(x)`` must return (value, gradient) at a point x (1-D array).
    Returns max over coordinates of |analytic - fd| / (|analytic| + 1e-15).

    Raises
    ------
    DomainBoundaryError
        If ``bounds=(lo, hi)`` is given and any stencil point x +- step*e_i
        leaves [lo, hi].
    """
    x = np.asarray(point, dtype=float)
    _, grad = fn(x)
    grad = np.asarray(grad, dtype=float)
    if bounds is not None:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if np.any(x - step < lo) or np.any(x + step > hi):
            raise DomainBoundaryError(
                f"stencil of half-width {step} leaves the domain at {x}"
            )
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp, _ = fn(x + e)
        fm, _ = fn(x - e)
        fd = (fp - fm) / (2.0 * step)
        rel = abs(grad[i] - fd) / (abs(grad[i]) + 1e-15)
        worst = max(worst, rel)
    return worst
