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
import numbers
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

# points per scan chunk (see _chunk_buffers): 2**17 float64 values are
# 1 MiB, a quarter of a 4 MiB L2 cache. On chain-3 (2 vCPU Xeon, numpy
# 2.4) a grid_search took 3.9 ms with it, against 4.1 ms at 2**16 and
# 2**18 points and 4.9 ms at 2**15; one-row chunks of 4096 points were
# slower than no chunks at all
CHUNK_POINTS = 2 ** 17


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

    The counts must be integers (not bools), points_per_dim >= 2,
    refinement_passes >= 0 and max_evals_per_pass >= 1; feas_tol must be
    finite and >= 0. Anything else raises ValueError. The counts are
    stored as Python ints.
    """

    points_per_dim: int = 64
    refinement_passes: int = 2
    feas_tol: float = 1e-6
    max_evals_per_pass: int = 2 ** 30

    def __post_init__(self):
        for name, least in (("points_per_dim", 2), ("refinement_passes", 0),
                            ("max_evals_per_pass", 1)):
            v = getattr(self, name)
            # linspace and range need integers; a bool is not a count
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise ValueError(f"{name} must be >= {least}, got {v}")
            # a numpy integer would wrap in points_per_dim ** S
            object.__setattr__(self, name, int(v))
        # written so that a NaN fails it
        if not 0.0 <= self.feas_tol < math.inf:
            raise ValueError(f"feas_tol must be finite and >= 0, got {self.feas_tol!r}")


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
    the first) has shape tail_shape: room for the whole rows of the
    first tail axis that fit in CHUNK_POINTS points, and for at least
    one row. One float array holds a chunk's loads and then its
    utilities; two bool arrays hold its feasibility mask and one link's
    test, then the mask's complement."""
    row = math.prod(tail_shape[1:])
    size = min(math.prod(tail_shape[:1]), max(1, CHUNK_POINTS // row)) * row
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size, dtype=bool)


def _best_on_grid(net: Network, utilities, grids, feas_tol, incumbent, buffers):
    """Scan one grid; returns (best_x, best_u) carrying the incumbent forward.

    The first axis is scanned slice by slice. A slice is the grid of the
    remaining (tail) axes, which is scanned in chunks of whole rows of
    its first axis, as many as ``buffers`` (from :func:`_chunk_buffers`,
    allocated once per :func:`grid_search` call) has room for. No array
    of the whole tail's shape is made. In each chunk, every link's tail
    load is summed from the sparse tail axes, sliced to the chunk's
    rows, and tested; the tests are ANDed into the chunk's mask; a chunk
    with no feasible point is skipped before any utility is summed.
    Otherwise the tail utilities are summed in the same way, U0(x0) is
    added, infeasible points are set to -inf and the argmax is taken. A
    later chunk replaces the slice's candidate only if it is strictly
    larger, so each slice yields its first-found argmax (C order).

    Every tail sum starts from a 0-d zero and runs in source order, so a
    link that no tail source crosses gives a 0-d load and a single
    source gives one 0-d chunk with an empty tail index. A point's
    utility is U0 + ((U1 + U2) + ...), the scan's own sum: ties, and
    "first best point", are decided under that sum, which can differ by
    an ulp from :func:`total_utility`'s left-to-right order.
    ``build_network`` guarantees S >= 1, L >= 1 and a link on every
    route, so the links' masks together span every tail axis.

    Bound: slice x0 gets U0(x0) + sum_j max U_j, where the max for tail
    source j runs over its grid values that pass every link test while
    the other tail sources sit at their lowest grid value (-inf if none
    passes). Each link's load on those lines is read from the sparse
    tail axes, and the bound is summed in the scan's order. Grids ascend
    and float addition is monotone, so every feasible point of the slice
    passes those tests and none exceeds the bound.

    Visit order: slices in descending bound, ties by slice index; the
    scan stops at the first bound below the incumbent, or at -inf.

    Tie rule: a slice's candidate replaces the incumbent if it is
    larger, or if it is equal and the incumbent came from a later slice
    of this pass; an incoming incumbent is kept on a tie. The result is
    that of scanning every slice in index order: the first best point in
    lexicographic order under the scan's sum, or the incoming incumbent
    if none beats it.
    """
    load, feas, spare = buffers
    tail_grids = grids[1:]
    tail_shape = tuple(len(g) for g in tail_grids)
    row = math.prod(tail_shape[1:])
    n_rows = math.prod(tail_shape[:1])
    step = load.size // row
    axes = np.meshgrid(*tail_grids, indexing="ij", sparse=True)
    zero = np.zeros(())
    tail_pos = {sid: b for b, sid in enumerate(net.source_ids[1:])}
    # per link: whether source 1 crosses it, the tail axes it crosses (in
    # source order) and the largest load it accepts
    links = [(net.source_ids[0] in on, [tail_pos[sid] for sid in on if sid in tail_pos],
              cap + feas_tol)
             for on, cap in zip(net.sources_on_link, net.capacities)]

    def line_fits(x0, a):
        """Whether every link holds with the first source at x0, tail
        source a on its grid and the other tail sources at their lowest
        grid value (a=None: every tail source at its lowest)."""
        mask = True
        for first, on, limit in links:
            tail = sum((tail_grids[b] if b == a else tail_grids[b][0] for b in on), zero)
            mask = np.logical_and(mask, (x0 + tail if first else tail) <= limit)
        return mask

    # slice bounds; the corner (every tail source at its lowest) must fit
    first_u = eval_scurve(utilities[0], grids[0])
    tail_u = [eval_scurve(u, g).reshape(ax.shape) for u, g, ax in zip(utilities[1:], tail_grids, axes)]
    tail_max = [np.where(line_fits(grids[0][:, None], a), v.reshape(-1), -np.inf).max(axis=-1)
                for a, v in enumerate(tail_u)]
    bound = np.where(line_fits(grids[0], None), first_u + sum(tail_max, zero), -np.inf)

    def rows(arrays, r):
        """The sparse tail arrays sliced to rows r, r+1, ... of a chunk."""
        return [*(a[r:r + step] for a in arrays[:1]), *arrays[1:]]

    best_x, best_u = incumbent
    best_i = -1  # slice of this pass that holds the incumbent; -1 keeps an incoming one on ties
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] == -np.inf or best_u is not None and bound[i] < best_u:
            break
        x0 = grids[0][i]
        cand_u, cand_k = None, 0  # the slice's best utility and its flat tail index
        for r in range(0, n_rows, step):
            chunk_axes = rows(axes, r)
            shape = np.broadcast(zero, *chunk_axes).shape
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
                continue
            u_here = _sum_into(rows(tail_u, r), zero, load)
            np.add(u_here, first_u[i], out=u_here)
            np.copyto(u_here, -np.inf, where=np.logical_not(mask, out=_front(spare, shape)))
            flat = int(np.argmax(u_here))
            u = float(u_here.flat[flat])
            if cand_u is None or u > cand_u:
                cand_u, cand_k = u, r * row + flat
        if cand_u is None:
            continue
        if best_u is None or cand_u > best_u or cand_u == best_u and i < best_i:
            idx = np.unravel_index(cand_k, tail_shape)
            best_x = np.array([x0, *(g[k] for g, k in zip(tail_grids, idx))])
            best_u, best_i = cand_u, i
    return best_x, best_u


def grid_search(net: Network, utilities, spec: GridSpec | None = None) -> OracleResult:
    """Exhaustive refined grid search over the boxed feasible set.

    Enumerates Π[m_s, M_s] at points_per_dim nodes per source, keeps the
    best feasible point, then re-grids successively smaller boxes around
    it. Ties break toward the lexicographically smallest rate vector
    under the scan's sum U0 + ((U1 + U2) + ...), which is also the
    ``utility`` returned and can differ by an ulp from
    :func:`total_utility`; a refinement pass keeps the incumbent unless
    it finds a strictly better point.

    Each pass visits the first source's grid values in descending order
    of a slice bound (the first source's utility plus each other
    source's best utility on its own, with the others at their lowest
    rate) and skips the slices whose bound is below the incumbent; see
    ``_best_on_grid`` for the bound, the visit order and the tie rule.
    ``evaluations`` still counts points_per_dim**S points per pass: each
    point is certified either by the scan or by its slice's bound.

    A slice is scanned in chunks of whole rows of the second source's
    axis, about CHUNK_POINTS points each, whose buffers are allocated
    once per call; no array of points_per_dim**(S-1) entries is made.

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

    buffers = _chunk_buffers((n,) * (S - 1))
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

    A report passes only if some sample is feasible and none improves
    by more than improvement_tol: without a feasible sample there is no
    evidence, and the report fails.

    Raises
    ------
    ValueError
        If samples is not an integer >= 1 (a bool is not a count), radius
        is not finite and > 0, or a tolerance is not finite and >= 0.
    InfeasibleCandidateError
        If x_star itself is infeasible at feas_tol.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    # each test is written so that a NaN fails it
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    for name, tol in (("feas_tol", feas_tol), ("improvement_tol", improvement_tol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
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
    return LocalOptReport(passed=bool(feasible.size) and best_gain <= improvement_tol,
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
