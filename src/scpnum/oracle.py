"""Independent checks for allocation results.

Three tools, deliberately free of any engine machinery: an exhaustive
refined grid search over the original (non-convex) problem, a sampled
local-optimality test, and a central-difference gradient checker. The
grid search certifies "no better feasible point at the achieved
resolution", which is the strongest statement available without
convexity.
"""

from __future__ import annotations

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


def _best_on_grid(net: Network, utilities, grids, feas_tol, incumbent):
    """Scan one grid; returns (best_x, best_u) carrying the incumbent forward.

    The first axis is looped in Python and the remaining axes are
    broadcast, which keeps memory at points**(S-1) while the first-found
    argmax (C order) realizes the lexicographic tie-break. Every tail sum
    starts from a 0-d zero, so a link that no tail source crosses gives a
    0-d mask and a single source gives a 0-d utility with an empty tail
    index; ``build_network`` guarantees S >= 1 and L >= 1.
    """
    axes = np.meshgrid(*grids[1:], indexing="ij", sparse=True)
    zero = np.zeros(())
    util_tail = sum((eval_scurve(u, g).reshape(ax.shape)
                     for u, g, ax in zip(utilities[1:], grids[1:], axes)), zero)
    # per link: whether source 1 crosses it, the load of sources 2..S, the capacity
    link_tails = [(net.source_ids[0] in on,
                   sum((ax for sid, ax in zip(net.source_ids[1:], axes) if sid in on), zero),
                   cap)
                  for on, cap in zip(net.sources_on_link, net.capacities)]

    best_x, best_u = incumbent
    for x0 in grids[0]:
        u_here = eval_scurve(utilities[0], x0) + util_tail
        masks = ((x0 if first else 0.0) + tail <= cap + feas_tol for first, tail, cap in link_tails)
        feas = next(masks)
        for mask in masks:
            feas = feas & mask
        if not feas.any():
            continue
        u_here = np.where(feas, u_here, -np.inf)
        flat = int(np.argmax(u_here))
        cand_u = float(u_here.flat[flat])
        if best_u is None or cand_u > best_u:
            idx = np.unravel_index(flat, u_here.shape)
            best_x = np.array([x0, *(g[i] for g, i in zip(grids[1:], idx))])
            best_u = cand_u
    return best_x, best_u


def grid_search(net: Network, utilities, spec: GridSpec | None = None) -> OracleResult:
    """Exhaustive refined grid search over the boxed feasible set.

    Enumerates Π[m_s, M_s] at points_per_dim nodes per source, keeps the
    best feasible point, then re-grids successively smaller boxes around
    it. Ties break toward the lexicographically smallest rate vector.

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

    best = (None, None)
    evals = 0
    for p in range(spec.refinement_passes + 1):
        grids = [np.linspace(lows[j], highs[j], n) for j in range(S)]
        best = _best_on_grid(net, utilities, grids, spec.feas_tol, best)
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
    best_gain = 0.0
    best_point = None
    n_feasible = 0
    for _ in range(samples):
        cand = np.clip(x_star + rng.uniform(-radius, radius, size=x_star.shape), lo, hi)
        if not is_feasible(net, cand, bounds, feas_tol).ok:
            continue
        n_feasible += 1
        gain = total_utility(utilities, cand) - base_u
        if gain > best_gain:
            best_gain = gain
            best_point = cand
    return LocalOptReport(passed=best_gain <= improvement_tol,
                          samples_feasible=n_feasible,
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
