"""Successive-convexification rate allocation with dual link pricing.

The allocation problem (maximize total S-curve utility subject to link
capacities and per-source rate windows) is non-concave. After the
transform in :mod:`scpnum.utility` the objective is concave but each
capacity constraint gains a concave left side. Each iteration therefore
(a) replaces every capacity function with its tangent at the previous
iterate, which over-estimates the true load and so shrinks the feasible
set from the inside, and (b) solves the resulting concave problem by one
projected-gradient step on the link prices followed by the closed-form
per-source rate maximizer.

All per-source and per-link arithmetic is one set of numpy array
kernels over a :class:`Model`: a CSR incidence list sorted by link, then
by ascending source id, plus per-source constants computed once per
solve. Loads and path prices are summed with ``np.bincount(weights=...)``,
which adds strictly left to right; ``np.sum`` reorders the additions of
slices of 8 or more elements and is never used for them. With every
operand a 1-d array (numpy takes other paths for 0-d operands and some
scalar exponents), the kernels give identical bits on a length-1 slice
and on the full array.

:func:`solve` and :func:`scpnum.agents.run_to_convergence` are two
schedulers over one driver loop, :func:`iterate`, which owns the initial
state, the stopping test, the trace and the result. The engine steps all
sources at once, the agents run one message round in which each link
and source is its own segment of the incidence list, and the two traces
are bitwise-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .network import Network
from .utility import SCurveUtility

__all__ = [
    "SolverConfig",
    "IterateState",
    "TraceRecord",
    "AllocationResult",
    "KKTResidual",
    "g_true",
    "g_hat",
    "update_prices",
    "update_rates",
    "path_prices",
    "solve",
    "polish",
    "kkt_residual",
    "steady_state_check",
    "g_true_term",
    "g_hat_term",
    "price_step",
    "rate_step",
    "NonPositiveExpansionPointError",
]


# path prices below this saturate the rate at its upper bound
RHO_FLOOR = 1e-12


class NonPositiveExpansionPointError(ValueError):
    """Tangent expansion point must be strictly positive."""


def _finite(name: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters; every number must be finite.

    gamma
        Price step size, > 0.
    epsilon
        Stopping tolerance on max per-source rate change, Kbps.
    max_iter
        Iteration cap.
    mu0
        Initial link price, scalar or per-link sequence, >= 0.
    x0
        Per-source initial rates in Kbps, each inside its rate window;
        None starts every source at the midpoint (m + M)/2.
    price_lag
        'fresh' lets the rate step see the prices just produced by the
        price step; 'lagged' uses the prices from the previous
        iteration. Both settings share fixed points.
    feas_tol
        Feasibility slack in Kbps, >= 0, used by the steady-state test
        and for reporting.

    The path-price floor below which a rate saturates at its upper
    bound is the module constant ``RHO_FLOOR``, not a setting.
    """

    gamma: float = 1e-4
    epsilon: float = 0.1
    max_iter: int = 10000
    mu0: float | tuple[float, ...] = 1.0
    x0: tuple[float, ...] | None = None
    price_lag: str = "fresh"
    feas_tol: float = 0.5

    def __post_init__(self):
        for name in ("gamma", "epsilon", "feas_tol"):
            _finite(name, (getattr(self, name),))
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.feas_tol < 0.0:
            raise ValueError(f"feas_tol must be >= 0, got {self.feas_tol}")
        mu0 = self.mu0 if isinstance(self.mu0, (int, float)) else tuple(float(v) for v in self.mu0)
        object.__setattr__(self, "mu0", mu0)
        _finite("mu0", np.atleast_1d(mu0))
        # zero is allowed: warm restarts carry mu=0 on inactive links
        if np.any(np.asarray(mu0) < 0.0):
            raise ValueError("mu0 must be >= 0")
        if self.x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
            _finite("x0", self.x0)
        if self.price_lag not in ("fresh", "lagged"):
            raise ValueError(f"unknown price_lag {self.price_lag!r}")


@dataclass
class IterateState:
    """One iterate of the price/rate loop. Arrays align with the
    network's ascending source and link id orders; rho holds the path
    prices the rate step that produced x actually saw."""

    t: int
    x_tilde: np.ndarray
    x_tilde_prev: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class TraceRecord:
    """State after one iteration; metric is NaN on the t=0 row."""

    t: int
    x: np.ndarray
    x_tilde: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    metric: float
    g: np.ndarray
    g_hat: np.ndarray


@dataclass(frozen=True)
class AllocationResult:
    converged: bool
    iterations: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_tilde_prev: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    trace: tuple[TraceRecord, ...] = field(repr=False)


# ---------------------------------------------------------------------------
# array kernels, shared with scpnum.agents

class Curves(NamedTuple):
    """Per-source constants of the kernels, one array per field, aligned
    with ascending source id: the curve parameters, the load exponent
    p = 1/c2, the transformed window [lo, hi] and
    log_k = log(c1*c2 / (r*(1 - exp(-c1))))."""

    r: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    p: np.ndarray
    m: np.ndarray
    big_m: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    log_k: np.ndarray

    @classmethod
    def of(cls, utilities) -> "Curves":
        r, c1, c2, m, big_m = (np.array([getattr(u, f) for u in utilities], dtype=float)
                               for f in ("r", "c1", "c2", "m", "big_m"))
        log_k = np.log(c1 * c2 / (r * -np.expm1(-c1)))
        return cls(r, c1, c2, 1.0 / c2, m, big_m, transformed(r, c2, m),
                   transformed(r, c2, big_m), log_k)

    def at(self, j: int) -> "Curves":
        """Source j's constants as length-1 slices."""
        return Curves._make(a[j:j + 1] for a in self)


def transformed(r, c2, x):
    """y = (x/r)**c2 elementwise."""
    return np.power(x / r, c2)


def sums(index, weights, n: int) -> np.ndarray:
    """Per-group sums of weights, each added strictly left to right."""
    return np.bincount(index, weights=weights, minlength=n)


def g_terms(r, p, xt):
    """Per-source Kbps contributions to the true link load."""
    return r * np.power(xt, p)


def _slope(p, xt_prev):
    return p * np.power(xt_prev, p - 1.0)


def g_hat_terms(r, p, xt, xt_prev):
    """Per-source contributions to the tangent (linearized) link load,
    expanded at xt_prev.

    Raises
    ------
    NonPositiveExpansionPointError
        If any expansion component is <= 0.
    """
    if np.any(xt_prev <= 0.0):
        raise NonPositiveExpansionPointError(
            f"expansion points must be > 0, got {np.min(xt_prev)}")
    return r * (np.power(xt_prev, p) + _slope(p, xt_prev) * (xt - xt_prev))


def price_step(mu, gamma: float, capacity, ghat):
    """Projected gradient step on link prices."""
    return np.maximum(0.0, mu - gamma * (capacity - ghat))


def rates(c: Curves, xt_cur, rho):
    """Closed-form transformed-rate maximizer per source.

    Solves the per-source stationarity condition given the path prices
    ``rho`` and the expansion points ``xt_cur``, clamps into the
    transformed window, and maps back to Kbps. Returns (x_tilde, x).
    """
    sat = rho < RHO_FLOOR  # vanishing path price: rate saturates
    a = c.log_k + (1.0 - c.p) * np.log(xt_cur)
    raw = np.where(sat, c.hi, (a - np.log(np.where(sat, 1.0, rho))) / c.c1)
    xt_new = np.minimum(np.maximum(raw, c.lo), c.hi)
    # round-trip through the power map can land a hair outside [m, M]
    x_new = np.minimum(np.maximum(g_terms(c.r, c.p, xt_new), c.m), c.big_m)
    return xt_new, x_new


def steady(g, ghat, capacities, tol: float) -> bool:
    """Tangent and true loads agree within tol on every link and no true
    load exceeds capacity by more than tol."""
    return bool(np.all((np.abs(ghat - g) <= tol) & (g <= capacities + tol)))


class Incidence:
    """A network's routing as kernel inputs.

    ``link``/``src`` is the CSR incidence list: one entry per (link,
    source) pair, sorted by link index and then by ascending source id.
    ``route`` lists the same entries in route order (by source, then
    ascending link id), and ``route_link``/``route_src`` are the pairs in
    that order, for the path-price sums.
    """

    def __init__(self, net: Network):
        self.n_links = net.n_links
        self.n_sources = net.n_sources
        self.capacities = np.array(net.capacities, dtype=float)
        self.link = np.repeat(np.arange(net.n_links, dtype=np.intp),
                              [len(on) for on in net.sources_on_link])
        self.src = np.array([net.source_index[sid] for on in net.sources_on_link for sid in on],
                            dtype=np.intp)
        self.route = np.argsort(self.src, kind="stable")
        self.route_src = self.src[self.route]
        self.route_link = self.link[self.route]

    def link_sums(self, per_source) -> np.ndarray:
        return sums(self.link, per_source[self.src], self.n_links)

    def path_prices(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return sums(self.route_src, mu[self.route_link], self.n_sources)


class Model(Incidence):
    """An Incidence plus its sources' Curves, built once per solve."""

    def __init__(self, net: Network, utilities):
        if len(utilities) != net.n_sources:
            raise ValueError(f"{len(utilities)} utilities for {net.n_sources} sources")
        super().__init__(net)
        self.curves = Curves.of(utilities)

    def g_true(self, x_tilde) -> np.ndarray:
        c = self.curves
        return self.link_sums(g_terms(c.r, c.p, np.asarray(x_tilde, dtype=float)))

    def g_hat(self, x_tilde, x_tilde_prev) -> np.ndarray:
        c = self.curves
        return self.link_sums(g_hat_terms(c.r, c.p, np.asarray(x_tilde, dtype=float),
                                          np.asarray(x_tilde_prev, dtype=float)))

    def initial_state(self, config: SolverConfig) -> IterateState:
        c = self.curves
        if config.x0 is not None:
            x0 = np.array(config.x0, dtype=float)
            if x0.shape != (self.n_sources,):
                raise ValueError(f"x0 must have {self.n_sources} entries, got {x0.shape}")
            outside = np.flatnonzero(~((c.m <= x0) & (x0 <= c.big_m)))
            if outside.size:
                j = outside[0]
                raise ValueError(f"x0[{j}]={x0[j]} outside [{c.m[j]}, {c.big_m[j]}]")
        else:
            x0 = (c.m + c.big_m) / 2.0
        if isinstance(config.mu0, tuple):
            mu0 = np.array(config.mu0, dtype=float)
            if mu0.shape != (self.n_links,):
                raise ValueError(f"mu0 must have {self.n_links} entries, got {mu0.shape}")
        else:
            mu0 = np.full(self.n_links, float(config.mu0))
        xt = np.minimum(np.maximum(transformed(c.r, c.c2, x0), c.lo), c.hi)
        return IterateState(0, xt, xt, mu0, self.path_prices(mu0), x0)


# ---------------------------------------------------------------------------
# the driver and the engine's scheduler

def iterate(model: Model, config: SolverConfig, step) -> AllocationResult:
    """The price/rate loop shared by both schedulers.

    ``step(state)`` returns the next IterateState. The loop stops when
    the largest per-source rate change in Kbps drops below
    config.epsilon AND the new state is steady at feas_tol, or at
    max_iter (converged stays False). The rate metric alone can read
    zero while prices still slide along a degenerate dual direction with
    a link left overloaded; the steady-state condition keeps iterating
    through that. The trace has one record per iteration plus the t=0
    row.
    """
    state = model.initial_state(config)
    trace = [TraceRecord(0, state.x, state.x_tilde, state.mu, state.rho, float("nan"),
                         model.g_true(state.x_tilde), model.g_hat(state.x_tilde, state.x_tilde))]
    converged = False
    for t in range(1, config.max_iter + 1):
        new = step(state)
        metric = float(np.max(np.abs(new.x - state.x), initial=0.0))
        g = model.g_true(new.x_tilde)
        gh = model.g_hat(new.x_tilde, new.x_tilde_prev)
        trace.append(TraceRecord(t, new.x, new.x_tilde, new.mu, new.rho, metric, g, gh))
        state = new
        if metric < config.epsilon and steady(g, gh, model.capacities, config.feas_tol):
            converged = True
            break
    return AllocationResult(
        converged=converged,
        iterations=state.t,
        x=state.x,
        x_tilde=state.x_tilde,
        x_tilde_prev=state.x_tilde_prev,
        mu=state.mu,
        rho=state.rho,
        trace=tuple(trace),
    )


def solve(net: Network, utilities, config: SolverConfig | None = None) -> AllocationResult:
    """Run the price/rate loop to convergence, every source at once
    (see :func:`iterate` for the stopping rule and the trace)."""
    if config is None:
        config = SolverConfig()
    model = Model(net, utilities)
    fresh = config.price_lag == "fresh"

    def step(s: IterateState) -> IterateState:
        mu = price_step(s.mu, config.gamma, model.capacities,
                        model.g_hat(s.x_tilde, s.x_tilde_prev))
        rho = model.path_prices(mu if fresh else s.mu)
        xt, x = rates(model.curves, s.x_tilde, rho)
        return IterateState(s.t + 1, xt, s.x_tilde, mu, rho, x)

    return iterate(model, config, step)


def polish(net: Network, utilities, res: AllocationResult,
           config: SolverConfig) -> AllocationResult:
    """Re-solve from a finished run's rates and prices down to a
    machine-precision fixed point (epsilon 1e-10, up to 500000
    iterations), which is what the sampled local-optimality test needs.
    Step size, price lag and tolerances come from ``config``."""
    return solve(net, utilities, replace(
        config, epsilon=1e-10, max_iter=500000, mu0=tuple(res.mu), x0=tuple(res.x)))


# ---------------------------------------------------------------------------
# per-item views over the kernels

def g_true_term(r: float, c2: float, xt: float) -> float:
    """One source's Kbps contribution to a link load, from its transformed rate."""
    return float(g_terms(np.array([r]), np.array([1.0 / c2]), np.array([xt]))[0])


def g_hat_term(r: float, c2: float, xt: float, xt_prev: float) -> float:
    """One source's contribution to the tangent (linearized) link load."""
    return float(g_hat_terms(np.array([r]), np.array([1.0 / c2]), np.array([xt]),
                             np.array([xt_prev]))[0])


def rate_step(u: SCurveUtility, xt_cur: float, rho: float) -> tuple[float, float]:
    """The rate kernel for one source. Returns (new transformed rate,
    new rate in Kbps)."""
    xt, x = rates(Curves.of((u,)), np.array([xt_cur], dtype=float),
                  np.array([rho], dtype=float))
    return float(xt[0]), float(x[0])


def g_true(net: Network, utilities, x_tilde, link_id: int) -> float:
    """True link load in Kbps as a function of transformed rates."""
    return float(Model(net, utilities).g_true(x_tilde)[net.link_index[link_id]])


def g_hat(net: Network, utilities, x_tilde, x_tilde_prev, link_id: int) -> float:
    """Tangent approximation of the link load, expanded at x_tilde_prev.

    Lies on or above g_true everywhere (the load is concave in the
    transformed rates), so capping g_hat at the capacity also caps the
    true load.

    Raises
    ------
    NonPositiveExpansionPointError
        If any expansion component is <= 0.
    """
    return float(Model(net, utilities).g_hat(x_tilde, x_tilde_prev)[net.link_index[link_id]])


def update_prices(net: Network, utilities, state: IterateState, gamma: float) -> np.ndarray:
    """One projected-gradient step on every link price, against the
    tangent load at (x̃ current, x̃ previous)."""
    model = Model(net, utilities)
    return price_step(np.asarray(state.mu, dtype=float), gamma, model.capacities,
                      model.g_hat(state.x_tilde, state.x_tilde_prev))


def path_prices(net: Network, mu) -> np.ndarray:
    """Per-source sum of link prices along the route, ascending link id."""
    return Incidence(net).path_prices(mu)


def update_rates(net: Network, utilities, state: IterateState):
    """Closed-form rate update for every source against state.mu.

    Returns (x_tilde, x, rho) arrays. x_tilde is clamped into each
    source's transformed window, so x is always within [m, M].
    """
    model = Model(net, utilities)
    rho = model.path_prices(state.mu)
    xt, x = rates(model.curves, np.asarray(state.x_tilde, dtype=float), rho)
    return xt, x, rho


@dataclass(frozen=True)
class KKTResidual:
    """First-order optimality residuals at a candidate state.

    stationarity is per source (raw, and normalized by the positive
    utility-derivative term); slack is per link (raw μ·(load − c), and
    normalized by capacity). Bound multipliers are not modeled, so the
    stationarity entries are meaningful for sources strictly inside
    their rate windows.
    """

    stationarity: np.ndarray
    stationarity_normalized: np.ndarray
    slack: np.ndarray
    slack_normalized: np.ndarray


def kkt_residual(net: Network, utilities, x_tilde, x_tilde_prev, mu) -> KKTResidual:
    """Stationarity and complementary-slackness residuals."""
    model = Model(net, utilities)
    c = model.curves
    xt = np.asarray(x_tilde, dtype=float)
    mu = np.asarray(mu, dtype=float)
    dutil = -c.c1 * np.exp(-c.c1 * xt) / np.expm1(-c.c1)
    dload = c.r * _slope(c.p, np.asarray(x_tilde_prev, dtype=float))
    stat = dutil - dload * model.path_prices(mu)
    slack = mu * (model.g_true(xt) - model.capacities)
    return KKTResidual(stat, stat / dutil, slack, slack / model.capacities)


def steady_state_check(net: Network, utilities, state: IterateState, tol: float) -> bool:
    """True when the tangent and true loads agree within tol on every
    link and no true load exceeds capacity by more than tol."""
    model = Model(net, utilities)
    return steady(model.g_true(state.x_tilde), model.g_hat(state.x_tilde, state.x_tilde_prev),
                  model.capacities, tol)
