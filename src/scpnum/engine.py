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

This module holds the iteration: the price step, the closed-form rate
step, the tangent and load kernels, the :class:`Model` they run over,
the driver loop and the per-item views. The curve formulas (the
transform, its inverse, U and U' in y) and their per-source array form,
:class:`~scpnum.utility.Curves`, are :mod:`scpnum.utility`'s kernels; a
Model holds the network's incidence arrays plus the sources' Curves,
computed once per solve. The two routing sums, each link's load and
each source's path price, are the incidence arrays' own methods
(:class:`scpnum.network.IncidenceArrays`), and no other module reads
the orders they run in. Both add strictly left to
right with ``np.bincount(weights=...)``; ``np.sum`` reorders the
additions of slices of 8 or more elements and is never used for them.
With every operand a 1-d array (numpy takes other paths for 0-d
operands and some scalar exponents), the kernels give identical bits on
a length-1 slice and on the full array. An iteration's true and
tangent loads g and ĝ are one link sum: their per-source terms are the
two rows of one (2, S) block, summed as a sum of each row alone would
be.

The per-item views at the end of the module (``g_true``,
``update_prices`` and the rest) read every per-source or per-link
argument through ``utility.per_item``, which checks its shape, (S,) or
(L,), and its value rule: an expansion point is > 0
(:data:`EXPANSION_POINT`), any other transformed rate >= 0
(``utility.TRANSFORMED_RATE``) and a link or path price >= 0
(:data:`PRICE`). They check that a link id is declared, then run the
same kernels unchecked.

The iterate carries its own loads. The rate step computes
w = x̃**p for the new rates once; r*w is both the rate in Kbps (before
clipping) and the per-source true-load term, and w is the first term of
the next iteration's tangent, expanded at this x̃. Each iteration
therefore evaluates one power for the new rates and one for the
tangent's slope, and the per-link g and ĝ it sums are the trace row, the
steady test and the next price step's input alike. Every expansion
point is a rate clipped to at least its window's floor lo, which
:meth:`Model.initial_state` checks is > 0, so no kernel checks its
expansion points.

:func:`solve` and :func:`scpnum.agents.run_to_convergence` are two
schedulers over one driver loop, :func:`iterate`, which owns the
stopping test, the trace and the result, and over one iteration,
:meth:`Model.step`, which holds all of an iteration's arithmetic. The
engine calls the step directly; the agents run it as one message round
and log the prices and rate reports its phases send. The two traces
are therefore bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .network import Network
# g_terms: a source's true-load term, its rate before the clip, r * x_tilde**p
from .utility import (TRANSFORMED_RATE, Curves, SCurveUtility, du_of_y, finite_real,
                      finite_reals, integer, per_item, x_of_y as g_terms, y_of_x)

__all__ = [
    "SolverConfig",
    "start_misfit",
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
    "price_step",
    "rate_step",
    "NonPositiveExpansionPointError",
]


# path prices below this saturate the rate at its upper bound
RHO_FLOOR = 1e-12


class NonPositiveExpansionPointError(ValueError):
    """Tangent expansion point must be strictly positive."""


# the value rules of utility.per_item beside TRANSFORMED_RATE: an
# expansion point is > 0 and a link price, kept by the price step, >= 0
EXPANSION_POINT = (NonPositiveExpansionPointError, "expansion point", True)
PRICE = (ValueError, "price", False)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters. Each rate and price, and gamma and epsilon,
    is a finite real (see ``utility.finite_real``), stored as a float.

    gamma
        Price step size, > 0.
    epsilon
        Stopping tolerance on max per-source rate change, Kbps, > 0.
    max_iter
        Iteration cap, an integer >= 1 (Python or numpy), stored as an int.
    mu0
        Initial link price, >= 0: one number, or a per-link sequence of
        them, stored as a tuple.
    x0
        Per-source initial rates in Kbps, a sequence with each entry
        inside its rate window; None starts every source at the midpoint
        (m + M)/2.

    A config does not know its network, so whether mu0 and x0 fit one
    (their lengths and x0's windows) is checked where a solve starts, by
    :func:`start_misfit`, the one check of a start.

    Two constants are not settings: ``feas_tol``, the feasibility slack
    of 0.5 Kbps that the steady-state test and the reports use, and the
    path-price floor below which a rate saturates at its upper bound,
    the module constant ``RHO_FLOOR``.
    """

    gamma: float = 1e-4
    epsilon: float = 0.1
    max_iter: int = 10000
    mu0: float | tuple[float, ...] = 1.0
    x0: tuple[float, ...] | None = None
    feas_tol: ClassVar[float] = 0.5

    def __post_init__(self):
        for name in ("gamma", "epsilon"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name), gt=0.0))
        object.__setattr__(self, "max_iter", integer("max_iter", self.max_iter, ge=1))
        # zero is allowed: warm restarts carry mu=0 on inactive links
        read = finite_reals if isinstance(self.mu0, (tuple, list, np.ndarray)) else finite_real
        object.__setattr__(self, "mu0", read("mu0", self.mu0, ge=0.0))
        if self.x0 is not None:
            object.__setattr__(self, "x0", finite_reals("x0", self.x0))


def start_misfit(x0, mu0, m, big_m, n_links: int):
    """The one check that a start fits its network: the first misfit of
    a config's ``x0`` and ``mu0``, as (field, reason), or None. ``m`` and
    ``big_m`` are the sources' rate windows, one entry per source. x0,
    unless None, must hold one rate per source, each inside its window (a
    NaN is outside); a per-link mu0, a tuple, must hold one price per
    link. The scenario parser reports a misfit at ``solver.<field>``, and
    :meth:`Model.initial_state` raises it as ValueError("<field>: <reason>")."""
    if x0 is not None:
        if len(x0) != len(m):
            return "x0", f"expected list of {len(m)} rates"
        x0 = np.asarray(x0, dtype=float)
        outside = np.flatnonzero(~((m <= x0) & (x0 <= big_m)))
        if outside.size:
            j = outside[0]
            return f"x0[{j}]", (f"rate {x0[j]:g} outside the source's window "
                                f"[{m[j]:g}, {big_m[j]:g}] Kbps")
    if isinstance(mu0, tuple) and len(mu0) != n_links:
        return "mu0", f"expected {n_links} entries, got {len(mu0)}"
    return None


@dataclass
class IterateState:
    """One iterate of the price/rate loop. Arrays align with the
    network's ascending source and link id orders; rho holds the path
    prices of mu, which the rate step that produced x saw.

    The iterate carries its loads: g and g_hat are the per-link true and
    tangent loads at (x_tilde, x_tilde_prev), and w = x_tilde**p per
    source is the first term of the next tangent. ``Model.initial_state``
    and ``Model.step`` fill them in; a state built by hand may leave
    them None.

    x_tilde is the next rate step's expansion point and x_tilde_prev
    the tangent's. A state from ``Model.initial_state`` or ``Model.step``
    holds clipped rates, >= lo > 0; the per-item views that read a state
    built by hand check the points they use (``utility.per_item`` under
    :data:`EXPANSION_POINT`).
    """

    t: int
    x_tilde: np.ndarray
    x_tilde_prev: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    x: np.ndarray
    g: np.ndarray | None = None
    g_hat: np.ndarray | None = None
    w: np.ndarray | None = None


class TraceRecord(NamedTuple):
    """State after one iteration; metric is NaN on the t=0 row. A
    NamedTuple, so a changed copy is ``rec._replace(...)``."""

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
    """A finished run. stop_reason is 'converged', 'collapsed' or
    'max_iter'. 'collapsed' is a converged run that left a source at the
    bottom of its rate window while a link on its route has slack above
    feas_tol, the signature of the collapse below the knee; 'max_iter'
    is a run that did not converge."""

    converged: bool
    stop_reason: str
    iterations: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_tilde_prev: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    trace: tuple[TraceRecord, ...] = field(repr=False)


# ---------------------------------------------------------------------------
# array kernels and the Model that both schedulers step

def _slope(p, xt_prev, p_minus_1):
    return p * np.power(xt_prev, p_minus_1)


def tangent_terms(r, p, xt, xt_prev, w_prev, p_minus_1, out=None):
    """Per-source contributions to the tangent (linearized) link load,
    expanded at xt_prev, written into ``out`` if given. ``w_prev`` is
    xt_prev**p, the load term a scheduler carried from the rate step
    that produced xt_prev, and ``p_minus_1`` is p - 1 (:class:`Curves`
    holds it). Unchecked: an expansion point must be > 0, which the
    per-item views check as they read one (:data:`EXPANSION_POINT`)."""
    return np.multiply(r, w_prev + _slope(p, xt_prev, p_minus_1) * (xt - xt_prev), out=out)


def price_step(mu, gamma: float, capacity, ghat):
    """Projected gradient step on link prices."""
    return np.maximum(0.0, mu - gamma * (capacity - ghat))


def rates(c: Curves, xt_cur, rho):
    """Closed-form transformed-rate maximizer per source.

    Solves the per-source stationarity condition given the path prices
    ``rho`` and the expansion points ``xt_cur``, clamps into the
    transformed window, and maps back to Kbps. Returns (x_tilde, x, w)
    with w = x_tilde**p, so that r*w, x before its clip, is the
    source's true-load term (:func:`g_terms`).
    """
    a = c.log_k + c.one_minus_p * np.log(xt_cur)
    # a vanishing path price saturates the rate at hi. The floor only
    # keeps log finite on the entries the where discards, so with no
    # such price both would leave every entry as it is (fmin skips NaN,
    # as the elementwise test does)
    if np.fmin.reduce(rho, initial=np.inf) < RHO_FLOOR:
        raw = np.where(rho < RHO_FLOOR, c.hi,
                       (a - np.log(np.maximum(rho, RHO_FLOOR))) / c.c1)
    else:
        raw = (a - np.log(rho)) / c.c1
    xt_new = np.minimum(np.maximum(raw, c.lo), c.hi)
    w = np.power(xt_new, c.p)
    # round-trip through the power map can land a hair outside [m, M]
    x_new = np.minimum(np.maximum(c.r * w, c.m), c.big_m)
    return xt_new, x_new, w


def steady(g, ghat, capacities, tol: float) -> bool:
    """Tangent and true loads agree within tol on every link and no true
    load exceeds capacity by more than tol."""
    return bool(np.all((np.abs(ghat - g) <= tol) & (g <= capacities + tol)))


class Model:
    """The kernels' inputs for one network and its sources: the
    network's :class:`~scpnum.network.IncidenceArrays` ``inc``, built
    once per network, with its capacities and sizes; the sources'
    :class:`~scpnum.utility.Curves`, built once per solve. Every
    per-source and per-link argument of its methods is a float array of
    shape (S,) or (L,)."""

    def __init__(self, net: Network, utilities):
        if len(utilities) != net.n_sources:
            raise ValueError(f"{len(utilities)} utilities for {net.n_sources} sources")
        self.inc = net.incidence
        self.capacities = self.inc.capacities
        self.n_links, self.n_sources = net.n_links, net.n_sources
        self.curves = Curves.of(utilities)

    def g_true(self, x_tilde) -> np.ndarray:
        c = self.curves
        return self.inc.link_sums(g_terms(c.r, c.p, x_tilde))

    def g_hat(self, x_tilde, x_tilde_prev) -> np.ndarray:
        c = self.curves
        return self.inc.link_sums(tangent_terms(c.r, c.p, x_tilde, x_tilde_prev,
                                                np.power(x_tilde_prev, c.p), c.p_minus_1))

    def loads(self, x_tilde, x_tilde_prev, w, w_prev) -> tuple:
        """Per-link (g, ĝ), the rows of one (2, L) array of sums, at
        (x_tilde, x_tilde_prev) from the per-source w = x_tilde**p and
        w_prev = x_tilde_prev**p. Unchecked: every x_tilde_prev a
        scheduler passes is a clipped rate, >= lo > 0
        (:meth:`initial_state` checks lo)."""
        c = self.curves
        block = np.empty((2, self.n_sources))
        np.multiply(c.r, w, out=block[0])
        tangent_terms(c.r, c.p, x_tilde, x_tilde_prev, w_prev, c.p_minus_1, out=block[1])
        both = self.inc.link_sums(block)
        return both[0], both[1]

    def collapsed(self, s: IterateState, tol: float) -> bool:
        """Some source sits at the bottom of its rate window while a
        link on its route has slack above tol, by the carried loads."""
        loose = self.capacities - s.g > tol
        return bool(np.any((s.x_tilde <= self.curves.lo)[self.inc.src] & loose[self.inc.link]))

    def initial_state(self, config: SolverConfig) -> IterateState:
        """The t=0 iterate from config's x0 (the window midpoints when
        None) and mu0, with its loads.

        Raises ValueError("<field>: <reason>") for a start that does not
        fit the network (:func:`start_misfit`), and
        NonPositiveExpansionPointError for a window whose transformed
        floor lo is not > 0."""
        c = self.curves
        x0 = (c.m + c.big_m) / 2.0 if config.x0 is None else np.array(config.x0, dtype=float)
        misfit = start_misfit(x0, config.mu0, c.m, c.big_m, self.n_links)
        if misfit:
            raise ValueError("%s: %s" % misfit)
        mu0 = (np.array(config.mu0, dtype=float) if isinstance(config.mu0, tuple)
               else np.full(self.n_links, float(config.mu0)))
        # every later expansion point is a rate clipped to >= lo
        floor = np.flatnonzero(~(c.lo > 0.0))
        if floor.size:
            j = floor[0]
            raise NonPositiveExpansionPointError(
                f"expansion points must be > 0, but source index {j} has the "
                f"transformed rate floor (m/r)**c2 = {c.lo[j]}")
        xt = np.minimum(np.maximum(y_of_x(c.r, c.c2, x0), c.lo), c.hi)
        w = np.power(xt, c.p)
        return IterateState(0, xt, xt, mu0, self.inc.path_prices(mu0), x0,
                            *self.loads(xt, xt, w, w), w)

    def step(self, s: IterateState, gamma: float) -> IterateState:
        """The iteration after ``s``, in four phases: every link steps its
        price against the tangent load ĝ it carries, every source sums
        the new prices on its route, every source picks its rate against
        that path price, and every link sums the true and tangent loads
        of the new rates, both in one bincount."""
        mu = price_step(s.mu, gamma, self.capacities, s.g_hat)
        rho = self.inc.path_prices(mu)
        xt, x, w = rates(self.curves, s.x_tilde, rho)
        return IterateState(s.t + 1, xt, s.x_tilde, mu, rho, x,
                            *self.loads(xt, s.x_tilde, w, s.w), w)


# ---------------------------------------------------------------------------
# the driver and the engine's scheduler

def iterate(model: Model, state: IterateState, config: SolverConfig,
            step) -> AllocationResult:
    """The price/rate loop shared by both schedulers, from the t=0
    ``state`` of :meth:`Model.initial_state`.

    ``step(state)`` returns the next IterateState, carrying its loads.
    The loop stops when the largest per-source rate change in Kbps drops
    below config.epsilon AND the new state is steady at feas_tol, or at
    max_iter (converged stays False). The rate metric alone can read
    zero while prices still slide along a degenerate dual direction with
    a link left overloaded; the steady-state condition keeps iterating
    through that. The trace has one record per iteration plus the t=0
    row, each holding the loads its state carried: the loop evaluates no
    load kernel of its own.
    """
    trace = [TraceRecord(0, state.x, state.x_tilde, state.mu, state.rho, float("nan"),
                         state.g, state.g_hat)]
    converged = False
    for t in range(1, config.max_iter + 1):
        new = step(state)
        metric = float(np.maximum.reduce(np.abs(new.x - state.x), initial=0.0))
        trace.append(TraceRecord(t, new.x, new.x_tilde, new.mu, new.rho, metric,
                                 new.g, new.g_hat))
        state = new
        if metric < config.epsilon and steady(new.g, new.g_hat, model.capacities,
                                              config.feas_tol):
            converged = True
            break
    if not converged:
        stop_reason = "max_iter"
    elif model.collapsed(state, config.feas_tol):
        stop_reason = "collapsed"
    else:
        stop_reason = "converged"
    return AllocationResult(
        converged=converged,
        stop_reason=stop_reason,
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
    return iterate(model, model.initial_state(config), config,
                   lambda s: model.step(s, config.gamma))


def polish(net: Network, utilities, res: AllocationResult,
           config: SolverConfig) -> AllocationResult:
    """Re-solve from a finished run's rates and prices down to a
    machine-precision fixed point (epsilon 1e-10, up to 500000
    iterations), which is what the sampled local-optimality test needs.
    Step size and tolerances come from ``config``."""
    return solve(net, utilities, replace(
        config, epsilon=1e-10, max_iter=500000, mu0=tuple(res.mu), x0=tuple(res.x)))


# ---------------------------------------------------------------------------
# per-item views over the kernels

def rate_step(u: SCurveUtility, xt_cur: float, rho: float) -> tuple[float, float]:
    """The rate kernel for one source, expanded at ``xt_cur``. Returns
    (new transformed rate, new rate in Kbps).

    Raises
    ------
    NonPositiveExpansionPointError
        If xt_cur is <= 0.
    ValueError
        If rho, the path price, is < 0.
    """
    xt, x, _ = rates(Curves.of((u,)), per_item("xt_cur", [xt_cur], 1, rule=EXPANSION_POINT),
                     per_item("rho", [rho], 1, rule=PRICE))
    return float(xt[0]), float(x[0])


def g_true(net: Network, utilities, x_tilde, link_id: int) -> float:
    """True link load in Kbps as a function of transformed rates."""
    xt = per_item("x_tilde", x_tilde, net.n_sources, rule=TRANSFORMED_RATE)
    return float(Model(net, utilities).g_true(xt)[net.link_position(link_id)])


def g_hat(net: Network, utilities, x_tilde, x_tilde_prev, link_id: int) -> float:
    """Tangent approximation of the link load, expanded at x_tilde_prev.

    Lies on or above g_true everywhere (the load is concave in the
    transformed rates), so capping g_hat at the capacity also caps the
    true load.

    Raises
    ------
    NonPositiveExpansionPointError
        If any entry of x_tilde_prev is <= 0.
    """
    xt = per_item("x_tilde", x_tilde, net.n_sources, rule=TRANSFORMED_RATE)
    xt_prev = per_item("x_tilde_prev", x_tilde_prev, net.n_sources, rule=EXPANSION_POINT)
    return float(Model(net, utilities).g_hat(xt, xt_prev)[net.link_position(link_id)])


def update_prices(net: Network, utilities, state: IterateState, gamma: float) -> np.ndarray:
    """One projected-gradient step on every link price, against the
    tangent load at (x̃ current, x̃ previous); NonPositiveExpansionPointError
    if an entry of state.x_tilde_prev is <= 0."""
    model = Model(net, utilities)
    mu = per_item("state.mu", state.mu, net.n_links, rule=PRICE)
    xt = per_item("state.x_tilde", state.x_tilde, net.n_sources, rule=TRANSFORMED_RATE)
    prev = per_item("state.x_tilde_prev", state.x_tilde_prev, net.n_sources, rule=EXPANSION_POINT)
    return price_step(mu, gamma, model.capacities, model.g_hat(xt, prev))


def path_prices(net: Network, mu) -> np.ndarray:
    """Per-source sum of link prices along the route, ascending link id."""
    return net.incidence.path_prices(per_item("mu", mu, net.n_links, rule=PRICE))


def update_rates(net: Network, utilities, state: IterateState):
    """Closed-form rate update for every source against state.mu.

    Returns (x_tilde, x, rho) arrays. x_tilde is clamped into each
    source's transformed window, so x is always within [m, M]. The
    expansion points are state.x_tilde: NonPositiveExpansionPointError
    if an entry is <= 0.
    """
    model = Model(net, utilities)
    rho = model.inc.path_prices(per_item("state.mu", state.mu, net.n_links, rule=PRICE))
    xt = per_item("state.x_tilde", state.x_tilde, net.n_sources, rule=EXPANSION_POINT)
    xt, x, _ = rates(model.curves, xt, rho)
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
    """Stationarity and complementary-slackness residuals, the tangent's
    slope taken at x_tilde_prev; NonPositiveExpansionPointError if an
    entry of x_tilde_prev is <= 0."""
    model = Model(net, utilities)
    c = model.curves
    xt = per_item("x_tilde", x_tilde, net.n_sources, rule=TRANSFORMED_RATE)
    xt_prev = per_item("x_tilde_prev", x_tilde_prev, net.n_sources, rule=EXPANSION_POINT)
    mu = per_item("mu", mu, net.n_links, rule=PRICE)
    dutil = du_of_y(c.c1, xt)
    dload = c.r * _slope(c.p, xt_prev, c.p_minus_1)
    stat = dutil - dload * model.inc.path_prices(mu)
    slack = mu * (model.g_true(xt) - model.capacities)
    return KKTResidual(stat, stat / dutil, slack, slack / model.capacities)


def steady_state_check(net: Network, utilities, state: IterateState, tol: float) -> bool:
    """True when the tangent and true loads agree within tol on every
    link and no true load exceeds capacity by more than tol;
    NonPositiveExpansionPointError if an entry of state.x_tilde_prev is
    <= 0."""
    model = Model(net, utilities)
    xt = per_item("state.x_tilde", state.x_tilde, net.n_sources, rule=TRANSFORMED_RATE)
    prev = per_item("state.x_tilde_prev", state.x_tilde_prev, net.n_sources, rule=EXPANSION_POINT)
    return steady(model.g_true(xt), model.g_hat(xt, prev), model.capacities, tol)
