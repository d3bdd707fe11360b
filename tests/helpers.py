"""Shared reference data and the random-instance recipes used by tests.

REFERENCE_RATES is the independently computed optimum of the built-in
shared-link scenario (five flows on one 1000 Kbps link), obtained with
an interior-point NLP solver; REFERENCE_UTILITY is its aggregate
utility. Tests compare engine output against these numbers, never the
other way round.
"""

from __future__ import annotations

import numpy as np

from scpnum import (
    FeasibilityReport,
    GridSpec,
    SCurveUtility,
    SolverConfig,
    build_network,
    g_true,
    grid_search,
    inflection_point,
    local_opt_test,
    polish,
    run_to_convergence,
    solve,
    total_utility,
    Violation,
)
from scpnum.engine import RHO_FLOOR, IterateState, NonPositiveExpansionPointError

REFERENCE_RATES = (117.9658, 191.1745, 219.3638, 232.2520, 239.2439)
REFERENCE_UTILITY = 4.372301

# seeds are fixed so reruns exercise identical instances
INSTANCE_SEED = 20260814
PERTURB_SEED = 1729

# initial-price sweep, largest first; accepted on the first run that
# converges with complementary slackness intact
MU0_LADDER = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def gen_instance(rng: np.random.Generator):
    """Random instance on which the solver is applicable: every link can
    carry its sources' inflection rates with >= 15% headroom, so the
    above-knee operating region the iteration targets is nonempty."""
    n_links = int(rng.integers(1, 4))
    n_sources = int(rng.integers(1, 4))
    routes = []
    for sid in range(1, n_sources + 1):
        size = int(rng.integers(1, n_links + 1))
        chosen = sorted(int(l) + 1 for l in rng.choice(n_links, size=size, replace=False))
        routes.append((sid, tuple(chosen)))
    utilities = tuple(
        SCurveUtility(r=float(rng.uniform(128, 384)), c1=float(rng.uniform(3, 8)),
                      c2=float(rng.integers(1, 11)))
        for _ in range(n_sources)
    )
    links = []
    for lid in range(1, n_links + 1):
        on = [sid for sid, route in routes if lid in route]
        if on:
            lo = 1.15 * sum(max(inflection_point(utilities[sid - 1]), 5.0) for sid in on)
            hi = max(lo * 1.05, min(0.95 * sum(utilities[sid - 1].r for sid in on), 1.6 * lo))
            cap = float(rng.uniform(lo, hi))
        else:
            cap = float(rng.uniform(50, 500))
        links.append((lid, cap))
    return build_network(links, routes), utilities


def routing_matrix(net) -> np.ndarray:
    """Dense 0/1 incidence matrix, shape (n_links, n_sources), built from
    the network's CSR incidence list."""
    mat = np.zeros((net.n_links, net.n_sources))
    mat[net.incidence.link, net.incidence.src] = 1.0
    return mat


def recipe_x0(net, utilities) -> tuple[float, ...]:
    """Start each source above its knee and below its capacity share."""
    x0 = []
    for j in range(net.n_sources):
        u = utilities[j]
        share = min(net.capacities[net.link_index[lid]]
                    / len(net.sources_on_link[net.link_index[lid]])
                    for lid in net.routes[j])
        v = max(1.05 * inflection_point(u), 0.45 * share)
        x0.append(float(np.clip(v, u.m + 1.0, 0.95 * u.big_m)))
    return tuple(x0)


def complementarity_ok(net, utilities, res, rel: float = 1e-2,
                       mu_floor: float = 1e-6) -> bool:
    """Every priced link is saturated to within rel * capacity."""
    xt = np.asarray(res.x_tilde)
    for i, lid in enumerate(net.link_ids):
        if res.mu[i] <= mu_floor:
            continue
        if abs(g_true(net, utilities, xt, lid) - net.capacities[i]) > rel * net.capacities[i]:
            return False
    return True


def ladder_solve(net, utilities, gamma: float = 1e-5):
    """Solve with the initial-price ladder; returns (mu0, result) for the
    first accepted run, or (None, None) if every rung is rejected."""
    x0 = recipe_x0(net, utilities)
    for mu0 in MU0_LADDER:
        cfg = SolverConfig(gamma=gamma, epsilon=1e-6, max_iter=200000,
                           mu0=mu0, x0=x0)
        res = solve(net, utilities, cfg)
        if res.converged and complementarity_ok(net, utilities, res):
            return mu0, res
    return None, None


def oracle_agreement(net, utilities, res, gamma: float):
    """Criterion helper: compare against the grid oracle and the sampled
    local-optimality test; returns (cases, gap, report)."""
    engine_u = total_utility(utilities, res.x)
    oracle = grid_search(net, utilities, GridSpec())
    gap = engine_u - oracle.utility
    polished = polish(net, utilities, res, SolverConfig(gamma=gamma))
    report = local_opt_test(net, utilities, polished.x, radius=2.0,
                            samples=1000, seed=PERTURB_SEED)
    cases = []
    if abs(gap) <= 1e-3:
        cases.append("utility")
    if report.passed:
        cases.append("local_opt")
    return cases, gap, report


def crowded_instance(seed: int = 0):
    """40 sources over 4 links, 1-2 links each, so every link carries
    well over 8 sources; capacities leave 60% headroom above the knees."""
    rng = np.random.default_rng(seed)
    n_links, n_sources = 4, 40
    routes = []
    for sid in range(1, n_sources + 1):
        size = int(rng.integers(1, 3))
        chosen = rng.choice(n_links, size=size, replace=False)
        routes.append((sid, tuple(sorted(int(l) + 1 for l in chosen))))
    utilities = tuple(SCurveUtility(r=float(rng.uniform(128, 384)), c1=6.0,
                                    c2=float(rng.integers(2, 9)))
                      for _ in range(n_sources))
    links = [(lid, 1.6 * sum(inflection_point(utilities[sid - 1])
                             for sid, route in routes if lid in route))
             for lid in range(1, n_links + 1)]
    return build_network(links, routes), utilities


# a crowded_instance(0) configuration under which every source collapses
# to its minimum rate and the run still meets the stopping rule
COLLAPSE_CONFIG = {"gamma": 1e-5, "mu0": 1e-3, "epsilon": 1e-3}

SCHEDULERS = {"engine": solve, "agents": lambda *args: run_to_convergence(*args)[0]}


def reference_step(model, s, gamma: float) -> IterateState:
    """``Model.step`` written out op for op as four separate phases,
    calling no engine kernel: a price step on the prices taken as an
    array, path prices, the rate step with its saturating where always
    taken, and g and ĝ each summed on its own over the rank-major order,
    with the checked tangent terms. Any edit to the engine's kernels
    must keep its bits."""
    c = model.curves
    mu = np.maximum(0.0, np.asarray(s.mu, dtype=float) - gamma * (model.capacities - s.g_hat))
    rho = np.bincount(model.inc.route_src, weights=mu[model.inc.route_link],
                      minlength=model.n_sources)
    sat = rho < RHO_FLOOR
    a = c.log_k + c.one_minus_p * np.log(s.x_tilde)
    raw = np.where(sat, c.hi, (a - np.log(np.maximum(rho, RHO_FLOOR))) / c.c1)
    xt = np.minimum(np.maximum(raw, c.lo), c.hi)
    w = np.power(xt, c.p)
    x = np.minimum(np.maximum(c.r * w, c.m), c.big_m)
    g, g_hat = reference_loads(model, xt, s.x_tilde, w, s.w)
    return IterateState(s.t + 1, xt, s.x_tilde, mu, rho, x, g, g_hat, w)


def reference_loads(model, xt, xt_prev, w, w_prev) -> tuple:
    """Per-link (g, ĝ), each summed by its own bincount in rank-major
    order, after checking the expansion points."""
    c = model.curves
    if np.fmin.reduce(xt_prev, initial=np.inf) <= 0.0:
        raise NonPositiveExpansionPointError(f"expansion points must be > 0, got {xt_prev}")

    def link_sums(per_source):
        return np.bincount(model.inc.rank_link, weights=per_source[model.inc.rank_src],
                           minlength=model.n_links)

    return (link_sums(c.r * w),
            link_sums(c.r * (w_prev + c.p * np.power(xt_prev, c.p_minus_1) * (xt - xt_prev))))


def reference_link_load(net, x, link_id) -> float:
    """``link_load`` as a loop: the link's sources in ascending id order,
    added one at a time from 0.0."""
    total = 0.0
    for sid in net.sources_on_link[net.link_index[link_id]]:
        total += float(x[net.source_index[sid]])
    return total


def reference_is_feasible(net, x, bounds, tol: float = 0.0):
    """``is_feasible`` as two loops, for well-formed arguments: every
    source's window in ascending id order, then every link's load
    (:func:`reference_link_load`) against its capacity."""
    violations = []
    for j, sid in enumerate(net.source_ids):
        lo, hi = bounds[j]
        xv = float(x[j])
        if not lo - tol <= xv <= hi + tol:
            violations.append(Violation("bounds", sid, lo - xv if xv < lo - tol else xv - hi))
    for i, lid in enumerate(net.link_ids):
        load = reference_link_load(net, x, lid)
        if not load <= net.capacities[i] + tol:
            violations.append(Violation("capacity", lid, load - net.capacities[i]))
    return FeasibilityReport(not violations, tuple(violations))
