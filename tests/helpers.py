"""Shared reference data and the random-instance recipe used by tests.

REFERENCE_RATES is the independently computed optimum of the built-in
shared-link scenario (five flows on one 1000 Kbps link), obtained with
an interior-point NLP solver; REFERENCE_UTILITY is its aggregate
utility. Tests compare engine output against these numbers, never the
other way round.
"""

from __future__ import annotations

import numpy as np

from scpnum import (
    GridSpec,
    SCurveUtility,
    SolverConfig,
    build_network,
    g_true,
    grid_search,
    inflection_point,
    local_opt_test,
    polish,
    solve,
    total_utility,
)

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
