"""Array kernels: the summation order and slice invariance that keep the
engine and the agents bitwise-equal on links with many sources."""

import math

import numpy as np
import pytest

from helpers import recipe_x0
from scpnum import (
    SCurveUtility,
    SolverConfig,
    build_network,
    inflection_point,
    run_to_convergence,
    solve,
)
from scpnum.engine import Curves, g_hat_terms, g_terms, rates, sums

KERNEL_SEED = 20261017


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


@pytest.mark.parametrize("price_lag", ["fresh", "lagged"])
def test_crowded_links_trace_equivalence(price_lag):
    net, utilities = crowded_instance()
    assert max(len(on) for on in net.sources_on_link) >= 8
    config = SolverConfig(gamma=1e-6, epsilon=1e-6, max_iter=3000, mu0=1e-4,
                          x0=recipe_x0(net, utilities),
                          price_lag=price_lag)
    res_e = solve(net, utilities, config)
    res_a, _ = run_to_convergence(net, utilities, config)
    assert res_e.converged and res_a.converged
    assert res_a.iterations == res_e.iterations
    assert len(res_a.trace) == len(res_e.trace)
    for re_, ra in zip(res_e.trace, res_a.trace):
        for f in ("x", "x_tilde", "mu", "rho", "g", "g_hat"):
            assert np.array_equal(getattr(ra, f), getattr(re_, f)), (re_.t, f)
        assert ra.metric == re_.metric or (math.isnan(ra.metric)
                                           and math.isnan(re_.metric))


def test_unrouted_link_carries_no_load():
    net = build_network([(1, 300.0), (2, 100.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),)
    config = SolverConfig(gamma=1e-4, epsilon=1e-6, max_iter=200, mu0=0.01,
                          x0=(200.0,))
    res_e = solve(net, utilities, config)
    res_a, _ = run_to_convergence(net, utilities, config)
    assert res_e.iterations == res_a.iterations
    for re_, ra in zip(res_e.trace, res_a.trace):
        assert np.array_equal(ra.mu, re_.mu) and np.array_equal(ra.x, re_.x)
        assert re_.g[1] == 0.0 and re_.g_hat[1] == 0.0


def random_curves(rng, n):
    utilities = [SCurveUtility(r=float(rng.uniform(64, 512)), c1=float(rng.uniform(1, 10)),
                               c2=float(rng.integers(1, 11)))
                 for _ in range(n)]
    return Curves.of(utilities)


def test_rate_and_load_kernels_are_slice_invariant():
    rng = np.random.default_rng(KERNEL_SEED)
    n = 2000
    c = random_curves(rng, n)
    xt = rng.uniform(c.lo, c.hi)
    xp = rng.uniform(c.lo, c.hi)
    rho = rng.uniform(0.0, 0.05, size=n)
    rho[::50] = 0.0  # vanishing path price: the saturating branch
    full_rates = rates(c, xt, rho)
    full_g = g_terms(c.r, c.p, xt)
    full_gh = g_hat_terms(c.r, c.p, xt, xp)
    for j in range(n):
        cj, s = c.at(j), slice(j, j + 1)
        xt_j, x_j = rates(cj, xt[s], rho[s])
        assert xt_j[0] == full_rates[0][j] and x_j[0] == full_rates[1][j], j
        assert g_terms(cj.r, cj.p, xt[s])[0] == full_g[j], j
        assert g_hat_terms(cj.r, cj.p, xt[s], xp[s])[0] == full_gh[j], j


def test_sums_add_left_to_right():
    rng = np.random.default_rng(KERNEL_SEED + 1)
    index = np.sort(rng.integers(0, 20, size=2000))
    weights = rng.standard_normal(2000) * 1e3
    expected = [0.0] * 20
    for i, w in zip(index, weights):
        expected[i] += float(w)
    assert np.array_equal(sums(index, weights, 20), np.array(expected))
