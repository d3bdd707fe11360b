"""Price/rate iteration: scalar steps, link evaluations, and solve()."""

import math

import numpy as np
import pytest

from scpnum import (
    IterateState,
    NonPositiveExpansionPointError,
    SCurveUtility,
    SolverConfig,
    build_network,
    g_hat,
    g_true,
    kkt_residual,
    load_scenario,
    path_prices,
    solve,
    steady_state_check,
    update_prices,
    update_rates,
)
from scpnum.engine import g_hat_term, g_true_term, price_step, rate_step


def single_link_model():
    net = build_network([(1, 1000.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),)
    return net, utilities


def test_price_step_hand_value():
    # 1.0 - 0.1 * (10 - 10.5) = 1.05
    assert price_step(1.0, 0.1, 10.0, 10.5) == 1.05


def test_price_step_projects_at_zero():
    assert price_step(0.01, 1.0, 100.0, 1.0) == 0.0


def test_link_load_terms_hand_values():
    # r=256, c2=2: true load at y=0.36 is 256*0.6; tangent at y'=0.25
    # is 256*(0.5 + 0.5/sqrt(0.25)*(0.36-0.25)) = 256*0.61
    assert g_true_term(256.0, 2.0, 0.36) == pytest.approx(153.6, rel=1e-14)
    assert g_hat_term(256.0, 2.0, 0.36, 0.25) == pytest.approx(156.16, rel=1e-14)


def test_tangent_touches_at_expansion_point():
    net, utilities = single_link_model()
    for y in (0.01, 0.3, 0.9, 1.0):
        yv = np.array([y])
        assert abs(g_hat(net, utilities, yv, yv, 1)
                   - g_true(net, utilities, yv, 1)) <= 1e-12


def test_tangent_dominates_true_load():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = float(rng.uniform(64, 512))
        c2 = float(rng.integers(1, 11))
        y = float(rng.uniform(1e-6, 1.0))
        yp = float(rng.uniform(1e-6, 1.0))
        assert g_hat_term(r, c2, y, yp) >= g_true_term(r, c2, y) - 1e-9


def test_g_hat_rejects_nonpositive_expansion():
    net, utilities = single_link_model()
    with pytest.raises(NonPositiveExpansionPointError):
        g_hat(net, utilities, np.array([0.5]), np.array([0.0]), 1)


def test_rate_step_interior_stationarity():
    # at an interior update the transformed-utility slope equals the
    # path price times the tangent-load slope at the expansion point
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    rho = 0.004
    y_prev = 0.3
    y_new, x_new = rate_step(u, y_prev, rho)
    lo, hi = (u.m / u.r) ** u.c2, 1.0
    assert lo < y_new < hi
    lhs = u.c1 * math.exp(-u.c1 * y_new) / -math.expm1(-u.c1)
    rhs = rho * (u.r / u.c2) * y_prev ** (1.0 / u.c2 - 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert x_new == pytest.approx(256.0 * math.sqrt(y_new), rel=1e-14)


def test_rate_step_saturates_on_vanishing_price():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    y_new, x_new = rate_step(u, 0.5, 0.0)
    assert y_new == 1.0
    assert x_new == u.big_m


def test_rate_step_clamps_to_minimum_on_huge_price():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0, m=10.0)
    y_new, x_new = rate_step(u, 0.5, 1e9)
    assert y_new == pytest.approx((10.0 / 256.0) ** 2.0, rel=1e-14)
    assert x_new == 10.0


def test_path_prices_sum_along_routes():
    net = build_network([(1, 10.0), (2, 10.0), (3, 10.0)],
                        [(1, (1, 2, 3)), (2, (2,))])
    rho = path_prices(net, np.array([0.001, 0.002, 0.003]))
    assert rho[0] == pytest.approx(0.006, rel=1e-15)
    assert rho[1] == 0.002


def test_vector_updates_match_scalar_helpers():
    net, utilities, config = load_scenario("chain-3")
    res = solve(net, utilities, config)
    state = res.trace[5]
    st = IterateState(t=5, x_tilde=state.x_tilde,
                      x_tilde_prev=res.trace[4].x_tilde,
                      mu=state.mu, rho=state.rho,
                      x=state.x)
    mu_new = update_prices(net, utilities, st, config.gamma)
    for i, lid in enumerate(net.link_ids):
        gh = g_hat(net, utilities, st.x_tilde, st.x_tilde_prev, lid)
        assert mu_new[i] == price_step(float(st.mu[i]), config.gamma,
                                       net.capacities[i], gh)
    st2 = IterateState(t=5, x_tilde=st.x_tilde, x_tilde_prev=st.x_tilde_prev,
                       mu=mu_new, rho=st.rho, x=st.x)
    xt, x, rho = update_rates(net, utilities, st2)
    for j in range(net.n_sources):
        yj, xj = rate_step(utilities[j], float(st.x_tilde[j]), float(rho[j]))
        assert xt[j] == yj and x[j] == xj
    # reassembled step reproduces the recorded next iterate exactly
    assert np.array_equal(mu_new, res.trace[6].mu)
    assert np.array_equal(xt, res.trace[6].x_tilde)
    assert np.array_equal(x, res.trace[6].x)


def test_solve_shared_link_scenario():
    net, utilities, config = load_scenario("paper-scenario-1")
    res = solve(net, utilities, config)
    assert res.converged
    assert res.iterations <= 500
    load = g_true(net, utilities, res.x_tilde, 1)
    assert 999.0 <= load <= 1000.5
    assert len(res.trace) == res.iterations + 1
    assert res.trace[0].t == 0
    assert math.isnan(res.trace[0].metric)
    assert res.trace[-1].metric < config.epsilon


def test_explicit_initial_state_recorded():
    net, utilities, config = load_scenario("paper-scenario-1")
    res = solve(net, utilities, config)
    assert np.array_equal(res.trace[0].x, np.array(config.x0))
    assert np.array_equal(res.trace[0].mu, np.array([config.mu0]))


def test_midpoint_initialization():
    net, utilities = single_link_model()
    cfg = SolverConfig(max_iter=1, epsilon=1e-12)
    res = solve(net, utilities, cfg)
    assert res.trace[0].x[0] == (1.0 + 256.0) / 2.0


def test_fresh_and_lagged_share_fixed_points():
    net, utilities, _ = load_scenario("paper-scenario-1")
    base = dict(gamma=2e-5, epsilon=1e-8, max_iter=200000, mu0=0.01,
                x0=(200.0,) * 5)
    fresh = solve(net, utilities, SolverConfig(price_lag="fresh", **base))
    lagged = solve(net, utilities, SolverConfig(price_lag="lagged", **base))
    assert fresh.converged and lagged.converged
    assert np.max(np.abs(fresh.x - lagged.x)) <= 1e-6
    assert np.max(np.abs(fresh.mu - lagged.mu)) <= 1e-9


def test_iteration_cap_reported_as_not_converged():
    net, utilities, config = load_scenario("paper-scenario-1")
    cfg = SolverConfig(gamma=config.gamma, epsilon=1e-9, max_iter=3,
                       mu0=0.01, x0=config.x0)
    res = solve(net, utilities, cfg)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.trace) == 4


def test_steady_state_check_at_convergence():
    net, utilities, config = load_scenario("paper-scenario-1")
    res = solve(net, utilities, config)
    st = IterateState(t=res.iterations, x_tilde=res.x_tilde,
                      x_tilde_prev=res.x_tilde_prev, mu=res.mu, rho=res.rho,
                      x=res.x)
    assert steady_state_check(net, utilities, st, config.feas_tol)
    # a stale expansion point far from the iterate breaks the equivalence
    st_bad = IterateState(t=0, x_tilde=res.x_tilde,
                          x_tilde_prev=res.x_tilde * 0.2, mu=res.mu,
                          rho=res.rho, x=res.x)
    assert not steady_state_check(net, utilities, st_bad, config.feas_tol)


def test_kkt_residual_at_converged_state():
    net, utilities, config = load_scenario("paper-scenario-1")
    res = solve(net, utilities, config)
    kkt = kkt_residual(net, utilities, res.x_tilde, res.x_tilde_prev, res.mu)
    assert kkt.stationarity.shape == (5,)
    assert kkt.slack.shape == (1,)
    # every source is strictly interior here
    assert np.max(np.abs(kkt.stationarity_normalized)) <= 1e-10
    assert np.max(np.abs(kkt.slack_normalized)) <= 1e-2


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(mu0=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(price_lag="stale")


@pytest.mark.parametrize("field,value", [
    ("gamma", math.nan), ("gamma", math.inf), ("epsilon", math.nan),
    ("epsilon", math.inf), ("mu0", math.nan), ("mu0", math.inf),
    ("mu0", (0.1, math.nan)), ("x0", (100.0, math.inf)), ("feas_tol", math.nan),
    ("feas_tol", math.inf),
])
def test_solver_config_rejects_nonfinite(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_solve_validates_state_shapes():
    net, utilities = single_link_model()
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(mu0=(0.1, 0.2)))
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(x0=(10.0, 20.0)))
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(x0=(9000.0,)))
