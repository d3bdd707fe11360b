"""Price/rate iteration: scalar steps, link evaluations, and solve()."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import COLLAPSE_CONFIG, SCHEDULERS, crowded_instance, recipe_x0
from scpnum import (
    IterateState,
    NonPositiveExpansionPointError,
    SCurveUtility,
    SolverConfig,
    UnknownLinkError,
    build_network,
    g_hat,
    g_true,
    is_feasible,
    kkt_residual,
    link_load,
    load_scenario,
    path_prices,
    polish,
    solve,
    steady_state_check,
    total_utility,
    update_prices,
    update_rates,
)
from scpnum.engine import Curves, g_hat_terms, g_terms, price_step, rate_step


def single_link_model():
    net = build_network([(1, 1000.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),)
    return net, utilities


def test_price_step_hand_value():
    # 1.0 - 0.1 * (10 - 10.5) = 1.05
    assert price_step(1.0, 0.1, 10.0, 10.5) == 1.05


def test_price_step_projects_at_zero():
    assert price_step(0.01, 1.0, 100.0, 1.0) == 0.0


def load_terms(r, c2, y, yp):
    """One source's (true, tangent) load terms at y, the tangent expanded at yp."""
    r, p, y, yp = (np.array([v]) for v in (r, 1.0 / c2, y, yp))
    return g_terms(r, p, y)[0], g_hat_terms(r, p, y, yp, np.power(yp, p), p - 1.0)[0]


def test_link_load_terms_hand_values():
    # r=256, c2=2: true load at y=0.36 is 256*0.6; tangent at y'=0.25
    # is 256*(0.5 + 0.5/sqrt(0.25)*(0.36-0.25)) = 256*0.61
    g, ghat = load_terms(256.0, 2.0, 0.36, 0.25)
    assert g == pytest.approx(153.6, rel=1e-14)
    assert ghat == pytest.approx(156.16, rel=1e-14)


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
        g, ghat = load_terms(r, c2, y, yp)
        assert ghat >= g - 1e-9


def test_g_hat_rejects_nonpositive_expansion():
    net, utilities = single_link_model()
    for bad in (0.0, -0.25):
        with pytest.raises(NonPositiveExpansionPointError):
            g_hat(net, utilities, np.array([0.5]), np.array([bad]), 1)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_rate_floor_that_underflows_is_rejected(scheduler):
    # (1/256)**200 underflows to 0, so a rate clipped to the floor would
    # be an expansion point of 0; the iteration checks none of its own
    net = build_network([(1, 300.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=200.0),)
    with pytest.raises(NonPositiveExpansionPointError, match="source index 0"):
        SCHEDULERS[scheduler](net, utilities, SolverConfig(gamma=1e-4, mu0=0.01))


def test_g_hat_terms_expansion_check_on_nan():
    # an elementwise test: a NaN entry passes it, and a nonpositive entry
    # beside a NaN still fails it
    one = np.ones(2)
    assert np.isnan(g_hat_terms(one, one, one, np.array([np.nan, 0.5]), one, one)[0])
    for bad in ([np.nan, -0.25], [0.0, np.nan]):
        with pytest.raises(NonPositiveExpansionPointError):
            g_hat_terms(one, one, one, np.array(bad), one, one)


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


@pytest.mark.parametrize("name", ["paper-scenario-1", "chain-3", "single-source"])
def test_solve_stays_at_the_polished_point(name):
    # polish ends at a fixed point: a solve started there stops after one
    # iteration without moving
    net, utilities, config = load_scenario(name)
    point = polish(net, utilities, solve(net, utilities, config), config)
    assert point.converged
    again = solve(net, utilities, replace(config, x0=tuple(point.x), mu0=tuple(point.mu)))
    assert again.converged
    assert again.iterations == 1
    assert np.max(np.abs(again.x - point.x)) <= 1e-9


def test_iteration_cap_reported_as_not_converged():
    net, utilities, config = load_scenario("paper-scenario-1")
    cfg = SolverConfig(gamma=config.gamma, epsilon=1e-9, max_iter=3,
                       mu0=0.01, x0=config.x0)
    res = solve(net, utilities, cfg)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.trace) == 4


@pytest.mark.parametrize("scheduler", ["engine", "agents"])
def test_collapse_below_the_knee_is_reported(scheduler):
    net, utilities = crowded_instance(0)
    cfg = SolverConfig(**COLLAPSE_CONFIG, x0=recipe_x0(net, utilities))
    res = SCHEDULERS[scheduler](net, utilities, cfg)
    # the run meets the stopping rule with every source at its minimum
    # rate and every link far below capacity
    assert res.converged
    assert res.stop_reason == "collapsed"
    assert np.all(res.x_tilde == Curves.of(utilities).lo)
    assert np.all(np.array(net.capacities) - res.trace[-1].g > cfg.feas_tol)


@pytest.mark.parametrize("scheduler", ["engine", "agents"])
def test_source_at_minimum_on_a_saturated_link_is_not_collapse(scheduler):
    # the link is too small for both knees: one source is served up to
    # the capacity and the other sits at m, which is no collapse
    net = build_network([(1, 100.0)], [(1, (1,)), (2, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),
                 SCurveUtility(r=128.0, c1=6.0, c2=2.0))
    cfg = SolverConfig(gamma=1e-4, epsilon=1e-6, max_iter=20000, mu0=1e-3)
    res = SCHEDULERS[scheduler](net, utilities, cfg)
    assert res.converged and res.stop_reason == "converged"
    assert res.x_tilde[0] == Curves.of(utilities).lo[0]
    assert abs(res.trace[-1].g[0] - 100.0) <= cfg.feas_tol


@pytest.mark.parametrize("name", ["paper-scenario-1", "chain-3", "single-source"])
@pytest.mark.parametrize("scheduler", ["engine", "agents"])
def test_stop_reason_of_built_ins(scheduler, name):
    net, utilities, config = load_scenario(name)
    res = SCHEDULERS[scheduler](net, utilities, config)
    assert res.converged and res.stop_reason == "converged"
    res = SCHEDULERS[scheduler](net, utilities, replace(config, max_iter=1))
    assert not res.converged and res.stop_reason == "max_iter"


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
    # a bool is not a price, and a str is not a sequence of prices
    for mu0 in (True, False, np.True_, "0.1"):
        with pytest.raises(ValueError, match="mu0"):
            SolverConfig(mu0=mu0)
    # any other real scalar is one price, stored as a float
    for mu0, price in ((1, 1.0), (np.int64(1), 1.0), (np.float32(0.5), 0.5)):
        stored = SolverConfig(mu0=mu0).mu0
        assert type(stored) is float and stored == price


def test_solver_config_has_one_price_order():
    # the rate step always sees the prices the price step just produced;
    # no field chooses another order
    assert [f.name for f in fields(SolverConfig)] == [
        "gamma", "epsilon", "max_iter", "mu0", "x0"]
    with pytest.raises(TypeError):
        SolverConfig(price_lag="fresh")


@pytest.mark.parametrize("field,value", [
    ("gamma", math.nan), ("gamma", math.inf), ("epsilon", math.nan),
    ("epsilon", math.inf), ("mu0", math.nan), ("mu0", math.inf),
    ("mu0", (0.1, math.nan)), ("x0", (100.0, math.inf)),
    # not numbers: a str, a bool, or a scalar where a sequence belongs
    ("x0", "12"), ("x0", ("1", "2")), ("x0", (True,)), ("x0", np.float64(3.0)),
    ("x0", np.array(3.0)),
    ("mu0", (True, 0.1)), ("mu0", ("0.1",)), ("gamma", True), ("epsilon", True),
    # out of range, also as a numpy scalar or a sequence entry
    ("gamma", np.float64(-1.0)), ("epsilon", 0.0), ("mu0", (0.1, -0.1)),
    ("mu0", np.array([0.1, -0.1])),
])
def test_solver_config_rejects_nonfinite(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, False, "10", None, np.float64(4.0)])
def test_solver_config_rejects_a_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_solver_config_takes_python_and_numpy_integers(max_iter):
    net, utilities, config = load_scenario("chain-3")
    res = solve(net, utilities, replace(config, max_iter=max_iter))
    assert res.stop_reason == "max_iter" and len(res.trace) == 4


def test_solve_validates_state_shapes():
    net, utilities = single_link_model()
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(mu0=(0.1, 0.2)))
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(x0=(10.0, 20.0)))
    with pytest.raises(ValueError):
        solve(net, utilities, SolverConfig(x0=(9000.0,)))


# chain-3 has 4 sources and 3 links: each call below is well formed but
# for one argument of the wrong shape, which used to be broadcast or
# partly ignored
XT, MU = [0.5] * 4, [0.1] * 3
MIS_SIZED = {
    "g_true-x_tilde": ("x_tilde", lambda net, u: g_true(net, u, [0.5], 1)),
    "g_true-2d": ("x_tilde", lambda net, u: g_true(net, u, [XT], 1)),
    "g_hat-x_tilde": ("x_tilde", lambda net, u: g_hat(net, u, [0.5] * 5, XT, 1)),
    "g_hat-x_tilde_prev": ("x_tilde_prev", lambda net, u: g_hat(net, u, XT, [0.5], 1)),
    "update_prices-mu": ("state.mu", lambda net, u: update_prices(
        net, u, IterateState(0, XT, XT, [0.1], XT, XT), 1e-4)),
    "update_prices-x_tilde": ("state.x_tilde", lambda net, u: update_prices(
        net, u, IterateState(0, [0.5], XT, MU, XT, XT), 1e-4)),
    "update_prices-x_tilde_prev": ("state.x_tilde_prev", lambda net, u: update_prices(
        net, u, IterateState(0, XT, [0.5], MU, XT, XT), 1e-4)),
    "update_rates-mu": ("state.mu", lambda net, u: update_rates(
        net, u, IterateState(0, XT, XT, [0.1] * 4, XT, XT))),
    "update_rates-x_tilde": ("state.x_tilde", lambda net, u: update_rates(
        net, u, IterateState(0, [0.5], XT, MU, XT, XT))),
    "path_prices-mu": ("mu", lambda net, u: path_prices(net, [0.1])),
    "path_prices-scalar": ("mu", lambda net, u: path_prices(net, 0.1)),
    "kkt_residual-x_tilde": ("x_tilde", lambda net, u: kkt_residual(net, u, [0.5], XT, MU)),
    "kkt_residual-x_tilde_prev": ("x_tilde_prev", lambda net, u: kkt_residual(
        net, u, XT, [0.5], MU)),
    "kkt_residual-mu": ("mu", lambda net, u: kkt_residual(net, u, XT, XT, [0.1])),
    "steady_state_check-x_tilde": ("state.x_tilde", lambda net, u: steady_state_check(
        net, u, IterateState(0, [0.5] * 5, XT, MU, XT, XT), 0.5)),
    "steady_state_check-x_tilde_prev": ("state.x_tilde_prev", lambda net, u: steady_state_check(
        net, u, IterateState(0, XT, [0.5], MU, XT, XT), 0.5)),
    "total_utility-x": ("x", lambda net, u: total_utility(u, [100.0] * 9)),
    "link_load-x": ("x", lambda net, u: link_load(net, [100.0] * 3, 1)),
}


@pytest.mark.parametrize("case", MIS_SIZED)
def test_views_reject_a_mis_sized_argument(case):
    net, utilities, _ = load_scenario("chain-3")
    name, call = MIS_SIZED[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must have shape"):
        call(net, utilities)


def test_views_take_well_sized_lists_as_arrays():
    net, utilities, _ = load_scenario("chain-3")
    xt, mu = np.array(XT), np.array(MU)
    as_lists = IterateState(0, XT, XT, MU, XT, XT)
    as_arrays = IterateState(0, xt, xt, mu, xt, xt)
    assert g_true(net, utilities, XT, 1) == g_true(net, utilities, xt, 1)
    assert g_hat(net, utilities, XT, XT, 3) == g_hat(net, utilities, xt, xt, 3)
    assert np.array_equal(path_prices(net, MU), path_prices(net, mu))
    assert (steady_state_check(net, utilities, as_lists, 0.5)
            == steady_state_check(net, utilities, as_arrays, 0.5))
    assert np.array_equal(update_prices(net, utilities, as_lists, 1e-4),
                          update_prices(net, utilities, as_arrays, 1e-4))
    rates = zip(update_rates(net, utilities, as_lists), update_rates(net, utilities, as_arrays))
    assert all(a.shape == (4,) and np.array_equal(a, b) for a, b in rates)
    assert total_utility(utilities, [100.0] * 4) == total_utility(utilities, np.full(4, 100.0))


# per-source arguments that numpy would turn into floats: None into NaN,
# True into 1.0, "100" and b"100" into 100.0
NOT_REAL = {"none": [None] * 4, "bool": [True] * 4, "str": ["100"] * 4, "bytes": [b"100"] * 4,
            "complex": np.full(4, 100.0 + 0j), "object": np.full(4, 100.0, dtype=object)}
RATE_ARGUMENTS = {
    "is_feasible": ("x", lambda net, u, x: is_feasible(net, x, [(v.m, v.big_m) for v in u], 0.5)),
    "g_true": ("x_tilde", lambda net, u, x: g_true(net, u, x, 1)),
    "total_utility": ("x", lambda net, u, x: total_utility(u, x)),
}


@pytest.mark.parametrize("values", NOT_REAL)
@pytest.mark.parametrize("view", RATE_ARGUMENTS)
def test_views_reject_entries_that_are_not_real_numbers(view, values):
    net, utilities, _ = load_scenario("chain-3")
    name, call = RATE_ARGUMENTS[view]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must hold real numbers"):
        call(net, utilities, NOT_REAL[values])


@pytest.mark.parametrize("view", RATE_ARGUMENTS)
def test_views_take_integer_rates_as_floats(view):
    net, utilities, _ = load_scenario("chain-3")
    _, call = RATE_ARGUMENTS[view]
    as_floats = call(net, utilities, [100.0] * 4)
    for x in ([100] * 4, np.full(4, 100, dtype=np.int32), np.full(4, 100, dtype=np.uint64)):
        assert call(net, utilities, x) == as_floats


UNKNOWN_LINK = {
    "g_true": lambda net, u: g_true(net, u, XT, 42),
    "g_hat": lambda net, u: g_hat(net, u, XT, XT, 42),
}


@pytest.mark.parametrize("view", UNKNOWN_LINK)
def test_views_reject_an_unknown_link(view):
    # as link_load does, not with a bare KeyError
    net, utilities, _ = load_scenario("chain-3")
    with pytest.raises(UnknownLinkError, match="unknown link 42"):
        UNKNOWN_LINK[view](net, utilities)
