"""Array kernels: the summation order and slice invariance that keep the
engine and the agents bitwise-equal on links with many sources, and the
loads each iterate carries in place of evaluating the kernels again."""

import math

import numpy as np
import pytest

import scpnum.network

from helpers import SCHEDULERS, crowded_instance, recipe_x0, reference_loads, reference_step
from scpnum import (
    SCurveUtility,
    SolverConfig,
    build_network,
    load_scenario,
    run_to_convergence,
    solve,
)
from scpnum.engine import (RHO_FLOOR, Curves, IterateState, Model, g_terms, rates,
                           tangent_terms)
from scpnum.network import sums

KERNEL_SEED = 20261017


def crowded_config(net, utilities, **kw):
    return SolverConfig(**{"gamma": 1e-6, "epsilon": 1e-6, "max_iter": 3000, "mu0": 1e-4,
                           "x0": recipe_x0(net, utilities), **kw})


def test_crowded_links_trace_equivalence():
    net, utilities = crowded_instance()
    assert max(len(on) for on in net.sources_on_link) >= 8
    config = crowded_config(net, utilities)
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
    full_gh = tangent_terms(c.r, c.p, xt, xp, np.power(xp, c.p), c.p_minus_1)
    for j in range(n):
        s = slice(j, j + 1)
        cj = Curves._make(a[s] for a in c)
        xt_j, x_j, w_j = rates(cj, xt[s], rho[s])
        assert xt_j[0] == full_rates[0][j] and x_j[0] == full_rates[1][j], j
        assert w_j[0] == full_rates[2][j], j
        assert g_terms(cj.r, cj.p, xt[s])[0] == full_g[j], j
        assert tangent_terms(cj.r, cj.p, xt[s], xp[s], np.power(xp[s], cj.p),
                             cj.p_minus_1)[0] == full_gh[j], j


def test_sums_add_left_to_right():
    rng = np.random.default_rng(KERNEL_SEED + 1)
    index = np.sort(rng.integers(0, 20, size=2000))
    weights = rng.standard_normal(2000) * 1e3
    expected = [0.0] * 20
    for i, w in zip(index, weights):
        expected[i] += float(w)
    assert np.array_equal(sums(index, weights, 20), np.array(expected))


def test_link_sums_add_each_link_in_source_order():
    # rank-major order interleaves the links but keeps each link's pairs
    # in ascending source order, so every load equals a per-link loop
    net, _ = crowded_instance()
    inc = net.incidence
    pairs = sorted(zip(inc.rank_link.tolist(), inc.rank_src.tolist()))
    assert pairs == sorted(zip(inc.link.tolist(), inc.src.tolist()))
    for lid in range(net.n_links):
        assert inc.rank_src[inc.rank_link == lid].tolist() == inc.src[inc.link == lid].tolist()
    per_source = np.random.default_rng(KERNEL_SEED + 2).standard_normal(net.n_sources) * 1e3
    expected = [0.0] * net.n_links
    for i, on in enumerate(net.sources_on_link):
        for sid in on:
            expected[i] += float(per_source[net.source_index[sid]])
    assert np.array_equal(inc.link_sums(per_source), np.array(expected))


# whether some path price of the 60 steps is below RHO_FLOOR: the cases
# cover both ways through the rate step
SATURATES = {"crowded": True, "crowded-mu0-0": True, "paper-scenario-1": False,
             "chain-3": True, "single-source": False}


def step_case(case):
    if not case.startswith("crowded"):
        return load_scenario(case)
    net, utilities = crowded_instance()
    # zero start prices saturate the first rate step
    kw = {"mu0": 0.0} if case == "crowded-mu0-0" else {}
    return net, utilities, crowded_config(net, utilities, **kw)


@pytest.mark.parametrize("case", SATURATES)
def test_step_matches_the_reference_step(case):
    net, utilities, config = step_case(case)
    model = Model(net, utilities)
    state = ref = model.initial_state(config)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        (ref.g, ref.g_hat), reference_loads(model, ref.x_tilde, ref.x_tilde, ref.w, ref.w)))
    saturated = 0
    for _ in range(60):
        state, ref = model.step(state, config.gamma), reference_step(model, ref, config.gamma)
        assert state.t == ref.t
        for f in IterateState.__dataclass_fields__:
            if f != "t":
                a, b = getattr(state, f), getattr(ref, f)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (ref.t, f)
        saturated += bool(np.any(ref.rho < RHO_FLOOR))
    assert (saturated > 0) == SATURATES[case]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_carried_loads_equal_fresh_kernels(scheduler):
    net, utilities = crowded_instance()
    res = SCHEDULERS[scheduler](net, utilities, crowded_config(net, utilities))
    assert res.converged
    model = Model(net, utilities)
    prev = res.trace[0].x_tilde
    for rec in res.trace:
        assert np.array_equal(rec.g, model.g_true(rec.x_tilde)), rec.t
        assert np.array_equal(rec.g_hat, model.g_hat(rec.x_tilde, prev)), rec.t
        prev = rec.x_tilde


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_load_kernels_are_not_called_per_iteration(monkeypatch, scheduler):
    calls = []
    for name in ("g_true", "g_hat"):
        kernel = getattr(Model, name)

        def counted(self, *args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(self, *args)

        monkeypatch.setattr(Model, name, counted)
    bincount, step = scpnum.network.sums, Model.step
    steps = []  # the bincounts each Model.step made

    def counted_sums(*args):
        calls.append("sums")
        return bincount(*args)

    def counted_step(self, *args):
        before = calls.count("sums")
        new = step(self, *args)
        steps.append(calls.count("sums") - before)
        return new

    monkeypatch.setattr(scpnum.network, "sums", counted_sums)
    monkeypatch.setattr(Model, "step", counted_step)
    net, utilities = crowded_instance()
    counts = []
    for max_iter in (2, 40):
        calls.clear()
        steps.clear()
        # epsilon this small is never met in 40 iterations
        res = SCHEDULERS[scheduler](net, utilities, crowded_config(
            net, utilities, epsilon=1e-300, max_iter=max_iter))
        assert res.iterations == max_iter
        # each iteration of either scheduler is one Model.step, so the
        # agents do no arithmetic of their own; a step sums twice: the
        # path prices, then g and ĝ in one bincount
        assert steps == [2] * res.iterations
        counts.append(calls.count("g_true") + calls.count("g_hat"))
    assert counts[0] == counts[1]
