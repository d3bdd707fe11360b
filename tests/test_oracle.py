"""Grid-search oracle, sampled local optimality, and gradient checking."""

import itertools

import numpy as np
import pytest

from scpnum import (
    BudgetExceededError,
    DEFAULT_PERTURBATION_SEED,
    DomainBoundaryError,
    GridSpec,
    InfeasibleCandidateError,
    NoFeasiblePointError,
    SCurveUtility,
    build_network,
    eval_scurve,
    fd_gradient_check,
    grid_search,
    is_feasible,
    local_opt_test,
    perturbation_seed,
    total_utility,
)


def capped_single_source(capacity=100.0):
    net = build_network([(1, capacity)], [(1, (1,))])
    return net, (SCurveUtility(r=256.0, c1=6.0, c2=2.0),)


def test_total_utility_sums_curves():
    _, utilities = capped_single_source()
    u2 = utilities + (SCurveUtility(r=128.0, c1=4.0, c2=3.0),)
    x = np.array([100.0, 64.0])
    expect = eval_scurve(u2[0], 100.0) + eval_scurve(u2[1], 64.0)
    assert total_utility(u2, x) == pytest.approx(expect, rel=1e-15)


def test_grid_finds_capped_monotone_optimum():
    # utility rises with rate, so the optimum sits at the capacity
    net, utilities = capped_single_source(100.0)
    res = grid_search(net, utilities, GridSpec())
    assert res.feasible
    assert abs(res.x[0] - 100.0) <= res.resolution
    assert res.evaluations == 3 * 64
    assert res.utility == pytest.approx(eval_scurve(utilities[0], res.x[0]),
                                        rel=1e-15)


def test_grid_refinement_tightens_resolution():
    net, utilities = capped_single_source(100.0)
    coarse = grid_search(net, utilities, GridSpec(refinement_passes=0))
    fine = grid_search(net, utilities, GridSpec(refinement_passes=2))
    assert fine.resolution < coarse.resolution
    assert fine.utility >= coarse.utility - 1e-15


def test_grid_respects_capacity():
    net = build_network([(1, 300.0)], [(1, (1,)), (2, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),
                 SCurveUtility(r=256.0, c1=6.0, c2=8.0))
    res = grid_search(net, utilities, GridSpec())
    assert res.feasible
    assert res.x[0] + res.x[1] <= 300.0 + 1e-6


def test_grid_unconstrained_saturates_everyone():
    net = build_network([(1, 5000.0)], [(1, (1,)), (2, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),
                 SCurveUtility(r=128.0, c1=5.0, c2=4.0))
    res = grid_search(net, utilities, GridSpec(refinement_passes=0))
    # grid endpoints include each upper bound
    assert res.x[0] == 256.0 and res.x[1] == 128.0


def test_grid_no_feasible_point():
    net = build_network([(1, 40.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0, m=50.0),)
    with pytest.raises(NoFeasiblePointError):
        grid_search(net, utilities, GridSpec())


def brute_force(net, utilities, n, feas_tol):
    """Every grid point in lexicographic order; the first strictly best
    feasible one wins."""
    grids = [np.linspace(u.m, u.big_m, n) for u in utilities]
    bounds = [(u.m, u.big_m) for u in utilities]
    best_x, best_u = None, -np.inf
    for point in itertools.product(*grids):
        x = np.array(point)
        if is_feasible(net, x, bounds, feas_tol).ok:
            u = total_utility(utilities, x)
            if u > best_u:
                best_x, best_u = x, u
    return best_x, best_u


S_CURVES = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),
            SCurveUtility(r=192.0, c1=5.0, c2=4.0),
            SCurveUtility(r=320.0, c1=7.0, c2=6.0))

# capacities are not sums of grid nodes, so the scan's and the
# reference's summation orders cannot disagree on a boundary point
BRUTE_FORCE_CASES = {
    "one-source": ([(1, 100.3)], [(1, (1,))], S_CURVES[:1], 12),
    # link 1 cuts only the first source's axis; link 3 carries no source
    "cut-first-axis": ([(1, 150.7), (2, 301.3), (3, 50.0)], [(1, (1, 2)), (2, (2,))],
                       S_CURVES[:2], 10),
    # identical curves tie at swapped points; the smaller first rate wins
    "tie": ([(1, 300.1)], [(1, (1,)), (2, (1,))], S_CURVES[:1] * 2, 11),
    "chain": ([(1, 330.7), (2, 290.3)], [(1, (1, 2)), (2, (1,)), (3, (2,))], S_CURVES, 9),
}


@pytest.mark.parametrize("case", BRUTE_FORCE_CASES)
def test_grid_matches_brute_force(case):
    links, routes, utilities, n = BRUTE_FORCE_CASES[case]
    net = build_network(links, routes)
    spec = GridSpec(points_per_dim=n, refinement_passes=0)
    res = grid_search(net, utilities, spec)
    ref_x, ref_u = brute_force(net, utilities, n, spec.feas_tol)
    assert res.x.tobytes() == ref_x.tobytes()
    assert res.utility == pytest.approx(ref_u, rel=1e-12)
    assert res.evaluations == n ** len(utilities)


def test_grid_source_budget():
    net = build_network([(1, 5000.0)], [(s, (1,)) for s in range(1, 7)])
    utilities = tuple(SCurveUtility(r=256.0, c1=6.0, c2=2.0) for _ in range(6))
    with pytest.raises(BudgetExceededError):
        grid_search(net, utilities, GridSpec())


def test_grid_eval_budget():
    net = build_network([(1, 300.0)], [(1, (1,)), (2, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),) * 2
    with pytest.raises(BudgetExceededError):
        grid_search(net, utilities, GridSpec(points_per_dim=64,
                                             max_evals_per_pass=1000))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_dim=1)
    with pytest.raises(ValueError):
        GridSpec(refinement_passes=-1)


def test_local_opt_accepts_saturated_source():
    # capacity above the max rate: x = big_m is the unique optimum
    net, utilities = capped_single_source(300.0)
    report = local_opt_test(net, utilities, np.array([256.0]), seed=12)
    assert report.passed
    assert report.best_gain == 0.0
    assert report.best_point is None
    assert report.samples_feasible > 0


def test_local_opt_rejects_interior_suboptimal_point():
    net, utilities = capped_single_source(300.0)
    report = local_opt_test(net, utilities, np.array([200.0]), seed=12)
    assert not report.passed
    assert report.best_gain > 0.0
    assert report.best_point is not None and report.best_point[0] > 200.0


def test_local_opt_infeasible_candidate():
    net, utilities = capped_single_source(100.0)
    with pytest.raises(InfeasibleCandidateError):
        local_opt_test(net, utilities, np.array([150.0]))


def test_local_opt_deterministic_per_seed():
    net, utilities = capped_single_source(300.0)
    a = local_opt_test(net, utilities, np.array([200.0]), seed=99)
    b = local_opt_test(net, utilities, np.array([200.0]), seed=99)
    assert a.best_gain == b.best_gain
    assert a.samples_feasible == b.samples_feasible


def test_perturbation_seed_env_override(monkeypatch):
    monkeypatch.delenv("SCPNUM_SEED", raising=False)
    assert perturbation_seed() == DEFAULT_PERTURBATION_SEED
    monkeypatch.setenv("SCPNUM_SEED", "4242")
    assert perturbation_seed() == 4242


def test_fd_gradient_check_accepts_correct_gradient():
    def cubic(x):
        return float(np.sum(x ** 3)), 3.0 * x ** 2

    err = fd_gradient_check(cubic, np.array([1.0, 2.0, -0.5]), step=1e-5)
    assert err <= 1e-8


def test_fd_gradient_check_flags_wrong_gradient():
    def wrong(x):
        return float(np.sum(x ** 3)), 2.0 * x ** 2

    err = fd_gradient_check(wrong, np.array([1.0, 2.0]), step=1e-5)
    assert err > 0.1


def test_fd_gradient_check_domain_guard():
    def f(x):
        return float(np.sum(x ** 2)), 2.0 * x

    with pytest.raises(DomainBoundaryError):
        fd_gradient_check(f, np.array([0.0]), step=1e-6,
                          bounds=(np.array([0.0]), np.array([1.0])))
