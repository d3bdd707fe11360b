"""Grid-search oracle, sampled local optimality, and gradient checking."""

import gc
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import scpnum.oracle
from scpnum import (
    BUILT_IN_SCENARIOS,
    BudgetExceededError,
    DEFAULT_PERTURBATION_SEED,
    DomainBoundaryError,
    GridSpec,
    InfeasibleCandidateError,
    LocalOptReport,
    NoFeasiblePointError,
    SCurveUtility,
    build_network,
    eval_scurve,
    fd_gradient_check,
    grid_search,
    is_feasible,
    load_scenario,
    local_opt_test,
    perturbation_seed,
    polish,
    solve,
    total_utility,
)
from helpers import INSTANCE_SEED, gen_instance


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


def test_grid_defaults_its_spec():
    net, utilities, _ = load_scenario("single-source")
    res, expected = grid_search(net, utilities), grid_search(net, utilities, GridSpec())
    assert np.array_equal(res.x, expected.x) and res.utility == expected.utility
    assert res.evaluations == expected.evaluations


def test_grid_rejects_the_wrong_number_of_utilities():
    net, utilities, _ = load_scenario("single-source")
    with pytest.raises(ValueError, match=r"^2 utilities for 1 sources$"):
        grid_search(net, utilities * 2, GridSpec())


@pytest.mark.parametrize("passed", [True, False])
def test_local_opt_report_is_true_when_passed(passed):
    assert bool(LocalOptReport(passed, 10, 0.0, None)) is passed


def test_grid_no_feasible_point():
    net = build_network([(1, 40.0)], [(1, (1,))])
    utilities = (SCurveUtility(r=256.0, c1=6.0, c2=2.0, m=50.0),)
    with pytest.raises(NoFeasiblePointError):
        grid_search(net, utilities, GridSpec())


def brute_force(net, utilities, spec):
    """The grid search as a point-by-point walk: every pass visits every
    grid point in lexicographic order, and only a strictly better
    feasible point replaces the incumbent."""
    lows = np.array([u.m for u in utilities])
    widths = np.array([u.big_m for u in utilities]) - lows
    bounds = [(u.m, u.big_m) for u in utilities]
    best_x, best_u = None, -np.inf
    for _ in range(spec.refinement_passes + 1):
        grids = [np.linspace(lo, lo + w, spec.points_per_dim) for lo, w in zip(lows, widths)]
        for point in itertools.product(*grids):
            x = np.array(point)
            if is_feasible(net, x, bounds, spec.feas_tol).ok:
                u = total_utility(utilities, x)
                if u > best_u:
                    best_x, best_u = x, u
        widths = widths / 4.0
        lows = np.array([min(max(u.m, bx - w / 2.0), u.big_m - w)
                         for u, bx, w in zip(utilities, best_x, widths)])
    return best_x, best_u


S_CURVES = (SCurveUtility(r=256.0, c1=6.0, c2=2.0),
            SCurveUtility(r=192.0, c1=5.0, c2=4.0),
            SCurveUtility(r=320.0, c1=7.0, c2=6.0))
# exp(-40 x/128) is lost next to 1 above x = 119.8 Kbps, so every rate
# above that has the same utility
PLATEAU = SCurveUtility(r=128.0, c1=40.0, c2=1.0)

# (links, routes, utilities, points per dim, refinement passes); the
# capacities are not sums of grid nodes, so the scan's and the
# reference's summation orders cannot disagree on a boundary point
BRUTE_FORCE_CASES = {
    "one-source": ([(1, 100.3)], [(1, (1,))], S_CURVES[:1], 12, 0),
    # link 1 cuts only the first source's axis; link 3 carries no source
    "cut-first-axis": ([(1, 150.7), (2, 301.3), (3, 50.0)], [(1, (1, 2)), (2, (2,))],
                       S_CURVES[:2], 10, 0),
    # identical curves tie at swapped points; the smaller first rate wins
    "tie": ([(1, 300.1)], [(1, (1,)), (2, (1,))], S_CURVES[:1] * 2, 11, 0),
    "chain": ([(1, 330.7), (2, 290.3)], [(1, (1, 2)), (2, (1,)), (3, (2,))], S_CURVES, 9, 0),
    # chain-3's shape: each tail source has a link of its own, so the
    # first level's bound is tight and one chunk per pass is scanned
    "independent-tails": ([(1, 420.3), (2, 450.7), (3, 400.1)],
                          [(1, (1, 2, 3)), (2, (1,)), (3, (2,)), (4, (3,))],
                          tuple(SCurveUtility(r=256.0, c1=6.0, c2=c2)
                                for c2 in (4.0, 2.0, 6.0, 8.0)),
                          7, 2),
    # first rates 3 and 4 reach the same utility, but 4 has the higher
    # bound and is scanned first; 3, whose bound equals that utility,
    # must still be scanned and win the tie
    "tie-scanned-late": ([(1, 699.8)], [(1, (1,)), (2, (1,)), (3, (1,))],
                         S_CURVES[:1] * 2 + S_CURVES[1:2], 5, 0),
    # the first pass ends on the plateau at 128 Kbps; the refined grid
    # reaches the plateau at lower rates, which tie and must not win
    "refinement-tie": ([(1, 300.3)], [(1, (1,))], (PLATEAU,), 12, 2),
    # every pass of a grid_search call scans a new grid: 0-d chunks for
    # one source, 1-d ones for two, and for four sources on one link 3-d
    # ones whose feasible set in a refined pass differs from the first
    # pass's at the same positions
    "one-source-refined": ([(1, 97.3)], [(1, (1,))], S_CURVES[2:], 9, 2),
    "two-sources-refined": ([(1, 250.3)], [(1, (1,)), (2, (1,))], S_CURVES[:2], 8, 2),
    "shared-link-refined": ([(1, 700.3)], [(s, (1,)) for s in range(1, 5)],
                            S_CURVES + (SCurveUtility(r=224.0, c1=5.5, c2=3.0),), 6, 2),
    # sources 2 and 3 share a curve, so under the best first rate the
    # second rates 153.8 and 192 reach the same utility under the scan's
    # sum; when the descent fixes the second source too (the chunked
    # tests), 192 has the higher bound, by rounding, and is scanned
    # first, and 153.8 must still be scanned and win
    "row-tie": ([(1, 645.33)], [(s, (1,)) for s in range(1, 5)],
                (S_CURVES[2], S_CURVES[1], S_CURVES[1], PLATEAU), 6, 0),
    # the third source's rates from 128.5 to 256 Kbps all tie on the
    # plateau; they lie in one chunk, or in one-point chunks when the
    # descent fixes every source, and the first must win
    "sub-row-tie": ([(1, 300.7), (2, 299.9)], [(1, (1,)), (2, (1,)), (3, (2,))],
                    S_CURVES[:2] + (SCurveUtility(r=128.0, c1=40.0, c2=1.0, big_m=256.0),), 9, 0),
    # five sources on one link, the most the grid takes: the chunked
    # tests fix two, three and all five of them before a chunk, and the
    # best point starves the third source at its lowest rate
    "five-sources": ([(1, 650.3)], [(s, (1,)) for s in range(1, 6)],
                     S_CURVES + (SCurveUtility(r=224.0, c1=5.5, c2=3.0),
                                 SCurveUtility(r=160.0, c1=4.5, c2=5.0)), 5, 1),
}


@pytest.mark.parametrize("case", BRUTE_FORCE_CASES)
def test_grid_matches_brute_force(case):
    links, routes, utilities, n, passes = BRUTE_FORCE_CASES[case]
    net = build_network(links, routes)
    spec = GridSpec(points_per_dim=n, refinement_passes=passes)
    res = grid_search(net, utilities, spec)
    ref_x, ref_u = brute_force(net, utilities, spec)
    assert res.x.tobytes() == ref_x.tobytes()
    assert res.utility == pytest.approx(ref_u, rel=1e-12)
    assert res.evaluations == (passes + 1) * n ** len(utilities)


# the results of scanning every point in index order, which the pruned
# scan must reproduce bit for bit
PINNED_GRID = {
    "chain-3": (["0x1.59cb6db6db6dbp+7", "0x1.ee09e79e79e7ap+7", "0x1.0000000000000p+8",
                 "0x1.c611861861861p+7"], "3.6150966479831057", 3 * 64 ** 4),
    "single-source": (["0x1.8f26186186186p+6"], "0.599619693553651", 3 * 64),
    "paper-scenario-1": (["0x1.d6fe79e79e79dp+6", "0x1.7e39249249249p+7", "0x1.b6e3cf3cf3cf3p+7",
                          "0x1.d0b1861861862p+7", "0x1.de5aaaaaaaaaap+7"],
                         "4.371258553537359", 3 * 64 ** 5),
}


@pytest.mark.parametrize("name", PINNED_GRID)
def test_grid_result_is_pinned(name):
    x_hex, utility, evaluations = PINNED_GRID[name]
    net, utilities, _ = load_scenario(name)
    res = grid_search(net, utilities, GridSpec())
    assert res.x.dtype == np.float64 and res.x.shape == (len(x_hex),)
    assert [float.hex(v) for v in res.x.tolist()] == x_hex
    assert repr(res.utility) == utility
    assert res.evaluations == evaluations
    assert repr(res.resolution) == "0.25297619047619047"
    assert res.feasible


def test_grid_ties_break_under_the_scan_sum():
    # sources 1 and 4 share a curve; (126.9, ..., 130.1) and its swap tie
    # under total_utility's order, but the scan's sum U0 + ((U1 + U2) +
    # U3) rates this point one ulp higher, so the scan returns it
    net = build_network([(1, 700.3)], [(s, (1,)) for s in range(1, 5)])
    utilities = S_CURVES + S_CURVES[:1]
    res = grid_search(net, utilities, GridSpec(points_per_dim=6, refinement_passes=2))
    assert [float.hex(v) for v in res.x.tolist()] == [
        "0x1.fba0000000000p+6", "0x1.576999999999ap+7", "0x1.0e27fffffffffp+8",
        "0x1.0430000000000p+7"]
    assert repr(res.utility) == "3.4498239754275253"


def chunk_points(size, n, n_sources):
    """CHUNK_POINTS for one point per chunk (the descent fixes every
    source), or for k * n**(S-2) or k * n**(S-3) points with k < n not
    dividing n (it fixes two or three sources, and a chunk is smaller
    than CHUNK_POINTS). Any of them makes the grid of two or more
    sources after the first larger than a chunk, so the descent goes
    deeper than at the default size."""
    if size == "one-point":
        return 1
    if size == "rows-not-dividing":
        return next(k for k in range(3, n) if n % k) * n ** max(n_sources - 2, 0)
    return next(k for k in range(2, n) if n % k) * n ** max(n_sources - 3, 0)


CHUNK_SIZES = ["one-point", "rows-not-dividing", "sub-rows-not-dividing"]


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("case", BRUTE_FORCE_CASES)
def test_chunked_grid_matches_brute_force(monkeypatch, case, size):
    # at one point per chunk the tie case's tied points fall in different chunks
    links, routes, utilities, n, passes = BRUTE_FORCE_CASES[case]
    net = build_network(links, routes)
    spec = GridSpec(points_per_dim=n, refinement_passes=passes)
    whole = grid_search(net, utilities, spec)  # the descent fixes the first source only
    monkeypatch.setattr(scpnum.oracle, "CHUNK_POINTS", chunk_points(size, n, len(utilities)))
    res = grid_search(net, utilities, spec)
    ref_x, ref_u = brute_force(net, utilities, spec)
    assert res.x.tobytes() == ref_x.tobytes()
    assert res.utility == pytest.approx(ref_u, rel=1e-12)
    assert res.evaluations == (passes + 1) * n ** len(utilities)
    # the same first rates are visited, and the deeper bounds skip parts of them
    if len(utilities) > 1:
        assert res.scanned < whole.scanned
    else:
        assert res.scanned == whole.scanned


# per scenario, the scanned count at each CHUNK_SIZES entry: one chunk
# per pass, of the sources that the descent leaves free at that size
PINNED_CHUNKED_SCANNED = {
    "chain-3": {"one-point": 3, "rows-not-dividing": 3 * 64 ** 2, "sub-rows-not-dividing": 3 * 64},
    "single-source": {"one-point": 3, "rows-not-dividing": 3, "sub-rows-not-dividing": 3},
    "paper-scenario-1": {"one-point": 3, "rows-not-dividing": 3 * 64 ** 3,
                         "sub-rows-not-dividing": 3 * 64 ** 2},
}


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("name", PINNED_GRID)
def test_chunked_grid_result_is_pinned(monkeypatch, name, size):
    x_hex, utility, evaluations = PINNED_GRID[name]
    net, utilities, _ = load_scenario(name)
    monkeypatch.setattr(scpnum.oracle, "CHUNK_POINTS", chunk_points(size, 64, len(utilities)))
    res = grid_search(net, utilities, GridSpec())
    assert [float.hex(v) for v in res.x.tolist()] == x_hex
    assert repr(res.utility) == utility
    assert res.evaluations == evaluations
    assert res.scanned == PINNED_CHUNKED_SCANNED[name][size]


def test_grid_scans_one_row_per_pass():
    # chain-3's tail sources each have a link of their own, so the bound
    # is tight and one 64**2-point chunk (a row, with the first two
    # sources fixed) is scanned per pass
    net, utilities, _ = load_scenario("chain-3")
    assert grid_search(net, utilities, GridSpec()).scanned == 3 * 64 ** 2
    # paper-scenario-1's five sources share one link, which only the
    # meet-in-the-middle bound counts; the descent fixes three of them,
    # and one 64**2-point chunk is scanned per pass
    net, utilities, _ = load_scenario("paper-scenario-1")
    assert grid_search(net, utilities, GridSpec()).scanned == 3 * 64 ** 2


# per gen_instance draw from default_rng(INSTANCE_SEED), the first 16 hex
# digits of sha256(x bytes + repr(utility)) of its grid_search result,
# as the scan of every point in index order returned them
SEEDED_DIGESTS = {
    "default": ["269bcdaa76be18e4", "d69abd9cfd2dd262", "496610f9d2adb86b", "0470335fbc6f21af",
                "a74883d4df5d2e73", "79766e347eef1311", "ba1d88bd79622086", "3c58f61337b25600",
                "ab657abaf6eefe90", "01309c494aa725c6", "7fdf1dd87319d7b6", "8c0fe625fe45fb2b",
                "6553276c7a121572", "dd69c004f94368ba", "24b7a2f196616c96", "243ec2aa060506fb",
                "5854cb540ac25d9c", "33562afe14ed2adc", "bcd30ca6e30128c5", "2acb1917a4eb11fb"],
    "16x3": ["3f143eccfc5aaeeb", "48f70395e64b0139", "67c3f3a81de267b3", "485402aefa5e166d",
             "94e7bd1723f6bfe2", "b2e4a67988239389", "baf34d7538061ccf", "93d4a3307f093842",
             "cdcecf9d716a6ea5", "e3bbcead7994f748", "3c4b9b36fa815bd0", "878c5c2c7a79867a",
             "1af6927e23dc6387", "492cfeab33e91e1d", "cbd312e5b989b06d", "ef31b46c521f9291",
             "aad4d84a77f127e4", "2f877b6ef1831e4d", "87a6e745aeb9504a", "5b208bd5d8c81413"],
}
# per draw, the scanned count of its grid_search result: a change to
# which chunks the scan visits fails even where the result stays
SEEDED_SCANNED = {
    "default": [12288, 192, 12288, 192, 12288, 12288, 192, 12288, 2, 12288,
                192, 3, 192, 8192, 12288, 12288, 1, 12288, 3, 3],
    "16x3": [1024, 64, 1024, 64, 1024, 1024, 64, 1024, 4, 1024,
             64, 3, 64, 1024, 1024, 1024, 4, 1024, 4, 4],
}
SEEDED_SPECS = {"default": GridSpec(), "16x3": GridSpec(points_per_dim=16, refinement_passes=3)}


@pytest.mark.parametrize("spec", SEEDED_SPECS)
def test_grid_seeded_draws_are_pinned(spec):
    rng = np.random.default_rng(INSTANCE_SEED)
    digests, scanned = [], []
    for _ in range(20):
        res = grid_search(*gen_instance(rng), SEEDED_SPECS[spec])
        digests.append(hashlib.sha256(res.x.tobytes() + repr(res.utility).encode()).hexdigest()[:16])
        scanned.append(res.scanned)
    assert digests == SEEDED_DIGESTS[spec]
    assert scanned == SEEDED_SCANNED[spec]


@pytest.mark.parametrize("size", [None, *CHUNK_SIZES])
def test_grid_capacity_on_grid_nodes_is_pinned(monkeypatch, size):
    # 134.8 + 179.4 + 153.8 + 103 = 571 Kbps: the best point fills the
    # link exactly, with no feas_tol slack. The bound sums it in another
    # order, which rounds above 571; only the budget pad keeps the
    # point's rates at every level of the descent from being skipped
    utilities = (SCurveUtility(r=224.0, c1=5.5, c2=3.0),) * 2 + S_CURVES[1::-1]
    net = build_network([(1, 571.0)], [(s, (1,)) for s in range(1, 5)])
    if size is not None:
        monkeypatch.setattr(scpnum.oracle, "CHUNK_POINTS", chunk_points(size, 6, 4))
    res = grid_search(net, utilities, GridSpec(points_per_dim=6, refinement_passes=0, feas_tol=0.0))
    assert [float.hex(v) for v in res.x.tolist()] == [
        "0x1.0d9999999999ap+7", "0x1.66ccccccccccdp+7", "0x1.339999999999ap+7", "0x1.9c00000000000p+6"]
    assert repr(res.utility) == "3.147082738488545"


@pytest.mark.parametrize("case", ["independent-tails", "shared-link-refined"])
def test_grid_scan_memory_is_bounded_by_the_chunk(monkeypatch, case):
    # one full-tail float array of 32**3 points is 256 KiB; chunks of 1024
    # points keep the traced peak below half of that
    links, routes, utilities, _, _ = BRUTE_FORCE_CASES[case]
    assert len(utilities) == 4
    monkeypatch.setattr(scpnum.oracle, "CHUNK_POINTS", 1024)
    net = build_network(links, routes)
    spec = GridSpec(points_per_dim=32, refinement_passes=1)
    net.incidence  # derived once per network, outside the traced call
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        grid_search(net, utilities, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


@pytest.mark.parametrize("name", PINNED_GRID)
def test_grid_search_leaves_no_reference_cycles(name):
    # a cycle (such as a recursive closure) would keep each pass's bound
    # tables alive until the garbage collector runs
    net, utilities, _ = load_scenario(name)
    net.incidence
    gc.collect()
    gc.disable()
    try:
        grid_search(net, utilities, GridSpec(points_per_dim=16, refinement_passes=1))
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    for field in ("points_per_dim", "refinement_passes", "max_evals_per_pass"):
        for value in (8.0, 1.5, True, "8"):
            with pytest.raises(ValueError, match=field):
                GridSpec(**{field: value})
    with pytest.raises(ValueError, match="max_evals_per_pass"):
        GridSpec(max_evals_per_pass=0)
    for value in (-1.0, float("nan"), float("inf"), -float("inf"), True, "0.1", None):
        with pytest.raises(ValueError, match="feas_tol"):
            GridSpec(feas_tol=value)
    # numpy integers are counts, stored as Python ints
    spec = GridSpec(points_per_dim=np.int64(8), refinement_passes=np.int32(1),
                    max_evals_per_pass=np.int64(512), feas_tol=0.0)
    assert type(spec.points_per_dim) is int and spec.points_per_dim == 8
    assert type(spec.max_evals_per_pass) is int
    # and a numpy float is a tolerance, stored as a Python float
    spec = GridSpec(points_per_dim=np.int64(16), feas_tol=np.float64(1e-6))
    assert type(spec.points_per_dim) is int and spec.points_per_dim == 16
    assert type(spec.feas_tol) is float and spec.feas_tol == 1e-6


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


def test_local_opt_fails_without_a_feasible_sample():
    # at the capacity, a sample above the candidate overloads the link
    net, utilities = capped_single_source(100.0)
    seed = next(s for s in range(100) if np.random.default_rng(s).uniform(-2.0, 2.0) > 0.0)
    report = local_opt_test(net, utilities, np.array([100.0]), samples=1, seed=seed)
    assert report.samples_feasible == 0
    assert not report.passed
    assert report.best_point is None


@pytest.mark.parametrize("kw", [dict(samples=0), dict(samples=-5), dict(samples=10.0),
                                dict(samples=True), dict(radius=float("nan")),
                                dict(radius=-2.0), dict(radius=0.0), dict(radius=float("inf")),
                                dict(feas_tol=-1e-6), dict(feas_tol=float("nan")),
                                dict(improvement_tol=float("inf")),
                                dict(improvement_tol=-1.0),
                                # a bool is not a number, nor is a str
                                dict(radius=True), dict(radius="2"),
                                dict(improvement_tol=True), dict(seed=True),
                                dict(seed=-1), dict(seed=1.5)],
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_local_opt_rejects_bad_arguments(kw):
    net, utilities = capped_single_source(300.0)
    with pytest.raises(ValueError, match=next(iter(kw))):
        local_opt_test(net, utilities, np.array([200.0]), **{"seed": 12, **kw})


@pytest.mark.parametrize("x_star", [[True], ["90"], [1.0, 2.0], [[90.0]]],
                         ids=["bool", "str", "two-rates", "nested"])
def test_local_opt_checks_x_star_by_name(x_star):
    # x_star is checked as x_star, not converted to a rate or passed on
    # to is_feasible as its x
    net, utilities = capped_single_source(300.0)
    with pytest.raises(ValueError, match=r"^x_star must "):
        local_opt_test(net, utilities, x_star, seed=12)


@pytest.mark.parametrize("count", [3, 5])
def test_local_opt_needs_one_utility_per_source(count):
    # as grid_search and Model do, not with an error about bounds
    net, utilities, _ = load_scenario("chain-3")
    utilities = (utilities * 2)[:count]
    with pytest.raises(ValueError, match=rf"^{count} utilities for 4 sources$"):
        local_opt_test(net, utilities, [100.0] * 4, seed=12)


def test_local_opt_infeasible_candidate():
    net, utilities = capped_single_source(100.0)
    with pytest.raises(InfeasibleCandidateError):
        local_opt_test(net, utilities, np.array([150.0]))


def test_local_opt_nan_candidate_is_infeasible():
    net, utilities = capped_single_source(100.0)
    with pytest.raises(InfeasibleCandidateError):
        local_opt_test(net, utilities, np.array([np.nan]))


def test_local_opt_deterministic_per_seed():
    net, utilities = capped_single_source(300.0)
    a = local_opt_test(net, utilities, np.array([200.0]), seed=99)
    b = local_opt_test(net, utilities, np.array([200.0]), seed=99)
    assert a.best_gain == b.best_gain
    assert a.samples_feasible == b.samples_feasible


def local_opt_loop(net, utilities, x_star, seed, radius=2.0, samples=1000,
                   feas_tol=1e-6, improvement_tol=1e-9):
    """local_opt_test one sample at a time: draw, clip, check with
    is_feasible, sum with total_utility; the first strictly best gain wins."""
    bounds = [(u.m, u.big_m) for u in utilities]
    lo, hi = np.array(bounds).T
    rng = np.random.default_rng(seed)
    base_u = total_utility(utilities, x_star)
    best_gain, best_point, n_feasible = 0.0, None, 0
    for _ in range(samples):
        cand = np.clip(x_star + rng.uniform(-radius, radius, size=x_star.shape), lo, hi)
        if not is_feasible(net, cand, bounds, feas_tol).ok:
            continue
        n_feasible += 1
        gain = total_utility(utilities, cand) - base_u
        if gain > best_gain:
            best_gain, best_point = gain, cand
    return n_feasible > 0 and best_gain <= improvement_tol, n_feasible, best_gain, best_point


@pytest.mark.parametrize("name", sorted(BUILT_IN_SCENARIOS))
@pytest.mark.parametrize("shift", [0.0, 3.0], ids=["polished", "improvable"])
def test_local_opt_matches_sample_loop(name, shift):
    net, utilities, config = load_scenario(name)
    polished = polish(net, utilities, solve(net, utilities, config), config)
    x = np.maximum(polished.x - shift, [u.m for u in utilities])
    report = local_opt_test(net, utilities, x, seed=DEFAULT_PERTURBATION_SEED)
    passed, n_feasible, best_gain, best_point = local_opt_loop(
        net, utilities, x, DEFAULT_PERTURBATION_SEED)
    assert report.passed == passed
    assert report.samples_feasible == n_feasible
    assert repr(report.best_gain) == repr(best_gain)
    if best_point is None:
        assert report.best_point is None
    else:
        assert report.best_point.tobytes() == best_point.tobytes()
    # the polished optimum passes; 3 Kbps below it every source can gain
    assert passed == (shift == 0.0)


def test_perturbation_seed_env_override(monkeypatch):
    monkeypatch.delenv("SCPNUM_SEED", raising=False)
    assert perturbation_seed() == DEFAULT_PERTURBATION_SEED
    monkeypatch.setenv("SCPNUM_SEED", "4242")
    assert perturbation_seed() == 4242
    monkeypatch.setenv("SCPNUM_SEED", "")
    assert perturbation_seed() == DEFAULT_PERTURBATION_SEED
    for raw in ("abc", "1.5", "-5"):
        monkeypatch.setenv("SCPNUM_SEED", raw)
        with pytest.raises(ValueError, match="SCPNUM_SEED"):
            perturbation_seed()


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


def test_fd_gradient_check_fails_on_nan():
    def cubic(x):
        return float(np.sum(x ** 3)), 3.0 * x ** 2

    def nan_component(x):
        value, grad = cubic(x)
        grad[1] = math.nan
        return value, grad

    def nan_value(x):
        return math.nan, 3.0 * x ** 2

    # max() would keep the checked coordinates' error and drop the NaN
    for fn in (nan_component, nan_value):
        assert math.isnan(fd_gradient_check(fn, np.array([1.0, 2.0]), step=1e-5))


@pytest.mark.parametrize("step", [math.nan, 0.0, -1e-6, math.inf, True, "1e-6"])
def test_fd_gradient_check_rejects_bad_step(step):
    def f(x):
        return float(np.sum(x ** 2)), 2.0 * x

    # a negative step at x = lo would also slip past the domain guard
    with pytest.raises(ValueError, match="step"):
        fd_gradient_check(f, np.array([0.0]), step=step,
                          bounds=(np.array([0.0]), np.array([1.0])))


def test_fd_gradient_check_domain_guard():
    def f(x):
        return float(np.sum(x ** 2)), 2.0 * x

    with pytest.raises(DomainBoundaryError):
        fd_gradient_check(f, np.array([0.0]), step=1e-6,
                          bounds=(np.array([0.0]), np.array([1.0])))
    # a NaN bound cannot certify that the stencil stays inside
    with pytest.raises(DomainBoundaryError):
        fd_gradient_check(f, np.array([0.5]), step=1e-6,
                          bounds=(np.array([math.nan]), np.array([1.0])))
