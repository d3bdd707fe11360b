"""Topology assembly, routing structure, and feasibility checks."""

import importlib.util
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from helpers import (INSTANCE_SEED, gen_instance, reference_is_feasible, reference_link_load,
                     routing_matrix)
import scpnum.network
from scpnum import (
    BUILT_IN_SCENARIOS,
    DuplicateIdError,
    EmptyRouteError,
    NonPositiveCapacityError,
    UnknownLinkError,
    Violation,
    build_agents,
    build_network,
    is_feasible,
    link_load,
    load_scenario,
    parse_scenario,
    solve,
)
from scpnum.agents import PRICE_UPDATE, RATE_REPORT
from scpnum.engine import Model


def shared_link_network():
    return build_network([(1, 1000.0)], [(s, (1,)) for s in range(1, 6)])


def chain_network():
    return build_network(
        [(1, 420.0), (2, 450.0), (3, 400.0)],
        [(1, (1, 2, 3)), (2, (1,)), (3, (2,)), (4, (3,))],
    )


def test_shared_link_routing_matrix_is_all_ones():
    net = shared_link_network()
    assert net.n_links == 1 and net.n_sources == 5
    assert np.array_equal(routing_matrix(net), np.ones((1, 5)))
    assert net.nnz == 5


def test_ids_sorted_and_capacities_aligned():
    net = build_network([(3, 30.0), (1, 10.0), (2, 20.0)],
                        [(9, (2,)), (4, (1, 3))])
    assert net.link_ids == (1, 2, 3)
    assert net.capacities == (10.0, 20.0, 30.0)
    assert net.source_ids == (4, 9)
    assert net.routes == ((1, 3), (2,))
    assert net.sources_on_link == ((4,), (9,), (4,))
    assert net.link_index == {1: 0, 2: 1, 3: 2}
    assert net.source_index == {4: 0, 9: 1}


def test_route_links_deduplicated_and_sorted():
    net = build_network([(1, 10.0), (2, 10.0)], [(1, (2, 1, 2))])
    assert net.routes == ((1, 2),)


def test_chain_incidence():
    net = chain_network()
    expect = np.array([[1.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(routing_matrix(net), expect)
    assert net.nnz == 6


def test_duplicate_link_id_rejected():
    with pytest.raises(DuplicateIdError):
        build_network([(1, 10.0), (1, 20.0)], [(1, (1,))])


def test_duplicate_source_id_rejected():
    with pytest.raises(DuplicateIdError):
        build_network([(1, 10.0)], [(1, (1,)), (1, (1,))])


def test_empty_route_rejected():
    with pytest.raises(EmptyRouteError):
        build_network([(1, 10.0)], [(1, ())])


def test_no_sources_rejected():
    with pytest.raises(ValueError, match="at least one source"):
        build_network([(1, 10.0)], [])


def test_undeclared_link_rejected():
    with pytest.raises(UnknownLinkError):
        build_network([(1, 10.0)], [(1, (1, 7))])


def test_nonpositive_capacity_rejected():
    with pytest.raises(NonPositiveCapacityError):
        build_network([(1, 0.0)], [(1, (1,))])
    with pytest.raises(NonPositiveCapacityError):
        build_network([(1, -5.0)], [(1, (1,))])


@pytest.mark.parametrize("cap", [math.nan, math.inf, True, "300", None])
def test_nonfinite_capacity_rejected(cap):
    with pytest.raises(ValueError):
        build_network([(1, cap)], [(1, (1,))])


@pytest.mark.parametrize("links,routes,name", [
    ([(True, 300.0)], [(1, (1,))], "link id"),
    ([(1.7, 300.0)], [(1, (1,))], "link id"),
    ([(1, 300.0)], [("2", (1,))], "source id"),
    ([(1, 300.0)], [(True, (1,))], "source id"),
    ([(1, 300.0)], [(1, (1.2,))], "route link id"),
], ids=["bool-link", "float-link", "str-source", "bool-source", "float-route-link"])
def test_non_integer_ids_rejected(links, routes, name):
    with pytest.raises(ValueError, match=name):
        build_network(links, routes)


def test_numpy_ids_and_capacities_are_stored_as_python_numbers():
    net = build_network([(np.int64(2), np.float32(300.5)), (np.uint8(1), np.int64(40))],
                        [(np.int32(7), (np.int64(1), 2))])
    assert net.link_ids == (1, 2) and net.capacities == (40.0, 300.5)
    assert net.source_ids == (7,) and net.routes == ((1, 2),)
    assert all(type(v) is int for v in net.link_ids + net.source_ids + net.routes[0])
    assert all(type(c) is float for c in net.capacities)


def test_link_load_sums_routed_sources():
    net = build_network([(1, 100.0), (2, 100.0)], [(1, (1,)), (2, (1, 2))])
    x = (100.0, 50.0)
    assert link_load(net, x, 1) == 150.0
    assert link_load(net, x, 2) == 50.0


def test_link_load_unknown_link():
    net = shared_link_network()
    with pytest.raises(UnknownLinkError):
        link_load(net, (1.0,) * 5, 42)


def test_feasibility_pass_and_tolerance():
    net = build_network([(1, 100.0)], [(1, (1,)), (2, (1,))])
    bounds = [(1.0, 256.0)] * 2
    assert is_feasible(net, (40.0, 60.0), bounds).ok
    # exactly at capacity is feasible, epsilon over needs the tolerance
    assert is_feasible(net, (40.0, 60.5), bounds, tol=0.5).ok
    assert not is_feasible(net, (40.0, 61.0), bounds, tol=0.5).ok


@pytest.mark.parametrize("tol", [math.nan, -100.0, -1e-12, math.inf, -math.inf,
                                 True, "0.5", None])
def test_feasibility_rejects_bad_tolerance(tol):
    # x = 5 on a 10 Kbps link is feasible at any good tolerance; a NaN or
    # negative one used to fail it, and an infinite one passed any x
    net = build_network([(1, 10.0)], [(1, (1,))])
    assert is_feasible(net, [5.0], [(1.0, 20.0)], 0.0).ok
    with pytest.raises(ValueError, match="tol"):
        is_feasible(net, [5.0], [(1.0, 20.0)], tol)


def test_feasibility_reports_violations():
    net = build_network([(1, 100.0)], [(1, (1,)), (2, (1,))])
    bounds = [(1.0, 256.0), (50.0, 256.0)]
    rep = is_feasible(net, (300.0, 10.0), bounds)
    assert not rep
    kinds = {(v.kind, v.ident) for v in rep.violations}
    assert ("bounds", 1) in kinds  # above its window
    assert ("bounds", 2) in kinds  # below its window
    assert ("capacity", 1) in kinds
    cap_violation = next(v for v in rep.violations if v.kind == "capacity")
    assert cap_violation.excess == pytest.approx(210.0)


@pytest.mark.parametrize("net", [
    build_network([(1, 100.0)], [(1, (1,))]),
    chain_network(),
], ids=["single-source", "chain-3"])
def test_nan_rates_are_infeasible(net):
    bounds = [(1.0, 256.0)] * net.n_sources
    rep = is_feasible(net, [math.nan] * net.n_sources, bounds, 0.5)
    assert not rep.ok
    assert [(v.kind, v.ident) for v in rep.violations] == (
        [("bounds", sid) for sid in net.source_ids]
        + [("capacity", lid) for lid in net.link_ids])


def test_one_nan_rate_breaches_the_links_on_its_route():
    net = chain_network()
    x = [100.0, 100.0, math.nan, 100.0]  # source 3 crosses link 2 only
    rep = is_feasible(net, x, [(1.0, 256.0)] * 4, 0.5)
    assert [(v.kind, v.ident) for v in rep.violations] == [("bounds", 3), ("capacity", 2)]
    assert all(math.isnan(v.excess) for v in rep.violations)


def test_feasibility_needs_one_rate_per_source():
    net = chain_network()
    with pytest.raises(ValueError):
        is_feasible(net, [100.0] * 3, [(1.0, 256.0)] * 4)
    with pytest.raises(ValueError):
        is_feasible(net, [100.0] * 5, [(1.0, 256.0)] * 4)


def test_feasibility_needs_one_bound_pair_per_source():
    # too few bounds used to raise IndexError, and extra ones were ignored
    net = chain_network()
    for n in (3, 5):
        with pytest.raises(ValueError, match="bounds"):
            is_feasible(net, [100.0] * 4, [(1.0, 256.0)] * n)


MESH = Path(__file__).resolve().parents[1] / "perfbench" / "mesh.py"


def mesh_1k(seed: int, k: int):
    """Mesh k of a seed of perfbench's mesh-1k workload, as (net, utilities)."""
    spec = importlib.util.spec_from_file_location("perfbench_mesh", MESH)
    mesh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mesh)
    return parse_scenario(json.dumps(mesh.generate(seed, k)))[:2]


def feasibility_networks(group):
    if group == "built-ins":
        return [load_scenario(name)[:2] for name in sorted(BUILT_IN_SCENARIOS)]
    if group == "draws":
        rng = np.random.default_rng(INSTANCE_SEED)
        return [gen_instance(rng) for _ in range(40)]
    return [mesh_1k(1, 0)]


def feasibility_inputs(net, utilities, rng):
    """(x, tol) pairs: rates inside and around the windows, on the
    window edges at the tolerance, and with NaN and infinite entries,
    two of them of opposite sign on one link when a link has two
    sources."""
    lo = np.array([u.m for u in utilities])
    hi = np.array([u.big_m for u in utilities])
    inside = rng.uniform(lo, hi)
    yield inside, 0.0
    yield inside, 0.5
    yield rng.uniform(lo - 5.0, hi + 5.0), 0.5
    yield np.where(rng.random(lo.size) < 0.5, lo - 0.5, hi + 0.5), 0.5
    yield 0.3 * hi, 0.0
    special = inside.copy()
    picks = rng.choice(lo.size, size=min(lo.size, 3), replace=False)
    special[picks] = [math.nan, math.inf, -math.inf][:picks.size]
    yield special, 0.5
    crowded = max(net.sources_on_link, key=len)
    if len(crowded) >= 2:
        opposite = inside.copy()
        opposite[[net.source_index[sid] for sid in crowded[:2]]] = math.inf, -math.inf
        yield opposite, 0.0


@pytest.mark.parametrize("group", ["built-ins", "draws", "mesh-1k"])
def test_feasibility_matches_the_loops(group):
    # the link sums add each link's rates in ascending source order from
    # 0.0, as the loops do, so every report and load keeps its bits
    rng = np.random.default_rng(INSTANCE_SEED + 26)
    for net, utilities in feasibility_networks(group):
        bounds = [(u.m, u.big_m) for u in utilities]
        for x, tol in feasibility_inputs(net, utilities, rng):
            for rates in (x, x.tolist()):
                got = is_feasible(net, rates, bounds, tol)
                assert repr(got) == repr(reference_is_feasible(net, rates, bounds, tol))
                assert all(type(v.ident) is int and type(v.excess) is float
                           for v in got.violations)
                assert ([repr(link_load(net, rates, lid)) for lid in net.link_ids]
                        == [repr(reference_link_load(net, rates, lid)) for lid in net.link_ids])


def test_violation_is_value_object():
    assert Violation("bounds", 1, 2.0) == Violation("bounds", 1, 2.0)


def test_incidence_is_built_once_per_network(monkeypatch):
    net, utilities, config = load_scenario("chain-3")
    built = []
    arrays = scpnum.network._incidence_arrays

    def counting(n):
        built.append(n)
        return arrays(n)

    monkeypatch.setattr(scpnum.network, "_incidence_arrays", counting)
    solve(net, utilities, config)
    solve(net, utilities, config)
    agents, _ = build_agents(net, utilities, config)
    assert len(built) == 1 and built[0] is net
    assert agents.model.inc.src is net.incidence.src


def test_incidence_ids_are_built_once_per_network(monkeypatch):
    net, utilities, config = load_scenario("chain-3")
    built = []
    ids = scpnum.network._incidence_ids

    def counting(n):
        built.append(n)
        return ids(n)

    monkeypatch.setattr(scpnum.network, "_incidence_ids", counting)
    first, _ = build_agents(net, utilities, config)
    second, _ = build_agents(net, utilities, config)
    assert len(built) == 1 and built[0] is net
    assert first.ends[PRICE_UPDATE] is second.ends[PRICE_UPDATE] is net.incidence_ids[0]
    assert first.ends[RATE_REPORT] is net.incidence_ids[1]


def test_incidence_arrays_are_read_only():
    net = chain_network()
    model = Model(net, load_scenario("chain-3")[1])
    for a in (*net.incidence, model.capacities, model.inc.link, model.inc.route_src):
        with pytest.raises(ValueError):
            a[0] = 0


def test_equal_networks_keep_their_own_incidence():
    a, b = chain_network(), chain_network()
    assert a == b
    for x, y in zip(a.incidence, b.incidence):
        assert x is not y and np.array_equal(x, y)
    # link-major CSR order and its route-order permutation
    assert a.incidence.link.tolist() == [0, 0, 1, 1, 2, 2]
    assert a.incidence.src.tolist() == [0, 1, 0, 2, 0, 3]
    assert a.incidence.route_link.tolist() == [0, 1, 2, 0, 1, 2]
    assert a.incidence.route_src.tolist() == [0, 0, 0, 1, 2, 3]
    # rank-major order: every link's first pair, then every link's second
    assert a.incidence.rank_link.tolist() == [0, 1, 2, 0, 1, 2]
    assert a.incidence.rank_src.tolist() == [0, 0, 0, 1, 2, 3]


def test_cached_incidence_leaves_equality_and_pickling_unchanged():
    net = chain_network()
    fresh = pickle.dumps(net)
    net.incidence
    assert net == chain_network()
    assert pickle.dumps(net) == fresh
    back = pickle.loads(fresh)
    assert back == net and "incidence" not in vars(back)
    net.incidence_ids
    assert net == chain_network()
    assert pickle.dumps(net) == fresh
    assert "incidence_ids" not in vars(pickle.loads(pickle.dumps(net)))
    # CSR order (link, source) and route order (source, link), as ids
    assert net.incidence_ids == (((1, 1, 2, 2, 3, 3), (1, 2, 1, 3, 1, 4)),
                                 ((1, 1, 1, 2, 3, 4), (1, 2, 3, 1, 2, 3)))
    assert np.array_equal(back.incidence.src, net.incidence.src)
    assert not back.incidence.src.flags.writeable
