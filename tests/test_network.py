"""Topology assembly, routing structure, and feasibility checks."""

import math

import numpy as np
import pytest

from scpnum import (
    DuplicateIdError,
    EmptyRouteError,
    NonPositiveCapacityError,
    UnknownLinkError,
    Violation,
    build_network,
    is_feasible,
    link_load,
)


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
    assert np.array_equal(net.routing_matrix(), np.ones((1, 5)))
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
    assert np.array_equal(net.routing_matrix(), expect)
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


@pytest.mark.parametrize("cap", [math.nan, math.inf])
def test_nonfinite_capacity_rejected(cap):
    with pytest.raises(ValueError):
        build_network([(1, cap)], [(1, (1,))])


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


def test_violation_is_value_object():
    assert Violation("bounds", 1, 2.0) == Violation("bounds", 1, 2.0)
