"""Foliation census identity checkers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.census import (
    EdgeCensus,
    VertexCensus,
    census_from_json,
    census_to_json,
    edge_vertex_consistency,
    euler_balance_annulus,
    euler_balance_surface,
    load_census,
    minimal_complexity_advisory,
)


def vc(*entries):
    return VertexCensus([((a, b), count) for a, b, count in entries])


def test_vertex_census_accessors():
    census = vc((1, 2, 8), (0, 3, 2))
    assert census.get(1, 2) == 8
    assert census.get(5, 5) == 0
    assert census.total == 10
    assert census.a_total == 8
    assert census.b_total == 22
    # entry order does not matter, and dict input is accepted
    assert census == vc((0, 3, 2), (1, 2, 8))
    assert census == VertexCensus({(1, 2): 8, (0, 3): 2})
    assert VertexCensus({(1, 2): 0}) == VertexCensus()
    with pytest.raises(ValueError):
        vc((1, 2, -1))
    with pytest.raises(ValueError):
        vc((-1, 2, 3))


def test_annulus_balance():
    assert euler_balance_annulus(vc(), 0) == 0
    for k in range(1, 11):
        assert euler_balance_annulus(vc((1, 2, 2 * k)), 0) == 0
    assert euler_balance_annulus(vc((1, 1, 1)), 0) == 1
    # one singular band edge costs two on the right side
    assert euler_balance_annulus(vc((1, 1, 2)), 1) == 0
    # a type (2, 1) vertex carries coefficient 1
    assert euler_balance_annulus(vc((1, 1, 1), (2, 1, 1)), 0) == 0
    # a type (3, 0) vertex carries coefficient 2
    assert euler_balance_annulus(vc((1, 1, 2), (3, 0, 1)), 0) == 0


def test_surface_balance():
    assert euler_balance_surface(vc((1, 1, 4)), 1) == 0
    assert euler_balance_surface(vc(), 0) == 0
    assert euler_balance_surface(vc(), 1) == -4
    assert euler_balance_surface(vc((0, 2, 2)), 1) == 0


def test_edge_vertex_consistency():
    report = edge_vertex_consistency(vc((1, 2, 8)), EdgeCensus(8, 8, 0))
    assert report.ok
    assert (report.vertex_residual, report.a_residual, report.b_residual) == (
        0,
        0,
        0,
    )
    report = edge_vertex_consistency(vc(), EdgeCensus(0, 0, 0))
    assert report.ok
    report = edge_vertex_consistency(vc((2, 0, 1)), EdgeCensus(1, 0, 1))
    assert report.vertex_residual == 0
    assert report.a_residual == 1
    assert report.b_residual == 0
    assert not report.ok


def test_minimal_complexity_advisory():
    assert minimal_complexity_advisory(vc((1, 2, 4))) == ()
    notes = minimal_complexity_advisory(vc((1, 0, 1)))
    assert len(notes) == 1
    notes = minimal_complexity_advisory(vc((2, 1, 1), (3, 0, 2)))
    assert len(notes) == 2
    notes = minimal_complexity_advisory(vc((1, 0, 1), (2, 0, 1)))
    assert len(notes) == 2


def test_census_json_round_trip(tmp_path):
    census = vc((1, 2, 4), (0, 2, 1))
    edges = EdgeCensus(4, 7, 1)
    data = json.loads(json.dumps(census_to_json(census, edges, chi=0)))
    back_vc, back_ec, chi = census_from_json(data)
    assert back_vc == census and back_ec == edges and chi == 0

    data = census_to_json(census, edges)
    back_vc, back_ec, chi = census_from_json(data)
    assert chi is None

    path = tmp_path / "census.json"
    path.write_text(json.dumps(census_to_json(census, edges, chi=2)))
    assert load_census(path) == (census, edges, 2)


def entry_lists():
    return st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 4), st.integers(1, 9)
        ).filter(lambda e: e[0] + e[1] > 0),
        max_size=5,
        unique_by=lambda e: (e[0], e[1]),
    )


@settings(max_examples=60, deadline=None)
@given(entry_lists(), st.integers(0, 5))
def test_annulus_residual_matches_direct_sum(entries, es):
    census = vc(*entries)
    lhs = (
        census.get(1, 1)
        + 2 * census.get(1, 0)
        + 2 * census.get(0, 2)
        + census.get(0, 3)
    )
    rhs = 2 * es
    for (a, b, count) in entries:
        coeff = 2 * a + b - 4
        if coeff > 0:
            rhs += coeff * count
    assert euler_balance_annulus(census, es) == lhs - rhs
