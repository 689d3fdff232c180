from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from flowvol.ctengine import evaluate_series_oracle, flow_count_expression
from flowvol.graphs import DirectedStepGraph, NetFlow, parse_graph_spec
from flowvol.kostant import count_flows, iter_flows, list_flows

PATH3 = parse_graph_spec("3:1-2,2-3")
TRIANGLE = parse_graph_spec("3:1-2,1-3,2-3")


def test_path_single_flow():
    assert count_flows(PATH3, NetFlow((1, -1, 0))) == 1
    assert [f.values for f in list_flows(PATH3, NetFlow((1, -1, 0)), 10)] == [(1, 0)]


def test_triangle_two_flows():
    flow = NetFlow((1, 1, -2))
    assert count_flows(TRIANGLE, flow) == 2
    assert [f.values for f in list_flows(TRIANGLE, flow, 10)] == [(0, 1, 1), (1, 0, 2)]


def test_zero_flow_unique():
    for spec in ("3:1-2,1-3,2-3", "4:1-2,2-3,3-4,1-4,1-4"):
        g = parse_graph_spec(spec)
        zero = NetFlow((0,) * g.vertex_count)
        assert count_flows(g, zero) == 1
        assert [f.values for f in list_flows(g, zero, 5)] == [(0,) * g.edge_count]


def test_negative_source_supply_means_no_flow():
    assert count_flows(TRIANGLE, NetFlow((-1, 2, -1))) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        count_flows(TRIANGLE, NetFlow((1, -1)))


def test_cap_truncates():
    flow = NetFlow((2, 0, -2))
    full = list_flows(TRIANGLE, flow, 100)
    assert len(full) == count_flows(TRIANGLE, flow) == 3
    assert list_flows(TRIANGLE, flow, 2) == full[:2]


def test_list_order_is_lexicographic():
    flow = NetFlow((3, -1, -2))
    values = [f.values for f in list_flows(TRIANGLE, flow, 100)]
    assert values == sorted(values)


def test_flows_satisfy_conservation():
    flow = NetFlow((2, 1, -3))
    for assignment in list_flows(TRIANGLE, flow, 100):
        assert assignment.satisfies(TRIANGLE, flow)


def test_multi_edge_flows_counted_per_edge():
    g = DirectedStepGraph(2, ((1, 2), (1, 2)))
    # 3 ways to split 2 units over two distinguishable parallel edges
    assert count_flows(g, NetFlow((2, -2))) == 3
    assert [f.values for f in list_flows(g, NetFlow((2, -2)), 10)] == [
        (0, 2), (1, 1), (2, 0)
    ]


def _all_three_vertex_graphs(max_mult=2):
    for m12, m13, m23 in product(range(max_mult + 1), repeat=3):
        edges = ((1, 2),) * m12 + ((1, 3),) * m13 + ((2, 3),) * m23
        if not edges:
            continue
        g = DirectedStepGraph(3, edges)
        if g.is_connected():
            yield g


def test_count_equals_listing_exhaustive_three_vertices():
    for g in _all_three_vertex_graphs():
        for a1, a2 in product(range(-2, 3), repeat=2):
            a3 = -(a1 + a2)
            if abs(a3) > 3:
                continue
            flow = NetFlow((a1, a2, a3))
            assert count_flows(g, flow) == len(list_flows(g, flow, 10**6))


@st.composite
def graph_and_flow(draw):
    vertex_count = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(1, vertex_count) for j in range(i + 1, vertex_count + 1)]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=8).map(tuple)
    )
    g = DirectedStepGraph(vertex_count, edges)
    head = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=vertex_count - 1,
            max_size=vertex_count - 1,
        )
    )
    if abs(sum(head)) > 3:
        head = [0] * (vertex_count - 1)
    return g, NetFlow.with_sink(head)


@settings(max_examples=60, deadline=None)
@given(graph_and_flow())
def test_count_equals_listing_random(case):
    g, flow = case
    assert count_flows(g, flow) == len(list_flows(g, flow, 10**6))


def test_count_matches_series_extraction():
    # coefficient extraction from the edge-factor product, truncated series
    for g in (PATH3, TRIANGLE):
        for a1, a2 in product(range(-2, 3), repeat=2):
            flow = NetFlow((a1, a2, -(a1 + a2)))
            expr = flow_count_expression(g, flow)
            cap = 2 * sum(abs(v) for v in flow.values) + 6
            assert evaluate_series_oracle(expr, cap) == count_flows(g, flow)


@st.composite
def fanned_graph_and_flow(draw):
    """A random multigraph plus a parallel fan from one vertex to two or more
    non-last targets, so that the sweep defers that vertex; the fan's vertex
    has zero, one or two edges to the last vertex.  The net flow is that of
    a random 0/1 flow on the edges plus one unit from the fan's vertex to a
    random vertex, which often makes it infeasible."""
    vertex_count = draw(st.integers(min_value=4, max_value=6))
    last = vertex_count
    pairs = [(i, j) for i in range(1, last) for j in range(i + 1, last + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4))
    u = draw(st.integers(min_value=1, max_value=last - 3))
    targets = draw(
        st.lists(st.integers(min_value=u + 1, max_value=last - 1), min_size=2, unique=True)
    )
    fan_mult = draw(st.integers(min_value=1, max_value=2))
    edges += [(u, w) for w in targets] * fan_mult
    edges += [(u, last)] * draw(st.integers(min_value=0, max_value=2))
    g = DirectedStepGraph(vertex_count, tuple(edges))
    carried = draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
    net = [0] * vertex_count
    for (i, j), used in zip(g.edges, carried):
        net[i - 1] += used
        net[j - 1] -= used
    net[u - 1] += 1
    net[draw(st.integers(min_value=0, max_value=last - 1))] -= 1
    return g, NetFlow(tuple(net))


@settings(max_examples=100, deadline=None)
@given(fanned_graph_and_flow())
def test_count_equals_listing_with_deferred_fans(case):
    g, flow = case
    assert count_flows(g, flow) == sum(1 for _ in iter_flows(g, flow))
