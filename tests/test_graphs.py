import pytest
from hypothesis import given, strategies as st

from flowvol.graphs import (
    DirectedStepGraph,
    FlowAssignment,
    NetFlow,
    augment,
    caracol_graph,
    parse_graph_spec,
    parse_net_flow,
    pitman_stanley_graph,
    restrict,
)
from flowvol.kostant import count_flows
from flowvol.lidskii import ehrhart_like


def test_ps4_edges():
    g = pitman_stanley_graph(3)
    assert g.vertex_count == 4
    assert set(g.edges) == {(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_ps_smallest_is_triangle():
    g = pitman_stanley_graph(2)
    assert set(g.edges) == {(1, 2), (1, 3), (2, 3)}


def test_ps_edge_count():
    assert pitman_stanley_graph(5).edge_count == 9


def test_car5_edges():
    g = caracol_graph(4)
    assert set(g.edges) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)}
    assert g.edge_count == 8


def test_car_smallest():
    assert set(caracol_graph(3).edges) == {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}


def test_car_edge_count():
    assert caracol_graph(6).edge_count == 14


def test_family_domain_errors():
    with pytest.raises(ValueError):
        pitman_stanley_graph(1)
    with pytest.raises(ValueError):
        caracol_graph(2)


def test_out_degree_vectors():
    for n in range(3, 9):
        assert pitman_stanley_graph(n).out_degrees() == (2,) * (n - 1) + (1, 0)
        assert caracol_graph(n).out_degrees() == (n - 1,) + (2,) * (n - 2) + (1, 0)


def test_augment_ps4():
    g = augment(pitman_stanley_graph(3), 2)
    assert g.vertex_count == 5
    assert g.edge_count == 13
    assert g.edges.count((1, 2)) == 2


def test_augment_adds_one_edge_per_vertex():
    g = caracol_graph(4)
    assert augment(g, 1).edge_count == g.edge_count + g.vertex_count


def test_augment_car4_k3():
    assert augment(caracol_graph(3), 3).edge_count == 17


def test_augment_rejects_k0():
    with pytest.raises(ValueError):
        augment(pitman_stanley_graph(2), 0)


def test_augment_keeps_forward_orientation():
    g = augment(augment(caracol_graph(5), 2), 1)
    assert all(i < j for i, j in g.edges)
    assert g.edges == tuple(sorted(g.edges))


def test_restrict_drops_incident_edges():
    g = restrict(pitman_stanley_graph(4), 4)
    assert set(g.edges) == {(1, 2), (2, 3), (3, 4)}


def test_restrict_may_disconnect():
    g = DirectedStepGraph(4, ((1, 2), (1, 4), (3, 4)))
    inner = restrict(g, 3)
    assert not inner.is_connected()  # vertex 3 is cut loose


def test_edge_bounds_checked():
    with pytest.raises(ValueError):
        DirectedStepGraph(3, ((2, 2),))
    with pytest.raises(ValueError):
        DirectedStepGraph(3, ((3, 1),))
    with pytest.raises(ValueError):
        DirectedStepGraph(3, ((1, 4),))


def test_edges_canonically_sorted():
    g = DirectedStepGraph(3, ((2, 3), (1, 2), (1, 2)))
    assert g.edges == ((1, 2), (1, 2), (2, 3))


def test_net_flow_sum_checked():
    with pytest.raises(ValueError):
        NetFlow((1, 1))
    assert NetFlow.with_sink((2, 3)).values == (2, 3, -5)


def test_vertex_count_must_be_an_int():
    with pytest.raises(ValueError, match="vertex_count must be an int, got 2.0"):
        DirectedStepGraph(2.0, ((1, 2),))


def test_graph_records_reject_non_integral_values():
    # the edge passed the range check and count_flows returned 0
    with pytest.raises(ValueError, match="^edge endpoint 2.5 is not an integer$"):
        count_flows(DirectedStepGraph(3, ((1, 2.5), (1, 3))), NetFlow((2, 0, -2)))
    with pytest.raises(ValueError, match="^flow value 0.5 is not an integer$"):
        FlowAssignment((0.5,))


def test_graph_records_read_integral_floats():
    # out_degrees raised TypeError on the 2.0 endpoint
    graph = DirectedStepGraph(3, ((1, 2.0), (2.0, 3)))
    assert graph == DirectedStepGraph(3, ((1, 2), (2, 3)))
    assert graph.out_degrees() == (1, 1, 0)
    assert FlowAssignment((1.0, 0)).values == (1, 0)


def test_net_flow_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="net flow entry 2.5 is not an integer"):
        NetFlow((2.5, 1, 0, -3.5))
    assert NetFlow((2.0, 1, 0, -3)).values == (2, 1, 0, -3)


def test_net_flow_with_sink_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="net flow entry 0.5 is not an integer"):
        NetFlow.with_sink((1, 0.5))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: pitman_stanley_graph(3.5), "pitman_stanley_graph argument 3.5"),
        (lambda: caracol_graph(4.5), "caracol_graph argument 4.5"),
        (lambda: augment(caracol_graph(4), 1.5), "augment multiplicity 1.5"),
        (lambda: ehrhart_like(caracol_graph(4), 1.5), "augment multiplicity 1.5"),
    ],
    ids=["pitman_stanley_graph", "caracol_graph", "augment", "ehrhart_like"],
)
def test_families_reject_non_integers(call, message):
    # each raised TypeError inside range() or a list repetition
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


def test_families_read_integral_floats():
    assert pitman_stanley_graph(3.0) == pitman_stanley_graph(3)
    assert caracol_graph(4.0) == caracol_graph(4)
    assert augment(caracol_graph(4), 2.0) == augment(caracol_graph(4), 2)


def test_parse_family_specs_use_vertex_counts():
    assert parse_graph_spec("ps:4") == pitman_stanley_graph(3)
    assert parse_graph_spec("car:4") == caracol_graph(3)
    assert parse_graph_spec("aug:2:ps:4") == augment(pitman_stanley_graph(3), 2)


def test_parse_explicit_graph():
    g = parse_graph_spec("3:1-2,2-3,1-2")
    assert g.edges == ((1, 2), (1, 2), (2, 3))


def test_parse_rejects_disconnected_explicit():
    with pytest.raises(ValueError):
        parse_graph_spec("3:1-2")


def test_parse_rejects_malformed():
    for bad in ("", "3", "ps:x", "aug:2", "3:1+2", "car:3"):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


def test_parse_net_flow_lengths():
    assert parse_net_flow("1,-1,0", 3).values == (1, -1, 0)
    assert parse_net_flow("1,1", 3).values == (1, 1, -2)
    with pytest.raises(ValueError):
        parse_net_flow("1", 3)
    with pytest.raises(ValueError):
        parse_net_flow("1,0,0", 3)  # nonzero sum


@given(st.integers(min_value=2, max_value=12))
def test_ps_always_valid_and_connected(n):
    g = pitman_stanley_graph(n)
    assert g.is_connected()
    assert g.edge_count == 2 * n - 1
    assert all(i < j for i, j in g.edges)


@given(st.integers(min_value=3, max_value=12))
def test_car_always_valid_and_connected(n):
    g = caracol_graph(n)
    assert g.is_connected()
    assert g.edge_count == 3 * n - 4
