import re

import pytest
from hypothesis import given, strategies as st

from flowvol.closedforms import catalan, dominant_power_sum, multiset_coeff
from flowvol.ctengine import CTExpression, ct_volume, ps_ct_expression
from flowvol.dyck import iter_dominant, labeled_dyck_words, min_constrained_count

from flowvol import graphs
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
from flowvol.kostant import count_flows, iter_flows, list_flows
from flowvol.lidskii import ehrhart_like, volume


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


@pytest.mark.parametrize("upto", [0, 5])
def test_restrict_rejects_bounds_out_of_range(upto):
    with pytest.raises(ValueError, match="^restriction bound out of range$"):
        restrict(pitman_stanley_graph(3), upto)


def test_restrict_reads_its_bound_as_an_integer():
    # 2.0 was passed on and blamed as a vertex_count
    assert restrict(pitman_stanley_graph(3), 2.0) == restrict(pitman_stanley_graph(3), 2)
    with pytest.raises(ValueError, match="^restriction bound 2.5 is not an integer$"):
        restrict(pitman_stanley_graph(3), 2.5)


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
    # an int subclass passed, and the graph's vertex_count was True
    with pytest.raises(ValueError, match="vertex_count must be an int, got True"):
        DirectedStepGraph(True, ())


def test_graph_records_reject_non_integral_values():
    # the edge passed the range check and count_flows returned 0
    with pytest.raises(ValueError, match="^edge endpoint 2.5 is not an integer$"):
        count_flows(DirectedStepGraph(3, ((1, 2.5), (1, 3))), NetFlow((2, 0, -2)))
    with pytest.raises(ValueError, match="^flow value 0.5 is not an integer$"):
        FlowAssignment((0.5,))


def test_flow_values_must_be_nonnegative():
    with pytest.raises(ValueError, match="^flow values must be nonnegative$"):
        FlowAssignment((1, -1))


def test_readers_return_all_int_input_as_given():
    edges, values = ((1, 2), (2, 3)), (1, 0, -1)
    assert graphs._pairs(edges, "edge endpoint") is edges
    assert graphs._integers(values, "net flow entry") is values
    assert NetFlow(values).values is values
    # _integers checks the exact type, so a bool is read as its int
    assert type(NetFlow((True, -1)).values[0]) is int
    assert graphs._pairs([[1.0, 2]], "edge endpoint") == ((1, 2),)


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


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: catalan(None), "catalan argument None"),
        (lambda: catalan("x"), "catalan argument 'x'"),
        (lambda: catalan(float("inf")), "catalan argument inf"),
        (lambda: multiset_coeff(2, None), "multiset_coeff argument None"),
        (lambda: pitman_stanley_graph(None), "pitman_stanley_graph argument None"),
        (lambda: labeled_dyck_words(None, 2), "labeled_dyck_words argument None"),
        (lambda: ps_ct_expression(None, 2), "ps_ct_expression argument None"),
        (lambda: NetFlow((1, None)), "net flow entry None"),
        (lambda: iter_dominant(2, 2, (0, None)), "iter_dominant t entry None"),
        (lambda: DirectedStepGraph(3, ((1, None),)), "edge endpoint None"),
        (lambda: FlowAssignment((1, None)), "flow value None"),
        (lambda: CTExpression(2, (0, 0), (), ((1, None),)), "diff factor entry None"),
        (lambda: ehrhart_like(caracol_graph(4), None), "augment multiplicity None"),
        (lambda: ehrhart_like(caracol_graph(4), "2"), "augment multiplicity '2'"),
        (lambda: list_flows(caracol_graph(4), NetFlow.with_sink((1, 0, 0, 0)), None), "list_flows cap None"),
    ],
    ids=["catalan-None", "catalan-str", "catalan-inf", "multiset_coeff", "pitman_stanley_graph",
         "labeled_dyck_words", "ps_ct_expression", "NetFlow", "iter_dominant", "DirectedStepGraph",
         "FlowAssignment", "CTExpression", "ehrhart_like-None", "ehrhart_like-str", "list_flows"],
)
def test_non_numbers_raise_value_error(call, message):
    # each raised TypeError from int(), from a sum or from a comparison, or
    # int's own "invalid literal" text
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        call()


_CAR4 = caracol_graph(4)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: NetFlow(5), "net flow entry sequence 5 is not iterable"),
        (lambda: NetFlow(None), "net flow entry sequence None is not iterable"),
        (lambda: NetFlow.with_sink(3), "net flow entry sequence 3 is not iterable"),
        (lambda: FlowAssignment(None), "flow value sequence None is not iterable"),
        (lambda: DirectedStepGraph(3, ((1, 2), 5)), "edge endpoint sequence 5 is not iterable"),
        (lambda: DirectedStepGraph(3, 5), "edge endpoint pairs 5 are not iterable"),
        (lambda: CTExpression(2, None), "monomial exponent sequence None is not iterable"),
        (lambda: CTExpression(2, (0, 0), None), "pow factor entry pairs None are not iterable"),
        (lambda: CTExpression(2, (0, 0), (), ((1, 2), 3)), "diff factor entry sequence 3 is not iterable"),
        (lambda: labeled_dyck_words(2, 1, label_counts=5), "label count sequence 5 is not iterable"),
        (lambda: iter_dominant(2, 1, 3), "iter_dominant t entry sequence 3 is not iterable"),
        (lambda: dominant_power_sum(3, 2), "power sum value sequence 3 is not iterable"),
        (lambda: min_constrained_count(2, 5), "mins entry sequence 5 is not iterable"),
        (lambda: DirectedStepGraph(True, ()), "vertex_count must be an int, got True"),
        (lambda: restrict(_CAR4, None), "restriction bound None is not an integer"),
        (lambda: count_flows(_CAR4, None), "flow must be a NetFlow, got NoneType"),
        (lambda: iter_flows(_CAR4, (1, 0, 0, 0, -1)), "flow must be a NetFlow, got tuple"),
        (lambda: list_flows(_CAR4, (1, 0, 0, 0, -1), 2), "flow must be a NetFlow, got tuple"),
        (lambda: volume(_CAR4, (1, 0, 0, 0, -1)), "flow must be a NetFlow, got tuple"),
        (lambda: ct_volume(_CAR4, [1, 0, 0, 0, -1]), "flow must be a NetFlow, got list"),
    ],
    ids=["NetFlow-int", "NetFlow-None", "with_sink", "FlowAssignment", "edge", "edges",
         "monomial", "pow_factors", "diff_factor", "label_counts", "iter_dominant",
         "dominant_power_sum", "min_constrained_count", "vertex_count-True", "restrict-None",
         "count_flows", "iter_flows", "list_flows", "volume", "ct_volume"],
)
def test_arguments_of_the_wrong_kind_raise_value_error(call, message):
    # each raised TypeError or AttributeError, or built a graph on True vertices
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
