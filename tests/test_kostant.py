import sys
import threading
import time
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from flowvol.closedforms import ehrhart_ps_closed
from flowvol.ctengine import (
    evaluate,
    evaluate_series,
    evaluate_series_oracle,
    flow_count_expression,
)
from flowvol.graphs import (
    DirectedStepGraph,
    FlowAssignment,
    NetFlow,
    caracol_graph,
    parse_graph_spec,
    pitman_stanley_graph,
)
from flowvol import kostant, lidskii
from flowvol.kostant import count_flows, iter_flows, list_flows
from flowvol.lidskii import ehrhart_like

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


def _recursive_flows(graph, flow):
    """The walk of ``iter_flows`` as one generator per vertex and one per
    out-edge: its reference, order included."""
    n = graph.vertex_count
    net = flow.values
    edge_index_of_vertex = [[] for _ in range(n + 1)]
    for idx, (i, _) in enumerate(graph.edges):
        edge_index_of_vertex[i].append(idx)
    values = [0] * graph.edge_count

    def rec(v, inflow):
        if v > n:
            yield tuple(values)
            return
        surplus = net[v - 1] + inflow[0]
        rest = inflow[1:]
        idxs = edge_index_of_vertex[v]
        if surplus < 0:
            return
        if not idxs:
            if surplus == 0:
                yield from rec(v + 1, rest)
            return

        def assign(pos, remaining, extra):
            idx = idxs[pos]
            target = graph.edges[idx][1]
            if pos == len(idxs) - 1:
                values[idx] = remaining
                extra[target - v - 1] += remaining
                yield from rec(v + 1, tuple(e + r for e, r in zip(extra, rest)))
                extra[target - v - 1] -= remaining
                return
            for x in range(remaining + 1):
                values[idx] = x
                extra[target - v - 1] += x
                yield from assign(pos + 1, remaining - x, extra)
                extra[target - v - 1] -= x

        yield from assign(0, surplus, [0] * (n - v))

    return rec(1, (0,) * n)


@st.composite
def small_multigraph_and_flow(draw):
    vertex_count = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(1, vertex_count) for j in range(i + 1, vertex_count + 1)]
    mults = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=len(pairs), max_size=len(pairs)))
    size = vertex_count - 1
    head = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=size, max_size=size))
    edges = tuple(pair for pair, m in zip(pairs, mults) for _ in range(m))
    return DirectedStepGraph(vertex_count, edges), NetFlow.with_sink(head)


@settings(max_examples=300, deadline=None)
@given(small_multigraph_and_flow())
def test_flows_match_the_recursive_walk(case):
    # the first 2000 flows, as some of these graphs carry billions
    graph, flow = case
    want = list(islice(_recursive_flows(graph, flow), 2000))
    assert [f.values for f in list_flows(graph, flow, 2000)] == want


def test_flows_on_one_vertex():
    graph = DirectedStepGraph(1, ())
    assert list_flows(graph, NetFlow((0,)), 5) == [FlowAssignment(())]


def test_deep_flow_walk_needs_no_recursion():
    # one generator per vertex and per out-edge ended in RecursionError at ps:600
    graph = pitman_stanley_graph(1200)
    flow = NetFlow.with_sink((1,) + (0,) * 1199)
    first, second = list_flows(graph, flow, 2)
    assert first.values == (0, 1) + (0,) * (graph.edge_count - 2)
    assert second.values == (1, 0, 0, 1) + (0,) * (graph.edge_count - 4)
    assert first.satisfies(graph, flow) and second.satisfies(graph, flow)


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


@st.composite
def multigraph(draw):
    vertex_count = draw(st.integers(min_value=3, max_value=6))
    pairs = [(i, j) for i in range(1, vertex_count) for j in range(i + 1, vertex_count + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8))
    return DirectedStepGraph(vertex_count, tuple(edges))


@st.composite
def multigraph_and_flow(draw):
    graph = draw(multigraph())
    size = graph.vertex_count - 1
    head = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=size, max_size=size))
    return graph, NetFlow.with_sink(head)


@settings(max_examples=200, deadline=None)
@given(multigraph_and_flow())
def test_count_equals_the_constant_term_on_multigraphs(case):
    # kostant groups m parallel edges through _ways; ctengine reads them as
    # a diff factor repeated m times, a power of the edge's factor
    g, flow = case
    assert count_flows(g, flow) == evaluate(flow_count_expression(g, flow))


@settings(max_examples=40, deadline=None)
@given(multigraph_and_flow())
def test_count_equals_the_series_on_multigraphs(case):
    g, flow = case
    assert count_flows(g, flow) == evaluate_series(flow_count_expression(g, flow))


def test_constant_term_catches_parallel_edges_counted_once(monkeypatch):
    # a planted error: m parallel edges carry x units in one way instead of
    # comb(m+x-1, x), so the flow count falls below the constant term
    g = parse_graph_spec("4:1-2,1-2,2-3,2-3,3-4,1-4")
    flow = NetFlow.with_sink([2, 1, 1])
    expected = evaluate(flow_count_expression(g, flow))
    assert count_flows(g, flow) == expected == 20
    monkeypatch.setattr(kostant, "_ways", lambda m, x: 1)
    assert count_flows(g, flow) == 3


@st.composite
def flow_sequence(draw):
    """Two random multigraphs, and a sequence of supply heads on the first
    where each head keeps a prefix of random length of the one before.  One
    head gets, right after the kept prefix, a supply below minus the sum of
    the positive supplies before it, so that its sweep empties there."""
    graph = draw(multigraph())
    other = draw(multigraph())
    size = graph.vertex_count - 1
    supply = st.integers(min_value=-2, max_value=2)
    heads = [draw(st.lists(supply, min_size=size, max_size=size))]
    steps = draw(st.integers(min_value=2, max_value=7))
    kill = draw(st.integers(min_value=1, max_value=steps))
    for step in range(1, steps + 1):
        keep = draw(st.integers(min_value=0, max_value=size - (step == kill)))
        fresh = size - keep
        head = heads[-1][:keep] + draw(st.lists(supply, min_size=fresh, max_size=fresh))
        if step == kill:
            head[keep] = -1 - sum(a for a in head[:keep] if a > 0)
        heads.append(head)
    # per head: count on an equal copy of the graph instead, count on the
    # other graph first
    copies = draw(st.lists(st.booleans(), min_size=len(heads), max_size=len(heads)))
    between = draw(st.lists(st.booleans(), min_size=len(heads), max_size=len(heads)))
    return graph, other, heads, copies, between


@settings(max_examples=80, deadline=None)
@given(flow_sequence())
def test_resumed_counts_equal_listing(case):
    graph, other, heads, copies, between = case
    other_flow = NetFlow.with_sink([1] + [0] * (other.vertex_count - 2))
    other_count = len(list_flows(other, other_flow, 10**6))
    for head, copy, interleave in zip(heads, copies, between):
        if interleave:
            assert count_flows(other, other_flow) == other_count
        target = DirectedStepGraph(graph.vertex_count, graph.edges) if copy else graph
        flow = NetFlow.with_sink(head)
        assert count_flows(target, flow) == len(list_flows(graph, flow, 10**6))


def test_heads_reaching_one_cut_state_share_later_steps():
    # on a path the cut state after v is the in-flow of v + 1, the sum of
    # the supplies so far, so weighted_sweep's node (R, state) is fixed by
    # what is left of the total: the 1716 compositions of 6 into 8 parts
    # pass through 7 nodes per vertex and share every later transition
    path = parse_graph_spec("8:" + ",".join(f"{v}-{v + 1}" for v in range(1, 8)))
    total = 6
    table = kostant.weighted_sweep(path, total, (0,) * 8)
    targets = {}
    for _, target, slot, _ in table:
        targets.setdefault(table.slots[slot][0], set()).add(target)
    assert [len(nodes) for _, nodes in sorted(targets.items())] == [7] * 7 + [1]
    assert len(table) == 7 + 6 * 28 + 7
    # every composition has one flow, so the sum is the multinomial theorem
    for head in ((1,) * 8, tuple(range(1, 9)), (0, 2, 0, 0, 3, 0, 1, 0)):
        assert lidskii._table_sum(table, [head[i] ** e for i, e in table.slots]) == sum(head) ** total


def test_pushes_into_one_vertex_merge():
    # vertices 1..30 each push their unit into 31 or 32; the shares merge
    # into 31's one in-flow channel, so the sweep holds at most 31 states
    # where one channel per pusher would need 2^30
    edges = [(i, j) for i in range(1, 31) for j in (31, 32)] + [(31, 32)]
    graph = DirectedStepGraph(32, tuple(edges))
    start = time.perf_counter()
    assert count_flows(graph, NetFlow((1,) * 30 + (0, -30))) == 2**30
    assert time.perf_counter() - start < 1


def test_one_off_ehrhart_query_stores_no_steps():
    # count_flows keeps nothing between calls: no module global changes
    before = dict(vars(kostant))
    assert count_flows(PATH3, NetFlow((1, -1, 0))) == 1
    assert ehrhart_like(pitman_stanley_graph(60), 3) == ehrhart_ps_closed(60, 3)
    assert vars(kostant) == before


def test_threads_share_the_remembered_sweep():
    # the threads count flows side by side, mostly on the same graph; any
    # state count_flows shared between calls would give a wrong count or an
    # exception
    graph = caracol_graph(6)
    cases = [(graph, NetFlow.with_sink(head)) for head in product(range(2), repeat=6)]
    cases.append((pitman_stanley_graph(4), NetFlow.with_sink((1, 1, 0, 1))))
    expected = [len(list_flows(g, flow, 10**6)) for g, flow in cases]
    wrong = []

    def work(offset):
        for round_ in range(30):
            for idx in range(len(cases)):
                pick = (idx * (2 * round_ + 1) + offset) % len(cases)
                try:
                    count = count_flows(*cases[pick])
                except Exception as exc:
                    count = exc
                if count != expected[pick]:
                    wrong.append((pick, count))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
