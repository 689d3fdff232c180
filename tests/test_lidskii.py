import copy
import pickle
import random
import sys
import threading
from hashlib import sha256
from itertools import product
from math import comb, factorial, prod
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from flowvol.closedforms import catalan, dominant_sum, ehrhart_car_closed, ehrhart_ps_closed, ps_volume_closed
from flowvol.ctengine import ct_volume
from flowvol.graphs import (
    DirectedStepGraph,
    NetFlow,
    caracol_graph,
    parse_graph_spec,
    pitman_stanley_graph,
    restrict,
)
from flowvol.dyck import iter_dominant
from flowvol.kostant import count_flows
from flowvol import kostant, lidskii
from flowvol.lidskii import (
    ehrhart_differences,
    ehrhart_like,
    unit_flow_volume,
    volume,
)


def test_dominates_examples():
    # iter_dominant yields s exactly when every prefix sum of s reaches t's
    assert (2, 0, 1) in iter_dominant(3, 3, (1, 1, 1))
    assert (1, 1, 1) in iter_dominant(3, 3, (1, 1, 1))
    assert (0, 3) not in iter_dominant(3, 2, (1, 2))


def test_dominates_length_mismatch():
    for length, t in ((1, (1, 0)), (2, (1,))):
        with pytest.raises(ValueError):
            list(iter_dominant(1, length, t))


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
def test_dominates_reflexive(parts):
    assert tuple(parts) in iter_dominant(sum(parts), len(parts), parts)


def test_dominant_compositions_examples():
    assert list(iter_dominant(2, 3, (1, 1, 0))) == [(2, 0, 0), (1, 1, 0)]
    assert list(iter_dominant(0, 2, (0, 0))) == [(0, 0)]
    assert list(iter_dominant(1, 2, (1, 1))) == []


def _recursive_dominant(total, length, t):
    """The walk of ``dyck._dominant`` as one recursive generator per part:
    its reference, order included."""
    if length == 0:
        if total == 0:
            yield ()
        return
    tsums = [sum(t[: i + 1]) for i in range(length)]
    if total < tsums[-1]:
        return
    prefix = []

    def walk(idx, ssum):
        if idx == length - 1:
            prefix.append(total - ssum)
            yield tuple(prefix)
            prefix.pop()
            return
        for v in range(total - ssum, max(0, tsums[idx] - ssum) - 1, -1):
            prefix.append(v)
            yield from walk(idx + 1, ssum + v)
            prefix.pop()

    yield from walk(0, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=6),
)
def test_dominant_matches_the_recursive_walk(total, t):
    assert list(iter_dominant(total, len(t), t)) == list(_recursive_dominant(total, len(t), t))


def test_deep_dominant_walk_needs_no_recursion():
    assert sum(1 for _ in iter_dominant(1, 1500, (0,) * 1500)) == 1500


def test_dominant_compositions_match_filterful_enumeration():
    for t in ((2, 0, 1, 0), (-1, 2, 0, 1), (0, 0, 0, 0)):
        got = list(iter_dominant(5, 4, t))
        brute = [
            s
            for s in product(range(6), repeat=4)
            if sum(s) == 5 and all(sum(s[:i]) >= sum(t[:i]) for i in range(1, 5))
        ]
        assert sorted(got) == sorted(brute)
        assert got == sorted(got, reverse=True)


def _brute_dominant_sum(total, t, term):
    """dominant_sum's reference: every composition from product, kept when
    each prefix sum reaches t's, weighted by factorials."""
    total_sum = 0
    for s in product(range(total + 1), repeat=len(t)):
        if sum(s) == total and all(sum(s[:i]) >= sum(t[:i]) for i in range(1, len(t) + 1)):
            total_sum += factorial(total) // prod(map(factorial, s)) * term(s)
    return total_sum


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.lists(st.integers(min_value=-2, max_value=3), max_size=5),
)
def test_dominant_sum_matches_the_brute_force_sum(total, t):
    # distinct primes to the powers s_i, so each composition has its own term
    def term(s):
        return prod(map(pow, (2, 3, 5, 7, 11), s))

    assert dominant_sum(total, t, term) == _brute_dominant_sum(total, t, term)
    assert dominant_sum(total, t, lambda s: 1) == _brute_dominant_sum(total, t, lambda s: 1)


def test_dominant_sum_examples():
    # the multinomial theorem: (1 + 1 + 1)^4 over every composition of 4
    assert dominant_sum(4, (0, 0, 0), lambda s: 1) == 3**4
    # (4, 0, 0), (3, 1, 0), (3, 0, 1), (2, 2, 0) and (2, 1, 1) dominate (2, 1, 1)
    assert dominant_sum(4, (2, 1, 1), lambda s: 1) == 1 + 4 + 4 + 6 + 12
    assert dominant_sum(0, (), lambda s: 7) == 7
    assert dominant_sum(1, (), lambda s: 7) == 0
    assert dominant_sum(3.0, (1.0, 1), lambda s: 1) == dominant_sum(3, (1, 1), lambda s: 1)


@pytest.mark.parametrize(
    ("total", "t", "message"),
    [(2.5, (0, 0), "iter_dominant argument 2.5"), (2, (0.5, 0), "iter_dominant t entry 0.5")],
    ids=["total", "t"],
)
def test_dominant_sum_rejects_non_integers(total, t, message):
    # the arguments are checked before any factorial or term is computed
    def term(s):
        raise AssertionError("term called")

    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        dominant_sum(total, t, term)


@pytest.mark.parametrize("t", [(), (-2,), (-3, 0), (-1, -1, -1), (-5, 0, 0, 0)])
def test_a_negative_total_has_no_composition(t):
    # iter_dominant(-1, 1, (-2,)) yielded (-1,), a part below 0
    assert list(iter_dominant(-1, len(t), t)) == []
    assert dominant_sum(-1, t, lambda s: 1) == 0


def test_volume_ps4():
    assert volume(pitman_stanley_graph(3), NetFlow((2, 5, 0, -7))) == 24


def test_volume_ps5_all_ones():
    assert volume(pitman_stanley_graph(4), NetFlow.with_sink((1, 1, 1, 1))) == 16


def test_volume_car4():
    assert volume(caracol_graph(3), NetFlow.with_sink((1, 1, 5))) == 3


def test_volume_independent_of_last_supply_entry():
    for n in range(2, 7):
        g = pitman_stanley_graph(n)
        head = tuple(range(1, n))
        values = {
            volume(g, NetFlow.with_sink(head + (last,))) for last in (0, 1, 2)
        }
        assert len(values) == 1


def test_volume_rejects_negative_supplies():
    # outside the supply cone the Lidskii polynomial is not the volume (it gives -3 here)
    with pytest.raises(ValueError):
        volume(pitman_stanley_graph(3), NetFlow.with_sink((-1, 2, 1)))
    with pytest.raises(ValueError):
        volume(caracol_graph(3), NetFlow.with_sink((1, -1, 1)))


def test_volume_terms_match_the_constant_term_engine():
    # the table's sum against the sum taken as one constant term, at flows
    # with zeros
    graphs = [pitman_stanley_graph(n) for n in range(2, 8)]
    graphs += [caracol_graph(n) for n in range(3, 8)]
    for g in graphs:
        for head in _supplies_with_zeros(g.vertex_count - 1, repr(g))[:4]:
            flow = NetFlow.with_sink(head)
            assert volume(g, flow) == ct_volume(g, flow)


FAMILY_GRAPHS = {f"ps{n}": pitman_stanley_graph(n) for n in range(2, 10)}
FAMILY_GRAPHS.update({f"car{n}": caracol_graph(n) for n in range(3, 10)})


def _paths(table):
    """Every path of the table from node 0 to the end, as its transitions."""
    outgoing = {}
    for transition in table:
        outgoing.setdefault(transition[0], []).append(transition)
    end = table[-1][1]
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        if node == end:
            yield path
        for transition in outgoing.get(node, ()):
            stack.append((transition[1], path + (transition,)))


@pytest.mark.parametrize("name", FAMILY_GRAPHS)
def test_volume_terms_keep_only_nonzero_exponent_slots(name):
    # slot (i, e) stands for a_i^e, and a_i^0 = 1; so a path's slots with
    # e >= 1 are its whole term, and they must name a dominant composition
    # of m-n, vertices rising, with a positive weight
    graph = FAMILY_GRAPHS[name]
    n = graph.vertex_count - 1
    total = graph.edge_count - n
    t = [d - 1 for d in graph.out_degrees()[:n]]
    table = lidskii.volume_terms(graph)
    terms = {}
    for path in _paths(table):
        pairs = tuple(table.slots[slot] for _, _, slot, _ in path if table.slots[slot][1])
        terms[pairs] = terms.get(pairs, 0) + prod(weight for _, _, _, weight in path)
    assert terms
    for pairs, coeff in terms.items():
        assert coeff > 0
        s = [0] * n
        vertex = -1
        for i, e in pairs:
            assert i > vertex and e >= 1
            s[i] = e
            vertex = i
        assert vertex < n and sum(s) == total
        assert all(sum(s[: j + 1]) >= sum(t[: j + 1]) for j in range(n))


@pytest.mark.parametrize("name", FAMILY_GRAPHS)
def test_volume_table_paths_spell_the_dominant_compositions(name):
    # a path takes one slot a_i^{s_i} per vertex i in order, and the weights
    # of the paths that spell s sum to its Lidskii coefficient, the
    # multinomial times the flow count at s - t
    graph = FAMILY_GRAPHS[name]
    n = graph.vertex_count - 1
    total = graph.edge_count - n
    t = tuple(d - 1 for d in graph.out_degrees()[:n])
    inner = restrict(graph, n)
    table = lidskii.volume_terms(graph)
    coefficients = {}
    for path in _paths(table):
        vertices, exponents = zip(*(table.slots[slot] for _, _, slot, _ in path))
        assert vertices == tuple(range(n))
        weight = prod(weight for _, _, _, weight in path)
        coefficients[exponents] = coefficients.get(exponents, 0) + weight
    expected = {}
    for s in iter_dominant(total, n, t):
        flows = count_flows(inner, NetFlow(tuple(a - b for a, b in zip(s, t))))
        if flows:
            expected[s] = factorial(total) // prod(map(factorial, s)) * flows
    assert coefficients == expected


def _complete_graph(v):
    return parse_graph_spec(f"{v}:" + ",".join(f"{i}-{j}" for i in range(1, v + 1) for j in range(i + 1, v + 1)))


@pytest.mark.parametrize(("graph", "count"), [
    (pitman_stanley_graph(7), 57), (pitman_stanley_graph(8), 85),
    (pitman_stanley_graph(9), 121), (pitman_stanley_graph(10), 166),
    (caracol_graph(7), 168), (caracol_graph(8), 316), (caracol_graph(9), 555),
    (_complete_graph(7), 574),
], ids=["ps7", "ps8", "ps9", "ps10", "car7", "car8", "car9", "K7"])
def test_volume_term_counts(graph, count):
    # the counts behind perfbench's lidskii.volume_terms.terms: transitions,
    # 1468 over volume-batch's seven graphs, where there were 8844 terms
    assert len(lidskii.volume_terms(graph)) == count


@pytest.mark.parametrize(("graph", "count"), [
    (pitman_stanley_graph(10), 54), (caracol_graph(9), 44), (_complete_graph(7), 36),
], ids=["ps10", "car9", "K7"])
def test_volume_slot_counts(graph, count):
    # a query raises one power per slot: 54 for ps 10, where the whole
    # table of a_i^e for e up to m-n held 100
    assert len(lidskii.volume_terms(graph).slots) == count


@pytest.mark.parametrize(("graph", "digest"), [
    (pitman_stanley_graph(10), "9332fe172f324ce3"),
    (caracol_graph(9), "527974a8dd5e5272"),
    (_complete_graph(7), "b8edcfcbc6266e47"),
], ids=["ps10", "car9", "K7"])
def test_volume_tables_are_pinned(graph, digest):
    # the transitions, their order and the slots are part of the table:
    # a change in the sweep's layout must not move a single node number
    table = lidskii.volume_terms(graph)
    assert sha256(repr((tuple(table), table.slots)).encode()).hexdigest().startswith(digest)


@pytest.mark.parametrize("name", FAMILY_GRAPHS)
def test_volume_slots_are_named_by_the_transitions_in_first_use_order(name):
    # slot j first appears after slots 0..j-1, so every slot is used, and
    # each names a vertex of the restriction and an exponent up to m-n
    graph = FAMILY_GRAPHS[name]
    n = graph.vertex_count - 1
    table = lidskii.volume_terms(graph)
    assert list(dict.fromkeys(slot for _, _, slot, _ in table)) == list(range(len(table.slots)))
    assert len(set(table.slots)) == len(table.slots)
    assert all(0 <= i < n and 0 <= e <= graph.edge_count - n for i, e in table.slots)


def test_volume_table_copies_and_pickles_with_its_slots():
    table = lidskii.volume_terms(caracol_graph(6))
    for twin in (copy.copy(table), pickle.loads(pickle.dumps(table))):
        assert (type(twin), twin, twin.slots) == (type(table), table, table.slots)


@st.composite
def graph_and_supplies(draw):
    """A random multigraph on at most 5 vertices where every non-sink
    vertex has an out-edge, and supplies 0..2 on its non-sink vertices."""
    vertex_count = draw(st.integers(min_value=2, max_value=5))
    edges = [(v, draw(st.integers(min_value=v + 1, max_value=vertex_count)))
             for v in range(1, vertex_count)]
    pairs = [(i, j) for i in range(1, vertex_count) for j in range(i + 1, vertex_count + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    head = draw(st.lists(st.integers(min_value=0, max_value=2),
                         min_size=vertex_count - 1, max_size=vertex_count - 1))
    return DirectedStepGraph(vertex_count, tuple(edges)), head


@settings(max_examples=80, deadline=None)
@given(graph_and_supplies())
def test_volume_is_the_leading_ehrhart_coefficient(case):
    # l -> count_flows(G, l*a) is a polynomial of degree at most d = E - V + 1,
    # so its d-th difference at 0 is d! times its coefficient of l^d, which
    # is the normalized volume, and its (d+1)-th difference is 0
    g, head = case
    d = g.edge_count - g.vertex_count + 1
    counts = [count_flows(g, NetFlow.with_sink([scale * a for a in head])) for scale in range(d + 2)]

    def difference(order):
        return sum((-1) ** (order - j) * comb(order, j) * counts[j] for j in range(order + 1))

    assert difference(d + 1) == 0
    assert volume(g, NetFlow.with_sink(head)) == difference(d)


def _dense_volume(graph, flow):
    """volume as it was before terms kept only their nonzero exponents:
    each term is (s, coeff) and multiplies all n entries of one power
    table per supply, zero exponents included."""
    n = graph.vertex_count - 1
    m = graph.edge_count
    degrees = graph.out_degrees()
    t = tuple(degrees[i] - 1 for i in range(n))
    inner = restrict(graph, n)
    terms = []
    for s in iter_dominant(m - n, n, t):
        flows = count_flows(inner, NetFlow(tuple(si - ti for si, ti in zip(s, t))))
        if flows:
            terms.append((s, factorial(m - n) // prod(map(factorial, s)) * flows))
    top = graph.edge_count - graph.vertex_count + 1
    powers = [[a**e for e in range(top + 1)] for a in flow.values[:-1]]
    return sum(coeff * prod(map(getitem, powers, s)) for s, coeff in terms)


@settings(max_examples=80, deadline=None)
@given(graph_and_supplies())
def test_volume_matches_the_dense_reference(case):
    g, head = case
    flow = NetFlow.with_sink(head)
    expected = _dense_volume(g, flow)
    assert volume(g, flow) == expected
    # the constant-term route reads parallel edges as repeated diff factors
    assert ct_volume(g, flow) == expected


@st.composite
def larger_graph_and_supplies(draw):
    """As graph_and_supplies, on at most 7 vertices with up to 5 more edges
    and supplies 0..4."""
    vertex_count = draw(st.integers(min_value=2, max_value=7))
    edges = [(v, draw(st.integers(min_value=v + 1, max_value=vertex_count)))
             for v in range(1, vertex_count)]
    pairs = [(i, j) for i in range(1, vertex_count) for j in range(i + 1, vertex_count + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=5))
    head = draw(st.lists(st.integers(min_value=0, max_value=4),
                         min_size=vertex_count - 1, max_size=vertex_count - 1))
    return DirectedStepGraph(vertex_count, tuple(edges)), head


@settings(max_examples=150, deadline=None)
@given(larger_graph_and_supplies())
def test_the_table_matches_the_flat_sum(case):
    # the table route, one pass over the table, and the constant-term route
    # against the dense reference, which sums the terms one by one
    g, head = case
    flow = NetFlow.with_sink(head)
    expected = _dense_volume(g, flow)
    assert volume(g, flow) == expected
    assert ct_volume(g, flow) == expected


@pytest.mark.parametrize("name", [f"{family}{n}" for family in ("ps", "car") for n in range(3, 11)])
def test_the_table_matches_the_flat_sum_on_the_families(name):
    # zeros in the supplies exercise 0**0 in the power table
    n = int(name.lstrip("psacr"))
    graph = pitman_stanley_graph(n) if name.startswith("ps") else caracol_graph(n)
    heads = _supplies_with_zeros(n, name)
    flows = [NetFlow.with_sink(head) for head in heads]
    expected = _flat_volumes(graph, heads)
    assert [volume(graph, flow) for flow in flows] == expected
    assert [ct_volume(graph, flow) for flow in flows] == expected


def _flat_volumes(graph, heads):
    """The Lidskii sum at each head, term by term, with the flow counts of
    the terms computed once for all heads."""
    n = graph.vertex_count - 1
    total, t = graph.edge_count - n, tuple(d - 1 for d in graph.out_degrees()[:n])
    inner = restrict(graph, n)
    terms = [(s, factorial(total) // prod(map(factorial, s))
              * count_flows(inner, NetFlow(tuple(a - b for a, b in zip(s, t)))))
             for s in iter_dominant(total, n, t)]
    return [sum(coeff * prod(map(pow, head, s)) for s, coeff in terms) for head in heads]


def _supplies_with_zeros(n, seed):
    """Supplies from 0..30 for n non-sink vertices: all zeros, a zero at
    each end, then random draws where about half of the entries are 0."""
    rng = random.Random(seed)
    draws = [[0] * n, [0] + [rng.randint(1, 30) for _ in range(n - 1)],
             [rng.randint(1, 30) for _ in range(n - 1)] + [0]]
    for _ in range(4):
        draws.append([rng.choice((0, rng.randint(1, 30))) for _ in range(n)])
    return draws


@pytest.mark.parametrize("name", [f"ps{n}" for n in range(2, 9)] + [f"car{n}" for n in range(3, 9)])
def test_volume_matches_the_dense_reference_on_the_families(name):
    # 0**0 == 1 is where a dropped exponent could go wrong
    graph = FAMILY_GRAPHS[name]
    n = graph.vertex_count - 1
    for head in _supplies_with_zeros(n, name):
        flow = NetFlow.with_sink(head)
        expected = _dense_volume(graph, flow)
        assert volume(graph, flow) == expected
        assert ct_volume(graph, flow) == expected


def test_a_default_volume_query_builds_its_terms_through_the_cache_once(monkeypatch):
    # perfbench counts volume_terms calls and hits per volume query
    real = lidskii.volume_terms
    seen = []

    def counting(graph):
        seen.append(graph)
        return real(graph)

    monkeypatch.setattr(lidskii, "volume_terms", counting)
    g = caracol_graph(4)
    assert volume(g, NetFlow.with_sink((1, 2, 2, 2))) == 98
    assert seen == [g]
    seen.clear()
    before = real.cache_info()
    assert ct_volume(g, NetFlow.with_sink((1, 2, 2, 2))) == 98
    assert seen == []
    assert real.cache_info() == before


@pytest.mark.parametrize(("spec", "head", "vertex"), [
    ("4:1-2,2-4,1-3,1-4,2-4", (2, 1, 0), 3),
    ("3:1-2,1-3", (1, 0), 2),
])
def test_volume_rejects_a_non_sink_vertex_without_out_edges(spec, head, vertex):
    # outside the Lidskii formula's hypothesis the sum gave a plausible 0;
    # the first graph's polytope has normalized volume 8, the second is a point
    g = parse_graph_spec(spec)
    message = f"vertex {vertex} has none"
    with pytest.raises(ValueError, match=message):
        volume(g, NetFlow.with_sink(head))
    with pytest.raises(ValueError, match=message):
        ct_volume(g, NetFlow.with_sink(head))
    with pytest.raises(ValueError, match=message):
        unit_flow_volume(g)
    with pytest.raises(ValueError, match=message):
        ehrhart_like(g, 1)


def test_volume_terms_cache_is_bounded():
    # volume-batch and the verify volumes suite each cycle through at most
    # about a dozen graphs; seven must stay resident
    maxsize = lidskii.volume_terms.cache_info().maxsize
    assert maxsize is not None and maxsize >= 7
    graph = caracol_graph(5)
    cached = lidskii.volume_terms(graph)
    lidskii.volume_terms.cache_clear()
    assert lidskii.volume_terms(graph) == cached


def test_a_build_checks_the_table_against_one_flow_count(monkeypatch):
    # perfbench reads the count_flows calls under volume_terms: one per build
    calls = []

    def counting(graph, flow):
        calls.append(flow)
        return count_flows(graph, flow)

    monkeypatch.setattr(lidskii, "count_flows", counting)
    lidskii.volume_terms.cache_clear()
    graph = caracol_graph(6)
    assert volume(graph, NetFlow.with_sink((1,) * 6)) == _dense_volume(graph, NetFlow.with_sink((1,) * 6))
    assert calls == [NetFlow((4, -1, -1, -1, -1, 0))]
    lidskii.volume_terms.cache_clear()


def test_a_planted_multinomial_error_fails_the_check(monkeypatch):
    # comb(R + 1, s) for comb(R, s) in the sweep's weights: the table's
    # value at (1, 0, ..., 0) becomes m - n + 1 times the flow count
    monkeypatch.setattr(kostant, "_ways", lambda m, x: comb(m + x - 1, x) if x else 1)
    monkeypatch.setattr(kostant, "comb", lambda r, s: comb(r + 1, s))
    lidskii.volume_terms.cache_clear()
    try:
        for graph in (pitman_stanley_graph(5), caracol_graph(5)):
            with pytest.raises(ValueError, match="disagrees with count_flows"):
                volume(graph, NetFlow.with_sink((1,) * 5))
    finally:
        lidskii.volume_terms.cache_clear()


def test_unit_flow_volumes():
    assert unit_flow_volume(pitman_stanley_graph(3)) == 1
    assert unit_flow_volume(pitman_stanley_graph(2)) == 1
    assert unit_flow_volume(caracol_graph(3)) == 1


def test_unit_flow_matches_volume_sum():
    graphs = [pitman_stanley_graph(n) for n in range(2, 8)]
    graphs += [caracol_graph(n) for n in range(3, 8)]
    for g in graphs:
        n = g.vertex_count - 1
        unit = NetFlow((1,) + (0,) * (n - 1) + (-1,))
        assert unit_flow_volume(g) == volume(g, unit)


@pytest.mark.parametrize("v", range(3, 10))
def test_complete_graph_volumes(v):
    # nearly every vertex of K_v defers its surplus, which no family graph
    # does.  At (1, 0, ..., 0, -1) the volume is the product
    # of the first v - 3 Catalan numbers (Chan, Robbins and Yuen); at
    # (1, ..., 1, -n) with n = v - 1 it is C(n,2)! 2^C(n,2) / prod_i i!
    # (Tesler)
    graph = _complete_graph(v)
    n = v - 1
    assert volume(graph, NetFlow((1,) + (0,) * (n - 1) + (-1,))) == prod(catalan(i) for i in range(1, v - 2))
    pairs = comb(n, 2)
    tesler = factorial(pairs) * 2**pairs // prod(factorial(i) for i in range(1, n + 1))
    assert volume(graph, NetFlow((1,) * n + (-n,))) == tesler


@pytest.mark.parametrize("v", range(3, 9))
def test_the_constant_term_route_matches_the_table_on_complete_graphs(v):
    graph = _complete_graph(v)
    for head in [[1] * (v - 1)] + _supplies_with_zeros(v - 1, f"K{v}")[:3]:
        flow = NetFlow.with_sink(head)
        assert ct_volume(graph, flow) == volume(graph, flow)


def test_ehrhart_spot_values():
    assert ehrhart_like(pitman_stanley_graph(2), 1) == 1
    assert ehrhart_like(pitman_stanley_graph(3), 2) == 7
    assert ehrhart_like(caracol_graph(3), 1) == 2


@pytest.mark.parametrize(("family", "n", "k"), [("ps", 20, 3), ("ps", 30, 3), ("car", 12, 2), ("car", 14, 2)])
def test_ehrhart_beyond_the_grid(family, n, k):
    if family == "ps":
        assert ehrhart_like(pitman_stanley_graph(n), k) == ehrhart_ps_closed(n, k)
    else:
        assert ehrhart_like(caracol_graph(n), k) == ehrhart_car_closed(n, k)


def test_ehrhart_rejects_bad_k():
    with pytest.raises(ValueError):
        ehrhart_like(pitman_stanley_graph(2), 0)


def test_volume_agrees_with_closed_form_on_grid():
    for n in range(2, 6):
        g = pitman_stanley_graph(n)
        for a, b, d in product((1, 2, 3), repeat=3):
            flow = NetFlow.with_sink((a,) + (b,) * (n - 2) + (d,))
            assert volume(g, flow) == ps_volume_closed("EQ1", n, a, b, d=d)


def _newton(differences, k):
    return sum(c * comb(k - 1, j) for j, c in enumerate(differences))


def test_fit_car4():
    # E(k) = (3k^2 + k) / 2, so E(1..3) = 2, 7, 15
    assert ehrhart_differences(caracol_graph(3)) == (2, 5, 3)


def test_fit_ps3_is_linear():
    assert ehrhart_differences(pitman_stanley_graph(2)) == (1, 1)


def test_fit_reproduces_samples():
    differences = ehrhart_differences(pitman_stanley_graph(4))
    for k in range(1, 8):
        assert _newton(differences, k) == ehrhart_like(pitman_stanley_graph(4), k)


@pytest.mark.parametrize("graph", [caracol_graph(6), pitman_stanley_graph(5), caracol_graph(3)], ids=["car6", "ps5", "car3"])
def test_fit_default_samples_follow_the_degree(graph):
    # d + 1 differences pin the degree-d polynomial down, and the Newton
    # form then holds past the d + 2 samples taken
    d = graph.edge_count - graph.vertex_count + 1
    differences = ehrhart_differences(graph)
    assert len(differences) == d + 1
    for k in range(1, d + 5):
        assert _newton(differences, k) == ehrhart_like(graph, k)


def test_fit_detects_insufficient_degree(monkeypatch):
    # values of a polynomial of degree d + 1 cannot be read as one of
    # degree d: the extrapolation to k = d + 2 must fail
    graph = caracol_graph(6)
    d = graph.edge_count - graph.vertex_count + 1
    true_values = ehrhart_like
    monkeypatch.setattr(lidskii, "ehrhart_like", lambda g, k: true_values(g, k) + comb(k - 1, d + 1))
    with pytest.raises(ValueError, match="sampled value is"):
        ehrhart_differences(graph)


def test_fit_mismatch_samples_the_check_point_once(monkeypatch):
    # a planted wrong value at k = d + 2 must be sampled once, for the check
    # and the message alike, and each k = 1..d+2 once in all
    calls = []

    def planted(graph, k):
        calls.append(k)
        return ehrhart_ps_closed(4, k) + (k == 5)

    monkeypatch.setattr(lidskii, "ehrhart_like", planted)
    # ps 4 has d = 7 - 5 + 1 = 3
    message = f"gives {ehrhart_ps_closed(4, 5)} at k = 5, sampled value is {ehrhart_ps_closed(4, 5) + 1}$"
    with pytest.raises(ValueError, match=message):
        ehrhart_differences(pitman_stanley_graph(4))
    assert calls == [1, 2, 3, 4, 5]


def _all_ones_volume(graph):
    return volume(graph, NetFlow.with_sink((1,) * (graph.vertex_count - 1)))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_leading_difference_is_the_all_ones_volume_ps(n):
    graph = pitman_stanley_graph(n)
    assert ehrhart_differences(graph)[-1] == _all_ones_volume(graph) == n ** (n - 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_leading_difference_is_the_all_ones_volume_car(n):
    graph = caracol_graph(n)
    assert ehrhart_differences(graph)[-1] == _all_ones_volume(graph) == catalan(n - 2) * n ** (n - 2)


@settings(max_examples=60, deadline=None)
@given(graph_and_supplies())
def test_the_leading_difference_is_the_all_ones_volume(case):
    graph, _ = case
    assert ehrhart_differences(graph)[-1] == _all_ones_volume(graph)


def _rising(x, e):
    return prod(range(x, x + e))


def _table_reading(graph, x):
    """The volume table's sum with x(i, e) in slot (i, e), over (m-n)!,
    which must divide it exactly."""
    table = lidskii.volume_terms(graph)
    total = graph.edge_count - graph.vertex_count + 1
    quotient, remainder = divmod(lidskii._table_sum(table, [x(i, e) for i, e in table.slots]), factorial(total))
    assert remainder == 0
    return quotient


def _check_ehrhart_reading(graph, k):
    # rising factorials k(k+1)...(k+e-1) in place of a_i^e give E(k)
    assert _table_reading(graph, lambda i, e: _rising(k, e)) == ehrhart_like(graph, k)


def _check_lattice_reading(graph, head):
    # (a_i - indeg_i + 1)(a_i - indeg_i + 2)..., e factors, give the flow count
    indegrees = [sum(j == v for _, j in graph.edges) for v in range(1, graph.vertex_count)]
    reading = _table_reading(graph, lambda i, e: _rising(head[i] - indegrees[i] + 1, e))
    assert reading == count_flows(graph, NetFlow.with_sink(head))


@pytest.mark.parametrize("name", [f"ps{n}" for n in range(2, 8)] + [f"car{n}" for n in range(3, 8)])
def test_the_volume_table_reads_the_ehrhart_polynomial_and_the_flow_counts(name):
    graph = FAMILY_GRAPHS[name]
    for k in range(1, 4):
        _check_ehrhart_reading(graph, k)
    rng = random.Random(f"lattice-{name}")
    for _ in range(10):
        _check_lattice_reading(graph, [rng.randint(0, 4) for _ in range(graph.vertex_count - 1)])


@settings(max_examples=60, deadline=None)
@given(graph_and_supplies(), st.integers(min_value=1, max_value=3))
def test_the_volume_table_readings_on_random_graphs(case, k):
    graph, head = case
    _check_ehrhart_reading(graph, k)
    _check_lattice_reading(graph, head)


def test_iter_dominant_checks_its_arguments_at_the_call():
    # nothing is iterated: the length check must not wait for next()
    with pytest.raises(ValueError, match="t must have the given length"):
        iter_dominant(3, 2, (1,))


@pytest.mark.parametrize(
    ("args", "message"),
    [
        ((2.5, 2, (0, 0)), "iter_dominant argument 2.5"),
        ((2, 1.5, (0,)), "iter_dominant argument 1.5"),
        ((2, 2, (0.5, 0)), "iter_dominant t entry 0.5"),
    ],
    ids=["total", "length", "t"],
)
def test_iter_dominant_rejects_non_integers_at_the_call(args, message):
    # nothing is iterated: a float would otherwise fail only inside the walk
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        iter_dominant(*args)


def _volumes_at_every_cut(graph, flows):
    """For each vertex cut h in 0..n, volume at each flow as the sum over
    the table's nodes at h of (paths from node 0 in) times (paths on to the
    end): a transition whose slot is for vertex i ends at cut i + 1."""
    n = graph.vertex_count - 1
    table = lidskii.volume_terms(graph)
    end = table[-1][1]
    cut_of = {0: 0}
    for _, target, slot, _ in table:
        cut = table.slots[slot][0] + 1
        assert cut_of.setdefault(target, cut) == cut
    assert cut_of[end] == n
    out = []
    for flow in flows:
        powers = [flow.values[i] ** e for i, e in table.slots]
        inward = {0: 1}
        for source, target, slot, weight in table:
            inward[target] = inward.get(target, 0) + inward[source] * weight * powers[slot]
        onward = {end: 1}
        for source, target, slot, weight in reversed(table):
            onward[source] = onward.get(source, 0) + weight * powers[slot] * onward.get(target, 0)
        out.append([
            sum(inward[node] * onward.get(node, 0) for node, cut in cut_of.items() if cut == h)
            for h in range(n + 1)
        ])
    return [list(values) for values in zip(*out)]


@settings(max_examples=60, deadline=None)
@given(graph_and_supplies())
def test_the_split_is_exact_at_every_cut(case):
    # every path crosses each vertex cut once, so the empty cuts 0 and n
    # and each one between split the sum exactly
    g, head = case
    flow = NetFlow.with_sink(head)
    expected = _dense_volume(g, flow)
    for values in _volumes_at_every_cut(g, [flow]):
        assert values == [expected]


@pytest.mark.parametrize("name", [f"ps{n}" for n in range(2, 11)] + [f"car{n}" for n in range(3, 10)])
def test_the_split_is_exact_at_every_cut_on_the_families(name):
    # zero supplies on either side of the cut exercise 0**0 in both halves
    graph = pitman_stanley_graph(int(name[2:])) if name.startswith("ps") else caracol_graph(int(name[3:]))
    flows = [NetFlow.with_sink(head) for head in _supplies_with_zeros(graph.vertex_count - 1, name)]
    expected = [_dense_volume(graph, flow) for flow in flows]
    for values in _volumes_at_every_cut(graph, flows):
        assert values == expected


def test_concurrent_cold_queries_share_one_set_of_terms():
    # four threads race to build and read the cached terms of two graphs;
    # every value must still be the dense reference's
    per_graph = [
        [(graph, NetFlow.with_sink(head)) for head in _supplies_with_zeros(graph.vertex_count - 1, seed)]
        for graph, seed in ((pitman_stanley_graph(9), "ps9"), (caracol_graph(8), "car8"))
    ]
    cases = [case for pair in zip(*per_graph) for case in pair]  # ps9, car8, ps9, ...
    expected = [_dense_volume(graph, flow) for graph, flow in cases]
    wrong = []

    def work(offset):
        for idx in range(len(cases)):
            pick = (idx + offset) % len(cases)
            try:
                value = volume(*cases[pick])
            except Exception as exc:
                value = exc
            if value != expected[pick]:
                wrong.append((pick, value))

    lidskii.volume_terms.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
