"""Counting and listing integer flows on directed step graphs.

Counting is a forward sweep over the vertices in increasing order.  Its
state is the set of flows crossing the current cut (Baldoni, De Loera and
Vergne, "Counting integer flows in networks", 2004), kept as a dict from
cut state to the number of partial flows that reach it.  The last vertex
is never tracked: once every other vertex is balanced, conservation
balances it.  When the sweep reaches vertex v, v's in-flow is settled, and
its surplus (net supply plus in-flow) leaves it by one of two rules,
chosen from the edges alone:

* push - v has at most one distinct target among the non-last vertices.
  The surplus is split at once between that target and the last vertex,
  and the target's share joins its in-flow, merging with other shares.
* defer - v has two or more such targets.  The surplus is carried as one
  pending number.  Just before the sweep reaches each target, it takes
  that target's share x out of the pending number, and after the last
  one the remainder r goes to the last vertex (r must be 0 without an
  edge there).

Parallel edges are grouped: m parallel edges carry x units in
comb(m+x-1, x) ways.  A deferred source fan, such as the k-fold fan of an
augmented graph, thus costs one number of state rather than one per
target.  The count has two witnesses: list_flows and iter_flows keep the
literal per-edge enumeration, and ctengine takes the same count as the
constant term of flow_count_expression, parallel edges included.

Which channels are open at each vertex depends on the edges alone, so
_plan walks the vertices once and fixes every step's cut-state positions
up front; it is the only code that knows which position holds which
channel.  _share and _settle are pure transforms of the states over those
positions.  count_flows plans afresh on each call and keeps nothing
between calls.  weighted_sweep runs the same sweep over all the supplies
of a Lidskii sum at once: its nodes are (what is left of a total, cut
state) pairs, and it returns the weighted transitions between them
instead of a count.  lidskii builds its volume table from it.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from typing import Iterator, Sequence

from .graphs import DirectedStepGraph, FlowAssignment, NetFlow


def count_flows(graph: DirectedStepGraph, flow: NetFlow) -> int:
    """Number of nonnegative integer flows realizing the given net supplies."""
    _check(graph, flow)
    states = {(): 1}
    for (shares, settle), supply in zip(_plan(graph), flow.values):
        for share in shares:
            states = _share(states, *share)
        states = _settle(states, supply, *settle)
        if not states:
            return 0
    return states.get((), 0)


class SweepTable(tuple):
    """weighted_sweep's transitions; slots[j] is slot j's (vertex index, exponent)."""

    def __new__(cls, transitions, slots: tuple[tuple[int, int], ...] = ()):
        # pickle and copy pass the transitions alone, then restore slots
        table = super().__new__(cls, transitions)
        table.slots = slots
        return table


def weighted_sweep(graph: DirectedStepGraph, total: int, t: Sequence[int]) -> SweepTable:
    """count_flows' sweep of graph over every supply s - t at once, where s
    runs over the compositions of total into vertex_count parts and each
    supply is weighted by the multinomial total! / prod(s_i!) and by the
    monomial prod_i a_i^{s_i} in unknowns a_1..a_vertex_count.

    A node is (R, cut state) before a vertex v, where R is what is left of
    total, and node 0 is (total, empty) before vertex 1.  At v the node
    branches on s_v in 0..R: the multinomial factors vertex by vertex as
    prod_v comb(R_v, s_v), and v settles supply s_v - t_v, so a branch leads
    to each cut state that settle reaches, with weight comb(R, s_v) times
    the number of ways to reach it.  A supply whose prefix sum falls below
    t's has a negative surplus somewhere, which settle drops.  After the
    last tracked vertex no channel is open, so every node's cut state is
    empty, and the last vertex takes the R that is left.

    Each transition is (source node, target node, slot, weight); slot j
    stands for a_v^s where the table's slots[j] = (v - 1, s), numbered in
    first use.  Nodes are numbered in sweep order and transitions listed in
    it, so a transition's source is reached by every transition into it
    before it.  The last node, one past every other, is the end: summing
    weight * a^slot along every path from node 0 to the end gives the
    weighted sum of the flow counts.  With no such path the table is empty.
    """
    nodes, size = {(total, ()): 0}, 1
    slots: dict[tuple[int, int], int] = {}
    transitions = []
    for i, (shares, settle) in enumerate(_plan(graph)):
        layer, nodes = nodes, {}
        for (left, state), source in layer.items():
            states = {state: 1}
            for share in shares:
                states = _share(states, *share)
            for s in range(left + 1):
                reached = _settle(states, s - t[i], *settle)
                weight = comb(left, s)
                if reached:
                    slot = slots.setdefault((i, s), len(slots))
                for state_after, ways in reached.items():
                    target = nodes.setdefault((left - s, state_after), size + len(nodes))
                    transitions.append((source, target, slot, weight * ways))
        size += len(nodes)
    last = graph.vertex_count - 1
    ends = [(source, size, slots.setdefault((last, left), len(slots)), 1)
            for (left, _), source in nodes.items()]
    return SweepTable(transitions + ends, tuple(slots)) if ends else SweepTable(())


def _plan(graph):
    """The sweep's steps, fixed by the edges alone: one (shares, settle)
    pair per tracked vertex v = 1..n-1, in order.  shares holds the
    positional arguments after the states of one _share call per deferred
    vertex with an edge to v, in increasing order; settle holds those after
    the states and the supply of v's _settle call.  This is the only code
    that knows which cut state position holds which channel."""
    last = graph.vertex_count
    mult: list[dict[int, int]] = [{} for _ in range(last + 1)]
    for i, j in graph.edges:
        row = mult[i]
        row[j] = row.get(j, 0) + 1
    # one channel per cut state position: channel w > 0 is the in-flow
    # gathered so far by vertex w and channel -u the pending surplus of
    # deferred vertex u
    live: list[int] = []
    plan = []
    for v in range(1, last):
        shares = []
        for u in [-c for c in live if c < 0 and v in mult[-c]]:
            outs = mult[u]
            p = live.index(-u)
            grow = v not in live
            if grow:
                live.append(v)
            # after u's last non-last target, the remainder goes to the last vertex
            final = max(w for w in outs if w != last) == v
            shares.append((p, live.index(v), grow, outs[v], outs.get(last, 0), final))
            if final:
                del live[p]
        outs = mult[v]
        p = live.index(v) if v in live else -1
        if p >= 0:
            del live[p]
        inner = [w for w in outs if w != last]
        if len(inner) > 1:
            live.append(-v)
            settle = (p, None, False, 0, 0, True)
        elif inner:
            target = inner[0]
            grow = target not in live
            if grow:
                live.append(target)
            settle = (p, live.index(target), grow, outs[target], outs.get(last, 0), False)
        else:
            settle = (p, None, False, 0, outs.get(last, 0), False)
        plan.append((shares, settle))
    return plan


def _share(states, p, q, grow, m, m_last, final):
    """Move a share of the pending surplus at position p into the channel at
    position q, a new one if grow, by m parallel edges; if final, the
    remainder goes to the last vertex by m_last edges and position p closes."""
    out: dict[tuple[int, ...], int] = {}
    for state, count in states.items():
        s = [*state, 0] if grow else list(state)
        pending, base = s[p], s[q]
        for x in range(pending + 1) if not final or m_last else (pending,):
            weight = count * _ways(m, x)
            s[q] = base + x
            if final:
                weight *= _ways(m_last, pending - x)
                key = tuple(s[:p] + s[p + 1 :])
            else:
                s[p] = pending - x
                key = tuple(s)
            out[key] = out.get(key, 0) + weight
    return out


def _settle(states, supply, p, q, grow, m, m_last, defer):
    """Add supply to the in-flow at position p (none if p < 0) and close it.
    If defer, the surplus becomes a new pending channel at the end; else it
    is split between the channel at position q, a new one if grow, by m
    parallel edges and the last vertex by m_last edges (all to the last
    vertex if q is None)."""
    out: dict[tuple[int, ...], int] = {}
    for state, count in states.items():
        if p >= 0:
            surplus = supply + state[p]
            rest = list(state[:p] + state[p + 1 :])
        else:
            surplus = supply
            rest = list(state)
        if surplus < 0:
            continue
        if defer:
            rest.append(surplus)
            key = tuple(rest)
            out[key] = out.get(key, 0) + count
            continue
        if q is None:
            weight = _ways(m_last, surplus)
            if weight:
                key = tuple(rest)
                out[key] = out.get(key, 0) + count * weight
            continue
        if grow:
            rest.append(0)
        base = rest[q]
        for x in range(surplus + 1) if m_last else (surplus,):
            rest[q] = base + x
            key = tuple(rest)
            out[key] = out.get(key, 0) + count * _ways(m, x) * _ways(m_last, surplus - x)
    return out


def _ways(m: int, x: int) -> int:
    """Ways for m parallel edges to carry x units in total."""
    return comb(m + x - 1, x) if x else 1


def list_flows(graph: DirectedStepGraph, flow: NetFlow, cap: int) -> list[FlowAssignment]:
    """All integer flows in lexicographic order of the canonical edge tuple,
    truncated at cap entries."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    return list(islice(iter_flows(graph, flow), cap))


def iter_flows(graph: DirectedStepGraph, flow: NetFlow) -> Iterator[FlowAssignment]:
    """The flows of list_flows, lazily, in the same order."""
    _check(graph, flow)
    return _flows(graph, flow.values)


def _flows(graph: DirectedStepGraph, net: tuple[int, ...]) -> Iterator[FlowAssignment]:
    """The walk behind ``iter_flows`` in one frame, over the canonical edge
    list, where each vertex's out-edges stand together after its in-edges.
    ``values[e]`` is edge e's value, -1 while unset; ``left[v]`` is v's supply
    plus what its set in-edges bring less what its set out-edges carry.  Each
    out-edge of u but the last tries 0, 1, ... up to ``left[u]`` and the last
    takes the rest, so the flows come in lexicographic order.  A vertex with
    no out-edges must keep nothing, checked once its last in-edge is set."""
    tails, heads = [i - 1 for i, _ in graph.edges], [j - 1 for _, j in graph.edges]
    m = len(tails)
    last = [e == m - 1 or tails[e + 1] != tails[e] for e in range(m)]
    sources, last_in = set(tails), {w: e for e, w in enumerate(heads)}
    closes = [w not in sources and last_in[w] == e for e, w in enumerate(heads)]
    if any(net[v] for v in set(range(graph.vertex_count)).difference(sources, last_in)):
        return
    values, left, e = [-1] * m, list(net), 0
    while e >= 0:
        if e == m:
            yield FlowAssignment(tuple(values))
            e -= 1
            continue
        u, w, x = tails[e], heads[e], values[e]
        if x >= 0:
            # back from the edges after e: take x back
            left[u] += x
            left[w] -= x
        # an unset last out-edge takes the rest; any other tries x + 1: 0 if unset
        x = left[u] if last[e] and x < 0 else x + 1
        if not 0 <= x <= left[u]:
            values[e] = -1
            e -= 1
            continue
        values[e] = x
        left[u] -= x
        left[w] += x
        if not closes[e] or left[w] == 0:
            e += 1


def _check(graph: DirectedStepGraph, flow: NetFlow) -> None:
    if len(flow) != graph.vertex_count:
        raise ValueError(
            f"net flow has {len(flow)} entries for a graph on {graph.vertex_count} vertices"
        )
