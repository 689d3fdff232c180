"""Normalized flow-polytope volumes via dominance-constrained multinomial sums.

The volume of the flow polytope is the Lidskii sum (Baldoni and Vergne,
Transform. Groups 2008) over compositions s of m-n dominating the shifted
out-degree vector t, each weighted by a multinomial coefficient and a flow
count on the restriction to the first n vertices:

    V(a) = sum_s (m-n)! / prod_i s_i! * prod_i a_i^{s_i} * K(s - t).

The multinomial factors vertex by vertex as prod_i comb(R_i, s_i), where
R_i is what is left of m-n before vertex i, so the whole sum is one sweep
of the restriction's cut states with R carried along (Baldoni, De Loera
and Vergne, Found. Comput. Math. 2004): kostant.weighted_sweep gives its
transitions and the slots (i, e) they use, and volume_terms keeps them per
graph.  A query computes a_i^e for those slots alone and makes one pass
over the transitions; no composition is listed.  A kostant counter passed
to volume instead sums the terms one composition at a time, one call each,
through dominant_sum, which the coefficient lemmas in closedforms share.
Everything is exact integer arithmetic, the Ehrhart-like polynomial
included: ehrhart_differences reads its Newton coefficients off the values
at k = 1..d+1 by repeated subtraction, with no division.

The sum is the volume only when every non-sink vertex has an out-edge
(the shifted out-degree of such a vertex would be -1), so volume,
unit_flow_volume and ehrhart_like reject any other graph.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, prod
from operator import sub
from typing import Callable, Iterator, Sequence

from .graphs import DirectedStepGraph, NetFlow, _integers, augment, restrict
from .kostant import SweepTable, count_flows, weighted_sweep

def iter_dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The compositions of total into `length` nonnegative parts whose every
    prefix sum is at least the matching prefix sum of t, in lexicographically
    decreasing order, generated with prefix-sum pruning in one generator
    frame, so any length walks without recursion.  t entries may be negative
    (shifted out-degree vectors can be).  A non-integral argument or a t of
    the wrong length raises ValueError at the call, before anything is
    iterated."""
    total, length = _integers((total, length), "iter_dominant argument")
    t = _integers(t, "iter_dominant t entry")
    if len(t) != length:
        raise ValueError("t must have the given length")
    return _dominant(total, length, t)


def _dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The walk behind ``iter_dominant``, in this one frame.  Part i counts
    down from ``total`` minus the sum before it to its floor, ``max(0,
    tsums[i] - sum before it)``; a part that starts below its floor is an
    empty node.  The next-to-last part runs its whole range in one loop, as
    the last part takes what is left."""
    if length == 0:
        if total == 0:
            yield ()
        return
    tsums = list(accumulate(t))
    if total < max(tsums[-1], 0):
        return
    if length == 1:
        yield (total,)
        return
    last = length - 1
    parts = [total] + [0] * last
    before = [0] * length  # before[i]: the sum of parts[:i]
    low = [max(0, tsums[0])] + [0] * last  # low[i]: the floor of parts[i]
    i = 0
    while True:
        if i + 1 == last:
            rest = total - before[i]
            for v in range(parts[i], low[i] - 1, -1):
                parts[i] = v
                parts[last] = rest - v
                yield tuple(parts)
        elif parts[i] >= low[i]:
            s = before[i] + parts[i]
            i += 1
            before[i] = s
            parts[i] = total - s
            low[i] = max(0, tsums[i] - s)
            continue
        # part i has run its range: the part before it takes its next value
        if i == 0:
            return
        i -= 1
        parts[i] -= 1


def dominant_sum(total: int, t: Sequence[int], term: Callable[[tuple[int, ...]], int]) -> int:
    """Sum over s in iter_dominant(total, len(t), t) of total! / prod_i s_i!
    times term(s).  iter_dominant checks the arguments before any factorial
    is taken, so a non-integral one raises ValueError at the call."""
    compositions = iter_dominant(total, len(t), t)
    whole = factorial(max(int(total), 0))  # a negative total has no composition
    return sum(whole // prod(map(factorial, s)) * term(s) for s in compositions)


@lru_cache(maxsize=32)
def volume_terms(graph: DirectedStepGraph) -> SweepTable:
    """The graph's Lidskii sum as kostant.weighted_sweep's transitions on
    the restriction, whose slots (i, e) stand for a_i^e (i from 0).  The
    value at a = (1, 0, ..., 0) is the lone term s = (m-n, 0, ..., 0), one
    flow count, and a table that disagrees with count_flows there raises
    ValueError instead of being returned.  The tables of the 32 most
    recently used graphs stay cached; a table is immutable, so concurrent
    callers may share it."""
    n, total, t, inner = _lidskii_setup(graph)
    table = weighted_sweep(inner, total, t)
    lone = count_flows(inner, NetFlow((total - t[0],) + tuple(-x for x in t[1:])))
    head = (1,) + (0,) * (n - 1)
    if _table_sum(table, [head[i] ** e for i, e in table.slots]) != lone:
        raise ValueError("the volume table disagrees with count_flows at a = (1, 0, ..., 0)")
    return table


def _lidskii_setup(graph: DirectedStepGraph) -> tuple[int, int, tuple[int, ...], DirectedStepGraph]:
    """(n, m-n, t, restriction to the first n vertices) of the Lidskii sum."""
    n = graph.vertex_count - 1
    if n < 1:
        raise ValueError("volume needs at least two vertices")
    t = tuple(d - 1 for d in graph.out_degrees()[:n])
    return n, graph.edge_count - n, t, restrict(graph, n)


def _table_sum(table: SweepTable, values: Sequence[int]) -> int:
    """The table's value with values[j] for slot j: in one pass in order,
    each transition adds its source's sum * weight * values[slot] to its target's."""
    if not table:
        return 0
    sums = [1] + [0] * table[-1][1]
    for source, target, slot, weight in table:
        sums[target] += sums[source] * weight * values[slot]
    return sums[-1]


def volume(
    graph: DirectedStepGraph,
    flow: NetFlow,
    kostant: Callable[[DirectedStepGraph, NetFlow], int] | None = None,
) -> int:
    """Normalized volume of the flow polytope; the sink entry of the flow is
    not used by the sum.

    The Lidskii sum is the volume only while every non-sink supply is
    nonnegative and every non-sink vertex has an out-edge, so a negative
    supply or a vertex without one raises ValueError.  By default the sum
    is one pass over volume_terms' table.  kostant, when given, replaces
    count_flows as the flow counter of the restriction, and dominant_sum
    then takes the sum term by term: for each dominant composition s, the
    multinomial times prod_i a_i^{s_i} times one call of kostant at s - t.
    """
    if len(flow) != graph.vertex_count:
        raise ValueError("net flow length must match the graph")
    head = flow.values[:-1]
    if any(a < 0 for a in head):
        raise ValueError("volume needs nonnegative supplies on every non-sink vertex")
    _check_out_edges(graph.out_degrees(), "volume")
    if kostant is None:
        table = volume_terms(graph)
        return _table_sum(table, [head[i] ** e for i, e in table.slots])
    _, total, t, inner = _lidskii_setup(graph)
    return dominant_sum(
        total, t, lambda s: prod(map(pow, head, s)) * kostant(inner, NetFlow(tuple(map(sub, s, t))))
    )


def _check_out_edges(degrees: tuple[int, ...], what: str) -> None:
    """Raise ValueError naming the first non-sink vertex of out-degree 0."""
    if 0 in degrees[:-1]:
        vertex = degrees.index(0) + 1
        raise ValueError(f"{what} needs an out-edge at every non-sink vertex; vertex {vertex} has none")


def unit_flow_volume(graph: DirectedStepGraph) -> int:
    """Volume at net flow (1, 0, ..., 0, -1), read off a single flow count."""
    degs = graph.out_degrees()
    n = graph.vertex_count - 1
    if n < 1:
        raise ValueError("unit_flow_volume needs at least two vertices")
    _check_out_edges(degs, "unit_flow_volume")
    p = sum(degs[i] for i in range(1, n)) - n + 1
    vector = (p,) + tuple(1 - degs[i] for i in range(1, n)) + (0,)
    return count_flows(graph, NetFlow(vector))


def ehrhart_like(graph: DirectedStepGraph, k: int) -> int:
    """Volume of the k-fold augmented graph at net flow (1, 0^n)."""
    if k < 1:
        raise ValueError("ehrhart_like requires k >= 1")
    _check_out_edges(graph.out_degrees(), "ehrhart_like")
    return unit_flow_volume(augment(graph, k))


def ehrhart_differences(graph: DirectedStepGraph) -> tuple[int, ...]:
    """The Newton coefficients (Delta^j E(1)) for j = 0..d of E(k) =
    ehrhart_like(graph, k), where d = E - V + 1 is the dimension of the flow
    polytope and the degree of E, so that

        E(k) = sum_j Delta^j E(1) * C(k - 1, j).

    E is integer-valued, so its differences are integers: they come from the
    values at k = 1..d+1 by repeated subtraction.  The last entry is d!
    times the leading coefficient, which is the volume at net flow (1, ...,
    1) (Benedetti et al., Trans. AMS 2019).  The form must reproduce the
    value sampled at k = d+2, otherwise ValueError names both numbers.
    """
    d = graph.edge_count - graph.vertex_count + 1
    values = [ehrhart_like(graph, k) for k in range(1, d + 3)]
    sampled = values.pop()
    differences = []
    while values:
        differences.append(values[0])
        values = list(map(sub, values[1:], values))
    check = sum(c * comb(d + 1, j) for j, c in enumerate(differences))
    if check != sampled:
        raise ValueError(f"the Newton form gives {check} at k = {d + 2}, sampled value is {sampled}")
    return tuple(differences)
