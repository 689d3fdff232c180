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
over the transitions; no composition is listed, so the walker of them,
dyck.iter_dominant, is not imported.  ctengine.ct_volume, the independent
witness, takes the sum as one constant term.  Everything is
exact integer arithmetic, the Ehrhart-like polynomial included:
ehrhart_differences reads its Newton coefficients off the values at k =
1..d+1 by repeated subtraction, with no division.

The sum is the volume only when every non-sink vertex has an out-edge
(the shifted out-degree of such a vertex would be -1), so volume,
unit_flow_volume and ehrhart_like reject any other graph.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub
from typing import Sequence

from .graphs import DirectedStepGraph, NetFlow, _check_out_edges, _volume_head, augment, restrict
from .kostant import SweepTable, count_flows, weighted_sweep


@lru_cache(maxsize=32)
def volume_terms(graph: DirectedStepGraph) -> SweepTable:
    """The graph's Lidskii sum as kostant.weighted_sweep's transitions on
    the restriction, whose slots (i, e) stand for a_i^e (i from 0).  The
    value at a = (1, 0, ..., 0) is the lone term s = (m-n, 0, ..., 0), one
    flow count, and a table that disagrees with count_flows there raises
    ValueError instead of being returned.  The tables of the 32 most
    recently used graphs stay cached; a table is immutable, so concurrent
    callers may share it."""
    n = graph.vertex_count - 1
    total, t = graph.edge_count - n, tuple(d - 1 for d in graph.out_degrees()[:n])
    inner = restrict(graph, n)
    table = weighted_sweep(inner, total, t)
    lone = count_flows(inner, NetFlow((total - t[0],) + tuple(-x for x in t[1:])))
    head = (1,) + (0,) * (n - 1)
    if _table_sum(table, [head[i] ** e for i, e in table.slots]) != lone:
        raise ValueError("the volume table disagrees with count_flows at a = (1, 0, ..., 0)")
    return table


def _table_sum(table: SweepTable, values: Sequence[int]) -> int:
    """The table's value with values[j] for slot j: in one pass in order,
    each transition adds its source's sum * weight * values[slot] to its target's."""
    if not table:
        return 0
    sums = [1] + [0] * table[-1][1]
    for source, target, slot, weight in table:
        sums[target] += sums[source] * weight * values[slot]
    return sums[-1]


def volume(graph: DirectedStepGraph, flow: NetFlow) -> int:
    """Normalized volume of the flow polytope, as one pass over
    volume_terms' table; the sink entry of the flow is not used by the sum,
    and graphs._volume_head rejects inputs where the sum is not the volume."""
    head = _volume_head(graph, flow)
    table = volume_terms(graph)
    return _table_sum(table, [head[i] ** e for i, e in table.slots])


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
