"""Normalized flow-polytope volumes via dominance-constrained multinomial sums.

The volume of the flow polytope is a sum over compositions s of m-n
dominating the shifted out-degree vector, each weighted by a multinomial
coefficient and a flow count on the restriction to the first n vertices.
A term is stored as its coefficient and the slots of its nonzero
exponents only: slot i * width + e stands for a_i^e, with width = m-n+1.
A query builds one flat table of every a_i^e and multiplies, per term,
the table entries at its slots, so a zero exponent costs nothing.
Everything is exact integer arithmetic; polynomial fitting uses Fractions.

The sum is the volume only when every non-sink vertex has an out-edge
(the shifted out-degree of such a vertex would be -1), so volume,
unit_flow_volume and ehrhart_like reject any other graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Callable, Iterator, Sequence

from .graphs import DirectedStepGraph, NetFlow, augment, restrict
from .kostant import count_flows


class FitMismatchError(ArithmeticError):
    """Interpolated polynomial failed to reproduce the extrapolation sample."""


def iter_dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The compositions of total into `length` nonnegative parts whose every
    prefix sum is at least the matching prefix sum of t, in lexicographically
    decreasing order, generated with prefix-sum pruning.  t entries may be
    negative (shifted out-degree vectors can be)."""
    if len(t) != length:
        raise ValueError("t must have the given length")
    if length == 0:
        if total == 0:
            yield ()
        return
    tsums = []
    acc = 0
    for v in t:
        acc += v
        tsums.append(acc)
    if total < tsums[-1]:
        return
    prefix: list[int] = []

    def walk(idx: int, ssum: int) -> Iterator[tuple[int, ...]]:
        if idx == length - 1:
            last = total - ssum
            if last >= 0:
                prefix.append(last)
                yield tuple(prefix)
                prefix.pop()
            return
        lo = max(0, tsums[idx] - ssum)
        for v in range(total - ssum, lo - 1, -1):
            prefix.append(v)
            yield from walk(idx + 1, ssum + v)
            prefix.pop()

    yield from walk(0, 0)


def multinomial(total: int, parts: Sequence[int]) -> int:
    if sum(parts) != total:
        raise ValueError("multinomial parts must sum to the total")
    result = 1
    remaining = total
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


@lru_cache(maxsize=32)
def volume_terms(graph: DirectedStepGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Pairs (coeff, slots), one per dominant composition s with a nonzero
    flow count, in iter_dominant's order: coeff is the multinomial times
    the flow count of the restriction at s - t, and slots holds
    i * (m-n+1) + s_i for each i with s_i > 0, in increasing i.  The
    volume at a net flow is the sum of coeff * prod a_i^{s_i}.  The terms
    of the 32 most recently used graphs stay cached."""
    return _lidskii_terms(graph, count_flows)


def _lidskii_terms(
    graph: DirectedStepGraph, kostant: Callable[[DirectedStepGraph, NetFlow], int]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    n = graph.vertex_count - 1
    if n < 1:
        raise ValueError("volume needs at least two vertices")
    m = graph.edge_count
    width = m - n + 1
    degrees = graph.out_degrees()
    t = tuple(degrees[i] - 1 for i in range(n))
    inner = restrict(graph, n)
    terms = []
    for s in iter_dominant(m - n, n, t):
        flows = kostant(inner, NetFlow(tuple(si - ti for si, ti in zip(s, t))))
        if flows:
            slots = tuple(i * width + e for i, e in enumerate(s) if e)
            terms.append((multinomial(m - n, s) * flows, slots))
    return tuple(terms)


def volume(
    graph: DirectedStepGraph,
    flow: NetFlow,
    kostant: Callable[[DirectedStepGraph, NetFlow], int] | None = None,
) -> int:
    """Normalized volume of the flow polytope; the sink entry of the flow is
    not used by the sum.

    The Lidskii sum is the volume only while every non-sink supply is
    nonnegative and every non-sink vertex has an out-edge, so a negative
    supply or a vertex without one raises ValueError.  kostant, when given,
    replaces count_flows as the flow counter of the restriction, and the
    terms are then computed afresh instead of read from volume_terms.
    Each query builds one flat table a_i^e, i < n and e <= m-n, and each
    term multiplies only the entries at its slots.
    """
    if len(flow) != graph.vertex_count:
        raise ValueError("net flow length must match the graph")
    values = flow.values
    if any(a < 0 for a in values[:-1]):
        raise ValueError("volume needs nonnegative supplies on every non-sink vertex")
    _check_out_edges(graph.out_degrees(), "volume")
    terms = volume_terms(graph) if kostant is None else _lidskii_terms(graph, kostant)
    width = graph.edge_count - graph.vertex_count + 2
    table = [a**e for a in values[:-1] for e in range(width)]
    get = table.__getitem__
    return sum(coeff * prod(map(get, slots)) for coeff, slots in terms)


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


def fit_ehrhart_polynomial(
    graph: DirectedStepGraph, k_max: int | None = None
) -> tuple[Fraction, ...]:
    """Interpolate the augmented-volume values at k = 1..k_max exactly and
    return the coefficients (constant first, trailing zeros trimmed).

    By default k_max is d + 1, where d = E - V + 1 is the dimension of the
    flow polytope and the degree of the polynomial: d + 1 samples pin it
    down.  An explicit k_max must be at least V + 1.  The fit must
    reproduce the value at k_max + 1, otherwise the degree bound was too
    small (or something is broken) and FitMismatchError is raised.
    """
    if k_max is None:
        k_max = graph.edge_count - graph.vertex_count + 2
    elif k_max < graph.vertex_count + 1:
        raise ValueError("k_max must be at least vertex_count + 1 sample points")
    samples = [(k, ehrhart_like(graph, k)) for k in range(1, k_max + 1)]
    coeffs = _interpolate(samples)
    check = sum(c * Fraction(k_max + 1) ** e for e, c in enumerate(coeffs))
    if check != ehrhart_like(graph, k_max + 1):
        raise FitMismatchError(
            f"fitted polynomial gives {check} at {k_max + 1}, "
            f"sampled value is {ehrhart_like(graph, k_max + 1)}"
        )
    return coeffs


def _interpolate(samples: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    # Newton divided differences, then expansion into monomial coefficients.
    xs = [Fraction(x) for x, _ in samples]
    divided = [Fraction(y) for _, y in samples]
    for level in range(1, len(samples)):
        for idx in range(len(samples) - 1, level - 1, -1):
            divided[idx] = (divided[idx] - divided[idx - 1]) / (xs[idx] - xs[idx - level])
    coeffs = [Fraction(0)] * len(samples)
    basis = [Fraction(1)] + [Fraction(0)] * (len(samples) - 1)  # prod (x - x_j) so far
    for level, d in enumerate(divided):
        for e in range(level + 1):
            coeffs[e] += d * basis[e]
        if level + 1 < len(samples):
            new_basis = [Fraction(0)] * len(samples)
            for e in range(level + 1):
                new_basis[e + 1] += basis[e]
                new_basis[e] -= xs[level] * basis[e]
            basis = new_basis
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
