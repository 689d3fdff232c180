"""Normalized flow-polytope volumes via dominance-constrained multinomial sums.

The volume of the flow polytope is a sum over compositions s of m-n
dominating the shifted out-degree vector, each weighted by a multinomial
coefficient and a flow count on the restriction to the first n vertices:
V(a) = sum_s coeff_s * prod_i a_i^{s_i}.  A monomial is named by its
slots: slot i * width + e stands for a_i^e, with width = m-n+1, and only
the nonzero exponents get a slot, so 0**0 costs nothing.

Each graph's terms are stored split at one vertex h, the cut:

    V(a) = sum_left (prod_{i<h} a_i^{s_i}) * sum_j coeff_j * R[right_j]

where R holds the distinct right-hand monomials (prod_{i>=h} a_i^{s_i}).
A query builds one flat table of every a_i^e, computes R once, and sums
each left group's coefficients times its R entries in C, so it costs one
Python step per distinct left and one per distinct right instead of one
per term.  The cut is the h that minimises that count, found from the
terms alone.  Everything is exact integer arithmetic; polynomial fitting
uses Fractions, which ``fit_ehrhart_polynomial`` and ``_interpolate``
import when they run, so importing this module does not load ``fractions``
and ``decimal``.

The sum is the volume only when every non-sink vertex has an out-edge
(the shifted out-degree of such a vertex would be -1), so volume,
unit_flow_volume and ehrhart_like reject any other graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, prod
from operator import mul, sub, xor
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .graphs import DirectedStepGraph, NetFlow, augment, restrict
from .kostant import count_flows

if TYPE_CHECKING:
    from fractions import Fraction


class FitMismatchError(ArithmeticError):
    """Interpolated polynomial failed to reproduce the extrapolation sample."""


def iter_dominant(total: int, length: int, t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The compositions of total into `length` nonnegative parts whose every
    prefix sum is at least the matching prefix sum of t, in lexicographically
    decreasing order, generated with prefix-sum pruning in one generator
    frame, so any length walks without recursion.  t entries may be negative
    (shifted out-degree vectors can be).  A t of the wrong length raises
    ValueError at the call, before anything is iterated."""
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
    if total < tsums[-1]:
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


def multinomial(total: int, parts: Sequence[int]) -> int:
    if sum(parts) != total:
        raise ValueError("multinomial parts must sum to the total")
    result = 1
    remaining = total
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


@dataclass(frozen=True)
class LidskiiTerms:
    """The terms of one graph's Lidskii sum, split at a cut vertex h.

    groups holds one (left, coeffs, indices) triple per distinct left part
    s_0..s_{h-1}: left is that part's slots, and the group's terms are
    coeffs[j] * a^left * a^rights[indices[j]], where rights holds the
    distinct right parts s_h..s_{n-1} as slots.  Iterating yields each
    term as (coeff, slots) in iter_dominant's order, and len() is the
    number of terms.
    """

    groups: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    rights: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return sum(len(coeffs) for _, coeffs, _ in self.groups)

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        for left, coeffs, indices in self.groups:
            for coeff, j in zip(coeffs, indices):
                yield coeff, left + self.rights[j]


@lru_cache(maxsize=32)
def volume_terms(graph: DirectedStepGraph) -> LidskiiTerms:
    """The Lidskii terms of the graph with count_flows as the flow counter,
    split at the cut that minimises distinct lefts plus distinct rights.
    There is one term per dominant composition s with a nonzero flow
    count: its coeff is the multinomial times the flow count of the
    restriction at s - t, and its slots hold i * (m-n+1) + s_i for each
    i with s_i > 0, in increasing i.  The terms of the 32 most recently
    used graphs stay cached; the result is immutable, so concurrent
    callers may share it."""
    return _lidskii_terms(graph, count_flows)


def _lidskii_terms(
    graph: DirectedStepGraph, kostant: Callable[[DirectedStepGraph, NetFlow], int]
) -> LidskiiTerms:
    """The graph's Lidskii terms, with kostant as the flow counter of the
    restriction, in the two-level form: built flat by _packed_terms, then
    split once at the cut _best_cut derives from the terms alone."""
    n, total, coeffs, keys = _packed_terms(graph, kostant)
    return _split(n, total, coeffs, keys, _best_cut(n, total, keys))


def _packed_terms(
    graph: DirectedStepGraph, kostant: Callable[[DirectedStepGraph, NetFlow], int]
) -> tuple[int, int, list[int], list[int]]:
    """(n, m-n, coeffs, keys), one coeff and key per term in iter_dominant's
    order.  A key packs s into one integer, (m-n).bit_length() bits per
    part with s_0 in the lowest bits, so the left part s_0..s_{h-1} is
    key & (1 << shift) - 1 and the right part is key >> shift, with
    shift = h * bits.

    Each composition costs one call of kostant; the rest of its work runs
    in C: the supplies are map(sub, s, t) and the multinomial is
    (m-n)! // prod(s_i!) from a table of factorials."""
    n = graph.vertex_count - 1
    if n < 1:
        raise ValueError("volume needs at least two vertices")
    total = graph.edge_count - n
    degrees = graph.out_degrees()
    t = tuple(degrees[i] - 1 for i in range(n))
    inner = restrict(graph, n)
    place = [1 << i * total.bit_length() for i in range(n)]
    facts = list(accumulate(range(1, total + 1), mul, initial=1))
    coeffs, keys = [], []
    for s in iter_dominant(total, n, t):
        flows = kostant(inner, NetFlow(tuple(map(sub, s, t))))
        if flows:
            coeffs.append(facts[total] // prod(map(facts.__getitem__, s)) * flows)
            keys.append(sum(map(mul, s, place)))
    return n, total, coeffs, keys


def _best_cut(n: int, total: int, keys: list[int]) -> int:
    """The cut h in 0..n with the fewest distinct lefts plus distinct
    rights, the Python steps of a query; ties go to the smallest h.

    Terms sharing s_0..s_{h-1} are consecutive in iter_dominant's order, so
    the lefts at h number 1 plus the consecutive pairs whose first
    differing vertex (the lowest set bit of their xor) is below h.  Sorted
    as integers, the keys are in lexicographic order of the reversed s,
    where terms sharing s_h..s_{n-1} are consecutive, so the rights number
    1 plus the sorted pairs whose last differing vertex (the highest set
    bit) is h or above.  That is one pass over the terms in each order.
    """
    bits = total.bit_length()
    ordered = sorted(keys)
    first = Counter(((x & -x).bit_length() - 1) // bits for x in map(xor, keys, keys[1:]))
    last = Counter((x.bit_length() - 1) // bits for x in map(xor, ordered, ordered[1:]))

    def steps(h: int) -> int:
        lefts = sum(count for vertex, count in first.items() if vertex < h)
        rights = sum(count for vertex, count in last.items() if vertex >= h)
        return 2 + lefts + rights

    return min(range(n + 1), key=steps)


def _split(n: int, total: int, coeffs: list[int], keys: list[int], cut: int) -> LidskiiTerms:
    """The packed terms split at the cut: the terms of one left part are
    consecutive in iter_dominant's order and form one group, and each
    distinct right part gets an index in order of first use."""
    bits = total.bit_length()
    shift = cut * bits
    mask = (1 << shift) - 1
    top = (1 << bits) - 1

    def slots(key: int, vertices: range) -> tuple[int, ...]:
        exponents = (key >> i * bits & top for i in vertices)
        return tuple(i * (total + 1) + e for i, e in zip(vertices, exponents) if e)

    index: dict[int, int] = {}
    groups = []
    for left, run in groupby(zip(coeffs, keys), lambda term: term[1] & mask):
        run = tuple(run)
        groups.append((
            slots(left, range(cut)),
            tuple(coeff for coeff, _ in run),
            tuple(index.setdefault(key >> shift, len(index)) for _, key in run),
        ))
    rights = tuple(slots(right << shift, range(cut, n)) for right in index)
    return LidskiiTerms(tuple(groups), rights)


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
    Each query builds one flat table a_i^e, i < n and e <= m-n, then the
    value of every distinct right monomial, then per left group its
    monomial times the group's coefficients dotted with its right values.
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
    right = [prod(map(get, slots)) for slots in terms.rights].__getitem__
    return sum(
        prod(map(get, left)) * sum(map(mul, coeffs, map(right, indices)))
        for left, coeffs, indices in terms.groups
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
    from fractions import Fraction

    if k_max is None:
        k_max = graph.edge_count - graph.vertex_count + 2
    elif k_max < graph.vertex_count + 1:
        raise ValueError("k_max must be at least vertex_count + 1 sample points")
    samples = [(k, ehrhart_like(graph, k)) for k in range(1, k_max + 1)]
    coeffs = _interpolate(samples)
    check = sum(c * Fraction(k_max + 1) ** e for e, c in enumerate(coeffs))
    sampled = ehrhart_like(graph, k_max + 1)
    if check != sampled:
        raise FitMismatchError(
            f"fitted polynomial gives {check} at {k_max + 1}, sampled value is {sampled}"
        )
    return coeffs


def _interpolate(samples: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    # Newton divided differences, then expansion into monomial coefficients.
    from fractions import Fraction

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
