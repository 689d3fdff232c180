"""Directed step graphs, net flows, and the two graph families.

All graphs live on vertices 1..N with every edge pointing from a lower
vertex to a higher one.  Multi-edges are repeated pairs in a canonically
sorted edge list, so two graphs are equal iff their vertex counts and edge
lists are.

``_integers`` (scalars as 1-tuples) and ``_pairs`` (edges, factors) read every
integer argument of the package: 2.0 reads as 2, anything else raises ValueError.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain
from operator import countOf
from typing import Iterable

from ._record import Record


class DirectedStepGraph(Record):
    """Loopless multigraph on {1..vertex_count} with all edges oriented low -> high.

    The edge list is canonicalized (sorted lexicographically) on
    construction; multiplicity is repetition.  Connectivity is *not*
    enforced here: the CLI parser requires it of explicit graphs, the
    family graphs contain the path 1 -> ... -> N, and restrictions used by
    the volume formula may be disconnected.
    """

    _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> None:
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count must be an int, got {vertex_count!r}")
        if vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        edges = _pairs(edges, "edge endpoint")
        for i, j in edges:
            if not (1 <= i < j <= vertex_count):
                raise ValueError(f"edge ({i},{j}) violates 1 <= i < j <= {vertex_count}")
        self.__dict__["vertex_count"] = vertex_count
        self.__dict__["edges"] = tuple(sorted(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.vertex_count
        for i, _ in self.edges:
            degs[i - 1] += 1
        return tuple(degs)

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.vertex_count + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def validate_connected(self) -> "DirectedStepGraph":
        if not self.is_connected():
            raise ValueError("graph is not connected")
        return self


class NetFlow(Record):
    """Per-vertex net supplies, fully materialized (sink entry included), summing to zero."""

    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = _integers(values, "net flow entry")
        total = sum(values)
        if total != 0:
            raise ValueError(f"net flow entries must sum to zero, got {total}")
        self.__dict__["values"] = values

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def with_sink(cls, entries: Iterable[int]) -> "NetFlow":
        """Append the negated sum as the final (sink) entry."""
        head = _integers(entries, "net flow entry")
        return cls(head + (-sum(head),))


class FlowAssignment(Record):
    """Nonnegative integers per edge, aligned with the canonical edge list."""

    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = _integers(values, "flow value")
        if any(v < 0 for v in values):
            raise ValueError("flow values must be nonnegative")
        self.__dict__["values"] = values

    def satisfies(self, graph: DirectedStepGraph, flow: NetFlow) -> bool:
        if len(self.values) != graph.edge_count or len(flow) != graph.vertex_count:
            return False
        net = [0] * graph.vertex_count
        for (i, j), b in zip(graph.edges, self.values):
            net[i - 1] += b
            net[j - 1] -= b
        return tuple(net) == flow.values


def pitman_stanley_graph(n: int) -> DirectedStepGraph:
    """Path 1 -> ... -> n+1 plus shortcut edges (i, n+1) for i <= n-1."""
    (n,) = _integers((n,), "pitman_stanley_graph argument")
    if n < 2:
        raise ValueError("pitman_stanley_graph requires n >= 2")
    edges = [(i, i + 1) for i in range(1, n + 1)]
    edges += [(i, n + 1) for i in range(1, n)]
    return DirectedStepGraph(n + 1, tuple(edges))


def caracol_graph(n: int) -> DirectedStepGraph:
    """Path 1 -> ... -> n+1 plus a source fan (1, i) and a sink fan (i, n+1)."""
    (n,) = _integers((n,), "caracol_graph argument")
    if n < 3:
        raise ValueError("caracol_graph requires n >= 3")
    edges = [(i, i + 1) for i in range(1, n + 1)]
    edges += [(1, i) for i in range(3, n + 1)]
    edges += [(i, n + 1) for i in range(2, n)]
    return DirectedStepGraph(n + 1, tuple(edges))


def augment(graph: DirectedStepGraph, k: int) -> DirectedStepGraph:
    """Prepend a new source joined to every original vertex by k parallel edges.

    Original labels shift up by one so the result again uses 1..N+1.
    """
    (k,) = _integers((k,), "augment multiplicity")
    if k < 1:
        raise ValueError("augment requires k >= 1")
    edges = [(i + 1, j + 1) for i, j in graph.edges]
    for v in range(1, graph.vertex_count + 1):
        edges += [(1, v + 1)] * k
    return DirectedStepGraph(graph.vertex_count + 1, tuple(edges))


def restrict(graph: DirectedStepGraph, upto: int) -> DirectedStepGraph:
    """Restriction to vertices 1..upto; the result may be disconnected."""
    (upto,) = _integers((upto,), "restriction bound")
    if not (1 <= upto <= graph.vertex_count):
        raise ValueError("restriction bound out of range")
    edges = tuple((i, j) for i, j in graph.edges if j <= upto)
    return DirectedStepGraph(upto, edges)


def _check_out_edges(degrees: tuple[int, ...], what: str) -> None:
    """Raise ValueError naming the first non-sink vertex of out-degree 0."""
    if 0 in degrees[:-1]:
        vertex = degrees.index(0) + 1
        raise ValueError(f"{what} needs an out-edge at every non-sink vertex; vertex {vertex} has none")


def _volume_head(graph: DirectedStepGraph, flow: NetFlow) -> tuple[int, ...]:
    """A volume query's non-sink supplies; ValueError where the Lidskii sum is not the volume."""
    if not isinstance(flow, NetFlow):
        raise ValueError(f"flow must be a NetFlow, got {type(flow).__name__}")
    if len(flow) != graph.vertex_count:
        raise ValueError("net flow length must match the graph")
    head = flow.values[:-1]
    if any(a < 0 for a in head):
        raise ValueError("volume needs nonnegative supplies on every non-sink vertex")
    _check_out_edges(graph.out_degrees(), "volume")
    if not head:
        raise ValueError("volume needs at least two vertices")
    return head


def parse_graph_spec(text: str) -> DirectedStepGraph:
    """Parse the graph grammar: ``ps:<v>``, ``car:<v>``, ``aug:<k>:<inner>``,
    or explicit ``<N>:<i>-<j>,<i>-<j>,...`` (repeated pairs allowed).

    The number after ``ps:``/``car:`` is the vertex count, matching the
    leading number of the explicit form.  Explicit graphs must be
    connected; family graphs are by construction.
    """
    text = text.strip()
    if text.startswith("ps:"):
        vertices = _parse_int(text[3:], "ps vertex count")
        if vertices < 3:
            raise ValueError("ps graphs need at least 3 vertices")
        return pitman_stanley_graph(vertices - 1)
    if text.startswith("car:"):
        vertices = _parse_int(text[4:], "car vertex count")
        if vertices < 4:
            raise ValueError("car graphs need at least 4 vertices")
        return caracol_graph(vertices - 1)
    if text.startswith("aug:"):
        rest = text[4:]
        sep = rest.find(":")
        if sep < 0:
            raise ValueError("aug spec needs aug:<k>:<inner-spec>")
        k = _parse_int(rest[:sep], "aug multiplicity")
        return augment(parse_graph_spec(rest[sep + 1 :]), k)
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed graph spec {text!r}")
    vertex_count = _parse_int(head, "vertex count")
    edges = []
    for part in body.split(","):
        lo, dash, hi = part.strip().partition("-")
        if not dash:
            raise ValueError(f"malformed edge {part!r}")
        edges.append((_parse_int(lo, "edge endpoint"), _parse_int(hi, "edge endpoint")))
    return DirectedStepGraph(vertex_count, tuple(edges)).validate_connected()


def parse_net_flow(text: str, vertex_count: int) -> NetFlow:
    """Parse comma-separated integers; length N is literal, length N-1 gets
    the negated sum appended as the sink entry."""
    entries = [_parse_int(part, "flow entry") for part in text.split(",")]
    if len(entries) == vertex_count:
        return NetFlow(tuple(entries))
    if len(entries) == vertex_count - 1:
        return NetFlow.with_sink(entries)
    raise ValueError(
        f"flow has {len(entries)} entries; expected {vertex_count} or {vertex_count - 1}"
    )


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple of ints (as given where each is an int); ValueError
    names the first that is not integral (2.5, None, 'x', inf) or a non-iterable container."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} sequence {values!r} is not iterable") from None
    if countOf(map(type, values), int) == len(values):
        return values
    for value in values:
        with suppress(TypeError, ValueError, OverflowError):
            if int(value) == value:
                continue
        raise ValueError(f"{what} {value!r} is not an integer")
    return tuple(map(int, values))


def _pairs(pairs: Iterable[tuple[int, int]], what: str) -> tuple[tuple[int, int], ...]:
    """The pairs as a tuple, each read by _integers, or as given where their
    entries sum to an int, as all-int (or bool) entries do: one pass in C."""
    try:
        pairs = tuple(pairs)
        if type(sum(chain.from_iterable(pairs))) is int:
            return pairs
    except TypeError:
        if type(pairs) is not tuple:
            raise ValueError(f"{what} pairs {pairs!r} are not iterable") from None
    return tuple(_integers(pair, what) for pair in pairs)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None
