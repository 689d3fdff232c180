"""Identity-grid verification across the independent computation paths.

Every case computes two exact integers: a reference value (``expected``)
and the value of the identity under test (``actual``).  Cases whose
printed form is known to disagree with the oracle are reported as
REPORTED-DISCREPANCY instead of FAIL, so the suites stay green while
still witnessing the discrepancies.  Reports are assembled in canonical
case order no matter how the grid is sharded across workers.

``CASES`` maps each case id to a function of the case's parameters that
returns (expected, actual); ``evaluate_case`` only looks the id up.  The
functions reach ``closedforms``, ``dyck``, ``cyclic``, ``evaluate``,
``volume`` and ``ehrhart_like`` through module attributes when they run,
never through references taken at import, so a patched or traced function
is the one called.

``_VOLUME_FLOWS`` holds each Pitman-Stanley or caracol volume identity as
data: its family, the size of its graph minus n, and the head of its net
flow as a function of n and the identity's parameters.  One oracle,
``_volume_oracle``, builds the graph and flow from that row and sums the
volume; ``_volume_case`` pairs it with the printed right-hand side from
``closedforms``, and the ``*-CORRECTED`` cases pair it with their
homogeneous forms.

``_SUITE_GRIDS`` maps each suite to its default max_n, its default max_k
and a function of the two bounds that lists its case specs; ``SUITES`` is
its keys in order, which is the order "all" runs them in.  A suite's specs
are mostly ``_grid`` calls: one spec per case id at each point of a product
of parameter axes, the first axis outermost and the case ids innermost,
with the params in axis order.  Rows whose ranges depend on an outer value
(``EQ3``, ``TAIL-COEFF``, ``FAN-SUM-*``) are short comprehensions.

``ehrhart_paths(family, n, k)`` is the single owner of the mapping from a
family's n to the arguments of each route to its Ehrhart-like value (ps
words at n-1, car constant term at n-1, car doubly labeled words at n-2).
The six ``PS-/CAR-EHRHART-*`` cases and ``flowvol ehrhart --family`` both
read it; ``CAR-CT-INDEXING`` keeps the printed indexing on purpose, so it
stays outside the table.

``PREFIX-COUNTS`` and ``CYC-PREFIX-ROUTE`` read one prefix census per
(n, i, k): a single walk of the prefixes of (n, k) that end at height i,
bucketed by label-count vector.  Its height-0 slice is the word census,
one pass of ``dyck.labeled_dyck_words``, which ``LD-LABEL-COUNTS``,
``LD-ZEROS`` and ``DLD-WEIGHTED`` read too, the last weighing the words
for the doubly labeled count.  The census cache keeps every census of one
run, so no census is walked twice in it; ``run_suite`` clears the cache at
entry, so each run, and each pool worker it forks, enumerates the words
afresh.

With ``FLOWVOL_WORKERS`` above 1, ``run_suite`` hands a process pool one
task per (n, k) grid point (``_pool_tasks``): every case of the run with
that n and k, a missing parameter counting as 0.  Tasks are dispatched in
descending (n, k) order, so the heaviest grid points start first and the
cheap ones fill the tail; the cases of a grid point that read a census
share one worker, which builds each census once.  The pool starts no more
processes than there are tasks, and the records are sorted back into case
order.  The pool module is imported only when a pool runs, and the CSV and
JSON writers only when they render, so a sequential text run loads none of
them.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from functools import lru_cache, partial
from itertools import product
from math import prod
from operator import methodcaller
from typing import Callable

from . import closedforms as cf
from . import cyclic, dyck
from ._record import Record
from .ctengine import car_ct_expression, evaluate, ps_ct_expression
from .graphs import NetFlow, caracol_graph, pitman_stanley_graph
from .lidskii import ehrhart_like, volume

PASS = "PASS"
FAIL = "FAIL"
REPORTED = "REPORTED-DISCREPANCY"

# identities whose printed form is allowed to disagree with the oracle
KNOWN_DISCREPANCY_IDS = frozenset({"EQ3", "EQ5", "EQCONJ", "CAR-CT-INDEXING"})

GRID = (1, 2, 3)


Params = tuple[tuple[str, object], ...]


class CaseSpec(Record):
    _fields = ("ident", "params")

    def __init__(self, ident: str, params: Params) -> None:
        self.__dict__["ident"] = ident
        self.__dict__["params"] = params


class CaseRecord(Record):
    _fields = ("ident", "params", "expected", "actual", "status")

    def __init__(self, ident: str, params: Params, expected: str, actual: str, status: str) -> None:
        self.__dict__["ident"] = ident
        self.__dict__["params"] = params
        self.__dict__["expected"] = expected
        self.__dict__["actual"] = actual
        self.__dict__["status"] = status


class VerificationReport(Record):
    _fields = ("suite", "cases", "duration_ms")

    def __init__(self, suite: str, cases: tuple[CaseRecord, ...], duration_ms: int) -> None:
        self.__dict__["suite"] = suite
        self.__dict__["cases"] = cases
        self.__dict__["duration_ms"] = duration_ms

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "reported": 0}
        for case in self.cases:
            if case.status == PASS:
                counts["pass"] += 1
            elif case.status == FAIL:
                counts["fail"] += 1
            else:
                counts["reported"] += 1
        return counts

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0


# -- case computation ----------------------------------------------------------

@lru_cache(maxsize=None)
def _prefix_census(n: int, i: int, k: int) -> Counter[tuple[int, ...]]:
    """One walk over the prefixes of (n, k) that end at height i: the number
    of prefixes with each label-count vector.  The prefixes of height 0 are
    the labeled words, so that walk is ``dyck.labeled_dyck_words``.  The
    counter is shared by the cache, so callers only read it."""
    words = dyck.labeled_dyck_words(n, k) if i == 0 else dyck.dyck_prefixes(n, i, k)
    return Counter(map(methodcaller("label_counts"), words))


def _word_census(n: int, k: int) -> int:
    """The sum over the labeled words of (n, k) of ``multiset_coeff(k, n +
    zeros)``, which counts the doubly labeled words, read off the census."""
    return sum(
        count * cf.multiset_coeff(k, n + comp[0]) for comp, count in _prefix_census(n, 0, k).items()
    )


def _label_counts_case(n: int, k: int) -> tuple[int, int]:
    buckets = _prefix_census(n, 0, k)
    comps = list(dyck.iter_dominant(n, k + 1, (0,) * (k + 1)))
    good = sum(buckets.get(comp, 0) == cf.labeled_dyck_count(n, k, comp) for comp in comps)
    return len(comps), good


def _zeros_case(n: int, k: int) -> tuple[int, int]:
    buckets = _prefix_census(n, 0, k)
    good = 0
    for d in range(n + 1):
        enumerated = sum(count for comp, count in buckets.items() if comp[0] == d)
        good += enumerated == cf.labeled_dyck_count_by_zeros(n, k, d)
    return n + 1, good


def _extended_count(n: int, comp: tuple[int, ...]) -> int:
    """Extended words of length 2n+1 with label-count vector comp."""
    return prod(cf.multiset_coeff(n + 1, c) for c in comp)


def _prefix_grid(n: int, k: int, holds) -> tuple[int, int]:
    """(cases, good) over every end height i and label-count vector comp of
    the prefixes of (n, k); ``holds(i, comp, enumerated)`` checks one."""
    cases = good = 0
    for i in range(n + 1):
        census = _prefix_census(n, i, k)
        for comp in dyck.iter_dominant(n - i, k + 1, (0,) * (k + 1)):
            cases += 1
            good += holds(i, comp, census.get(comp, 0))
    return cases, good


def _shift_case(n: int, k: int) -> tuple[int, int]:
    words = list(cyclic.extended_words(n, k))
    good = sum(
        cyclic.survivor_index(cyclic.shift(w)) % (n + 1)
        == (cyclic.survivor_index(w) + 1) % (n + 1)
        for w in words
    )
    return len(words), good


def _fiber_case(n: int, k: int) -> tuple[int, int]:
    fibers: dict[tuple[tuple[int, ...], int], int] = {}
    preserved = True
    for w in cyclic.extended_words(n, k):
        base, _ = cyclic.project(w)
        if sorted(s for s in w.letters if s != dyck.UP) != sorted(
            s for s in base.steps if s != dyck.UP
        ):
            preserved = False
        fibers[(base.steps, base.k)] = fibers.get((base.steps, base.k), 0) + 1
    words = {(w.steps, w.k) for w in dyck.labeled_dyck_words(n, k)}
    ok = (
        preserved
        and set(fibers) == words
        and all(size == n + 1 for size in fibers.values())
    )
    return 1, int(ok)


def _extended_counts_case(n: int, k: int) -> tuple[int, int]:
    counts: dict[tuple[int, ...], int] = {}
    for w in cyclic.extended_words(n, k):
        key = tuple(w.letters.count(label) for label in range(k + 1))
        counts[key] = counts.get(key, 0) + 1
    comps = list(dyck.iter_dominant(n, k + 1, (0,) * (k + 1)))
    good = sum(
        counts.get(comp, 0)
        == _extended_count(n, comp)
        == (n + 1) * cf.labeled_dyck_count(n, k, comp)
        for comp in comps
    )
    return len(comps), good


def _candidates_case(n: int, k: int) -> tuple[int, int]:
    cases = good = 0
    for i in range(n + 1):
        for w in cyclic.prefix_extended_words(n, i, k):
            cases += 1
            good += len(cyclic.index_candidates(w)) == i + 1
    return cases, good


# volume identity -> (family, graph size minus n, head(n, **params)), the head
# being the net flow before its implied sink entry; the printed right-hand
# side is closedforms.ps_volume_closed or car_volume_closed by family
_VOLUME_FLOWS: dict[str, tuple[str, int, Callable[..., tuple[int, ...]]]] = {
    "EQ1": ("ps", 0, lambda n, a, b, d: (a,) + (b,) * (n - 2) + (d,)),
    "EQ2": ("ps", 0, lambda n, a, b, c, d: (a,) + (b,) * (n - 3) + (c, d)),
    "EQ3": ("ps", 0, lambda n, m, a, b, c, d: (
        (a,) + (b,) * (n - m - 2) + (c,) + (0,) * (m - 1) + (d,)
    )),
    "P53": ("ps", 1, lambda n, a, b, c: (a, b) + (c,) * (n - 1)),
    "P55": ("ps", 1, lambda n, a, b, c, d: (a, b, c) + (d,) * (n - 2)),
    "EQ5": ("car", 0, lambda n, a: (a,) * n),
    "EQ6": ("car", 0, lambda n, a, b: (a,) + (b,) * (n - 1)),
    "EQCONJ": ("car", 0, lambda n, a, b, c: (a, b) + (c,) * (n - 2)),
    "P58": ("car", 1, lambda n, a, b, c: (a, b) + (c,) * (n - 1)),
}


def _volume_oracle(ident: str, n: int, **params: int) -> int:
    family, shift, head = _VOLUME_FLOWS[ident]
    graph = (pitman_stanley_graph if family == "ps" else caracol_graph)(n + shift)
    return volume(graph, NetFlow.with_sink(head(n, **params)))


def _volume_case(ident: str, n: int, **params: int) -> tuple[int, int]:
    closed = cf.ps_volume_closed if _VOLUME_FLOWS[ident][0] == "ps" else cf.car_volume_closed
    return _volume_oracle(ident, n, **params), closed(ident, n, **params)


def ehrhart_paths(family: str, n: int, k: int) -> dict[str, Callable[[], int]]:
    """The routes to the Ehrhart-like value of family "ps" or "car" at
    (n, k), by name: ``kpf``, ``ct``, ``enum`` and ``closed``.  The family
    graph is built first, so an n below its minimum raises before any route
    runs."""
    if family == "ps":
        graph = pitman_stanley_graph(n)
        return {
            "kpf": lambda: ehrhart_like(graph, k),
            "ct": lambda: evaluate(ps_ct_expression(n, k)),
            "enum": lambda: dyck._count(dyck.labeled_dyck_words(n - 1, k, zeros=0)),
            "closed": lambda: cf.ehrhart_ps_closed(n, k),
        }
    if family == "car":
        graph = caracol_graph(n)
        return {
            "kpf": lambda: ehrhart_like(graph, k),
            "ct": lambda: evaluate(car_ct_expression(n - 1, k)),
            "enum": lambda: dyck._count(dyck.doubly_labeled_dyck_words(n - 2, k)),
            "closed": lambda: cf.ehrhart_car_closed(n, k),
        }
    raise ValueError(f"unknown family {family!r}")


def _ehrhart_case(family: str, route: str, n: int, k: int) -> tuple[int, int]:
    paths = ehrhart_paths(family, n, k)
    return paths["closed"](), paths[route]()


# case id -> fn(**params) returning (expected, actual); every entry looks up
# the functions of the other modules when it runs, so patched ones are seen
CASES: dict[str, Callable[..., tuple[int, int]]] = {
    "PS-EHRHART-KPF": partial(_ehrhart_case, "ps", "kpf"),
    "PS-EHRHART-CT": partial(_ehrhart_case, "ps", "ct"),
    "PS-EHRHART-LD": partial(_ehrhart_case, "ps", "enum"),
    "CAR-EHRHART-KPF": partial(_ehrhart_case, "car", "kpf"),
    "CAR-EHRHART-CT": partial(_ehrhart_case, "car", "ct"),
    "CAR-EHRHART-DLD": partial(_ehrhart_case, "car", "enum"),
    # printed form pairs the n-variable expression with the family value, so
    # it keeps its own indexing outside ehrhart_paths
    "CAR-CT-INDEXING": lambda n, k: (
        cf.ehrhart_car_closed(n, k), evaluate(car_ct_expression(n, k))
    ),
    "LD-LABEL-COUNTS": _label_counts_case,
    "LD-ZEROS": _zeros_case,
    "DLD-WEIGHTED": lambda n, k: (cf.doubly_labeled_count(n, k), _word_census(n, k)),
    "DLD-OBJECTS": lambda n, k: (
        cf.doubly_labeled_count(n, k), dyck._count(dyck.doubly_labeled_dyck_words(n, k))
    ),
    "DLD-SUM": lambda n, k: (
        cf.doubly_labeled_count(n, k), cf.doubly_labeled_count_via_sum(n, k)
    ),
    "PREFIX-COUNTS": lambda n, k: _prefix_grid(
        n, k, lambda i, comp, got: got == cf.prefix_count_closed(n, i, k, comp)
    ),
    "PARKING": lambda n: (
        (n + 1) ** (n - 1), dyck._count(dyck.labeled_dyck_words(n, n, label_counts=(0,) + (1,) * n))
    ),
    "CYC-SHIFT-IND": _shift_case,
    "CYC-FIBER": _fiber_case,
    "CYC-EW-COUNT": _extended_counts_case,
    "CYC-CANDIDATES": _candidates_case,
    "CYC-PREFIX-ROUTE": lambda n, k: _prefix_grid(
        n, k, lambda i, comp, got: (n + 1) * got == (i + 1) * _extended_count(n, comp)
    ),
    **{ident: partial(_volume_case, ident) for ident in _VOLUME_FLOWS},
    "EQ5-CORRECTED": lambda n, a: (_volume_oracle("EQ5", n, a=a), cf.eq5_homogeneous(n, a)),
    "EQCONJ-CORRECTED": lambda n, a, b, c: (
        _volume_oracle("EQCONJ", n, a=a, b=b, c=c), cf.eqconj_homogeneous(n, a, b, c)
    ),
    "PS3-VS-P53": lambda n, a, b, c: (
        cf.ps_volume_closed("P53", n - 1, a, b, c), cf.ps3_closed(n, a, b, c)
    ),
    "PS4-VS-P55": lambda n, a, b, c, d: (
        cf.ps_volume_closed("P55", n - 1, a, b, c, d), cf.ps4_closed(n, a, b, c, d)
    ),
    "TAIL-COEFF": lambda n, k, m: (
        cf.tail_multinomial_sum(n, k, m), cf.tail_multinomial_closed(n, k, m)
    ),
    "POWER-SUM-PAIR": lambda m, a, b: (
        cf.dominant_power_sum((a, b), m), cf.dominant_power_sum_pair(m, a, b)
    ),
    "POWER-SUM-TRIPLE": lambda m, a, b, c: (
        cf.dominant_power_sum((a, b, c), m), cf.dominant_power_sum_triple(m, a, b, c)
    ),
    "FAN-SUM-FLOWS": lambda n, p, q, r: (
        cf.fan_flow_sum_by_flows(n, p, q, r), cf.fan_flow_sum_closed(n, p, q, r)
    ),
    "FAN-SUM-PATHS": lambda n, p, q, r: (
        cf.fan_flow_sum_by_paths(n, p, q, r), cf.fan_flow_sum_closed(n, p, q, r)
    ),
}


def evaluate_case(ident: str, params: dict[str, object]) -> tuple[int, int]:
    """Compute (expected, actual) for one case; pure, so grid points can be
    sharded across processes."""
    case = CASES.get(ident)
    if case is None:
        raise ValueError(f"unknown case id {ident!r}")
    return case(**params)


# -- suite construction ----------------------------------------------------------

def _spec(ident: str, **params: object) -> CaseSpec:
    return CaseSpec(ident, tuple(params.items()))


def _grid(idents: tuple[str, ...], **axes) -> list[CaseSpec]:
    """One spec per ident at each point of the product of the axes, the first
    axis outermost and the idents innermost; params keep the axis order."""
    return [
        CaseSpec(ident, tuple(zip(axes, point)))
        for point in product(*axes.values())
        for ident in idents
    ]


def _dyck_counts_grid(top_n: int, top_k: int) -> list[CaseSpec]:
    census = ("LD-LABEL-COUNTS", "LD-ZEROS", "DLD-WEIGHTED")
    sums = ("DLD-SUM", "PREFIX-COUNTS")
    ks = range(1, top_k + 1)
    # the doubly labeled words themselves are listed only up to n = 5
    return (
        _grid(census + ("DLD-OBJECTS",) + sums, n=range(min(top_n, 5) + 1), k=ks)
        + _grid(census + sums, n=range(6, top_n + 1), k=ks)
        + _grid(("PARKING",), n=range(1, min(top_n, 5) + 1))
    )


def _volumes_grid(top_n: int, _top_k: int | None) -> list[CaseSpec]:
    def ns(low: int, cap: int) -> range:
        return range(low, min(top_n, cap) + 1)

    # POWER-SUM-* take m, not n, so they run at every max_n
    return [
        *_grid(("EQ1",), n=ns(2, 7), a=GRID, b=GRID, d=GRID),
        *_grid(("EQ2",), n=ns(3, 7), a=GRID, b=GRID, c=GRID, d=GRID),
        *(
            spec
            for m in (1, 2, 3)
            for spec in _grid(("EQ3",), n=ns(m + 2, 7), m=(m,), a=GRID, b=GRID, c=GRID, d=GRID)
        ),
        *_grid(("P53",), n=ns(2, 6), a=GRID, b=GRID, c=GRID),
        *_grid(("P55",), n=ns(2, 6), a=GRID, b=GRID, c=GRID, d=GRID),
        *_grid(("PS3-VS-P53",), n=ns(3, 7), a=GRID, b=GRID, c=GRID),
        *_grid(("PS4-VS-P55",), n=ns(3, 7), a=GRID, b=GRID, c=GRID, d=GRID),
        *_grid(("EQ5", "EQ5-CORRECTED"), n=ns(3, 6), a=GRID),
        *_grid(("EQ6",), n=ns(3, 6), a=GRID, b=GRID),
        *_grid(("EQCONJ", "EQCONJ-CORRECTED"), n=ns(3, 6), a=GRID, b=GRID, c=GRID),
        *_grid(("P58",), n=ns(2, 6), a=GRID, b=GRID, c=GRID),
        *(
            _spec("TAIL-COEFF", n=n, k=k, m=m)
            for n in ns(1, 7)
            for m in range(1, n + 1)
            for k in range(1, m + 1)
        ),
        *_grid(("POWER-SUM-PAIR",), m=range(2, 9), a=GRID, b=GRID),
        *_grid(("POWER-SUM-TRIPLE",), m=range(3, 9), a=GRID, b=GRID, c=GRID),
        *(
            _spec(ident, n=n, p=p, q=q, r=n - p - q)
            for n in ns(3, 6)
            for p in range(1, n - 1)
            for q in range(1, n - p)
            for ident in ("FAN-SUM-FLOWS", "FAN-SUM-PATHS")
        ),
    ]


# suite -> (default max_n, default max_k, fn(top_n, top_k) returning its specs);
# "all" runs the suites in this order, and volumes takes no k bound
_SUITE_GRIDS: dict[str, tuple[int, int | None, Callable[..., list[CaseSpec]]]] = {
    "ps-ehrhart": (6, 4, lambda top_n, top_k: _grid(
        ("PS-EHRHART-KPF", "PS-EHRHART-CT", "PS-EHRHART-LD"),
        n=range(2, top_n + 1), k=range(1, top_k + 1),
    )),
    "car-ehrhart": (6, 3, lambda top_n, top_k: _grid(
        ("CAR-EHRHART-KPF", "CAR-EHRHART-CT", "CAR-EHRHART-DLD", "CAR-CT-INDEXING"),
        n=range(3, top_n + 1), k=range(1, top_k + 1),
    )),
    "dyck-counts": (6, 3, _dyck_counts_grid),
    "cyclic": (4, 2, lambda top_n, top_k: _grid(
        ("CYC-SHIFT-IND", "CYC-FIBER", "CYC-EW-COUNT", "CYC-CANDIDATES", "CYC-PREFIX-ROUTE"),
        n=range(top_n + 1), k=range(1, top_k + 1),
    )),
    "volumes": (7, None, _volumes_grid),
}

SUITES = tuple(_SUITE_GRIDS)


def build_suite(suite: str, max_n: int | None = None, max_k: int | None = None) -> list[CaseSpec]:
    """Case specs of one suite, or of every suite in order for "all"; unset
    bounds take the suite's defaults, and 0 is a bound like any other."""
    if max_n is not None and max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be >= 1")
    if suite == "all":
        return [spec for name in SUITES for spec in build_suite(name, max_n, max_k)]
    if suite not in _SUITE_GRIDS:
        raise ValueError(f"unknown suite {suite!r}")
    default_n, default_k, grid = _SUITE_GRIDS[suite]
    return grid(default_n if max_n is None else max_n, default_k if max_k is None else max_k)


# -- running -----------------------------------------------------------------------

def _run_one(indexed: tuple[int, CaseSpec]) -> tuple[int, CaseRecord]:
    index, spec = indexed
    expected, actual = evaluate_case(spec.ident, dict(spec.params))
    if expected == actual:
        status = PASS
    elif spec.ident in KNOWN_DISCREPANCY_IDS:
        status = REPORTED
    else:
        status = FAIL
    return index, CaseRecord(spec.ident, spec.params, str(expected), str(actual), status)


def worker_count() -> int:
    raw = os.environ.get("FLOWVOL_WORKERS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("FLOWVOL_WORKERS must be a positive integer") from None
    if value < 1:
        raise ValueError("FLOWVOL_WORKERS must be a positive integer")
    return value


def _run_many(items) -> list[tuple[int, CaseRecord]]:
    return [_run_one(item) for item in items]


def _pool_tasks(specs: list[CaseSpec]) -> list[list[tuple[int, CaseSpec]]]:
    """The pool's units of work: the (index, spec) pairs of the cases that
    share one (n, k), a missing n or k counting as 0, in descending (n, k)
    order.  The cases of a grid point that read a census (the word census
    cases, ``PREFIX-COUNTS`` and ``CYC-PREFIX-ROUTE``) thus share one worker,
    which builds each census once, and as case cost grows with n and k in
    every suite, the order is close to largest first."""
    tasks: dict[tuple[int, int], list[tuple[int, CaseSpec]]] = {}
    for index, spec in enumerate(specs):
        params = dict(spec.params)
        tasks.setdefault((params.get("n", 0), params.get("k", 0)), []).append((index, spec))
    return [tasks[key] for key in sorted(tasks, reverse=True)]


def run_suite(suite: str, max_n: int | None = None, max_k: int | None = None) -> VerificationReport:
    specs = build_suite(suite, max_n, max_k)
    _prefix_census.cache_clear()
    start = time.monotonic()
    workers = worker_count()
    tasks = _pool_tasks(specs) if workers > 1 else []
    if len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = [pair for task in pool.map(_run_many, tasks) for pair in task]
    else:
        results = _run_many(enumerate(specs))
    results.sort(key=lambda pair: pair[0])
    duration_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(suite, tuple(record for _, record in results), duration_ms)


# -- rendering -----------------------------------------------------------------------

def _params_text(params: Params) -> str:
    return ";".join(f"{key}={value}" for key, value in params)


def render_text(report: VerificationReport) -> str:
    lines = [f"suite {report.suite}"]
    for case in report.cases:
        lines.append(
            f"{case.status:<21} {case.ident} {_params_text(case.params)} "
            f"expected={case.expected} actual={case.actual}"
        )
    summary = report.summary
    lines.append(
        f"summary pass={summary['pass']} fail={summary['fail']} reported={summary['reported']}"
    )
    return "\n".join(lines) + "\n"


def render_csv(report: VerificationReport) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "params", "expected", "actual", "status"])
    for case in report.cases:
        writer.writerow(
            [case.ident, _params_text(case.params), case.expected, case.actual, case.status]
        )
    return buffer.getvalue()


def render_json(report: VerificationReport) -> str:
    import json

    payload = {
        "suite": report.suite,
        "cases": [
            {
                "id": case.ident,
                "params": {key: value for key, value in case.params},
                "expected": case.expected,
                "actual": case.actual,
                "status": case.status,
            }
            for case in report.cases
        ],
        "summary": report.summary,
        "duration_ms": report.duration_ms,
    }
    return json.dumps(payload, indent=2) + "\n"
