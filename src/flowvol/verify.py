"""Identity-grid verification across the independent computation paths.

Every case computes two exact integers: a reference value (``expected``)
and the value of the identity under test (``actual``).  Cases whose
printed form is known to disagree with the oracle are reported as
REPORTED-DISCREPANCY instead of FAIL, so the suites stay green while
still witnessing the discrepancies.  Reports are assembled in canonical
case order no matter how the grid is sharded across workers.

``LD-LABEL-COUNTS``, ``LD-ZEROS`` and ``DLD-WEIGHTED`` read one word
census per (n, k): a single pass of ``dyck.labeled_dyck_words`` that
buckets the words by label-count vector and weighs them for the doubly
labeled count.  The census sits in a small cache that ``run_suite``
clears at entry, so each run, and each pool worker it forks, enumerates
the words afresh.
"""

from __future__ import annotations

import json
import io
import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import closedforms as cf
from . import cyclic, dyck
from .ctengine import car_ct_expression, evaluate, ps_ct_expression
from .graphs import NetFlow, caracol_graph, pitman_stanley_graph
from .lidskii import ehrhart_like, volume

SUITES = ("ps-ehrhart", "car-ehrhart", "dyck-counts", "cyclic", "volumes")

PASS = "PASS"
FAIL = "FAIL"
REPORTED = "REPORTED-DISCREPANCY"

# identities whose printed form is allowed to disagree with the oracle
KNOWN_DISCREPANCY_IDS = frozenset({"EQ3", "EQ5", "EQCONJ", "CAR-CT-INDEXING"})

GRID = (1, 2, 3)


@dataclass(frozen=True)
class CaseSpec:
    ident: str
    params: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class CaseRecord:
    ident: str
    params: tuple[tuple[str, object], ...]
    expected: str
    actual: str
    status: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[CaseRecord, ...]
    duration_ms: int

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

def _ps_flow(ident: str, n: int, m: int | None, a: int, b: int, c: int, d: int) -> NetFlow:
    if ident == "EQ1":
        head = (a,) + (b,) * (n - 2) + (d,)
    elif ident == "EQ2":
        head = (a,) + (b,) * (n - 3) + (c, d)
    elif ident == "EQ3":
        head = (a,) + (b,) * (n - m - 2) + (c,) + (0,) * (m - 1) + (d,)
    elif ident == "P53":
        head = (a, b) + (c,) * (n - 1)
    elif ident == "P55":
        head = (a, b, c) + (d,) * (n - 2)
    else:
        raise ValueError(ident)
    return NetFlow.with_sink(head)


def _car_flow(ident: str, n: int, a: int, b: int, c: int) -> NetFlow:
    if ident == "EQ5":
        head = (a,) * n
    elif ident == "EQ6":
        head = (a,) + (b,) * (n - 1)
    elif ident == "EQCONJ":
        head = (a, b) + (c,) * (n - 2)
    elif ident == "P58":
        head = (a, b) + (c,) * (n - 1)
    else:
        raise ValueError(ident)
    return NetFlow.with_sink(head)


def _count_labeled(n: int, k: int, **filters) -> int:
    return sum(1 for _ in dyck.labeled_dyck_words(n, k, **filters))


@lru_cache(maxsize=4)
def _word_census(n: int, k: int) -> tuple[dict[tuple[int, ...], int], int]:
    """One pass over the labeled words of (n, k): the number of words with
    each label-count vector, and the sum over the words of
    ``multiset_coeff(k, n + zeros)``, which counts the doubly labeled words.
    The bucket dict is shared by the cache, so callers only read it."""
    buckets: dict[tuple[int, ...], int] = {}
    for word in dyck.labeled_dyck_words(n, k):
        key = word.label_counts()
        buckets[key] = buckets.get(key, 0) + 1
    weighted = sum(
        count * cf.multiset_coeff(k, n + comp[0]) for comp, count in buckets.items()
    )
    return buckets, weighted


def _compositions(total: int, length: int) -> list[tuple[int, ...]]:
    if length == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, length - 1):
            out.append((first,) + rest)
    return out


def evaluate_case(ident: str, params: dict[str, object]) -> tuple[int, int]:
    """Compute (expected, actual) for one case; pure, so grid points can be
    sharded across processes."""
    p = params
    if ident == "PS-EHRHART-KPF":
        return cf.ehrhart_ps_closed(p["n"], p["k"]), ehrhart_like(
            pitman_stanley_graph(p["n"]), p["k"]
        )
    if ident == "PS-EHRHART-CT":
        return cf.ehrhart_ps_closed(p["n"], p["k"]), evaluate(
            ps_ct_expression(p["n"], p["k"])
        )
    if ident == "PS-EHRHART-LD":
        return cf.ehrhart_ps_closed(p["n"], p["k"]), _count_labeled(
            p["n"] - 1, p["k"], zeros=0
        )
    if ident == "CAR-EHRHART-KPF":
        return cf.ehrhart_car_closed(p["n"], p["k"]), ehrhart_like(
            caracol_graph(p["n"]), p["k"]
        )
    if ident == "CAR-EHRHART-CT":
        return cf.ehrhart_car_closed(p["n"], p["k"]), evaluate(
            car_ct_expression(p["n"] - 1, p["k"])
        )
    if ident == "CAR-EHRHART-DLD":
        return cf.ehrhart_car_closed(p["n"], p["k"]), sum(
            1 for _ in dyck.doubly_labeled_dyck_words(p["n"] - 2, p["k"])
        )
    if ident == "CAR-CT-INDEXING":
        # printed form pairs the n-variable expression with the family value
        return cf.ehrhart_car_closed(p["n"], p["k"]), evaluate(
            car_ct_expression(p["n"], p["k"])
        )
    if ident == "LD-LABEL-COUNTS":
        n, k = p["n"], p["k"]
        buckets, _ = _word_census(n, k)
        comps = _compositions(n, k + 1)
        good = sum(
            1
            for comp in comps
            if buckets.get(comp, 0) == cf.labeled_dyck_count(n, k, comp)
        )
        return len(comps), good
    if ident == "LD-ZEROS":
        n, k = p["n"], p["k"]
        buckets, _ = _word_census(n, k)
        good = 0
        for d in range(n + 1):
            enumerated = sum(count for comp, count in buckets.items() if comp[0] == d)
            if enumerated == cf.labeled_dyck_count_by_zeros(n, k, d):
                good += 1
        return n + 1, good
    if ident == "DLD-WEIGHTED":
        n, k = p["n"], p["k"]
        _, weighted = _word_census(n, k)
        return cf.doubly_labeled_count(n, k), weighted
    if ident == "DLD-OBJECTS":
        n, k = p["n"], p["k"]
        return cf.doubly_labeled_count(n, k), sum(
            1 for _ in dyck.doubly_labeled_dyck_words(n, k)
        )
    if ident == "DLD-SUM":
        n, k = p["n"], p["k"]
        return cf.doubly_labeled_count(n, k), cf.doubly_labeled_count_via_sum(n, k)
    if ident == "PREFIX-COUNTS":
        n, k = p["n"], p["k"]
        cases = good = 0
        for i in range(n + 1):
            for comp in _compositions(n - i, k + 1):
                cases += 1
                enumerated = sum(1 for _ in dyck.dyck_prefixes(n, i, k, comp))
                if enumerated == cf.prefix_count_closed(n, i, k, comp):
                    good += 1
        return cases, good
    if ident == "PARKING":
        n = p["n"]
        count = _count_labeled(n, n, label_counts=(0,) + (1,) * n)
        return (n + 1) ** (n - 1), count
    if ident == "CYC-SHIFT-IND":
        n, k = p["n"], p["k"]
        words = list(cyclic.extended_words(n, k))
        good = sum(
            1
            for w in words
            if cyclic.survivor_index(cyclic.shift(w)) % (n + 1)
            == (cyclic.survivor_index(w) + 1) % (n + 1)
        )
        return len(words), good
    if ident == "CYC-FIBER":
        n, k = p["n"], p["k"]
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
    if ident == "CYC-EW-COUNT":
        n, k = p["n"], p["k"]
        counts: dict[tuple[int, ...], int] = {}
        for w in cyclic.extended_words(n, k):
            key = [0] * (k + 1)
            for s in w.letters:
                if s != dyck.UP:
                    key[s] += 1
            counts[tuple(key)] = counts.get(tuple(key), 0) + 1
        comps = _compositions(n, k + 1)
        good = 0
        for comp in comps:
            expected_words = 1
            for c in comp:
                expected_words *= cf.multiset_coeff(n + 1, c)
            if counts.get(comp, 0) == expected_words and expected_words == (
                n + 1
            ) * cf.labeled_dyck_count(n, k, comp):
                good += 1
        return len(comps), good
    if ident == "CYC-CANDIDATES":
        n, k = p["n"], p["k"]
        cases = good = 0
        for i in range(n + 1):
            for w in cyclic.prefix_extended_words(n, i, k):
                cases += 1
                if len(cyclic.index_candidates(w)) == i + 1:
                    good += 1
        return cases, good
    if ident == "CYC-PREFIX-ROUTE":
        n, k = p["n"], p["k"]
        cases = good = 0
        for i in range(n + 1):
            for comp in _compositions(n - i, k + 1):
                cases += 1
                enumerated = sum(1 for _ in dyck.dyck_prefixes(n, i, k, comp))
                expected_words = i + 1
                for c in comp:
                    expected_words *= cf.multiset_coeff(n + 1, c)
                if (n + 1) * enumerated == expected_words:
                    good += 1
        return cases, good
    if ident in ("EQ1", "EQ2", "EQ3", "P53", "P55"):
        n, m = p["n"], p.get("m")
        a, b, c, d = (p.get(key, 0) for key in "abcd")
        graph_n = n + 1 if ident in ("P53", "P55") else n
        oracle = volume(
            pitman_stanley_graph(graph_n), _ps_flow(ident, n, m, a, b, c, d)
        )
        return oracle, cf.ps_volume_closed(ident, n, a, b, c, d, m)
    if ident in ("EQ5", "EQ6", "EQCONJ", "P58"):
        n = p["n"]
        a, b, c = (p.get(key, 0) for key in "abc")
        graph_n = n + 1 if ident == "P58" else n
        oracle = volume(caracol_graph(graph_n), _car_flow(ident, n, a, b, c))
        return oracle, cf.car_volume_closed(ident, n, a, b, c)
    if ident == "EQ5-CORRECTED":
        n, a = p["n"], p["a"]
        oracle = volume(caracol_graph(n), NetFlow.with_sink((a,) * n))
        return oracle, cf.eq5_homogeneous(n, a)
    if ident == "EQCONJ-CORRECTED":
        n = p["n"]
        a, b, c = p["a"], p["b"], p["c"]
        oracle = volume(caracol_graph(n), NetFlow.with_sink((a, b) + (c,) * (n - 2)))
        return oracle, cf.eqconj_homogeneous(n, a, b, c)
    if ident == "PS3-VS-P53":
        n = p["n"]
        a, b, c = p["a"], p["b"], p["c"]
        return cf.ps_volume_closed("P53", n - 1, a, b, c), cf.ps3_closed(n, a, b, c)
    if ident == "PS4-VS-P55":
        n = p["n"]
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        return cf.ps_volume_closed("P55", n - 1, a, b, c, d), cf.ps4_closed(n, a, b, c, d)
    if ident == "TAIL-COEFF":
        n, k, m = p["n"], p["k"], p["m"]
        return cf.tail_multinomial_sum(n, k, m), cf.tail_multinomial_closed(n, k, m)
    if ident == "POWER-SUM-PAIR":
        m, a, b = p["m"], p["a"], p["b"]
        return cf.dominant_power_sum((a, b), m), cf.dominant_power_sum_pair(m, a, b)
    if ident == "POWER-SUM-TRIPLE":
        m, a, b, c = p["m"], p["a"], p["b"], p["c"]
        return cf.dominant_power_sum((a, b, c), m), cf.dominant_power_sum_triple(
            m, a, b, c
        )
    if ident == "FAN-SUM-FLOWS":
        n, q, r = p["n"], p["q"], p["r"]
        pp = p["p"]
        return cf.fan_flow_sum_by_flows(n, pp, q, r), cf.fan_flow_sum_closed(n, pp, q, r)
    if ident == "FAN-SUM-PATHS":
        n, q, r = p["n"], p["q"], p["r"]
        pp = p["p"]
        return cf.fan_flow_sum_by_paths(n, pp, q, r), cf.fan_flow_sum_closed(n, pp, q, r)
    raise ValueError(f"unknown case id {ident!r}")


# -- suite construction ----------------------------------------------------------

def _spec(ident: str, **params: object) -> CaseSpec:
    return CaseSpec(ident, tuple(params.items()))


def build_suite(suite: str, max_n: int | None = None, max_k: int | None = None) -> list[CaseSpec]:
    if suite == "all":
        specs: list[CaseSpec] = []
        for name in SUITES:
            specs.extend(build_suite(name, max_n, max_k))
        return specs
    if suite == "ps-ehrhart":
        top_n = max_n or 6
        top_k = max_k or 4
        return [
            _spec(ident, n=n, k=k)
            for n in range(2, top_n + 1)
            for k in range(1, top_k + 1)
            for ident in ("PS-EHRHART-KPF", "PS-EHRHART-CT", "PS-EHRHART-LD")
        ]
    if suite == "car-ehrhart":
        top_n = max_n or 6
        top_k = max_k or 3
        return [
            _spec(ident, n=n, k=k)
            for n in range(3, top_n + 1)
            for k in range(1, top_k + 1)
            for ident in (
                "CAR-EHRHART-KPF",
                "CAR-EHRHART-CT",
                "CAR-EHRHART-DLD",
                "CAR-CT-INDEXING",
            )
        ]
    if suite == "dyck-counts":
        top_n = max_n or 6
        top_k = max_k or 3
        specs = []
        for n in range(0, top_n + 1):
            for k in range(1, top_k + 1):
                specs.append(_spec("LD-LABEL-COUNTS", n=n, k=k))
                specs.append(_spec("LD-ZEROS", n=n, k=k))
                specs.append(_spec("DLD-WEIGHTED", n=n, k=k))
                if n <= 5:
                    specs.append(_spec("DLD-OBJECTS", n=n, k=k))
                specs.append(_spec("DLD-SUM", n=n, k=k))
                specs.append(_spec("PREFIX-COUNTS", n=n, k=k))
        for n in range(1, min(top_n, 5) + 1):
            specs.append(_spec("PARKING", n=n))
        return specs
    if suite == "cyclic":
        top_n = max_n or 4
        top_k = max_k or 2
        specs = []
        for n in range(0, top_n + 1):
            for k in range(1, top_k + 1):
                specs.append(_spec("CYC-SHIFT-IND", n=n, k=k))
                specs.append(_spec("CYC-FIBER", n=n, k=k))
                specs.append(_spec("CYC-EW-COUNT", n=n, k=k))
                specs.append(_spec("CYC-CANDIDATES", n=n, k=k))
                specs.append(_spec("CYC-PREFIX-ROUTE", n=n, k=k))
        return specs
    if suite == "volumes":
        top_n = max_n or 7
        specs = []
        for n in range(2, min(top_n, 7) + 1):
            for a, b, d in product(GRID, repeat=3):
                specs.append(_spec("EQ1", n=n, a=a, b=b, d=d))
        for n in range(3, min(top_n, 7) + 1):
            for a, b, c, d in product(GRID, repeat=4):
                specs.append(_spec("EQ2", n=n, a=a, b=b, c=c, d=d))
        for m in (1, 2, 3):
            for n in range(m + 2, min(top_n, 7) + 1):
                for a, b, c, d in product(GRID, repeat=4):
                    specs.append(_spec("EQ3", n=n, m=m, a=a, b=b, c=c, d=d))
        for n in range(2, min(top_n, 6) + 1):
            for a, b, c in product(GRID, repeat=3):
                specs.append(_spec("P53", n=n, a=a, b=b, c=c))
        for n in range(2, min(top_n, 6) + 1):
            for a, b, c, d in product(GRID, repeat=4):
                specs.append(_spec("P55", n=n, a=a, b=b, c=c, d=d))
        for n in range(3, min(top_n, 7) + 1):
            for a, b, c in product(GRID, repeat=3):
                specs.append(_spec("PS3-VS-P53", n=n, a=a, b=b, c=c))
        for n in range(3, min(top_n, 7) + 1):
            for a, b, c, d in product(GRID, repeat=4):
                specs.append(_spec("PS4-VS-P55", n=n, a=a, b=b, c=c, d=d))
        for n in range(3, min(top_n, 6) + 1):
            for a in GRID:
                specs.append(_spec("EQ5", n=n, a=a))
                specs.append(_spec("EQ5-CORRECTED", n=n, a=a))
        for n in range(3, min(top_n, 6) + 1):
            for a, b in product(GRID, repeat=2):
                specs.append(_spec("EQ6", n=n, a=a, b=b))
        for n in range(3, min(top_n, 6) + 1):
            for a, b, c in product(GRID, repeat=3):
                specs.append(_spec("EQCONJ", n=n, a=a, b=b, c=c))
                specs.append(_spec("EQCONJ-CORRECTED", n=n, a=a, b=b, c=c))
        for n in range(2, min(top_n, 6) + 1):
            for a, b, c in product(GRID, repeat=3):
                specs.append(_spec("P58", n=n, a=a, b=b, c=c))
        for n in range(1, min(top_n, 7) + 1):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    specs.append(_spec("TAIL-COEFF", n=n, k=k, m=m))
        for m in range(2, 9):
            for a, b in product(GRID, repeat=2):
                specs.append(_spec("POWER-SUM-PAIR", m=m, a=a, b=b))
        for m in range(3, 9):
            for a, b, c in product(GRID, repeat=3):
                specs.append(_spec("POWER-SUM-TRIPLE", m=m, a=a, b=b, c=c))
        for n in range(3, min(top_n, 6) + 1):
            for pp in range(1, n - 1):
                for q in range(1, n - pp):
                    r = n - pp - q
                    if r >= 1:
                        specs.append(_spec("FAN-SUM-FLOWS", n=n, p=pp, q=q, r=r))
                        specs.append(_spec("FAN-SUM-PATHS", n=n, p=pp, q=q, r=r))
        return specs
    raise ValueError(f"unknown suite {suite!r}")


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


def run_suite(suite: str, max_n: int | None = None, max_k: int | None = None) -> VerificationReport:
    specs = build_suite(suite, max_n, max_k)
    _word_census.cache_clear()
    start = time.monotonic()
    workers = worker_count()
    indexed = list(enumerate(specs))
    if workers > 1 and len(specs) > 1:
        # case costs are wildly uneven; tiny chunks balance the heavy ones
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, indexed, chunksize=1))
    else:
        results = [_run_one(item) for item in indexed]
    results.sort(key=lambda pair: pair[0])
    duration_ms = int((time.monotonic() - start) * 1000)
    return VerificationReport(suite, tuple(record for _, record in results), duration_ms)


# -- rendering -----------------------------------------------------------------------

def _params_text(params: tuple[tuple[str, object], ...]) -> str:
    return ";".join(f"{key}={_value_text(value)}" for key, value in params)


def _value_text(value: object) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "params", "expected", "actual", "status"])
    for case in report.cases:
        writer.writerow(
            [case.ident, _params_text(case.params), case.expected, case.actual, case.status]
        )
    return buffer.getvalue()


def render_json(report: VerificationReport) -> str:
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
