"""The benchmark's four workloads.

Each workload drives flowvol only through its public functions, in one
process, as a closed loop with one caller: the next call is issued only
after the previous one returns.  ``setup`` builds the inputs from the seed
and returns the list of calls; ``check`` compares every returned value
exactly with its reference and returns one message per failed item.

flowvol is imported inside ``setup``, never at module import, so that the
child's set-up time includes importing it.  Calls name their function by
module and attribute and look it up when issued, so the traced run sees the
tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
from dataclasses import dataclass
from typing import Callable

# sha256 of the text report of `flowvol verify --suite all` at the commit
# that introduced this benchmark: pass=2738 fail=0 reported=927
GOLDEN_REPORT_SHA256 = "84e1b19849fedab937cc1bfa0c54776e349016b7f3b7d5ab440f0c744b94b1d8"
GOLDEN_CASES = 3665


@dataclass
class Call:
    label: str
    module: str
    attr: str
    args: tuple


@dataclass
class Inputs:
    calls: list[Call]
    check: Callable[[list], list[str]]
    # items attempted, when they are not the calls themselves
    attempted: int | None = None


def _module(layer: str):
    return importlib.import_module(f"flowvol.{layer}")


# -- verify-grid and verify-grid-par2 ------------------------------------------

def _verify_setup(out_dir: str, workers: str | None) -> Inputs:
    _module("cli")
    if workers is None:
        os.environ.pop("FLOWVOL_WORKERS", None)
    else:
        os.environ["FLOWVOL_WORKERS"] = workers
    report = os.path.join(out_dir, f"verify-{os.getpid()}.report.txt")
    argv = ["verify", "--suite", "all", "--out", report]

    def check(values: list) -> list[str]:
        """FAIL cases, plus one for a nonzero exit or a report that differs
        from the golden report."""
        (code,) = values
        try:
            with open(report, "rb") as handle:
                data = handle.read()
            os.remove(report)
        except OSError:
            data = b""
        failures = [line for line in data.decode().splitlines() if line.startswith("FAIL ")]
        digest = hashlib.sha256(data).hexdigest()
        if code != 0 or digest != GOLDEN_REPORT_SHA256:
            failures.append(f"exit {code!r}, report sha256 {digest}")
        return failures

    return Inputs([Call("verify --suite all", "cli", "main", (argv,))], check, GOLDEN_CASES)


def verify_grid(seed: int, out_dir: str) -> Inputs:
    # the shipped grid is fixed, so the seed changes nothing here
    return _verify_setup(out_dir, None)


def verify_grid_par2(seed: int, out_dir: str) -> Inputs:
    return _verify_setup(out_dir, "2")


# -- ehrhart-sweep --------------------------------------------------------------

# (family, path, sizes, ks) blocks of the sweep: sizes from the acceptance
# grid up to points of about half a second, where the top sizes carry one k
# so that a few large points do not dominate.
SWEEP_BLOCKS = (
    ("ps", "kpf", range(2, 9), (1, 2, 3)),
    ("ps", "kpf", (9, 10), (2,)),
    ("ps", "ct", range(2, 12), (1, 2, 3, 4)),
    ("ps", "ct", (12, 13), (2,)),
    ("ps", "series", range(2, 12), (1, 2, 3)),
    ("ps", "series", (12,), (1,)),
    ("car", "kpf", range(3, 8), (1, 2, 3)),
    ("car", "kpf", (8,), (2,)),
    ("car", "ct", range(3, 10), (1, 2, 3, 4)),
    ("car", "ct", (10,), (2,)),
    ("car", "series", range(3, 10), (1,)),
    ("car", "series", range(3, 8), (2,)),
    ("car", "series", range(3, 6), (3,)),
)


def _sweep_points() -> list[tuple[str, str, int, int]]:
    """(family, path, n, k) of every query of the sweep."""
    return [(family, path, n, k)
            for family, path, sizes, ks in SWEEP_BLOCKS for n in sizes for k in ks]


def ehrhart_sweep(seed: int, out_dir: str) -> Inputs:
    graphs, ctengine, closedforms = _module("graphs"), _module("ctengine"), _module("closedforms")
    _module("lidskii")
    points = _sweep_points()
    # the point set is fixed so that every seed measures the same work; the
    # seed sets the order in which the points are queried
    random.Random(seed).shuffle(points)
    calls = []
    for family, path, n, k in points:
        label = f"{family}/{path}/{n}/{k}"
        if path == "kpf":
            graph = (graphs.pitman_stanley_graph if family == "ps" else graphs.caracol_graph)(n)
            calls.append(Call(label, "lidskii", "ehrhart_like", (graph, k)))
        else:
            expr = (ctengine.ps_ct_expression(n, k) if family == "ps"
                    else ctengine.car_ct_expression(n - 1, k))
            attr = "evaluate" if path == "ct" else "evaluate_series"
            calls.append(Call(label, "ctengine", attr, (expr,)))

    def check(values: list) -> list[str]:
        failures = []
        for (family, path, n, k), value in zip(points, values):
            closed = (closedforms.ehrhart_ps_closed if family == "ps"
                      else closedforms.ehrhart_car_closed)
            expected = closed(n, k)
            if value != expected:
                failures.append(f"{family}/{path} n={n} k={k}: {value!r} != {expected}")
        return failures

    return Inputs(calls, check)


# -- volume-batch ----------------------------------------------------------------

# identities that hold exactly, by family: (id, index shift from the graph
# size to the identity's n, number of free parameters)
PS_IDENTITIES = (("EQ1", 0, 3), ("EQ2", 0, 4), ("P53", 1, 3), ("P55", 1, 4))
CAR_IDENTITIES = (("EQ6", 0, 2), ("EQ5-CORRECTED", 0, 1),
                  ("EQCONJ-CORRECTED", 0, 3), ("P58", 1, 3))
# seven graphs so that the median query falls inside the plateau of the
# 429-term graphs (ps 8, car 8) and p90 inside the 4862-term graph (ps 10)
VOLUME_GRAPHS = (("ps", 7), ("ps", 8), ("ps", 9), ("ps", 10),
                 ("car", 7), ("car", 8), ("car", 9))
QUERIES_PER_GRAPH = 72
PARAM_MAX = 30


def _volume_flow(ident: str, n: int, p: tuple[int, ...]) -> tuple[int, ...]:
    """Head of the net flow (sink omitted) for identity ident at size n."""
    if ident == "EQ1":
        a, b, d = p
        return (a,) + (b,) * (n - 2) + (d,)
    if ident == "EQ2":
        a, b, c, d = p
        return (a,) + (b,) * (n - 3) + (c, d)
    if ident == "P53":
        a, b, c = p
        return (a, b) + (c,) * (n - 1)
    if ident == "P55":
        a, b, c, d = p
        return (a, b, c) + (d,) * (n - 2)
    if ident == "EQ6":
        a, b = p
        return (a,) + (b,) * (n - 1)
    if ident == "EQ5-CORRECTED":
        (a,) = p
        return (a,) * n
    if ident == "EQCONJ-CORRECTED":
        a, b, c = p
        return (a, b) + (c,) * (n - 2)
    if ident == "P58":
        a, b, c = p
        return (a, b) + (c,) * (n - 1)
    raise ValueError(ident)


def _volume_reference(cf, ident: str, n: int, p: tuple[int, ...]) -> int:
    if ident == "EQ1":
        a, b, d = p
        return cf.ps_volume_closed(ident, n, a, b, 0, d)
    if ident in ("EQ2", "P53", "P55"):
        return cf.ps_volume_closed(ident, n, *p)
    if ident in ("EQ6", "P58"):
        return cf.car_volume_closed(ident, n, *p)
    if ident == "EQ5-CORRECTED":
        return cf.eq5_homogeneous(n, *p)
    return cf.eqconj_homogeneous(n, *p)


def volume_batch(seed: int, out_dir: str) -> Inputs:
    graphs, closedforms = _module("graphs"), _module("closedforms")
    _module("lidskii")
    rng = random.Random(seed)
    queries = []
    for family, size in VOLUME_GRAPHS:
        graph = (graphs.pitman_stanley_graph if family == "ps" else graphs.caracol_graph)(size)
        identities = PS_IDENTITIES if family == "ps" else CAR_IDENTITIES
        for idx in range(QUERIES_PER_GRAPH):
            ident, shift, arity = identities[idx % len(identities)]
            params = tuple(rng.randint(1, PARAM_MAX) for _ in range(arity))
            queries.append((family, size, graph, ident, size - shift, params))
    # interleaved across the graphs, so a cache smaller than the graph set thrashes
    rng.shuffle(queries)
    calls = [
        Call(f"{family}{size}/{ident}", "lidskii", "volume",
             (graph, graphs.NetFlow.with_sink(_volume_flow(ident, n, params))))
        for family, size, graph, ident, n, params in queries
    ]

    def check(values: list) -> list[str]:
        failures = []
        for (family, size, _, ident, n, params), value in zip(queries, values):
            expected = _volume_reference(closedforms, ident, n, params)
            if value != expected:
                failures.append(f"{family}{size} {ident} n={n} {params}: {value!r} != {expected}")
        return failures

    return Inputs(calls, check)


WORKLOADS = {
    "verify-grid": verify_grid,
    "verify-grid-par2": verify_grid_par2,
    "ehrhart-sweep": ehrhart_sweep,
    "volume-batch": volume_batch,
}
