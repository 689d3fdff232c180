import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from math import factorial

import pytest

from flowvol import closedforms, cyclic, dyck, lidskii, verify
from flowvol.cli import main
from flowvol.closedforms import multiset_coeff


def test_suite_construction_is_deterministic():
    first = verify.build_suite("volumes", max_n=4)
    second = verify.build_suite("volumes", max_n=4)
    assert first == second


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.build_suite("nope")


def test_small_cyclic_suite_passes():
    report = verify.run_suite("cyclic", max_n=3, max_k=2)
    assert report.ok
    assert report.summary["fail"] == 0
    assert report.summary["reported"] == 0


def test_ps_ehrhart_smallest_grid():
    report = verify.run_suite("ps-ehrhart", max_n=2, max_k=1)
    assert [c.status for c in report.cases] == [verify.PASS] * 3
    assert all(c.expected == "1" for c in report.cases)


def test_volumes_reports_known_discrepancies_without_fail():
    report = verify.run_suite("volumes", max_n=5)
    statuses = {}
    for case in report.cases:
        statuses.setdefault(case.ident, set()).add(case.status)
    assert report.summary["fail"] == 0
    assert verify.REPORTED in statuses["EQ3"]
    assert verify.REPORTED in statuses["EQ5"]
    assert verify.REPORTED in statuses["EQCONJ"]
    assert statuses["EQ5-CORRECTED"] == {verify.PASS}
    assert statuses["EQCONJ-CORRECTED"] == {verify.PASS}
    assert statuses["EQ6"] == {verify.PASS}
    assert statuses["P58"] == {verify.PASS}
    assert statuses["P53"] == {verify.PASS}
    assert statuses["P55"] == {verify.PASS}


def test_eq3_discrepancy_present_at_every_zero_block_length():
    report = verify.run_suite("volumes", max_n=6)
    for m in (1, 2, 3):
        cases = [
            c for c in report.cases if c.ident == "EQ3" and dict(c.params)["m"] == m
        ]
        assert any(c.status == verify.REPORTED for c in cases)
    # with a single zero entry the printed form collapses to the verified
    # one whenever the two middle entries coincide
    assert all(
        c.status == verify.PASS
        for c in report.cases
        if c.ident == "EQ3"
        and dict(c.params)["m"] == 1
        and dict(c.params)["b"] == dict(c.params)["c"]
    )


def test_car_ct_indexing_is_reported():
    report = verify.run_suite("car-ehrhart", max_n=3, max_k=1)
    cases = {c.ident: c.status for c in report.cases}
    assert cases["CAR-CT-INDEXING"] == verify.REPORTED
    assert cases["CAR-EHRHART-KPF"] == verify.PASS
    assert cases["CAR-EHRHART-CT"] == verify.PASS
    assert cases["CAR-EHRHART-DLD"] == verify.PASS


def test_render_text_deterministic_and_duration_free():
    first = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    second = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    assert verify.render_text(first) == verify.render_text(second)
    assert verify.render_csv(first) == verify.render_csv(second)
    assert "duration" not in verify.render_text(first)


def test_render_json_schema():
    report = verify.run_suite("ps-ehrhart", max_n=2, max_k=2)
    payload = json.loads(verify.render_json(report))
    assert set(payload) == {"suite", "cases", "summary", "duration_ms"}
    assert payload["suite"] == "ps-ehrhart"
    assert set(payload["summary"]) == {"pass", "fail", "reported"}
    for case in payload["cases"]:
        assert set(case) == {"id", "params", "expected", "actual", "status"}
        int(case["expected"])  # decimal strings
        int(case["actual"])


def test_render_csv_columns():
    report = verify.run_suite("ps-ehrhart", max_n=2, max_k=1)
    lines = verify.render_csv(report).splitlines()
    assert lines[0] == "id,params,expected,actual,status"
    assert len(lines) == 1 + len(report.cases)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    assert verify.worker_count() == 1
    monkeypatch.setenv("FLOWVOL_WORKERS", "4")
    assert verify.worker_count() == 4
    monkeypatch.setenv("FLOWVOL_WORKERS", "0")
    with pytest.raises(ValueError):
        verify.worker_count()
    monkeypatch.setenv("FLOWVOL_WORKERS", "lots")
    with pytest.raises(ValueError):
        verify.worker_count()


def test_parallel_run_matches_sequential(monkeypatch):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    sequential = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    monkeypatch.setenv("FLOWVOL_WORKERS", "2")
    parallel = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    assert verify.render_csv(sequential) == verify.render_csv(parallel)


def test_all_suite_concatenates_in_canonical_order():
    specs = verify.build_suite("all", max_n=3, max_k=1)
    names = [spec.ident for spec in specs]
    assert names.index("PS-EHRHART-KPF") < names.index("CAR-EHRHART-KPF")
    assert names.index("CAR-EHRHART-KPF") < names.index("LD-LABEL-COUNTS")
    assert names.index("CYC-SHIFT-IND") < names.index("EQ1")


def _failed_ids(capsys) -> set[str]:
    out = capsys.readouterr().out
    return {line.split()[1] for line in out.splitlines() if line.startswith(verify.FAIL + " ")}


def test_planted_flow_count_error_fails_the_suite(monkeypatch, capsys):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    original = lidskii.count_flows
    monkeypatch.setattr(lidskii, "count_flows", lambda graph, flow: original(graph, flow) + 1)
    assert main(["verify", "--suite", "ps-ehrhart"]) == 1
    assert _failed_ids(capsys) == {"PS-EHRHART-KPF"}


def test_planted_constant_term_error_fails_the_suite(monkeypatch, capsys):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    original = verify.evaluate
    monkeypatch.setattr(verify, "evaluate", lambda expr: original(expr) + 1)
    assert main(["verify", "--suite", "ps-ehrhart"]) == 1
    assert _failed_ids(capsys) == {"PS-EHRHART-CT"}


def test_planted_dominant_sum_error_fails_its_cases(monkeypatch, capsys):
    # 2! + 1 for 2! inside dominant_sum: the coefficient lemmas' defining
    # sums fail
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    monkeypatch.setattr(closedforms, "factorial", lambda x: factorial(x) + (x == 2))
    assert main(["verify", "--suite", "volumes"]) == 1
    out = capsys.readouterr().out
    failed = Counter(line.split()[1] for line in out.splitlines() if line.startswith(verify.FAIL + " "))
    assert failed == {"TAIL-COEFF": 35, "POWER-SUM-PAIR": 63, "POWER-SUM-TRIPLE": 162,
                      "FAN-SUM-FLOWS": 10, "FAN-SUM-PATHS": 10}


def test_planted_candidate_miscount_is_a_fail_not_a_crash(monkeypatch):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    original = cyclic._without_pair

    def planted(items, t):
        # a wrapping deletion drops one item too many
        if t + 1 == len(items):
            return items[: t - 1]
        return original(items, t)

    monkeypatch.setattr(cyclic, "_without_pair", planted)
    spec = verify.CaseSpec("CYC-CANDIDATES", (("n", 2), ("k", 1)))
    _, record = verify._run_one((0, spec))
    assert (record.status, record.expected, record.actual) == (verify.FAIL, "28", "25")


@pytest.mark.parametrize(("family", "sizes"), [("ps", range(2, 6)), ("car", range(3, 6))])
def test_ehrhart_paths_agree_with_the_closed_form(family, sizes):
    for n in sizes:
        for k in range(1, 4):
            paths = verify.ehrhart_paths(family, n, k)
            assert list(paths) == ["kpf", "ct", "enum", "closed"]
            assert {name: path() for name, path in paths.items()} == dict.fromkeys(
                paths, paths["closed"]()
            )


@pytest.mark.parametrize(("family", "n"), [("ps", 1), ("car", 2), ("ps", -1)])
def test_ehrhart_paths_check_n_before_any_route(family, n):
    with pytest.raises(ValueError, match="requires n >="):
        verify.ehrhart_paths(family, n, 1)


def test_ehrhart_paths_reject_an_unknown_family():
    with pytest.raises(ValueError, match="family"):
        verify.ehrhart_paths("pitman", 3, 1)


def test_planted_word_route_error_reaches_verify_and_the_cli(monkeypatch, capsys):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    original = verify.ehrhart_paths

    def planted(family, n, k):
        paths = original(family, n, k)
        if (family, n, k) == ("ps", 3, 2):
            enum = paths["enum"]
            paths["enum"] = lambda: enum() + 1
        return paths

    monkeypatch.setattr(verify, "ehrhart_paths", planted)
    assert main(["verify", "--suite", "ps-ehrhart", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    fails = [line.split()[1:3] for line in out.splitlines() if line.startswith(verify.FAIL + " ")]
    assert fails == [["PS-EHRHART-LD", "n=3;k=2"]]
    assert main(["ehrhart", "--family", "ps", "--n", "3", "--k", "2", "--method", "all"]) == 1
    assert capsys.readouterr().out == "kpf=7\nct=7\nenum=8\nclosed=7\nDISAGREE\n"


def test_word_census_matches_filtered_enumerators():
    for n in range(0, 5):
        for k in range(1, 4):
            buckets, weighted = verify._word_census(n, k)
            for comp in dyck.iter_dominant(n, k + 1, (0,) * (k + 1)):
                filtered = dyck.labeled_dyck_words(n, k, label_counts=comp)
                assert buckets.get(comp, 0) == sum(1 for _ in filtered)
            for d in range(n + 1):
                total = sum(count for comp, count in buckets.items() if comp[0] == d)
                assert total == sum(1 for _ in dyck.labeled_dyck_words(n, k, zeros=d))
            assert weighted == sum(
                multiset_coeff(k, n + w.zero_label_count)
                for w in dyck.labeled_dyck_words(n, k)
            )


def test_prefix_census_matches_filtered_prefixes():
    for n in range(0, 6):
        for k in range(1, 4):
            for i in range(n + 1):
                census = verify._prefix_census(n, i, k)
                comps = list(dyck.iter_dominant(n - i, k + 1, (0,) * (k + 1)))
                assert set(census) <= set(comps)
                for comp in comps:
                    filtered = dyck.dyck_prefixes(n, i, k, comp)
                    assert census.get(comp, 0) == sum(1 for _ in filtered)
            assert verify._prefix_census(n, 0, k) == verify._word_census(n, k)[0]


def test_prefix_census_is_walked_once_per_run(monkeypatch):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    verify.run_suite("all", max_n=4, max_k=2)
    info = verify._prefix_census.cache_info()
    assert info.misses == info.currsize == 30


@pytest.mark.parametrize("clean_run_first", [False, True])
@pytest.mark.parametrize(
    "suite,max_n,failed",
    [("dyck-counts", "3", {"PREFIX-COUNTS"}), ("cyclic", "2", {"CYC-PREFIX-ROUTE"})],
)
def test_planted_prefix_loss_fails_the_prefix_cases(
    monkeypatch, capsys, clean_run_first, suite, max_n, failed
):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    argv = ["verify", "--suite", suite, "--max-n", max_n]
    if clean_run_first:
        # the prefix census this clean run leaves cached must not hide the
        # planted error
        assert main(argv) == 0
        assert _failed_ids(capsys) == set()
    original = dyck.dyck_prefixes

    def drop_last(n, i, k, label_counts=None):
        return iter(list(original(n, i, k, label_counts))[:-1])

    monkeypatch.setattr(dyck, "dyck_prefixes", drop_last)
    assert main(argv) == 1
    assert _failed_ids(capsys) == failed


CENSUS_IDS = ("LD-LABEL-COUNTS", "LD-ZEROS", "DLD-WEIGHTED")


def _census_case_statuses(capsys) -> dict[str, set[str]]:
    statuses: dict[str, set[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        status, ident = line.split()[:2]
        if ident in CENSUS_IDS:
            statuses.setdefault(ident, set()).add(status)
    return statuses


@pytest.mark.parametrize("clean_run_first", [False, True])
def test_planted_word_loss_fails_every_census_case(monkeypatch, capsys, clean_run_first):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    argv = ["verify", "--suite", "dyck-counts", "--max-n", "3"]
    if clean_run_first:
        # the census of the grid points this clean run shares with the
        # planted run stays cached; it must not hide the planted error
        assert main(argv[:3] + ["--max-n", "1", "--max-k", "1"]) == 0
        assert all(s == {verify.PASS} for s in _census_case_statuses(capsys).values())
    original = dyck.labeled_dyck_words

    def drop_last(n, k, **filters):
        return iter(list(original(n, k, **filters))[:-1])

    monkeypatch.setattr(dyck, "labeled_dyck_words", drop_last)
    assert main(argv) == 1
    statuses = _census_case_statuses(capsys)
    assert statuses == {
        "LD-LABEL-COUNTS": {verify.FAIL},
        "LD-ZEROS": {verify.FAIL},
        "DLD-WEIGHTED": {verify.FAIL},
    }


@pytest.mark.parametrize(
    "suite,failed",
    [
        ("dyck-counts", {"LD-LABEL-COUNTS", "LD-ZEROS", "DLD-WEIGHTED", "DLD-OBJECTS",
                         "PREFIX-COUNTS", "PARKING"}),
        ("cyclic", {"CYC-FIBER", "CYC-EW-COUNT", "CYC-PREFIX-ROUTE"}),
    ],
)
def test_planted_walker_loss_fails_the_suite(monkeypatch, capsys, suite, failed):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    original = dyck._walk
    monkeypatch.setattr(dyck, "_walk", lambda *args: iter(list(original(*args))[:-1]))
    assert main(["verify", "--suite", suite, "--max-n", "2", "--max-k", "1"]) == 1
    assert _failed_ids(capsys) == failed


def test_case_table_covers_exactly_the_emitted_ids():
    assert {spec.ident for spec in verify.build_suite("all")} == set(verify.CASES)


def test_unknown_case_id_rejected():
    with pytest.raises(ValueError, match="NOPE"):
        verify.evaluate_case("NOPE", {})


def test_zero_bounds_are_honoured(monkeypatch, capsys):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    specs = verify.build_suite("dyck-counts", max_n=0)
    assert len(specs) == 18
    assert {dict(spec.params)["n"] for spec in specs} == {0}
    assert len(verify.build_suite("dyck-counts", max_n=1)) == 37
    assert verify.build_suite("ps-ehrhart", max_n=0) == []
    assert main(["verify", "--suite", "dyck-counts", "--max-n", "0"]) == 0
    assert capsys.readouterr().out.endswith("summary pass=18 fail=0 reported=0\n")


@pytest.mark.parametrize("bounds", [{"max_n": -1}, {"max_k": 0}, {"max_k": -2}])
def test_bad_bounds_rejected(capsys, bounds):
    with pytest.raises(ValueError):
        verify.build_suite("all", **bounds)
    argv = ["verify", "--suite", "cyclic"]
    for key, value in bounds.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def _grid_point(spec) -> tuple[int, int]:
    params = dict(spec.params)
    return params.get("n", 0), params.get("k", 0)


def test_pool_tasks_partition_the_suite_by_grid_point():
    specs = verify.build_suite("all")
    tasks = verify._pool_tasks(specs)
    indices = [index for task in tasks for index, _ in task]
    assert sorted(indices) == list(range(len(specs)))
    assert all(specs[index] == spec for task in tasks for index, spec in task)
    points = [{_grid_point(spec) for _, spec in task} for task in tasks]
    assert all(len(point) == 1 for point in points)
    keys = [point.pop() for point in points]
    assert keys == sorted(set(keys), reverse=True)
    census = {}
    for number, task in enumerate(tasks):
        for _, spec in task:
            if spec.ident in CENSUS_IDS:
                census.setdefault(_grid_point(spec), set()).add(number)
    assert len(census) == 21
    assert all(len(numbers) == 1 for numbers in census.values())


def _recording_pool(monkeypatch) -> list[tuple[int, list]]:
    """Replace the ProcessPoolExecutor that run_suite imports when its pool
    runs with one that runs the tasks in this process; each pool made
    appends (max_workers, tasks) to the list."""
    pools: list[tuple[int, list]] = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            pools.append((self.max_workers, tasks))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


@pytest.mark.parametrize(("workers", "size"), [("2", 2), ("3", 3), ("4", 4), ("64", 4)])
def test_pool_size_is_capped_by_the_task_count(monkeypatch, workers, size):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    sequential = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    pools = _recording_pool(monkeypatch)
    monkeypatch.setenv("FLOWVOL_WORKERS", workers)
    report = verify.run_suite("ps-ehrhart", max_n=3, max_k=2)
    [(max_workers, tasks)] = pools
    assert max_workers == size
    assert [_grid_point(task[0][1]) for task in tasks] == [(3, 2), (3, 1), (2, 2), (2, 1)]
    assert report.cases == sequential.cases


def test_single_task_runs_without_a_pool(monkeypatch):
    pools = _recording_pool(monkeypatch)
    monkeypatch.setenv("FLOWVOL_WORKERS", "2")
    assert verify.run_suite("ps-ehrhart", max_n=2, max_k=1).ok
    assert pools == []


def _reports(report) -> tuple[str, str, dict]:
    payload = json.loads(verify.render_json(report))
    payload.pop("duration_ms")
    return verify.render_text(report), verify.render_csv(report), payload


@pytest.mark.parametrize("workers", ["2", "3"])
def test_pooled_all_suite_matches_sequential(monkeypatch, workers):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    sequential = _reports(verify.run_suite("all", max_n=3, max_k=2))
    monkeypatch.setenv("FLOWVOL_WORKERS", workers)
    assert _reports(verify.run_suite("all", max_n=3, max_k=2)) == sequential


def test_planted_closed_form_error_fails_the_pooled_run(monkeypatch, capsys):
    monkeypatch.setenv("FLOWVOL_WORKERS", "2")
    original = verify.cf.doubly_labeled_count
    monkeypatch.setattr(verify.cf, "doubly_labeled_count", lambda n, k: original(n, k) + 1)
    assert main(["verify", "--suite", "all", "--max-n", "3", "--max-k", "2"]) == 1
    assert _failed_ids(capsys) == {"DLD-WEIGHTED", "DLD-OBJECTS", "DLD-SUM"}


# (suite, max_n, max_k, spec count, sha256 prefix of the "ident params" lines)
SUITE_PINS = [
    ("ps-ehrhart", 0, 1, 0, "e3b0c44298fc1c14"),
    ("ps-ehrhart", 1, None, 0, "e3b0c44298fc1c14"),
    ("ps-ehrhart", 3, 2, 12, "b2be43e98771694b"),
    ("ps-ehrhart", None, 1, 15, "f3a86303ade53d40"),
    ("ps-ehrhart", 5, 5, 60, "52d839108a53b4c1"),
    ("ps-ehrhart", 8, 4, 84, "ffdafc819cd39fb6"),
    ("car-ehrhart", 0, 1, 0, "e3b0c44298fc1c14"),
    ("car-ehrhart", 1, None, 0, "e3b0c44298fc1c14"),
    ("car-ehrhart", 3, 2, 8, "df322a92ef4555e2"),
    ("car-ehrhart", None, 1, 16, "ea0c452c52ded55a"),
    ("car-ehrhart", 5, 5, 60, "a99b887be25c28e1"),
    ("car-ehrhart", 8, 4, 96, "092d872655f37a3d"),
    ("dyck-counts", 0, 1, 6, "67c3717d0ec200e3"),
    ("dyck-counts", 1, None, 37, "ea7f4ef0bdc07cb7"),
    ("dyck-counts", 3, 2, 51, "b9934f7f14503e1d"),
    ("dyck-counts", None, 1, 46, "2358cf168d855e6f"),
    ("dyck-counts", 5, 5, 185, "dd4f7b61315c2601"),
    ("dyck-counts", 8, 4, 209, "e0206a6befe0f2ba"),
    ("cyclic", 0, 1, 5, "a3e53d2968e8da4d"),
    ("cyclic", 1, None, 20, "4bce70cd33182dea"),
    ("cyclic", 3, 2, 40, "cc9f929cf761d054"),
    ("cyclic", None, 1, 25, "22683a5580e7ad22"),
    ("cyclic", 5, 5, 150, "b929e1de04d97ae7"),
    ("cyclic", 8, 4, 180, "13afc781bc1d4aab"),
    ("volumes", 0, 1, 225, "70d15580b37a67b8"),
    ("volumes", 1, None, 226, "4c1d86b839062340"),
    ("volumes", 3, 2, 900, "06f1e9fb31b927d2"),
    ("volumes", None, 1, 3379, "ffc005d079afcbc2"),
    ("volumes", 5, 5, 2188, "c14543a7ce6cd9c3"),
    ("volumes", 8, 4, 3379, "ffc005d079afcbc2"),
    ("all", 0, 1, 236, "b6da10eea33f046a"),
    ("all", 1, None, 283, "378ea6b5a59b7580"),
    ("all", 3, 2, 1011, "8bd5375f17ae5138"),
    ("all", None, 1, 3481, "3d32e4fe19a09e1e"),
    ("all", 5, 5, 2643, "b3bb2463b4de7712"),
    ("all", 8, 4, 3948, "db16080901dcae55"),
]


@pytest.mark.parametrize(("suite", "max_n", "max_k", "count", "digest"), SUITE_PINS)
def test_suites_are_pinned_at_non_default_bounds(suite, max_n, max_k, count, digest):
    # the golden report covers only the default bounds
    specs = verify.build_suite(suite, max_n, max_k)
    text = "".join(f"{spec.ident} {verify._params_text(spec.params)}\n" for spec in specs)
    assert len(specs) == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_grid_orders_axes_outermost_first_and_idents_innermost():
    specs = verify._grid(("X", "Y"), n=(1, 2), a=(3,), b=(4, 5))
    assert [(spec.ident, spec.params) for spec in specs] == [
        (ident, (("n", n), ("a", 3), ("b", b)))
        for n in (1, 2)
        for b in (4, 5)
        for ident in ("X", "Y")
    ]
    assert verify._grid(("X",), n=range(0)) == []


def test_planted_volume_flow_error_fails_exactly_its_cases(monkeypatch):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    family, shift, head = verify._VOLUME_FLOWS["EQ6"]

    def planted(n, **params):
        first, *rest = head(n, **params)
        return (first + 1, *rest)

    monkeypatch.setitem(verify._VOLUME_FLOWS, "EQ6", (family, shift, planted))
    report = verify.run_suite("volumes", max_n=3)
    failed = [case for case in report.cases if case.status == verify.FAIL]
    assert [case.ident for case in failed] == ["EQ6"] * 9
    assert sum(case.ident == "EQ6" for case in report.cases) == 9


# Run in a fresh interpreter: the modules loaded before and after importing
# flowvol.cli are compared, not checked for absence, as site may preload some.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import flowvol.cli
lazy = {"multiprocessing", "concurrent.futures", "json", "csv", "fractions", "decimal",
        "dataclasses", "inspect"}
print(sorted(lazy & (set(sys.modules) - before)))
import json, os
from flowvol import verify
os.environ["FLOWVOL_WORKERS"] = "2"
report = verify.run_suite("ps-ehrhart", max_n=3, max_k=1)
assert report.ok and "concurrent.futures" in sys.modules
assert json.loads(verify.render_json(report))["summary"] == report.summary
assert len(verify.render_csv(report).splitlines()) == len(report.cases) + 1
"""


def test_importing_the_cli_loads_no_pool_writer_or_fraction_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("FLOWVOL_WORKERS", None)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
