"""Tests of the benchmark itself: it must catch a planted error, its
traced counts must repeat exactly, and BENCHMARK.json must name exactly
the metrics the runner prints.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from flowvol import closedforms, lidskii, verify  # noqa: E402


def _plant_plus_one(monkeypatch, name: str, at: tuple[int, int]) -> None:
    original = getattr(closedforms, name)

    def planted(n: int, k: int) -> int:
        return original(n, k) + ((n, k) == at)

    monkeypatch.setattr(closedforms, name, planted)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_suites_match_verify():
    assert run.SUITES == verify.SUITES


def test_planted_reference_error_fails_the_sweep(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "_sweep_points", lambda: [
        ("ps", "kpf", 3, 2), ("ps", "ct", 3, 2), ("car", "series", 4, 1), ("ps", "ct", 4, 1)])
    _plant_plus_one(monkeypatch, "ehrhart_ps_closed", (3, 2))
    result = child.measure("ehrhart-sweep", 7, "timed", str(tmp_path))
    assert result["attempted"] == 4
    assert result["failed"] == 2
    verdict = run.verdict([result])
    assert verdict["correct"] is False
    assert verdict["failed"] / verdict["attempted"] > 0


def test_planted_reference_error_fails_the_volume_batch(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "VOLUME_GRAPHS", (("ps", 4), ("car", 4)))
    monkeypatch.setattr(workloads, "QUERIES_PER_GRAPH", 4)
    original = closedforms.car_volume_closed
    monkeypatch.setattr(closedforms, "car_volume_closed",
                        lambda *args: original(*args) + (args[0] == "EQ6"))
    lidskii.volume_terms.cache_clear()
    result = child.measure("volume-batch", 7, "timed", str(tmp_path))
    assert result["attempted"] == 8
    assert result["failed"] == 1
    assert run.verdict([result])["correct"] is False


def test_planted_reference_error_fails_the_verify_grid(monkeypatch, tmp_path):
    _plant_plus_one(monkeypatch, "ehrhart_ps_closed", (3, 2))
    result = child.measure("verify-grid", 7, "timed", str(tmp_path))
    # the three ps paths at n=3, k=2 FAIL, and the report is not the golden one
    assert result["failed"] == 4
    assert run.verdict([result])["correct"] is False


def _small_traced_volume_batch(monkeypatch, tmp_path) -> dict:
    monkeypatch.setattr(workloads, "VOLUME_GRAPHS", (("ps", 5), ("car", 5)))
    monkeypatch.setattr(workloads, "QUERIES_PER_GRAPH", 6)
    lidskii.volume_terms.cache_clear()
    return child.measure("volume-batch", 3, "traced", str(tmp_path))


def test_traced_counts_repeat_and_self_times_account_for_the_wall(monkeypatch, tmp_path):
    first = _small_traced_volume_batch(monkeypatch, tmp_path)
    second = _small_traced_volume_batch(monkeypatch, tmp_path)
    assert first["failed"] == 0
    counts = []
    for result in (first, second):
        values = run.per_layer_values(result["trace"], result["wall_s"], None)
        counts.append({name: value for name, value in values.items()
                       if run.per_layer_units()[name] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["lidskii.volume.calls"] == 12
    assert counts[0]["lidskii.volume_terms.hit_ratio"] == pytest.approx(10 / 12)
    assert counts[0]["lidskii.volume_terms.useful_ratio"] > 0
    trace = first["trace"]
    accounted = sum(trace["layer_self_s"].values()) + trace["bench_self_s"]
    assert accounted == pytest.approx(trace["traced_wall_s"], rel=1e-6)
    assert os.path.getsize(tmp_path / "volume-batch.spans.bin") > 0
