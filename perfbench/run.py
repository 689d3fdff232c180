"""flowvol benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flowvol checkout.  Every pass runs in a fresh
interpreter (perfbench/child.py), so the ``volume_terms`` cache and
``ru_maxrss`` start empty; an untimed warm-up pass compiles the bytecode
first.  With ``--trace 0`` the run makes a fixed number of timed passes,
set by S and the workload's nominal pass time, and reports the end-to-end
metrics; with ``--trace 1`` it makes one plain pass and one traced pass and
reports the per-layer metrics.  The last line of standard output is the
result; the line before it holds figures that are recorded but not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

# seconds of one timed pass of each workload, child start-up included, at
# the commit that introduced the benchmark.  A run makes about S over this
# many passes, so the number of passes, and with it the best-of-N estimator,
# depends only on --seconds and never on how fast the code under test is.
PASS_SECONDS = {
    "verify-grid": 8.0,
    "verify-grid-par2": 4.4,
    "ehrhart-sweep": 5.5,
    "volume-batch": 2.2,
}
MIN_PASSES = 2
# set-ups measured per run, timed passes included; the set-up-only passes
# are spread between the timed passes so that they sample the whole run
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0
NOISE_LOOP_ITERATIONS = 3_000_000
FRONTIER_BUDGET_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-function figures reported in the traced run: (function, figures)
FUNCTION_FIGURES = (
    ("kostant.count_flows", ("calls", "self_s", "repeat_ratio")),
    ("ctengine.evaluate", ("calls", "self_s", "repeat_ratio")),
    ("ctengine.evaluate_series", ("calls", "self_s", "repeat_ratio")),
    ("ctengine.evaluate_series_oracle", ("calls", "self_s")),
    ("lidskii.volume_terms", ("calls", "self_s")),
    ("lidskii.volume", ("calls", "self_s")),
    ("lidskii.ehrhart_like", ("calls", "self_s")),
    ("dyck.labeled_dyck_words", ("words", "self_s", "repeat_ratio")),
    ("dyck.doubly_labeled_dyck_words", ("words", "self_s", "repeat_ratio")),
    ("dyck.dyck_prefixes", ("words", "self_s", "repeat_ratio")),
    ("cyclic.extended_words", ("words", "self_s")),
    ("cyclic.prefix_extended_words", ("words", "self_s")),
    ("cyclic.index_candidates", ("calls", "self_s")),
    ("cyclic.project", ("calls", "self_s")),
    ("cyclic.survivor_index", ("calls", "self_s")),
    ("verify.evaluate_case", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)
SUITES = ("ps-ehrhart", "car-ehrhart", "dyck-counts", "cyclic", "volumes")
FIGURE_UNITS = {"calls": "count", "words": "count", "self_s": "s", "repeat_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name, figures in FUNCTION_FIGURES:
        for figure in figures:
            units[f"{name}.{figure}"] = FIGURE_UNITS[figure]
    units.update({
        "lidskii.volume_terms.hit_ratio": "ratio",
        "lidskii.volume_terms.terms": "count",
        "lidskii.volume_terms.useful_ratio": "ratio",
        "closedforms.calls": "count",
        "graphs.calls": "count",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"verify.{suite}.wall_s": "s" for suite in SUITES})
    units.update({
        "verify.render.self_s": "s",
        "verify.pool.critical_case_s": "s",
        "verify.pool.balance": "ratio",
        "bench.self_s": "s",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_values(trace: dict, untraced_wall_s: float, par2_wall_s: float | None) -> dict:
    fns = trace["functions"]
    values: dict[str, float] = {}
    for name, figures in FUNCTION_FIGURES:
        fig = fns[name]
        for figure in figures:
            if figure == "words":
                values[f"{name}.words"] = fig["items"]
            elif figure == "repeat_ratio":
                values[f"{name}.repeat_ratio"] = _ratio(fig["repeats"], fig["calls"])
            else:
                values[f"{name}.{figure}"] = fig[figure]
    cache = trace["volume_terms_cache"]
    values["lidskii.volume_terms.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    values["lidskii.volume_terms.terms"] = trace["volume_terms_terms"]
    values["lidskii.volume_terms.useful_ratio"] = _ratio(
        trace["volume_terms_terms"], trace["volume_terms_count_flows"])
    for layer in ("closedforms", "graphs"):
        values[f"{layer}.calls"] = sum(
            fig["calls"] for name, fig in fns.items() if name.startswith(layer + "."))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["layer_self_s"][layer]
    # a copy of verify.SUITES, which a test holds equal; a suite missing
    # from a verify trace raises rather than reading 0
    suite_wall = trace.get("suite_wall_s")
    for suite in SUITES:
        values[f"verify.{suite}.wall_s"] = suite_wall[suite] if suite_wall else 0.0
    values["verify.render.self_s"] = sum(
        fns[f"verify.render_{fmt}"]["self_s"] for fmt in ("text", "csv", "json"))
    # case times from the trace, scaled by untraced over traced wall time so
    # that the tracing overhead does not inflate them
    scale = _ratio(untraced_wall_s, trace["traced_wall_s"])
    cases = [seconds * scale for seconds in trace.get("case_s", [])]
    values["verify.pool.critical_case_s"] = max(cases, default=0.0)
    values["verify.pool.balance"] = (
        _ratio(sum(cases), 2 * par2_wall_s) if par2_wall_s is not None else 0.0)
    values["bench.self_s"] = trace["bench_self_s"]
    values["trace.spans"] = trace["spans"]
    values["trace.wall_s"] = trace["traced_wall_s"]
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_s"] = trace["traced_wall_s"] - untraced_wall_s
    return values


def frontier(result: dict) -> dict[str, int]:
    """Per family/path of the Ehrhart sweep, the largest n at which every
    query of one pass finished within FRONTIER_BUDGET_S.  A step function of
    timing, so it is recorded and never gated."""
    worst: dict[tuple[str, int], float] = {}
    for label, seconds in zip(result["labels"], result["items"]):
        family, path, n, _ = label.split("/")
        key = (f"{family}/{path}", int(n))
        worst[key] = max(worst.get(key, 0.0), seconds)
    reach: dict[str, int] = {}
    for (route, n), seconds in sorted(worst.items()):
        if seconds <= FRONTIER_BUDGET_S and reach.get(route, n - 1) == n - 1:
            reach[route] = n
    return reach


def noise_loop() -> float:
    """A fixed pure-Python loop, timed so that machine drift can be told
    from a regression; recorded, never gated."""
    start = time.perf_counter()
    acc = 0
    for i in range(NOISE_LOOP_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


class Runner:
    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.out_dir = os.path.join(HERE, "out")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # the warm-up pass writes bytecode that later passes read, so that
        # set-up time never includes compiling flowvol
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.join(self.out_dir, "pycache")
        self.env = env

    def child(self, workload: str, mode: str) -> dict:
        """Run one pass in a fresh interpreter, killing its process group
        if it outlives the run's time limit."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(self.seed), "--mode", mode, "--out", self.out_dir]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{workload} {mode} pass exceeded the run's time limit")
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} {mode} pass exited with {proc.returncode}")
        return json.loads(out.splitlines()[-1])


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def timed_run(runner: Runner, workload: str, seconds: float) -> tuple[dict, list[dict], list[float]]:
    count = pass_count(workload, seconds)
    setup_only = -(-(SETUP_SAMPLES - count) // count)  # per timed pass, rounded up
    passes: list[dict] = []
    setups: list[float] = []
    for _ in range(count):
        setups += [runner.child(workload, "setup")["setup_s"] for _ in range(setup_only)]
        passes.append(runner.child(workload, "timed"))
        setups.append(passes[-1]["setup_s"])
    # every pass issues the same calls in the same order; each call counts
    # with its best latency over the passes, because on a shared host other
    # tenants slow the cores by half or more in phases of seconds to minutes
    best_items = [min(column) for column in zip(*(result["items"] for result in passes))]
    p50, p90 = _percentiles(best_items)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best_items),
        "item_p50_ms": p50 * 1000.0,
        "item_p90_ms": p90 * 1000.0,
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in passes),
    }
    return metrics, passes, setups


def _percentiles(items: list[float]) -> tuple[float, float]:
    if len(items) == 1:
        return items[0], items[0]
    cuts = statistics.quantiles(items, n=10, method="inclusive")
    return cuts[4], cuts[8]


def traced_run(runner: Runner, workload: str) -> tuple[dict, list[dict], dict]:
    # the pool's workers cannot be traced from here, so verify-grid-par2
    # takes its per-layer figures from a sequential trace and adds the
    # balance of the sequential case times over its own wall time
    passes = []
    par2_wall_s = None
    traced_workload = workload
    if workload == "verify-grid-par2":
        passes.append(runner.child(workload, "timed"))
        par2_wall_s = passes[-1]["wall_s"]
        traced_workload = "verify-grid"
    untraced = runner.child(traced_workload, "timed")
    traced = runner.child(traced_workload, "traced")
    passes += [untraced, traced]
    metrics = per_layer_values(traced["trace"], untraced["wall_s"], par2_wall_s)
    extra = {}
    if workload == "ehrhart-sweep":
        extra["frontier_max_n"] = frontier(untraced)
        extra["frontier_budget_s"] = FRONTIER_BUDGET_S
    with open(os.path.join(runner.out_dir, f"{workload}.trace-summary.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"trace": traced["trace"], **extra}, handle, indent=1)
    return metrics, passes, extra


def verdict(passes: list[dict]) -> dict:
    """The result's correctness fields: a run is correct only when no item
    of any pass failed."""
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flowvol benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowvol", "__init__.py")):
        print("error: run from the root of a flowvol checkout (src/flowvol not found)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.seed)
    os.makedirs(runner.out_dir, exist_ok=True)

    info: dict = {"workload": args.workload, "seed": args.seed}
    try:
        runner.child(args.workload, "setup")  # warm-up: compiles bytecode, untimed
        info["noise_loop_s"] = noise_loop()
        if args.trace:
            values, passes, extra = traced_run(runner, args.workload)
            units = per_layer_units()
            info.update(extra)
        else:
            values, passes, setups = timed_run(runner, args.workload, args.seconds)
            units = END_TO_END_UNITS
            info.update(
                passes=len(passes),
                item_samples=len(passes[0]["items"]),
                setup_samples=len(setups),
                pass_wall_s=[result["wall_s"] for result in passes],
            )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = verdict(passes)
    info["fail_ratio"] = result["failed"] / result["attempted"]
    info["failures"] = [line for one in passes for line in one["failures"]][:10]
    print(json.dumps(info))
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
