"""One pass of a workload in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --out DIR

MODE is ``setup`` (import flowvol and build the inputs only), ``timed``
(then issue the calls, untraced) or ``traced`` (issue them under the span
tracer and report the per-layer summary as well).  The caller puts the
repository's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import spans
import workloads


def measure(workload: str, seed: int, mode: str, out_dir: str) -> dict:
    """Set up, issue every call in order and check the values.

    Set-up time runs from just before flowvol is imported to the first
    call.  A call that raises counts as a failed item."""
    clock = time.perf_counter
    begin = clock()
    inputs = workloads.WORKLOADS[workload](seed, out_dir)
    setup_s = clock() - begin
    result: dict = {"setup_s": setup_s}
    if mode == "setup":
        return result
    tracer = spans.Tracer() if mode == "traced" else None
    modules = {call.module: sys.modules[f"flowvol.{call.module}"] for call in inputs.calls}
    if tracer is not None:
        tracer.install()
    values = []
    times = []
    first = clock()
    for call in inputs.calls:
        fn = getattr(modules[call.module], call.attr)
        start = clock()
        try:
            value = fn(*call.args)
        except Exception as exc:  # counted as a failed item, reported below
            value = exc
        times.append(clock() - start)
        values.append(value)
    wall_s = clock() - first
    if tracer is not None:
        tracer.uninstall()
    failures = inputs.check(values)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        wall_s=wall_s,
        items=times,
        labels=[call.label for call in inputs.calls],
        attempted=inputs.attempted or len(inputs.calls),
        failed=len(failures),
        failures=failures[:5],
        # ru_maxrss is in KiB on Linux; the pool's workers count for par2
        peak_rss_mb=max(usage, children) / 1024.0,
    )
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, wall_s)
        tracer.write(os.path.join(out_dir, f"{workload}"))
    return result


def trace_metrics(tracer: spans.Tracer, traced_wall_s: float) -> dict:
    """Per-function and per-layer figures from the spans of one pass."""
    per_fn = tracer.summarize()
    layers: dict[str, float] = {layer: 0.0 for layer in spans.LAYERS}
    for name, fig in per_fn.items():
        layers[name.split(".")[0]] += fig["self_s"]
    out: dict = {
        "functions": per_fn,
        "layer_self_s": layers,
        "traced_wall_s": traced_wall_s,
        "bench_self_s": traced_wall_s - tracer.roots_duration(),
        "spans": len(tracer.start),
    }
    terms = tracer.originals["lidskii.volume_terms"]
    info = terms.cache_info()
    out["volume_terms_cache"] = {"hits": info.hits, "misses": info.misses}
    out["volume_terms_count_flows"] = tracer.children_of(
        "lidskii.volume_terms", "kostant.count_flows")
    # read after cache_info, since these lookups are hits themselves
    out["volume_terms_terms"] = sum(
        len(terms(key[0][0])) for key in tracer.arg_ids["lidskii.volume_terms"])
    cases = list(tracer.call_spans("verify.evaluate_case"))
    if cases:
        verify = sys.modules["flowvol.verify"]
        suite_of = {
            spec.ident: suite
            for suite in verify.SUITES
            for spec in verify.build_suite(suite)
        }
        per_suite = {suite: 0.0 for suite in verify.SUITES}
        for key, duration in cases:
            per_suite[suite_of[key[0][0]]] += duration
        out["suite_wall_s"] = per_suite
        out["case_s"] = [duration for _, duration in cases]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "traced"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.mode, args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
