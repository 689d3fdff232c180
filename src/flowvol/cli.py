"""Command-line front end.

Exit codes: 0 on success, 1 when computation paths disagree or a suite
records a FAIL, 2 on usage or parse errors, on series values that disagree
at cap and cap+1, on an inexact closed-form division, on a report file that
cannot be written and on running out of memory or recursion depth.

``volume``, ``ehrhart`` and ``ct`` each build a dict of named paths and hand
it to ``_run_paths``: one path prints its value, and ``--method all``
computes every value before it prints any.  The family routes of
``ehrhart --family`` come from ``verify.ehrhart_paths``, the single owner of
the mapping from a family's n to each route's arguments.
"""

from __future__ import annotations

import argparse
import sys

from . import cyclic, dyck, verify
from .ctengine import ct_volume, evaluate, evaluate_series, parse_ct_expression
from .graphs import parse_graph_spec, parse_net_flow
from .kostant import count_flows
from .lidskii import ehrhart_like, volume


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a failed allocation raises MemoryError without a message
        print("error: out of memory", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowvol",
        description="Exact flow-polytope volumes, flow counts, constant terms, "
        "and labeled-path enumeration, with a cross-verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kpf = sub.add_parser("kpf", help="count nonnegative integer flows")
    kpf.add_argument("--graph", required=True, help="ps:<n> | car:<n> | aug:<k>:<spec> | <N>:<i>-<j>,...")
    kpf.add_argument("--flow", required=True, help="comma-separated net supplies (length N or N-1)")
    kpf.set_defaults(handler=_cmd_kpf)

    vol = sub.add_parser("volume", help="normalized flow-polytope volume")
    vol.add_argument("--graph", required=True)
    vol.add_argument("--flow", required=True)
    vol.add_argument("--method", default="kpf", choices=["kpf", "all"])
    vol.set_defaults(handler=_cmd_volume)

    ehr = sub.add_parser("ehrhart", help="volume of the k-fold augmented graph at (1, 0^n)")
    group = ehr.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=["ps", "car"])
    group.add_argument("--graph")
    ehr.add_argument("--n", type=int, help="family size parameter (with --family)")
    ehr.add_argument("--k", type=int, required=True)
    ehr.add_argument(
        "--method", default="kpf", choices=["kpf", "ct", "enum", "closed", "all"]
    )
    ehr.set_defaults(handler=_cmd_ehrhart)

    enum = sub.add_parser("enumerate", help="list or count words")
    enum.add_argument("kind", choices=["ld", "dld", "prefix", "ew"])
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--k", type=int, required=True)
    enum.add_argument("--i", type=int, help="prefix end height (kind=prefix)")
    enum.add_argument("--zeros", type=int, help="exact number of 0-labels (kind=ld)")
    enum.add_argument("--comp", help="comma-separated label counts a_0..a_k (kind=ld|prefix)")
    out = enum.add_mutually_exclusive_group(required=True)
    out.add_argument("--count", action="store_true")
    out.add_argument("--list", action="store_true")
    enum.set_defaults(handler=_cmd_enumerate)

    ct = sub.add_parser("ct", help="iterated constant term of a factor product")
    ct.add_argument("--expr", required=True, help="m:<e1,...,en>; p:<i>^<k>,...; d:<i>-<j>,...")
    ct.add_argument("--method", default="cp", choices=["cp", "series", "all"])
    ct.set_defaults(handler=_cmd_ct)

    ver = sub.add_parser("verify", help="run an identity-grid verification suite")
    ver.add_argument("--suite", required=True, choices=list(verify.SUITES) + ["all"])
    ver.add_argument("--max-n", type=int, dest="max_n")
    ver.add_argument("--max-k", type=int, dest="max_k")
    ver.add_argument("--format", default="text", choices=["text", "json", "csv"])
    ver.add_argument("--out", help="write the report to a file instead of stdout")
    ver.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_kpf(args) -> int:
    graph = parse_graph_spec(args.graph)
    flow = parse_net_flow(args.flow, graph.vertex_count)
    print(count_flows(graph, flow))
    return 0


def _run_paths(method: str, paths: dict) -> int:
    """Print the value of path ``method``, or for "all" compute every path's
    value first, then print ``name=value`` lines and AGREE or DISAGREE."""
    if method != "all":
        print(paths[method]())
        return 0
    values = {name: path() for name, path in paths.items()}
    for name, value in values.items():
        print(f"{name}={value}")
    agree = len(set(values.values())) == 1
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_volume(args) -> int:
    graph = parse_graph_spec(args.graph)
    flow = parse_net_flow(args.flow, graph.vertex_count)
    return _run_paths(args.method, {
        "kpf": lambda: volume(graph, flow),
        # the same Lidskii sum, taken as one constant term
        "ct": lambda: ct_volume(graph, flow),
    })


def _cmd_ehrhart(args) -> int:
    if args.family is not None and args.n is None:
        raise ValueError("--family needs --n")
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    if args.family is not None:
        return _run_paths(args.method, verify.ehrhart_paths(args.family, args.n, args.k))
    graph = parse_graph_spec(args.graph)
    if args.method != "kpf":
        raise ValueError(f"method {args.method!r} needs --family")
    if args.n is not None:
        raise ValueError("--n needs --family")
    return _run_paths(args.method, {"kpf": lambda: ehrhart_like(graph, args.k)})


# the filters each kind of word takes; any other filter given is an error
_KIND_FILTERS = {"ld": ("zeros", "comp"), "dld": (), "prefix": ("i", "comp"), "ew": ()}


def _cmd_enumerate(args) -> int:
    stray = [
        f"--{name}"
        for name in ("zeros", "comp", "i")
        if getattr(args, name) is not None and name not in _KIND_FILTERS[args.kind]
    ]
    if stray:
        raise ValueError(f"kind {args.kind!r} takes no {'/'.join(stray)} filters")
    comp = None
    if args.comp is not None:
        comp = tuple(int(tok) for tok in args.comp.split(","))
    if args.kind == "ld":
        if args.zeros is not None and comp is not None:
            raise ValueError("give at most one of --zeros and --comp")
        words = dyck.labeled_dyck_words(args.n, args.k, zeros=args.zeros, label_counts=comp)
    elif args.kind == "dld":
        words = dyck.doubly_labeled_dyck_words(args.n, args.k)
    elif args.kind == "prefix":
        if args.i is None or comp is None:
            raise ValueError("prefix enumeration needs --i and --comp")
        words = dyck.dyck_prefixes(args.n, args.i, args.k, comp)
    else:
        words = cyclic.extended_words(args.n, args.k)
    if args.count:
        print(sum(1 for _ in words))
        return 0
    for word in words:
        print(word)
    return 0


def _cmd_ct(args) -> int:
    expr = parse_ct_expression(args.expr)
    return _run_paths(args.method, {
        "cp": lambda: evaluate(expr),
        "series": lambda: evaluate_series(expr),
    })


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.max_n, args.max_k)
    if args.format == "text":
        rendered = verify.render_text(report)
    elif args.format == "csv":
        rendered = verify.render_csv(report)
    else:
        rendered = verify.render_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ValueError(f"cannot write the --out file: {exc}") from exc
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
