import inspect
import json
import re
from math import comb

import pytest

from flowvol import cli, closedforms as cf, ctengine, dyck, kostant, lidskii
from flowvol.cli import main
from flowvol.ctengine import SeriesUnstableError, ct_volume, flow_count_expression, format_ct_expression
from flowvol.graphs import DirectedStepGraph, NetFlow, parse_graph_spec, parse_net_flow

# a unit supply at the start of the 400-vertex Pitman-Stanley graph, with one
# flow per path to the sink: a sweep that recursed once per vertex would
# exceed the interpreter's recursion limit
LONG_PATH_FLOW = ",".join(["1"] + ["0"] * 398)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kpf_path(capsys):
    code, out, _ = run_cli(capsys, "kpf", "--graph", "3:1-2,2-3", "--flow", "1,-1,0")
    assert (code, out) == (0, "1\n")


def test_kpf_implied_sink_entry(capsys):
    code, out, _ = run_cli(capsys, "kpf", "--graph", "3:1-2,1-3,2-3", "--flow", "1,1")
    assert (code, out) == (0, "2\n")


def test_kpf_rejects_disconnected_graph(capsys):
    code, out, err = run_cli(capsys, "kpf", "--graph", "3:1-2", "--flow", "1,-1,0")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_kpf_rejects_bad_flow(capsys):
    code, _, err = run_cli(capsys, "kpf", "--graph", "3:1-2,2-3", "--flow", "1,1,1")
    assert code == 2
    assert "sum" in err


def test_kpf_long_path(capsys):
    code, out, _ = run_cli(capsys, "kpf", "--graph", "ps:400", "--flow", LONG_PATH_FLOW)
    assert (code, out) == (0, "399\n")


def test_volume_car4(capsys):
    code, out, _ = run_cli(capsys, "volume", "--graph", "car:4", "--flow", "1,1,5")
    assert (code, out) == (0, "3\n")


def test_volume_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "volume", "--graph", "car:5", "--flow", "1,2,2,2", "--method", "all"
    )
    # 98 is car_volume_closed("EQ6", 4, 1, 2)
    assert (code, out) == (0, "kpf=98\nct=98\nAGREE\n")


def test_volume_all_methods_reports_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ct_volume", lambda graph, flow: 0)
    code, out, _ = run_cli(
        capsys, "volume", "--graph", "ps:4", "--flow", "1,1,1", "--method", "all"
    )
    assert (code, out) == (1, "kpf=3\nct=0\nDISAGREE\n")


def test_volume_all_methods_on_a_multigraph(capsys):
    # the non-sink part has parallel edges, which the ct route reads as
    # repeated diff factors
    code, out, _ = run_cli(
        capsys, "volume", "--graph", "aug:2:ps:3", "--flow", "1,1,1", "--method", "all"
    )
    assert (code, out) == (0, "kpf=8\nct=8\nAGREE\n")


def test_volume_all_methods_catch_parallel_edges_counted_once(capsys, monkeypatch):
    # a planted error in kostant's grouping of parallel edges: m edges carry
    # x units in one way instead of comb(m+x-1, x)
    monkeypatch.setattr(kostant, "_ways", lambda m, x: 1)
    lidskii.volume_terms.cache_clear()
    try:
        code, out, _ = run_cli(
            capsys, "volume", "--graph", "aug:2:car:5", "--flow", "1,1,1,1,1", "--method", "all"
        )
    finally:
        lidskii.volume_terms.cache_clear()
    assert (code, out) == (1, "kpf=33924\nct=48077\nDISAGREE\n")


def test_volume_all_methods_catch_a_planted_shift_in_the_table(capsys, monkeypatch):
    # t[0] + 1, t[1] - 1 where lidskii computes the shifted out-degrees t, in
    # a copy of the module: the table and its own check at a = (1, 0, ..., 0)
    # move together, and the ct route, which computes t itself, does not
    line = "tuple(d - 1 for d in degs[:n])"
    source = inspect.getsource(lidskii)
    assert source.count(line) == 1
    planted = {"__name__": lidskii.__name__, "__package__": lidskii.__package__,
               "_plant": lambda t: (t[0] + 1, t[1] - 1) + t[2:]}
    exec(compile(source.replace(line, f"_plant({line})"), lidskii.__file__, "exec"), planted)
    monkeypatch.setattr(cli, "volume", planted["volume"])
    code, out, _ = run_cli(capsys, "volume", "--graph", "car:5", "--flow", "1,2,2,2", "--method", "all")
    assert (code, out) == (1, "kpf=18\nct=98\nDISAGREE\n")


def test_volume_all_methods_catch_a_planted_draw_weight(capsys, monkeypatch):
    # comb(R + 1, s) for comb(R, s) in the ct route's draw from (sum a_i/x_i)^R
    monkeypatch.setattr(ctengine, "comb", lambda r, s: comb(r + 1, s))
    code, out, _ = run_cli(capsys, "volume", "--graph", "car:5", "--flow", "1,2,2,2", "--method", "all")
    assert (code, out) == (1, "kpf=98\nct=490\nDISAGREE\n")


def test_volume_rejects_negative_supply(capsys):
    code, out, err = run_cli(capsys, "volume", "--graph", "ps:4", "--flow=-1,2,1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["volume", "--graph", "4:1-2,2-4,1-3,1-4,2-4", "--flow", "2,1,0", "--method", "all"],
    ["volume", "--graph", "4:1-2,2-4,1-3,1-4,2-4", "--flow", "2,1,0"],
    ["volume", "--graph", "3:1-2,1-3", "--flow", "1,0"],
    ["ehrhart", "--graph", "4:1-2,2-4,1-3,1-4,2-4", "--k", "1"],
])
def test_graph_with_a_non_sink_vertex_without_out_edges_exits_2(capsys, argv):
    # these printed a plausible wrong 0 (the first volume is 8)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "has none" in err


@pytest.mark.parametrize(("graph", "flow", "message"), [
    (parse_graph_spec("ps:4"), (1, 1, -2), "net flow length must match the graph"),
    (parse_graph_spec("car:4"), (1, -1, 1, -1), "volume needs nonnegative supplies on every non-sink vertex"),
    (parse_graph_spec("4:1-2,2-4,1-3,1-4,2-4"), (2, 1, 0, -3),
     "volume needs an out-edge at every non-sink vertex; vertex 3 has none"),
    (DirectedStepGraph(1, ()), (0,), "volume needs at least two vertices"),
], ids=["length", "negative", "out-edge", "one-vertex"])
def test_both_volume_routes_reject_the_same_inputs(capsys, monkeypatch, graph, flow, message):
    for route in (lidskii.volume, ct_volume):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(graph, NetFlow(flow))
    # the parser refuses the first and last inputs itself, so they are
    # passed in; with the table route planted to return 0, the ct route
    # alone raises
    monkeypatch.setattr(cli, "parse_graph_spec", lambda text: graph)
    monkeypatch.setattr(cli, "parse_net_flow", lambda text, count: NetFlow(flow))
    monkeypatch.setattr(cli, "volume", lambda graph, flow: 0)
    code, out, err = run_cli(capsys, "volume", "--graph", "-", "--flow", "0", "--method", "all")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ehrhart_ps(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--family", "ps", "--n", "3", "--k", "2")
    assert (code, out) == (0, "7\n")


def test_ehrhart_car_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "ehrhart", "--family", "car", "--n", "3", "--k", "1", "--method", "all"
    )
    assert code == 0
    assert out == "kpf=2\nct=2\nenum=2\nclosed=2\nAGREE\n"


def test_ehrhart_explicit_graph(capsys):
    code, out, _ = run_cli(capsys, "ehrhart", "--graph", "car:4", "--k", "1")
    assert (code, out) == (0, "2\n")


def test_ehrhart_explicit_graph_rejects_family_methods(capsys):
    code, _, err = run_cli(
        capsys, "ehrhart", "--graph", "car:4", "--k", "1", "--method", "ct"
    )
    assert code == 2
    assert "family" in err


@pytest.mark.parametrize("extra", [["--n", "5"], ["--method", "all"], ["--n", "5", "--method", "all"]])
def test_ehrhart_explicit_graph_rejects_family_options(capsys, extra):
    code, out, err = run_cli(capsys, "ehrhart", "--graph", "car:4", "--k", "1", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "family" in err


def _refuse(*args, **kwargs):
    raise ValueError("planted path error")


def _refuse_series(expr):
    raise SeriesUnstableError("planted path error")


# the word route of ehrhart runs third, after kpf and ct have their values
@pytest.mark.parametrize(
    ("module", "target", "replacement", "argv"),
    [
        (cli, "ct_volume", _refuse, ["volume", "--graph", "ps:4", "--flow", "1,1,1"]),
        (dyck, "labeled_dyck_words", _refuse, ["ehrhart", "--family", "ps", "--n", "3", "--k", "2"]),
        (cli, "evaluate_series", _refuse_series, ["ct", "--expr", "m:-1,0; p:1^1,2^1; d:1-2"]),
    ],
    ids=["volume", "ehrhart", "ct"],
)
def test_all_methods_print_nothing_when_a_path_raises(
    capsys, monkeypatch, module, target, replacement, argv
):
    monkeypatch.setattr(module, target, replacement)
    code, out, err = run_cli(capsys, *argv, "--method", "all")
    assert (code, out) == (2, "")
    assert err == "error: planted path error\n"


@pytest.mark.parametrize("method", ["kpf", "ct", "enum", "closed", "all"])
@pytest.mark.parametrize(("family", "n"), [("ps", "1"), ("car", "2"), ("ps", "-1")])
def test_ehrhart_rejects_sizes_below_the_family_minimum(capsys, family, n, method):
    code, out, err = run_cli(
        capsys, "ehrhart", "--family", family, "--n", n, "--k", "1", "--method", method
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "requires n >=" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["ehrhart", "--family", "ps", "--n", "4", "--k", "0"], "--k must be >= 1"),
        (["enumerate", "ld", "--n", "3", "--k", "2", "--zeros", "1", "--comp", "1,1,1", "--count"],
         "give at most one of --zeros and --comp"),
    ],
    ids=["ehrhart-k0", "enumerate-zeros-and-comp"],
)
def test_argument_errors_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_enumerate_ld_list(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "ld", "--n", "2", "--k", "1", "--zeros", "0", "--list"
    )
    assert (code, out) == (0, "UD1UD1\nUUD1D1\n")


def test_enumerate_dld_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "dld", "--n", "2", "--k", "1", "--count")
    assert (code, out) == (0, "7\n")


def test_enumerate_prefix_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "prefix", "--n", "2", "--i", "1", "--k", "1", "--comp", "1,0",
        "--count",
    )
    assert (code, out) == (0, "2\n")


def test_enumerate_prefix_list(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "prefix", "--n", "2", "--i", "1", "--k", "1", "--comp", "1,0",
        "--list",
    )
    assert (code, out) == (0, "UD0U\nUUD0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "2", "--i", "1", "--k", "1"],
        ["--n", "2", "--k", "1", "--comp", "1,0"],
        ["--n", "2", "--k", "1"],
    ],
)
def test_enumerate_prefix_still_needs_i_and_comp(capsys, argv):
    # dyck_prefixes walks every prefix without a filter; the CLI does not
    code, out, err = run_cli(capsys, "enumerate", "prefix", *argv, "--count")
    assert (code, out, err) == (2, "", "error: prefix enumeration needs --i and --comp\n")


def test_enumerate_ew_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ew", "--n", "2", "--k", "1", "--count")
    assert (code, out) == (0, "21\n")


def test_enumerate_rejects_stray_filters(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "dld", "--n", "2", "--k", "1", "--zeros", "0", "--count"
    )
    assert code == 2
    assert "filters" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ld", "--n", "2", "--k", "1", "--i", "1"],
        ["prefix", "--n", "2", "--i", "1", "--k", "1", "--comp", "1,0", "--zeros", "3"],
        ["ew", "--n", "2", "--k", "1", "--comp", "1,1"],
        ["dld", "--n", "2", "--k", "1", "--i", "0"],
    ],
)
def test_enumerate_rejects_filters_the_kind_does_not_take(capsys, argv):
    code, out, err = run_cli(capsys, "enumerate", *argv, "--count")
    assert (code, out) == (2, "")
    assert "takes no" in err


def test_enumerate_ew_rejects_negative_size(capsys):
    code, out, err = run_cli(capsys, "enumerate", "ew", "--n", "-1", "--k", "1", "--count")
    assert (code, out) == (2, "")
    assert "error" in err


def test_ct_evaluate(capsys):
    code, out, _ = run_cli(capsys, "ct", "--expr", "m:-1,0; p:1^1,2^1; d:1-2")
    assert (code, out) == (0, "2\n")


def test_ct_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "ct", "--expr", "m:0,0; p:1^2,2^2; d:1-2", "--method", "all"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("cp=") and lines[1].startswith("series=")
    assert lines[2] == "AGREE"


@pytest.mark.parametrize(
    ("method", "expected"), [("series", "1\n"), ("all", "cp=1\nseries=1\nAGREE\n")]
)
def test_ct_series_beyond_the_default_cap(capsys, method, expected):
    code, out, _ = run_cli(capsys, "ct", "--expr", "m:-200; p:1^1", "--method", method)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    ("method", "expected"), [("series", "120\n"), ("all", "cp=120\nseries=120\nAGREE\n")]
)
def test_ct_series_budget_wider_than_the_monomial(capsys, method, expected):
    code, out, _ = run_cli(capsys, "ct", "--expr", "m:-7,-6; p:2^3; d:1-2", "--method", method)
    assert (code, out) == (0, expected)


def test_ct_unstable_series_exits_2(capsys, monkeypatch):
    def unstable(expr):
        raise SeriesUnstableError("no stable cap found up to 4096")

    monkeypatch.setattr(cli, "evaluate_series", unstable)
    code, out, err = run_cli(capsys, "ct", "--expr", "m:0; p:1^1", "--method", "series")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "stable cap" in err


# the closed forms with 1 added to the numerator that exact_div divides
def _inexact_ps(n, k):
    return cf.exact_div(comb((k + 1) * n - 2, n) + 1, k * n - 1)


def _inexact_car(n, k):
    return cf.exact_div(comb(k * n + 2 * n - 5, n - 1) * comb(n + k - 3, k - 1) + 1, k * n + n - 3)


@pytest.mark.parametrize(("target", "replacement", "argv", "message"), [
    ("ehrhart_ps_closed", _inexact_ps,
     ["ehrhart", "--family", "ps", "--n", "4", "--k", "2", "--method", "closed"], "211 is not divisible by 7"),
    ("ehrhart_car_closed", _inexact_car,
     ["verify", "--suite", "car-ehrhart", "--max-n", "4", "--max-k", "1"], "7 is not divisible by 3"),
], ids=["ehrhart", "verify"])
def test_inexact_closed_form_exits_2(capsys, monkeypatch, target, replacement, argv, message):
    monkeypatch.delenv("FLOWVOL_WORKERS", raising=False)
    monkeypatch.setattr(cf, target, replacement)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("exc", "message"),
    [
        (MemoryError(), "error: out of memory\n"),
        (RecursionError("maximum recursion depth exceeded"), "error: maximum recursion depth exceeded\n"),
    ],
)
@pytest.mark.parametrize("argv", [
    ("kpf", "--graph", "ps:3", "--flow", "1,0,-1"),
    ("ct", "--expr", "m:0; p:1^1", "--method", "all"),
])
def test_resource_errors_exit_2(capsys, monkeypatch, exc, message, argv):
    # exit 1 means only that paths disagree or a case FAILs, never a crash
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(cli, "count_flows", exhausted)
    monkeypatch.setattr(cli, "evaluate", exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_ct_long_path(capsys):
    graph = parse_graph_spec("ps:400")
    expr = flow_count_expression(graph, parse_net_flow(LONG_PATH_FLOW, 400))
    code, out, _ = run_cli(capsys, "ct", "--expr", format_ct_expression(expr))
    assert (code, out) == (0, "399\n")


def test_ct_rejects_malformed(capsys):
    code, _, err = run_cli(capsys, "ct", "--expr", "p:1^1")
    assert code == 2
    assert "monomial" in err


@pytest.mark.parametrize("method", ["cp", "series", "all"])
@pytest.mark.parametrize("expr", ["m:-1; p:1^1; p:1^2", "m:-1; m:-2; p:1^1"])
def test_ct_rejects_a_repeated_section(capsys, expr, method):
    # a second section must not replace the first: p:1^1,1^2 gives 3, and
    # p:1^1; p:1^2 read as p:1^2 would give a plausible wrong 2
    code, out, err = run_cli(capsys, "ct", "--expr", expr, "--method", method)
    assert code == 2
    assert out == ""
    assert "repeated expression section" in err


def test_verify_small_suite_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1"
    )
    assert code == 0
    assert out.startswith("suite ps-ehrhart\n")
    assert "summary pass=3 fail=0 reported=0" in out


def test_verify_byte_identical_runs(capsys):
    args = ("verify", "--suite", "cyclic", "--max-n", "2", "--max-k", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"pass": 3, "fail": 0, "reported": 0}


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "id,params,expected,actual,status"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("id,params")


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(
        capsys,
        "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1",
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(target) in err
    assert not target.exists()


def test_verify_reported_discrepancies_keep_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "volumes", "--max-n", "3")
    assert code == 0
    assert "REPORTED-DISCREPANCY" in out


def test_verify_json_differs_only_in_duration(capsys):
    args = (
        "verify", "--suite", "ps-ehrhart", "--max-n", "2", "--max-k", "1",
        "--format", "json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    a, b = json.loads(first), json.loads(second)
    a.pop("duration_ms"), b.pop("duration_ms")
    assert a == b


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["kpf", "--graph", "nonsense", "--flow", "1"],
        ["kpf", "--graph", "3:1-2,2-3", "--flow", "1,x,0"],
        ["kpf", "--graph", "0:1-2", "--flow", "0"],
        ["volume", "--graph", "ps:2", "--flow", "1"],
        ["enumerate", "ld", "--n", "2", "--k", "1", "--comp", "9,9", "--count"],
        ["ehrhart", "--family", "ps", "--k", "1"],
        ["ct", "--expr", "m:1,2; d:2-1"],
    ],
)
def test_malformed_inputs_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
