import random

import pytest
from hypothesis import example, given, settings, strategies as st

from flowvol import ctengine
from flowvol.closedforms import ehrhart_car_closed, ehrhart_ps_closed
from flowvol.ctengine import (
    CTExpression,
    SeriesUnstableError,
    car_ct_expression,
    evaluate,
    evaluate_series,
    evaluate_series_oracle,
    format_ct_expression,
    parse_ct_expression,
    ps_ct_expression,
)


def test_chain_instance_n2_k1():
    expr = ps_ct_expression(2, 1)
    assert expr.pow_factors == ((1, 1), (2, 1))
    assert expr.diff_factors == ((1, 2),)
    assert expr.monomial == (0, 0)
    assert evaluate(expr) == 1


def test_fan_instance_n2_k1():
    expr = car_ct_expression(2, 1)
    assert expr.monomial == (-1, 0)
    assert expr.pow_factors == ((1, 1), (2, 1))
    assert expr.diff_factors == ((1, 2),)
    assert evaluate(expr) == 2


def test_trivial_constant():
    assert evaluate(CTExpression(1, (0,))) == 1
    assert evaluate_series_oracle(CTExpression(1, (0,)), 1) == 1


def test_spot_values():
    assert evaluate(ps_ct_expression(3, 2)) == 7
    assert evaluate(ps_ct_expression(2, 3)) == 3
    assert evaluate(car_ct_expression(3, 1)) == 7


def test_series_oracle_spots():
    assert evaluate_series_oracle(ps_ct_expression(2, 1), 6) == 1
    assert evaluate_series_oracle(car_ct_expression(3, 1), 8) == 7


def test_series_oracle_flags_small_caps():
    # a ValueError for the CLI's exit 2, still caught as an ArithmeticError
    for caught in (SeriesUnstableError, ValueError, ArithmeticError):
        with pytest.raises(caught):
            evaluate_series_oracle(ps_ct_expression(4, 2), 1)


def test_series_equals_sweep_on_a_chain():
    assert evaluate_series(ps_ct_expression(4, 2)) == evaluate(ps_ct_expression(4, 2))


# CT of x^-200 (1-x)^-1 is the coefficient of x^200 in 1/(1-x), namely 1;
# a cap below 200 drops the monomial at cap and cap+1 alike
WIDE_MONOMIAL = CTExpression(1, (-200,), ((1, 1),))


def test_series_oracle_rejects_caps_below_the_monomial():
    for cap in (4, 199):
        with pytest.raises(SeriesUnstableError, match="monomial"):
            evaluate_series_oracle(WIDE_MONOMIAL, cap)
    assert evaluate_series_oracle(WIDE_MONOMIAL, 200) == 1
    assert evaluate_series_oracle(CTExpression(2, (0, 9), ((1, 1),), ((1, 2),)), 9) == 0


def test_series_starts_at_the_monomial_width():
    assert evaluate_series(WIDE_MONOMIAL) == evaluate(WIDE_MONOMIAL) == 1
    # the derived cap is the monomial's width, 1000
    wider = CTExpression(1, (-1000,), ((1, 1),))
    assert evaluate_series(wider) == evaluate(wider) == 1
    wide_positive = CTExpression(2, (-30, 25), ((1, 1), (2, 1)), ((1, 2),))
    assert evaluate_series(wide_positive) == evaluate(wide_positive)


def test_fan_expression_has_no_duplicate_diffs():
    for n in range(2, 7):
        expr = car_ct_expression(n, 1)
        assert len(set(expr.diff_factors)) == len(expr.diff_factors)
        assert (n - 1, n) in expr.diff_factors


def test_validation_errors():
    with pytest.raises(ValueError):
        CTExpression(2, (0,))
    with pytest.raises(ValueError):
        CTExpression(2, (0, 0), pow_factors=((3, 1),))
    with pytest.raises(ValueError):
        CTExpression(2, (0, 0), pow_factors=((1, 0),))
    with pytest.raises(ValueError):
        CTExpression(2, (0, 0), diff_factors=((2, 1),))


def test_repeated_diff_is_a_power():
    # (x2-x1)^-2 = x2^-2 sum_l (l+1) (x1/x2)^l, so only l = 0 meets x2^2
    expr = CTExpression(2, (0, 2), diff_factors=((1, 2), (1, 2)))
    assert expr.diff_factors == ((1, 2), (1, 2))
    assert evaluate(expr) == evaluate_series(expr) == 1
    # with x1^-1 (1-x1)^-1 the exponents l + r make 1, and x2^3 keeps only
    # l = 1, whose weight in the square is 2
    weighted = CTExpression(2, (-1, 3), ((1, 1),), ((1, 2), (1, 2)))
    assert evaluate(weighted) == evaluate_series(weighted) == 2


def test_monomial_rejects_non_integral_exponents():
    with pytest.raises(ValueError, match="monomial exponent 0.7 is not an integer"):
        CTExpression(1, (0.7,))
    assert CTExpression(1, (2.0,)).monomial == (2,)


def test_factors_reject_non_integral_entries():
    with pytest.raises(ValueError, match="^pow factor entry 1.5 is not an integer$"):
        CTExpression(2, (0, 0), ((1.5, 2),))
    with pytest.raises(ValueError, match="^diff factor entry 2.5 is not an integer$"):
        CTExpression(3, (0, 0, 0), diff_factors=((1, 2.5),))
    # an integral float is read as its int, so every evaluator sees ints
    expr = CTExpression(2, (0, 0), ((1.0, 2),), ((1.0, 2.0),))
    assert expr == CTExpression(2, (0, 0), ((1, 2),), ((1, 2),))
    assert evaluate(expr) == evaluate(CTExpression(2, (0, 0), ((1, 2),), ((1, 2),)))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: CTExpression(2.5, (0, 0), ((1, 2),)), "nvars 2.5"),
        (lambda: ps_ct_expression(3.5, 1), "ps_ct_expression argument 3.5"),
        (lambda: car_ct_expression(3.5, 1), "car_ct_expression argument 3.5"),
    ],
    ids=["nvars", "ps_ct_expression", "car_ct_expression"],
)
def test_expressions_reject_non_integers_at_the_call(call, message):
    # each raised TypeError in the evaluator or the builder, or a misleading ValueError
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


def test_integral_float_sizes_are_read_as_ints():
    expr = CTExpression(2.0, (0, 0), ((1, 2),))
    assert type(expr.nvars) is int
    assert evaluate(expr) == evaluate(CTExpression(2, (0, 0), ((1, 2),)))
    assert ps_ct_expression(3.0, 2.0) == ps_ct_expression(3, 2)
    assert car_ct_expression(3.0, 2.0) == car_ct_expression(3, 2)


def test_chain_identity_small_grid():
    for n in range(2, 5):
        for k in range(1, 4):
            assert evaluate(ps_ct_expression(n, k)) == ehrhart_ps_closed(n, k)


def test_fan_identity_grid():
    # the n-variable fan expression carries the identity one index up
    for n in range(2, 7):
        for k in range(1, 4):
            assert evaluate(car_ct_expression(n, k)) == ehrhart_car_closed(n + 1, k)


def test_fan_expression_counts_doubly_labeled_words():
    from flowvol.dyck import doubly_labeled_dyck_words

    for n in range(2, 5):
        for k in range(1, 3):
            objects = sum(1 for _ in doubly_labeled_dyck_words(n - 1, k))
            assert evaluate(car_ct_expression(n, k)) == objects


def test_dual_evaluators_agree_on_family_expressions():
    for n in range(2, 6):
        for k in range(1, 4):
            ps = ps_ct_expression(n, k)
            car = car_ct_expression(n, k)
            assert evaluate_series_oracle(ps, 2 * n + 4) == evaluate(ps)
            assert evaluate_series_oracle(car, n * (n + 1) // 2 + n + 2) == evaluate(car)


def random_expression(rng: random.Random) -> CTExpression:
    nvars = rng.randint(1, 4)
    monomial = tuple(rng.randint(-2, 2) for _ in range(nvars))
    pows = tuple(
        (i, rng.randint(1, 2)) for i in range(1, nvars + 1) if rng.random() < 0.7
    )
    pairs = [(i, j) for i in range(1, nvars) for j in range(i + 1, nvars + 1)]
    rng.shuffle(pairs)
    diffs = tuple(sorted(pairs[: rng.randint(0, min(3, len(pairs)))]))
    return CTExpression(nvars, monomial, pows, diffs)


def test_dual_evaluators_agree_on_random_expressions():
    rng = random.Random(20240817)
    for _ in range(40):
        expr = random_expression(rng)
        assert evaluate_series(expr) == evaluate(expr)


@st.composite
def fanned_expression(draw):
    """A random expression plus a fan of diffs: out of one variable to every
    later one, or into the last variable from every earlier one."""
    nvars = draw(st.integers(min_value=2, max_value=5))
    monomial = draw(
        st.lists(st.integers(min_value=-2, max_value=1), min_size=nvars, max_size=nvars)
    )
    powk = draw(st.lists(st.sampled_from((0, 1, 1, 2)), min_size=nvars, max_size=nvars))
    pows = [(i, k) for i, k in enumerate(powk, start=1) if k]
    pairs = [(i, j) for i in range(1, nvars) for j in range(i + 1, nvars + 1)]
    diffs = set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    hub = draw(st.integers(min_value=1, max_value=nvars))
    if draw(st.booleans()):
        diffs |= {(hub, j) for j in range(hub + 1, nvars + 1)}
    else:
        diffs |= {(i, hub) for i in range(1, hub)}
    return CTExpression(nvars, tuple(monomial), tuple(pows), tuple(diffs))


@settings(max_examples=100, deadline=None)
@given(fanned_expression())
def test_evaluate_matches_series_on_fans(expr):
    assert evaluate(expr) == evaluate_series(expr)


# x1 forces l = 7 on the diff, so x2's budget is 6 + 8 = 14 and the value is
# comb(16, 14) = 120: the budget of x2 outgrows the monomial's 7
BUDGET_WIDER_THAN_MONOMIAL = parse_ct_expression("m:-7,-6; p:2^3; d:1-2")
# the diff leaving x1 must take l = 4 = B_1, so a cap of 4, whose l runs
# only to 3, misses the one surviving term: the cap needs B_1 + 1
DIFF_AT_FULL_BUDGET = parse_ct_expression("m:-4,2; p:2^1; d:1-2")


def test_series_cap_covers_budgets_wider_than_the_monomial():
    with pytest.raises(SeriesUnstableError, match="monomial"):
        evaluate_series_oracle(BUDGET_WIDER_THAN_MONOMIAL, 13)
    assert evaluate_series_oracle(BUDGET_WIDER_THAN_MONOMIAL, 14) == 120
    assert evaluate_series(BUDGET_WIDER_THAN_MONOMIAL) == 120


@st.composite
def negative_monomial_expression(draw):
    """Monomial entries in [-8, 8], any set of diffs and pows 1-3: budgets
    that outgrow the monomial and each other."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    monomial = draw(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=nvars, max_size=nvars)
    )
    powk = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=nvars, max_size=nvars))
    pows = [(i, k) for i, k in enumerate(powk, start=1) if k]
    pairs = [(i, j) for i in range(1, nvars) for j in range(i + 1, nvars + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    diffs = [pair for pair, kept in zip(pairs, keep) if kept]
    return CTExpression(nvars, tuple(monomial), tuple(pows), tuple(diffs))


@settings(max_examples=300, deadline=None)
@given(negative_monomial_expression())
@example(BUDGET_WIDER_THAN_MONOMIAL)
@example(DIFF_AT_FULL_BUDGET)
def test_evaluate_matches_series_on_negative_monomials(expr):
    assert evaluate(expr) == evaluate_series(expr)


def test_series_cap_never_consults_evaluate(monkeypatch):
    # nor evaluate's plan, or the two ct witnesses would share their sweep
    def refuse(*args, **kwargs):
        raise AssertionError("the series oracle called evaluate")

    monkeypatch.setattr(ctengine, "evaluate", refuse)
    monkeypatch.setattr(ctengine, "_plan", refuse)
    assert evaluate_series(BUDGET_WIDER_THAN_MONOMIAL) == 120
    assert evaluate_series(DIFF_AT_FULL_BUDGET) == 1
    assert evaluate_series(car_ct_expression(5, 2)) == ehrhart_car_closed(6, 2)


def _unpruned_series_value(expr, cap):
    """The series oracle as it was before it dropped dead terms: every term
    within the cap is kept until the variable's constant term is taken."""
    poly = {expr.monomial: 1}
    for v in range(1, expr.nvars + 1):
        for i, k in expr.pow_factors:
            if i == v:
                terms = [(a, ctengine._multiset(k, a)) for a in range(cap + 1)]
                poly = _unpruned_multiply(poly, v, terms, cap)
        for i, j in expr.diff_factors:
            if i == v:
                poly = _unpruned_multiply_two(poly, i, j, cap)
        poly = {e: c for e, c in poly.items() if e[v - 1] == 0}
    return poly.get((0,) * expr.nvars, 0)


def _unpruned_multiply(poly, var, terms, cap):
    out = {}
    vi = var - 1
    for exps, coeff in poly.items():
        base = exps[vi]
        for add, w in terms:
            e = base + add
            if abs(e) > cap:
                continue
            key = exps[:vi] + (e,) + exps[vi + 1 :]
            out[key] = out.get(key, 0) + coeff * w
    return out


def _unpruned_multiply_two(poly, low, high, cap):
    out = {}
    li, hi = low - 1, high - 1
    for exps, coeff in poly.items():
        key = list(exps)
        for l in range(cap):
            key[li] = exps[li] + l
            key[hi] = exps[hi] - l - 1
            if abs(key[li]) > cap or abs(key[hi]) > cap:
                continue
            tkey = tuple(key)
            out[tkey] = out.get(tkey, 0) + coeff
    return out


@st.composite
def signed_monomial_expression(draw):
    """Up to 5 variables, monomial entries negative, zero and positive, pows
    0-3 per variable and up to 4 diffs, so the unpruned reference stays small."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    monomial = draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=nvars, max_size=nvars)
    )
    powk = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=nvars, max_size=nvars))
    pows = [(i, k) for i, k in enumerate(powk, start=1) if k]
    pairs = [(i, j) for i in range(1, nvars) for j in range(i + 1, nvars + 1)]
    diffs = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
    return CTExpression(nvars, tuple(monomial), tuple(pows), tuple(diffs))


@settings(max_examples=200, deadline=None)
@given(signed_monomial_expression())
@example(BUDGET_WIDER_THAN_MONOMIAL)
@example(DIFF_AT_FULL_BUDGET)
@example(CTExpression(2, (0, 9), ((1, 1),), ((1, 2),)))
def test_dropping_dead_terms_keeps_the_series_value(expr):
    cap = ctengine._series_cap(expr)
    for c in (cap, cap + 1):
        assert ctengine._series_value(expr, c) == _unpruned_series_value(expr, c)


@pytest.mark.parametrize("expr", [car_ct_expression(16, 3), ps_ct_expression(40, 3)], ids=["car16", "ps40"])
def test_series_reaches_the_sweep_frontier(expr):
    assert evaluate_series(expr) == evaluate(expr)


@pytest.mark.parametrize(("family", "n", "k"), [("ps", 20, 3), ("ps", 30, 3), ("car", 12, 2), ("car", 14, 2)])
def test_family_expressions_beyond_the_grid(family, n, k):
    if family == "ps":
        assert evaluate(ps_ct_expression(n, k)) == ehrhart_ps_closed(n, k)
    else:
        assert evaluate(car_ct_expression(n - 1, k)) == ehrhart_car_closed(n, k)


def test_format_parse_round_trip():
    for expr in (
        ps_ct_expression(3, 2),
        car_ct_expression(4, 1),
        CTExpression(2, (-1, 3)),
        CTExpression(3, (0, 0, 0), ((2, 5),), ((1, 3),)),
        CTExpression(3, (-1, 1, 2), ((1, 1),), ((1, 2), (2, 3), (1, 2), (2, 3), (1, 2))),
    ):
        assert parse_ct_expression(format_ct_expression(expr)) == expr
    assert format_ct_expression(parse_ct_expression("m:0,2; d:1-2,1-2")) == "m:0,2; p:; d:1-2,1-2"


def test_parse_examples():
    expr = parse_ct_expression("m:-1,0; p:1^1,2^1; d:1-2")
    assert expr == car_ct_expression(2, 1)
    assert parse_ct_expression("m:0") == CTExpression(1, (0,))


def test_parse_errors():
    for bad in ("", "p:1^1", "m:1,2; p:1", "m:0,0; d:1", "m:x"):
        with pytest.raises(ValueError):
            parse_ct_expression(bad)


@pytest.mark.parametrize(
    ("text", "tag"),
    [
        ("m:-1; p:1^1; p:1^2", "p"),
        ("m:-1; m:-2; p:1^1", "m"),
        ("m:-1,0; d:1-2; p:1^1; d:1-2", "d"),
        ("m:-1; p:; p:1^1", "p"),
    ],
)
def test_parse_rejects_a_repeated_section(text, tag):
    # a second section must never replace the first one silently
    with pytest.raises(ValueError, match=f"repeated expression section {tag}:"):
        parse_ct_expression(text)
