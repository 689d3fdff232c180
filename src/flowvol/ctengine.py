"""Iterated constant terms of products of (1-x_i)^-k and (x_j-x_i)^-1 factors.

Two independent evaluators are provided.  (x_j-x_i)^-1 with i<j always
expands as x_j^-1 * sum_l (x_i/x_j)^l, so each diff factor carries one
exponent l >= 0 and each pow factor (1-x_i)^-k one exponent r, weighted by
the multiset coefficient comb(k+r-1, r).  A diff factor repeated m times
is (x_j-x_i)^-m, each copy with its own l, just as graphs writes m
parallel edges as m repeated pairs.

The primary evaluator, evaluate, is a forward sweep over the variables in
increasing order and never truncates.  The constant term in x_v asks that
v's budget, -monomial[v] plus l+1 for every diff entering v, be spent
exactly on the l of the diffs leaving v, the rest going to v's pow factor
(or being 0 without one).  The sweep's cut state is therefore the vector
of budgets pushed so far into the later variables, one entry per variable
that some earlier diff enters, and the sweep keeps a dict from that
vector to the number of ways of reaching it.  A variable's entry leaves
the state when the sweep reaches it.

The series oracle expands truncated Laurent series at a cap derived from
the expression alone.  Let B_v = max(0, -monomial[v] + sum of B_i + 1 over
the diffs (i, v)).  In a term that survives, x_v's exponent falls from
monomial[v] to at least -B_v as diffs enter v, then only rises to 0, so a
diff leaving v takes l <= B_v.  A cap of max |monomial|, every B_v, and
B_v + 1 where a diff leaves v (l runs below the cap) thus truncates no
surviving term; a smaller cap is refused, and cap+1 is checked too.

The oracle eliminates the variables in increasing order and drops a term
as soon as the exponent of the variable being eliminated rises above 0.
That is exact: at v it multiplies in v's pow factors and the diffs leaving
v, each of which only raises x_v's exponent, and no later factor touches
x_v, so such a term never reaches the constant term in x_v.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from ._record import Record
from .graphs import DirectedStepGraph, NetFlow, _integers


class SeriesUnstableError(ValueError, ArithmeticError):
    """A cap below the derived one, or series values at cap and cap+1 that disagree."""


class CTExpression(Record):
    """Formal product: monomial * prod (1-x_i)^-k * prod (x_j-x_i)^-1."""

    _fields = ("nvars", "monomial", "pow_factors", "diff_factors")

    def __init__(
        self,
        nvars: int,
        monomial: tuple[int, ...],
        pow_factors: tuple[tuple[int, int], ...] = (),
        diff_factors: tuple[tuple[int, int], ...] = (),
    ) -> None:
        if type(nvars) is not int:
            (nvars,) = _integers((nvars,), "nvars")
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if len(monomial) != nvars:
            raise ValueError("monomial length must equal nvars")
        monomial = _integers(monomial, "monomial exponent")
        # only an entry that is not an int makes the sum not an int: convert only then
        if type(sum(chain(*pow_factors, *diff_factors))) is not int:
            pow_factors = tuple(_integers(factor, "pow factor entry") for factor in pow_factors)
            diff_factors = tuple(_integers(factor, "diff factor entry") for factor in diff_factors)
        for i, k in pow_factors:
            if not 1 <= i <= nvars:
                raise ValueError(f"pow factor index {i} out of range")
            if k < 1:
                raise ValueError("pow factor multiplicity must be >= 1")
        for i, j in diff_factors:
            if not (1 <= i < j <= nvars):
                raise ValueError(f"diff factor ({i},{j}) needs 1 <= i < j <= nvars")
        self.__dict__["nvars"] = nvars
        self.__dict__["monomial"] = monomial
        self.__dict__["pow_factors"] = tuple(sorted(pow_factors))
        self.__dict__["diff_factors"] = tuple(sorted(diff_factors))


def evaluate(expr: CTExpression) -> int:
    """Exact iterated constant term by a forward sweep over the variables,
    whose state is the vector of budgets pending at the later variables."""
    n = expr.nvars
    powk = [0] * (n + 1)
    for i, k in expr.pow_factors:
        powk[i] += k
    highs: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in expr.diff_factors:
        highs[i].append(j)
    # live[c] is the later variable whose pending budget is entry c of a state
    live: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    for v in range(1, n + 1):
        # v's own budget, still to be spent, goes to the front of the state
        shift = -expr.monomial[v - 1]
        opened: dict[tuple[int, ...], int] = {}
        if v in live:
            p = live.index(v)
            del live[p]
            for state, count in states.items():
                budget = shift + state[p]
                if budget >= 0:
                    opened[(budget,) + state[:p] + state[p + 1 :]] = count
        elif shift >= 0:
            opened = {(shift,) + state: count for state, count in states.items()}
        states = opened
        for idx, j in enumerate(highs[v]):
            if j not in live:
                live.append(j)
                states = {state + (0,): count for state, count in states.items()}
            q = live.index(j) + 1
            # without a pow factor the last diff takes the whole remainder
            exact = not powk[v] and idx == len(highs[v]) - 1
            spent: dict[tuple[int, ...], int] = {}
            for state, count in states.items():
                budget = state[0]
                base = state[q]
                s = list(state)
                for l in (budget,) if exact else range(budget + 1):
                    s[0] = budget - l
                    s[q] = base + l + 1
                    key = tuple(s)
                    spent[key] = spent.get(key, 0) + count
            states = spent
        closed: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            weight = _multiset(powk[v], state[0])
            if weight:
                key = state[1:]
                closed[key] = closed.get(key, 0) + count * weight
        states = closed
        if not states:
            return 0
    return states.get((), 0)


def evaluate_series_oracle(expr: CTExpression, degree_cap: int) -> int:
    """Truncated-series value at degree_cap, checked against cap+1.  A cap
    below the derived bound on the budgets B_v raises SeriesUnstableError."""
    need = _series_cap(expr)
    if degree_cap < need:
        raise SeriesUnstableError(f"cap {degree_cap} is below {need}, the monomial and budget bound")
    lo = _series_value(expr, degree_cap)
    hi = _series_value(expr, degree_cap + 1)
    if lo != hi:
        raise SeriesUnstableError(
            f"series values disagree at caps {degree_cap} ({lo}) and {degree_cap + 1} ({hi})"
        )
    return lo


def evaluate_series(expr: CTExpression) -> int:
    """Series oracle at the derived cap, which bounds the budget B_v of every
    variable and so truncates no surviving term."""
    return evaluate_series_oracle(expr, _series_cap(expr))


def _series_cap(expr: CTExpression) -> int:
    budget = [-e for e in expr.monomial]
    widest = [1] + [abs(e) for e in expr.monomial]
    # diffs are sorted, so every diff into i comes before the diffs leaving i
    for i, j in expr.diff_factors:
        spent = max(0, budget[i - 1]) + 1
        budget[j - 1] += spent
        widest.append(spent)
    return max(widest + budget)


def _series_value(expr: CTExpression, cap: int) -> int:
    n = expr.nvars
    poly: dict[tuple[int, ...], int] = {expr.monomial: 1}
    for v in range(1, n + 1):
        for i, k in expr.pow_factors:
            if i == v:
                poly = _multiply(poly, v, [(a, _multiset(k, a)) for a in range(cap + 1)], cap)
        for i, j in expr.diff_factors:
            if i == v:
                poly = _multiply_two(poly, i, j, cap)
        poly = {e: c for e, c in poly.items() if e[v - 1] == 0}
    return poly.get((0,) * n, 0)


def _multiply(poly, var, terms, cap):
    # var is the variable being eliminated and terms ascend in add, so the
    # first exponent above 0 ends the row: no later factor lowers it
    out: dict[tuple[int, ...], int] = {}
    vi = var - 1
    for exps, coeff in poly.items():
        base = exps[vi]
        for add, w in terms:
            e = base + add
            if e > 0:
                break
            if e < -cap:
                continue
            key = exps[:vi] + (e,) + exps[vi + 1 :]
            out[key] = out.get(key, 0) + coeff * w
    return out


def _multiply_two(poly, low, high, cap):
    # (x_high - x_low)^-1 = sum_l x_low^l x_high^(-l-1); low is the variable
    # being eliminated, so l stops where its exponent would pass 0
    out: dict[tuple[int, ...], int] = {}
    li, hi = low - 1, high - 1
    for exps, coeff in poly.items():
        key = list(exps)
        for l in range(min(cap, 1 - exps[li])):
            key[li] = exps[li] + l
            key[hi] = exps[hi] - l - 1
            if abs(key[li]) > cap or abs(key[hi]) > cap:
                continue
            tkey = tuple(key)
            out[tkey] = out.get(tkey, 0) + coeff
    return out


def _multiset(n: int, m: int) -> int:
    return comb(n + m - 1, m) if m else 1


def ps_ct_expression(n: int, k: int) -> CTExpression:
    """Chain expression: prod (1-x_i)^-k * prod (x_{i+1}-x_i)^-1."""
    if type(n) is not int or type(k) is not int:
        n, k = _integers((n, k), "ps_ct_expression argument")
    if n < 2 or k < 1:
        raise ValueError("ps_ct_expression requires n >= 2 and k >= 1")
    return CTExpression(
        nvars=n,
        monomial=(0,) * n,
        pow_factors=tuple((i, k) for i in range(1, n + 1)),
        diff_factors=tuple((i, i + 1) for i in range(1, n)),
    )


def car_ct_expression(n: int, k: int) -> CTExpression:
    """Fan-plus-chain expression: x_1^-1 prod (1-x_i)^-k
    * prod (x_n-x_i)^-1 * prod (x_{i+1}-x_i)^-1 (chain stops at n-1)."""
    if type(n) is not int or type(k) is not int:
        n, k = _integers((n, k), "car_ct_expression argument")
    if n < 2 or k < 1:
        raise ValueError("car_ct_expression requires n >= 2 and k >= 1")
    diffs = [(i, n) for i in range(1, n)]
    diffs += [(i, i + 1) for i in range(1, n - 1)]
    return CTExpression(
        nvars=n,
        monomial=(-1,) + (0,) * (n - 1),
        pow_factors=tuple((i, k) for i in range(1, n + 1)),
        diff_factors=tuple(diffs),
    )


def flow_count_expression(graph: DirectedStepGraph, flow: NetFlow) -> CTExpression:
    """Coefficient-extraction form of the flow count: each edge (i,j)
    contributes x_j*(x_j-x_i)^-1, so m parallel edges give a repeated diff
    factor, and the target coefficient moves into the monomial."""
    if len(flow) != graph.vertex_count:
        raise ValueError("flow length must match the graph")
    monomial = [-a for a in flow.values]
    for _, j in graph.edges:
        monomial[j - 1] += 1
    return CTExpression(
        nvars=graph.vertex_count,
        monomial=tuple(monomial),
        diff_factors=graph.edges,
    )


def format_ct_expression(expr: CTExpression) -> str:
    m = ",".join(str(e) for e in expr.monomial)
    p = ",".join(f"{i}^{k}" for i, k in expr.pow_factors)
    d = ",".join(f"{i}-{j}" for i, j in expr.diff_factors)
    return f"m:{m}; p:{p}; d:{d}"


def parse_ct_expression(text: str) -> CTExpression:
    """Parse ``m:<e1,...,en>; p:<i>^<k>,...; d:<i>-<j>,...`` (p/d may be empty
    or omitted; each section appears at most once)."""
    sections: dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        tag, sep, body = part.partition(":")
        tag = tag.strip()
        if not sep or tag not in ("m", "p", "d"):
            raise ValueError(f"malformed expression section {part!r}")
        if tag in sections:
            raise ValueError(f"repeated expression section {tag}:")
        sections[tag] = body.strip()
    if "m" not in sections:
        raise ValueError("expression needs a monomial section m:<e1,...,en>")
    monomial = tuple(_int(tok) for tok in sections["m"].split(","))
    pows = []
    if sections.get("p"):
        for tok in sections["p"].split(","):
            i, sep, k = tok.partition("^")
            if not sep:
                raise ValueError(f"malformed pow factor {tok!r}")
            pows.append((_int(i), _int(k)))
    diffs = []
    if sections.get("d"):
        for tok in sections["d"].split(","):
            i, sep, j = tok.partition("-")
            if not sep:
                raise ValueError(f"malformed diff factor {tok!r}")
            diffs.append((_int(i), _int(j)))
    return CTExpression(len(monomial), monomial, tuple(pows), tuple(diffs))


def _int(tok: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        raise ValueError(f"malformed integer {tok!r}") from None
