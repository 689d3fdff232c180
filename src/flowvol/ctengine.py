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
the state when the sweep reaches it.  _plan fixes every position from the
factors once; _sweep, the one loop, runs the pure transforms _open, _spend
and _close.  ct_volume sweeps the Lidskii volume sum as one constant term,
R, what is left of m-n, in a reserved entry that _draw spends (Baldoni, De
Loera and Vergne, Found. Comput. Math. 2004).

The series oracle expands truncated Laurent series at a cap derived from
the expression alone.  Let B_v = max(0, -monomial[v] + sum of B_i + 1 over
the diffs (i, v)).  In a term that survives, x_v's exponent falls from
monomial[v] to at least -B_v as diffs enter v, then only rises to 0, so a
diff leaving v takes l <= B_v.  A cap of max |monomial|, every B_v, and
B_v + 1 where a diff leaves v (l runs below the cap) thus truncates no
surviving term; a smaller cap is refused, and cap+1 is checked too.

The oracle eliminates the variables in increasing order.  At v it
multiplies in v's pow factors, then the diffs leaving v; each only raises
x_v's exponent and no later factor touches x_v, so no term whose exponent
rises above 0 is built, and the last factor at v builds from each term only
the one that lands x_v's exponent on 0 (a = -e_v from a pow factor, l =
-e_v from a diff) and drops x_v from its key.  A key thus holds the
exponents of the variables not yet eliminated, x_v first.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from math import comb

from ._record import Record
from .graphs import DirectedStepGraph, NetFlow, _integers, _pairs, _volume_head


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
        (nvars,) = _integers((nvars,), "nvars")
        if nvars < 1:
            raise ValueError("nvars must be positive")
        monomial = _integers(monomial, "monomial exponent")
        if len(monomial) != nvars:
            raise ValueError("monomial length must equal nvars")
        pow_factors = _pairs(pow_factors, "pow factor entry")
        diff_factors = _pairs(diff_factors, "diff factor entry")
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
    """Exact iterated constant term by one forward sweep over the variables."""
    return _sweep(_plan(expr), {(): 1}, repeat(_open)).get((), 0)


def ct_volume(graph: DirectedStepGraph, flow: NetFlow) -> int:
    """Normalized volume as the constant term of x^(t + indeg) * (sum_i
    a_i/x_i)^(m-n) * prod (x_j - x_i)^-1 over the restriction to the first n
    vertices (t: out-degrees less 1), with lidskii.volume's input checks."""
    head = _volume_head(graph, flow)
    n = len(head)
    inner = tuple(edge for edge in graph.edges if edge[1] <= n)
    ends = [j for _, j in inner]
    monomial = tuple(d - 1 + ends.count(v) for v, d in enumerate(graph.out_degrees()[:n], 1))
    plan = _plan(CTExpression(n, monomial, diff_factors=inner), reserved=1)
    return _sweep(plan, {(graph.edge_count - n,): 1}, [partial(_draw, a=a) for a in head]).get((0,), 0)


def _plan(expr: CTExpression, reserved: int = 0) -> list:
    """One step (shift, p, spends, k) per variable v: shift = -monomial[v], p
    the position of v's pending budget (-1 if none), one (q, grow, exact) per
    diff leaving v, and v's pow multiplicity; `reserved` positions lead."""
    powk, highs = [0] * (expr.nvars + 1), [[] for _ in range(expr.nvars + 1)]
    for i, k in expr.pow_factors:
        powk[i] += k
    for i, j in expr.diff_factors:
        highs[i].append(j)
    # live[c] is the later variable whose pending budget is entry c of a state
    live = [0] * reserved
    plan = []
    for v in range(1, expr.nvars + 1):
        p = live.index(v) if v in live else -1
        if p >= 0:
            del live[p]
        spends = []
        for idx, j in enumerate(highs[v]):
            grow = j not in live
            if grow:
                live.append(j)
            # without a pow factor the last diff takes the whole remainder
            spends.append((live.index(j) + 1, grow, not powk[v] and idx == len(highs[v]) - 1))
        plan.append((-expr.monomial[v - 1], p, spends, powk[v]))
    return plan


def _sweep(plan: list, states: dict, opens) -> dict:
    """The states after the plan's steps, variable v opened by opens' v-th."""
    for (shift, p, spends, k), open_ in zip(plan, opens):
        states = open_(states, shift, p)
        for spend in spends:
            states = _spend(states, *spend)
        states = _close(states, k)
    return states


def _open(states, shift, p):
    """Put v's budget, shift plus its pending entry at position p (none if
    p < 0), at the front of each state; a negative budget ends the term."""
    if p < 0:
        return {(shift,) + state: count for state, count in states.items()} if shift >= 0 else {}
    return {(budget,) + state[:p] + state[p + 1 :]: count
            for state, count in states.items() if (budget := shift + state[p]) >= 0}


def _draw(states, shift, p, a):
    """_open after drawing x_v^-s, s in 0..R, from (sum_i a_i/x_i)^R at entry 0
    with weight comb(R, s) * a^s; s can cover a negative shift."""
    out: dict[tuple[int, ...], int] = {}
    for state, count in states.items():
        left = state[0]
        base, rest = (shift, state[1:]) if p < 0 else (shift + state[p], state[1:p] + state[p + 1 :])
        for s in range(max(0, -base), (left if a else 0) + 1):
            key = (base + s, left - s) + rest
            out[key] = out.get(key, 0) + count * comb(left, s) * a**s
    return out


def _spend(states, q, grow, exact):
    """Spend l of the front budget on a diff leaving v, pushing l + 1 into
    position q (a new one if grow): every l up to the budget, or all if exact."""
    out: dict[tuple[int, ...], int] = {}
    for state, count in states.items():
        s = [*state, 0] if grow else list(state)
        budget, base = s[0], s[q]
        for l in (budget,) if exact else range(budget + 1):
            s[0] = budget - l
            s[q] = base + l + 1
            key = tuple(s)
            out[key] = out.get(key, 0) + count
    return out


def _close(states, k):
    """Close v: the front budget r goes to its pow factor of multiplicity k,
    in comb(k + r - 1, r) ways, and must be 0 without one."""
    if not k:
        return {state[1:]: count for state, count in states.items() if not state[0]}
    out: dict[tuple[int, ...], int] = {}
    for state, count in states.items():
        key = state[1:]
        out[key] = out.get(key, 0) + count * _multiset(k, state[0])
    return out


def evaluate_series_oracle(expr: CTExpression, degree_cap: int) -> int:
    """Truncated-series value at degree_cap, checked against cap+1.  A cap
    below the derived bound on the budgets B_v raises SeriesUnstableError."""
    (degree_cap,) = _integers((degree_cap,), "degree_cap")
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
    pows, highs = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for i, k in expr.pow_factors:
        pows[i].append(k)
    for i, j in expr.diff_factors:
        highs[i].append(j)
    weights = {k: [_multiset(k, a) for a in range(cap + 1)] for _, k in expr.pow_factors}
    # a key holds the exponents of x_v, ..., x_n, x_v first
    poly: dict[tuple[int, ...], int] = {expr.monomial: 1}
    for v in range(1, n + 1):
        left = len(pows[v]) + len(highs[v])
        if not left:
            poly = {exps[1:]: coeff for exps, coeff in poly.items() if not exps[0]}
        for k in pows[v]:
            left -= 1
            poly = _multiply(poly, weights[k], cap, not left)
        for j in highs[v]:
            left -= 1
            poly = _multiply_two(poly, j - v, cap, not left)
    return poly.get((), 0)


def _multiply(poly, weights, cap, last):
    # (1-x_v)^-k = sum_a weights[a] x_v^a, x_v first in the key: its exponent
    # stays in [-cap, 0], since no later factor lowers it, and the last factor
    # at v takes only the a that lands it on 0 and drops it from the key
    out: dict[tuple[int, ...], int] = {}
    if last:
        for exps, coeff in poly.items():
            a = -exps[0]
            if 0 <= a <= cap:
                key = exps[1:]
                out[key] = out.get(key, 0) + coeff * weights[a]
        return out
    for exps, coeff in poly.items():
        base, rest = exps[0], exps[1:]
        for add in range(max(0, -cap - base), min(cap, -base) + 1):
            key = (base + add,) + rest
            out[key] = out.get(key, 0) + coeff * weights[add]
    return out


def _multiply_two(poly, h, cap, last):
    # (x_high - x_v)^-1 = sum_l x_v^l x_high^(-l-1), l < cap, x_high at entry
    # h: l keeps both exponents within the cap and x_v's at most 0, and the
    # last factor at v takes only the l that lands x_v's on 0 and drops it
    out: dict[tuple[int, ...], int] = {}
    if last:
        for exps, coeff in poly.items():
            l = -exps[0]
            high = exps[h] - l - 1
            if 0 <= l < cap and abs(high) <= cap:
                key = exps[1:h] + (high,) + exps[h + 1 :]
                out[key] = out.get(key, 0) + coeff
        return out
    for exps, coeff in poly.items():
        low, high = exps[0], exps[h]
        key = list(exps)
        for l in range(max(0, -cap - low, high - 1 - cap), min(cap - 1, -low, high - 1 + cap) + 1):
            key[0] = low + l
            key[h] = high - l - 1
            tkey = tuple(key)
            out[tkey] = out.get(tkey, 0) + coeff
    return out


def _multiset(n: int, m: int) -> int:
    return comb(n + m - 1, m) if m else 1


def ps_ct_expression(n: int, k: int) -> CTExpression:
    """Chain expression: prod (1-x_i)^-k * prod (x_{i+1}-x_i)^-1."""
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
