"""Exact evaluators for the closed-form counting and volume identities.

These are the comparison targets for the enumeration, flow-count, and
constant-term computation paths.  Prefactors such as 1/(n+1) are handled
by asserting exact divisibility (the divisibility itself is part of what the
verification suites witness).  The printed right-hand sides are evaluated
verbatim; homogeneity-corrected variants are provided separately so the
verifier can report both.

The defining sums of the coefficient lemmas are each one dominant_sum
call, and they are its only callers.  Every function reads an integral
float such as 3.0 as 3 and raises ValueError on any other non-integral one.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Callable, Sequence

from .dyck import _label_counts, iter_dominant, min_constrained_count
from .graphs import NetFlow, _integers, caracol_graph, restrict
from .kostant import count_flows


class InexactDivisionError(ValueError, ArithmeticError):
    """A closed form with a fractional prefactor failed to divide exactly."""


def exact_div(numerator: int, denominator: int) -> int:
    numerator, denominator = _integers((numerator, denominator), "exact_div argument")
    if denominator == 0:
        raise ValueError("exact_div needs a nonzero denominator")
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivisionError(f"{numerator} is not divisible by {denominator}")
    return quotient


def multiset_coeff(n: int, m: int) -> int:
    """Number of size-m multisets over an n-set: C(n+m-1, m)."""
    n, m = _integers((n, m), "multiset_coeff argument")
    if n < 0 or m < 0:
        raise ValueError("multiset_coeff needs nonnegative arguments")
    if n == 0:
        return 1 if m == 0 else 0
    return comb(n + m - 1, m)


def catalan(j: int) -> int:
    (j,) = _integers((j,), "catalan argument")
    if j < 0:
        raise ValueError("catalan needs a nonnegative argument")
    return comb(2 * j, j) // (j + 1)


# -- Ehrhart-like polynomial values ------------------------------------------

def ehrhart_ps_closed(n: int, k: int) -> int:
    n, k = _integers((n, k), "ehrhart_ps_closed argument")
    if n < 2 or k < 1:
        raise ValueError("ehrhart_ps_closed requires n >= 2 and k >= 1")
    return exact_div(comb((k + 1) * n - 2, n), k * n - 1)


def ehrhart_car_closed(n: int, k: int) -> int:
    n, k = _integers((n, k), "ehrhart_car_closed argument")
    if n < 3 or k < 1:
        raise ValueError("ehrhart_car_closed requires n >= 3 and k >= 1")
    return exact_div(comb(k * n + 2 * n - 5, n - 1) * comb(n + k - 3, k - 1), k * n + n - 3)


# -- labeled Dyck word counts --------------------------------------------------

def labeled_dyck_count(n: int, k: int, label_counts: Sequence[int]) -> int:
    """Words of half-length n with a_i down-steps labeled i: the prefixes
    that end at height 0."""
    return prefix_count_closed(n, 0, k, label_counts)


def labeled_dyck_count_by_zeros(n: int, k: int, d: int) -> int:
    """Words of half-length n with exactly d down-steps labeled 0."""
    n, k, d = _integers((n, k, d), "labeled_dyck_count_by_zeros argument")
    if not 0 <= d <= n:
        raise ValueError("d must lie in 0..n")
    return exact_div(
        multiset_coeff(n + 1, d) * multiset_coeff(k * (n + 1), n - d), n + 1
    )


def doubly_labeled_count(n: int, k: int) -> int:
    """Doubly labeled words of half-length n, in closed form."""
    n, k = _integers((n, k), "doubly_labeled_count argument")
    if n < 0 or k < 1:
        raise ValueError("doubly_labeled_count requires n >= 0 and k >= 1")
    big = n + 1
    return exact_div(
        comb(k * big + k + 2 * big - 3, big) * comb(big + k - 2, k - 1),
        k * (big + 1) + big - 2,
    )


def doubly_labeled_count_via_sum(n: int, k: int) -> int:
    """Doubly labeled words counted label-channel by label-channel."""
    n, k = _integers((n, k), "doubly_labeled_count_via_sum argument")
    if n < 0 or k < 1:
        raise ValueError("doubly_labeled_count_via_sum requires n >= 0 and k >= 1")
    return sum(
        labeled_dyck_count_by_zeros(n, k, d) * multiset_coeff(k, n + d)
        for d in range(n + 1)
    )


def prefix_count_closed(n: int, i: int, k: int, label_counts: Sequence[int]) -> int:
    """Prefixes with n up-steps ending at height i with the given labels."""
    n, i, k = _integers((n, i, k), "prefix_count_closed argument")
    if not 0 <= i <= n:
        raise ValueError("height i must lie in 0..n")
    counts = _label_counts(label_counts, k, n - i, "n-i")
    product = i + 1
    for c in counts:
        product *= multiset_coeff(n + 1, c)
    return exact_div(product, n + 1)


# -- coefficient lemmas behind the volume formulas ----------------------------

def dominant_sum(total: int, t: Sequence[int], term: Callable[[tuple[int, ...]], int]) -> int:
    """Sum over s in iter_dominant(total, len(t), t) of total! / prod_i s_i!
    times term(s).  iter_dominant checks the arguments before any factorial
    is taken, so a non-integral one raises ValueError at the call."""
    compositions = iter_dominant(total, len(t), t)
    whole = factorial(max(int(total), 0))  # a negative total has no composition
    return sum(whole // prod(map(factorial, s)) * term(s) for s in compositions)


def tail_multinomial_closed(n: int, k: int, m: int) -> int:
    """Closed count of the dominance-constrained tail compositions."""
    n, k, m = _integers((n, k, m), "tail_multinomial_closed argument")
    if not 1 <= k <= m <= n:
        raise ValueError("tail_multinomial_closed requires 1 <= k <= m <= n")
    if m == n:
        return 1
    return (m - k + 1) * (n - k + 1) ** (n - m - 1)


def tail_multinomial_sum(n: int, k: int, m: int) -> int:
    """Defining sum: multinomials of compositions (s_{k+1}..s_n) of n-m with
    (m, s_{k+1}, ..., s_n) dominating (k, 1, ..., 1)."""
    n, k, m = _integers((n, k, m), "tail_multinomial_sum argument")
    if not 1 <= k <= m <= n:
        raise ValueError("tail_multinomial_sum requires 1 <= k <= m <= n")
    length = n - k
    if length == 0:
        return 1
    # prefix sums of the target, shifted by the fixed head m against k
    t = (k + 1 - m,) + (1,) * (length - 1)
    return dominant_sum(n - m, t, lambda s: 1)


def dominant_power_sum(values: Sequence[int], m: int) -> int:
    """Sum of m! / prod s_i! * prod values[i]^{s_i} over compositions s of m
    dominating all-ones."""
    vals = _integers(values, "power sum value")
    (m,) = _integers((m,), "power sum exponent")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return dominant_sum(m, (1,) * len(vals), lambda s: prod(map(pow, vals, s)))


def dominant_power_sum_pair(m: int, a: int, b: int) -> int:
    """Closed form of the two-value power sum, valid for m >= 2."""
    m, a, b = _integers((m, a, b), "dominant_power_sum_pair argument")
    if m < 2:
        raise ValueError("the closed pair form needs m >= 2")
    return (a + b) ** m - b**m


def dominant_power_sum_triple(m: int, a: int, b: int, c: int) -> int:
    """Closed form of the three-value power sum, valid for m >= 3."""
    m, a, b, c = _integers((m, a, b, c), "dominant_power_sum_triple argument")
    if m < 3:
        raise ValueError("the closed triple form needs m >= 3")
    return (a + b + c) ** m - (b + c) ** m - m * a * c ** (m - 1)


def fan_flow_sum_closed(n: int, p: int, q: int, r: int) -> int:
    """Closed form of the fan-graph flow-count sum; needs p, q, r >= 1."""
    n, p, q, r = _check_pqr(n, p, q, r, "fan_flow_sum_closed")
    if r < 1:
        raise ValueError("the closed form needs r >= 1 (use a defining sum at r = 0)")
    return (p + q - 1) * comb(n + p - 2, n - 1) * (n - 1) ** (r - 1) - comb(
        n + p - 2, n
    ) * (n - 1) ** r


def fan_flow_sum_by_flows(n: int, p: int, q: int, r: int) -> int:
    """Defining sum: flow counts on the fan-plus-path restriction."""
    n, p, q, r = _check_pqr(n, p, q, r, "fan_flow_sum_by_flows")
    inner = restrict(caracol_graph(n + 1), n + 1)
    head = (p - 1, q - 1)
    return dominant_sum(
        r, _pqr_target(n, p, q),
        lambda s: count_flows(inner, NetFlow.with_sink(head + tuple(si - 1 for si in s))),
    )


def fan_flow_sum_by_paths(n: int, p: int, q: int, r: int) -> int:
    """Same sum with each flow count replaced by a min-constrained path count."""
    n, p, q, r = _check_pqr(n, p, q, r, "fan_flow_sum_by_paths")
    return dominant_sum(r, _pqr_target(n, p, q), lambda s: min_constrained_count(n - 1, (q,) + s))


def _check_pqr(n: int, p: int, q: int, r: int, what: str) -> tuple[int, int, int, int]:
    """(n, p, q, r) as ints, once each is in range; ValueError otherwise."""
    n, p, q, r = _integers((n, p, q, r), f"{what} argument")
    if p < 1 or q < 1 or r < 0:
        raise ValueError("need p >= 1, q >= 1, r >= 0")
    if p + q + r != n:
        raise ValueError("p + q + r must equal n")
    if n < 3:
        raise ValueError("need n >= 3")
    return n, p, q, r


def _pqr_target(n: int, p: int, q: int) -> tuple[int, ...]:
    """The t whose dominant compositions of r are the tails (s_3..s_n) with
    (p, q, s_3, ..., s_n) >= (1, ..., 1)."""
    return (3 - p - q,) + (1,) * (n - 3)


# -- printed volume formulas ---------------------------------------------------


def ps_volume_closed(
    ident: str,
    n: int,
    a: int,
    b: int = 0,
    c: int = 0,
    d: int = 0,
    m: int | None = None,
) -> int:
    """Printed right-hand sides for the path-family volumes, verbatim."""
    n, a, b, c, d = _integers((n, a, b, c, d), "ps_volume_closed argument")
    if ident == "EQ1":
        _need(n >= 2, "EQ1 needs n >= 2")
        return a * (a + (n - 1) * b) ** (n - 2)
    if ident == "EQ2":
        _need(n >= 3, "EQ2 needs n >= 3")
        return a * (a + (n - 1) * b) ** (n - 2) + (n - 1) * a * (c - b) * (
            a + (n - 2) * b
        ) ** (n - 3)
    if ident == "EQ3":
        if m is None:
            raise ValueError("EQ3 needs the zero-block parameter m")
        (m,) = _integers((m,), "ps_volume_closed argument")
        _need(1 <= m and n >= m + 2, "EQ3 needs 1 <= m and n >= m + 2")
        return a * sum(
            comb(n, j) * (c - (m + 1 - j) * b) ** j * (a + (n - 1 - j) * b) ** (n - j - 2)
            for j in range(m + 1)
        )
    if ident == "P53":
        _need(n >= 2, "P53 needs n >= 2")
        return (a + b - c) * (a + b + (n - 1) * c) ** (n - 1) - (b - c) * (
            b + (n - 1) * c
        ) ** (n - 1)
    if ident == "P55":
        _need(n >= 2, "P55 needs n >= 2")
        return (
            (a + b + c - 2 * d) * (a + b + c + (n - 2) * d) ** (n - 1)
            - (b + c - 2 * d) * (b + c + (n - 2) * d) ** (n - 1)
            - n * a * (c - d) * (c + (n - 2) * d) ** (n - 2)
        )
    raise ValueError(f"unknown volume identity {ident!r}")


def car_volume_closed(ident: str, n: int, a: int, b: int = 0, c: int = 0) -> int:
    """Printed right-hand sides for the caracol-family volumes, verbatim."""
    n, a, b, c = _integers((n, a, b, c), "car_volume_closed argument")
    if ident == "EQ5":
        _need(n >= 3, "EQ5 needs n >= 3")
        return catalan(n - 2) * a**n * n ** (n - 2)
    if ident == "EQ6":
        _need(n >= 3, "EQ6 needs n >= 3")
        return catalan(n - 2) * a ** (n - 2) * (a + (n - 1) * b) ** (n - 2)
    if ident == "EQCONJ":
        _need(n >= 3, "EQCONJ needs n >= 3")
        return (
            catalan(n - 2)
            * a ** (n - 1)
            * (a + b * (n - 1))
            * (a + b + c * (n - 2)) ** (n - 3)
        )
    if ident == "P58":
        _need(n >= 2, "P58 needs n >= 2")
        return (
            catalan(n - 1) * a ** (n - 1) * (a + n * b) * (a + b + (n - 1) * c) ** (n - 2)
        )
    raise ValueError(f"unknown volume identity {ident!r}")


def eq5_homogeneous(n: int, a: int) -> int:
    """EQ5 with the exponent fixed to the polytope dimension 2n-4."""
    n, a = _integers((n, a), "eq5_homogeneous argument")
    _need(n >= 3, "needs n >= 3")
    return catalan(n - 2) * a ** (2 * n - 4) * n ** (n - 2)


def eqconj_homogeneous(n: int, a: int, b: int, c: int) -> int:
    """EQCONJ with the leading exponent lowered to n-2 (degree 2n-4)."""
    n, a, b, c = _integers((n, a, b, c), "eqconj_homogeneous argument")
    _need(n >= 3, "needs n >= 3")
    return (
        catalan(n - 2) * a ** (n - 2) * (a + b * (n - 1)) * (a + b + c * (n - 2)) ** (n - 3)
    )


def ps3_closed(n: int, a: int, b: int, c: int) -> int:
    """Intro form of the (a, b, c^{n-2}) path-family volume."""
    n, a, b, c = _integers((n, a, b, c), "ps3_closed argument")
    _need(n >= 3, "needs n >= 3")
    return (a + b - c) * (a + b + (n - 2) * c) ** (n - 2) + (-b + c) * (
        b + (n - 2) * c
    ) ** (n - 2)


def ps4_closed(n: int, a: int, b: int, c: int, d: int) -> int:
    """Intro form of the (a, b, c, d^{n-3}) path-family volume."""
    n, a, b, c, d = _integers((n, a, b, c, d), "ps4_closed argument")
    _need(n >= 3, "needs n >= 3")
    return (
        (a + b + c - 2 * d) * (a + b + c + (n - 3) * d) ** (n - 2)
        - (b + c - 2 * d) * (b + c + (n - 3) * d) ** (n - 2)
        - (n - 1) * a * (c - d) * (c + (n - 3) * d) ** (n - 3)
    )


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)
