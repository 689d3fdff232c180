import re
from itertools import product

import pytest

from flowvol import closedforms as cf
from flowvol.dyck import doubly_labeled_dyck_words, labeled_dyck_words


def test_multiset_coeff():
    assert cf.multiset_coeff(3, 2) == 6
    assert cf.multiset_coeff(5, 0) == 1
    assert cf.multiset_coeff(2, 3) == 4
    assert cf.multiset_coeff(0, 0) == 1
    assert cf.multiset_coeff(0, 2) == 0


def test_catalan():
    assert [cf.catalan(j) for j in range(6)] == [1, 1, 2, 5, 14, 42]


def test_exact_div():
    assert cf.exact_div(12, 4) == 3
    # a ValueError for the CLI's exit 2, still caught as an ArithmeticError
    for caught in (cf.InexactDivisionError, ValueError, ArithmeticError):
        with pytest.raises(caught, match="7 is not divisible by 2"):
            cf.exact_div(7, 2)


def test_ehrhart_ps_closed():
    assert cf.ehrhart_ps_closed(2, 1) == 1
    assert cf.ehrhart_ps_closed(3, 2) == 7
    assert cf.ehrhart_ps_closed(3, 1) == 2


def test_ehrhart_car_closed():
    assert cf.ehrhart_car_closed(3, 1) == 2
    assert cf.ehrhart_car_closed(3, 2) == 7  # k(3k+1)/2 at k=2
    assert cf.ehrhart_car_closed(4, 1) == 7


def test_labeled_dyck_count():
    assert cf.labeled_dyck_count(3, 3, (0, 1, 1, 1)) == 16
    assert cf.labeled_dyck_count(2, 1, (0, 2)) == 2
    assert cf.labeled_dyck_count(0, 3, (0, 0, 0, 0)) == 1


def test_labeled_dyck_count_by_zeros():
    assert cf.labeled_dyck_count_by_zeros(1, 2, 0) == 2
    assert cf.labeled_dyck_count_by_zeros(2, 2, 0) == 7
    for n in range(1, 6):
        assert cf.labeled_dyck_count_by_zeros(n, 3, n) == cf.catalan(n)


def test_by_zeros_sums_over_compositions():
    n, k = 4, 2
    for d in range(n + 1):
        total = 0
        for rest in product(range(n - d + 1), repeat=k):
            if sum(rest) == n - d:
                total += cf.labeled_dyck_count(n, k, (d,) + rest)
        assert total == cf.labeled_dyck_count_by_zeros(n, k, d)


def test_doubly_labeled_count():
    assert cf.doubly_labeled_count(2, 1) == 7
    assert cf.doubly_labeled_count(1, 1) == 2
    assert cf.doubly_labeled_count(0, 4) == 1


def test_doubly_labeled_count_via_sum():
    assert cf.doubly_labeled_count_via_sum(2, 1) == 7
    assert cf.doubly_labeled_count_via_sum(1, 1) == 2
    assert cf.doubly_labeled_count_via_sum(0, 5) == 1
    for n in range(0, 6):
        for k in range(1, 4):
            assert cf.doubly_labeled_count_via_sum(n, k) == cf.doubly_labeled_count(n, k)


def test_doubly_labeled_count_matches_enumeration():
    for n in range(0, 5):
        for k in (1, 2):
            assert cf.doubly_labeled_count(n, k) == sum(
                1 for _ in doubly_labeled_dyck_words(n, k)
            )


def test_prefix_count_closed():
    assert cf.prefix_count_closed(2, 1, 1, (1, 0)) == 2
    assert cf.prefix_count_closed(3, 3, 2, (0, 0, 0)) == 1
    assert cf.prefix_count_closed(3, 1, 2, (1, 1, 0)) == 8


def test_prefix_count_closed_rejects_non_integer_label_counts():
    # (2, 0) after truncation, which gave 5
    with pytest.raises(ValueError, match="^label count 2.5 is not an integer$"):
        cf.prefix_count_closed(3, 1, 1, (2.5, -0.5))


def test_tail_coefficient():
    assert cf.tail_multinomial_closed(3, 2, 2) == 1
    assert cf.tail_multinomial_sum(3, 2, 2) == 1
    assert cf.tail_multinomial_closed(4, 1, 1) == 16
    assert cf.tail_multinomial_sum(4, 1, 1) == 16
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert cf.tail_multinomial_closed(n, k, n) == 1
            assert cf.tail_multinomial_sum(n, k, n) == 1


def test_tail_coefficient_routes_agree():
    for n in range(1, 8):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                assert cf.tail_multinomial_sum(n, k, m) == cf.tail_multinomial_closed(n, k, m)


def test_tail_coefficient_domain():
    with pytest.raises(ValueError):
        cf.tail_multinomial_closed(3, 3, 2)


def test_power_sum_pair():
    assert cf.dominant_power_sum((1, 1), 3) == 7
    assert cf.dominant_power_sum((1, 1), 1) == 0
    for m in range(2, 9):
        for a, b in product((1, 2, 3), repeat=2):
            assert cf.dominant_power_sum((a, b), m) == cf.dominant_power_sum_pair(m, a, b)


def test_power_sum_triple():
    # frozen from the defining dominance sum; note 16, not (a+b+c)^3-(b+c)^3-ac^2
    assert cf.dominant_power_sum((1, 1, 1), 3) == 16
    assert cf.dominant_power_sum_triple(3, 1, 1, 1) == 16
    for m in range(3, 9):
        for a, b, c in product((1, 2, 3), repeat=3):
            assert cf.dominant_power_sum((a, b, c), m) == cf.dominant_power_sum_triple(
                m, a, b, c
            )


def test_power_sum_empty_and_zero():
    assert cf.dominant_power_sum((2, 3), 0) == 0
    assert cf.dominant_power_sum((), 0) == 1


def test_power_sum_rejects_non_integer_values():
    # the value at (1, 2) after truncation, which is 5
    with pytest.raises(ValueError, match="^power sum value 1.5 is not an integer$"):
        cf.dominant_power_sum((1.5, 2), 2)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: cf.tail_multinomial_closed(3, 1.5, 2), "tail_multinomial_closed argument 1.5"),
        (lambda: cf.tail_multinomial_sum(3, 1.5, 2), "tail_multinomial_sum argument 1.5"),
        (lambda: cf.dominant_power_sum_pair(2.5, 1, 1), "dominant_power_sum_pair argument 2.5"),
        (lambda: cf.dominant_power_sum_triple(3.5, 1, 1, 1),
         "dominant_power_sum_triple argument 3.5"),
        (lambda: cf.ps_volume_closed("EQ1", 2.5, 1, 1), "ps_volume_closed argument 2.5"),
        (lambda: cf.ps_volume_closed("EQ1", 3, 1.5, 1), "ps_volume_closed argument 1.5"),
        (lambda: cf.ps_volume_closed("EQ3", 4, 1, 1, 1, m=1.5), "ps_volume_closed argument 1.5"),
        (lambda: cf.car_volume_closed("EQ6", 3, 1.5, 1), "car_volume_closed argument 1.5"),
        (lambda: cf.eq5_homogeneous(3, 0.5), "eq5_homogeneous argument 0.5"),
        (lambda: cf.eqconj_homogeneous(3, 1, 1, 0.5), "eqconj_homogeneous argument 0.5"),
        (lambda: cf.ps3_closed(3.5, 1, 1, 1), "ps3_closed argument 3.5"),
        (lambda: cf.ps4_closed(3, 1, 1, 1, 0.5), "ps4_closed argument 0.5"),
        (lambda: cf.multiset_coeff(2.5, 1), "multiset_coeff argument 2.5"),
        (lambda: cf.catalan(2.5), "catalan argument 2.5"),
        (lambda: cf.ehrhart_ps_closed(2.5, 1), "ehrhart_ps_closed argument 2.5"),
        (lambda: cf.ehrhart_car_closed(3, 1.5), "ehrhart_car_closed argument 1.5"),
        (lambda: cf.labeled_dyck_count_by_zeros(2, 1.5, 1), "labeled_dyck_count_by_zeros argument 1.5"),
        (lambda: cf.doubly_labeled_count(2.5, 1), "doubly_labeled_count argument 2.5"),
        (lambda: cf.doubly_labeled_count_via_sum(2, 1.5), "doubly_labeled_count_via_sum argument 1.5"),
        (lambda: cf.fan_flow_sum_closed(4, 1.5, 1.5, 1), "fan_flow_sum_closed argument 1.5"),
        (lambda: cf.fan_flow_sum_by_flows(4, 1.5, 1.5, 1), "fan_flow_sum_by_flows argument 1.5"),
        (lambda: cf.fan_flow_sum_by_paths(4, 1.5, 1.5, 1), "fan_flow_sum_by_paths argument 1.5"),
        (lambda: cf.exact_div(3, 1.5), "exact_div argument 1.5"),
    ],
    ids=["tail_multinomial_closed", "tail_multinomial_sum", "power_sum_pair", "power_sum_triple",
         "ps_volume_n", "ps_volume_b", "ps_volume_m", "car_volume", "eq5_homogeneous",
         "eqconj_homogeneous", "ps3", "ps4", "multiset_coeff", "catalan", "ehrhart_ps",
         "ehrhart_car", "by_zeros", "doubly_labeled", "doubly_labeled_via_sum", "fan_closed",
         "fan_by_flows", "fan_by_paths", "exact_div"],
)
def test_closed_forms_reject_non_integers(call, message):
    # the closed forms returned a plausible number (the printed volume forms
    # a float), the defining sums and the counting forms a TypeError
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: cf.multiset_coeff(-1, 0), "multiset_coeff needs nonnegative arguments"),
        (lambda: cf.multiset_coeff(2, -1), "multiset_coeff needs nonnegative arguments"),
        (lambda: cf.catalan(-1), "catalan needs a nonnegative argument"),
        (lambda: cf.ehrhart_ps_closed(1, 1), "ehrhart_ps_closed requires n >= 2 and k >= 1"),
        (lambda: cf.ehrhart_ps_closed(2, 0), "ehrhart_ps_closed requires n >= 2 and k >= 1"),
        (lambda: cf.ehrhart_car_closed(2, 1), "ehrhart_car_closed requires n >= 3 and k >= 1"),
        (lambda: cf.ehrhart_car_closed(3, 0), "ehrhart_car_closed requires n >= 3 and k >= 1"),
        (lambda: cf.labeled_dyck_count_by_zeros(2, 1, 3), "d must lie in 0..n"),
        (lambda: cf.labeled_dyck_count_by_zeros(2, 1, -1), "d must lie in 0..n"),
        (lambda: cf.doubly_labeled_count(-1, 1), "doubly_labeled_count requires n >= 0 and k >= 1"),
        (lambda: cf.doubly_labeled_count(2, 0), "doubly_labeled_count requires n >= 0 and k >= 1"),
        (lambda: cf.doubly_labeled_count_via_sum(-1, 1),
         "doubly_labeled_count_via_sum requires n >= 0 and k >= 1"),
        (lambda: cf.doubly_labeled_count_via_sum(2, 0),
         "doubly_labeled_count_via_sum requires n >= 0 and k >= 1"),
        (lambda: cf.prefix_count_closed(2, 3, 1, (0, 0)), "height i must lie in 0..n"),
        (lambda: cf.tail_multinomial_sum(3, 3, 2), "tail_multinomial_sum requires 1 <= k <= m <= n"),
        (lambda: cf.tail_multinomial_sum(3, 0, 2), "tail_multinomial_sum requires 1 <= k <= m <= n"),
        (lambda: cf.dominant_power_sum((1, 1), -1), "m must be nonnegative"),
        (lambda: cf.dominant_power_sum_pair(1, 1, 1), "the closed pair form needs m >= 2"),
        (lambda: cf.dominant_power_sum_triple(2, 1, 1, 1), "the closed triple form needs m >= 3"),
        (lambda: cf.fan_flow_sum_by_paths(4, 0, 2, 2), "need p >= 1, q >= 1, r >= 0"),
        (lambda: cf.fan_flow_sum_by_flows(5, 1, 1, 1), "p + q + r must equal n"),
        (lambda: cf.fan_flow_sum_closed(2, 1, 1, 0), "need n >= 3"),
    ],
    ids=["multiset_coeff-n", "multiset_coeff-m", "catalan", "ehrhart_ps-n", "ehrhart_ps-k",
         "ehrhart_car-n", "ehrhart_car-k", "by_zeros-high", "by_zeros-low", "doubly_labeled-n",
         "doubly_labeled-k", "doubly_labeled_via_sum-n", "doubly_labeled_via_sum-k", "prefix",
         "tail_sum-k-above-m", "tail_sum-k0", "power_sum", "power_sum_pair", "power_sum_triple",
         "pqr-range", "pqr-sum", "pqr-n"],
)
def test_closed_forms_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_closed_forms_read_integral_floats():
    assert cf.catalan(3.0) == cf.catalan(3) == 5
    assert cf.ps_volume_closed("EQ1", 4.0, 2, 1.0) == cf.ps_volume_closed("EQ1", 4, 2, 1)
    assert cf.fan_flow_sum_by_paths(4.0, 2, 1, 1) == cf.fan_flow_sum_closed(4, 2, 1, 1) == 5
    assert type(cf.exact_div(4.0, 2)) is int


def test_exact_div_by_zero_is_a_value_error():
    # it raised ZeroDivisionError, which the CLI does not map to exit 2
    with pytest.raises(ValueError, match="^exact_div needs a nonzero denominator$"):
        cf.exact_div(1, 0)


def test_fan_flow_sum():
    assert cf.fan_flow_sum_closed(3, 1, 1, 1) == 1
    assert cf.fan_flow_sum_by_flows(3, 1, 1, 1) == 1
    assert cf.fan_flow_sum_closed(4, 2, 1, 1) == 5
    assert cf.fan_flow_sum_by_flows(4, 2, 1, 1) == 5
    assert cf.fan_flow_sum_closed(4, 1, 2, 1) == 2
    assert cf.fan_flow_sum_by_flows(4, 1, 2, 1) == 2


def test_fan_flow_sum_routes_agree():
    for n in range(3, 6):
        for p in range(1, n - 1):
            for q in range(1, n - p):
                r = n - p - q
                if r < 1:
                    continue
                closed = cf.fan_flow_sum_closed(n, p, q, r)
                assert cf.fan_flow_sum_by_flows(n, p, q, r) == closed
                assert cf.fan_flow_sum_by_paths(n, p, q, r) == closed


def test_fan_flow_sum_r_zero_defining_only():
    # closed form is undefined at r=0; both defining routes still work
    assert cf.fan_flow_sum_by_flows(4, 2, 2, 0) == cf.fan_flow_sum_by_paths(4, 2, 2, 0)
    with pytest.raises(ValueError):
        cf.fan_flow_sum_closed(4, 2, 2, 0)


def test_ps_volume_closed_spots():
    assert cf.ps_volume_closed("EQ2", 4, 1, 1, 1, 1) == 16
    assert cf.ps_volume_closed("P53", 2, 2, 5, 9) == 24
    assert cf.ps_volume_closed("EQ1", 4, 1, 1, d=1) == 16


def test_car_volume_closed_spots():
    assert cf.car_volume_closed("P58", 2, 1, 1, 5) == 3
    assert cf.car_volume_closed("EQ6", 4, 1, 1) == 32
    for n in range(3, 7):
        a = 2
        assert cf.car_volume_closed("EQ6", n, a, 0) == cf.catalan(n - 2) * a ** (
            2 * n - 4
        )


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        cf.ps_volume_closed("EQ9", 4, 1)
    with pytest.raises(ValueError):
        cf.car_volume_closed("EQ1", 4, 1)


def test_eq3_needs_m():
    with pytest.raises(ValueError):
        cf.ps_volume_closed("EQ3", 5, 1, 1, 1, 1)


def test_homogeneous_variants():
    assert cf.eq5_homogeneous(4, 2) == cf.car_volume_closed("EQ5", 4, 2)
    assert cf.eq5_homogeneous(5, 1) == cf.catalan(3) * 5**3
    assert cf.eqconj_homogeneous(3, 1, 1, 5) == 3


def test_intro_forms_match_shifted_propositions():
    for n in range(3, 8):
        for a, b, c, d in product((1, 2, 3), repeat=4):
            assert cf.ps3_closed(n, a, b, c) == cf.ps_volume_closed("P53", n - 1, a, b, c)
            assert cf.ps4_closed(n, a, b, c, d) == cf.ps_volume_closed(
                "P55", n - 1, a, b, c, d
            )


def test_parking_specialization():
    for n in range(1, 5):
        assert cf.labeled_dyck_count(n, n, (0,) + (1,) * n) == (n + 1) ** (n - 1)
        count = sum(1 for _ in labeled_dyck_words(n, n, label_counts=(0,) + (1,) * n))
        assert count == (n + 1) ** (n - 1)
