"""Unit tests for the exact Laurent series engine.

Derived expected values are computed by independent oracles defined in this
file (dict-based polynomial convolution, brute-force partition counts,
trial-division divisor counts) and never by the code path under test.
"""

from fractions import Fraction

import pytest

from qlab import series as series_module
from qlab.series import (
    InvalidWindow,
    LaurentSeries,
    NotInvertible,
    OutOfWindow,
    PochhammerSpec,
    TruncationStall,
    monomial,
    one,
    pochhammer,
    sum_terms,
    zero,
)


# ----------------------------------------------------------------------
# independent oracles


def poly_mul(a: dict, b: dict) -> dict:
    """Dict-of-exponents polynomial product, the convolution oracle."""
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def poly_from_binomials(exponents, sign=1) -> dict:
    acc = {0: 1}
    for e in exponents:
        acc = poly_mul(acc, {0: 1, e: -sign})
    return acc


def distinct_partition_count(n: int) -> int:
    """Partitions of n into distinct parts, by explicit descent."""

    def count(rest, max_part):
        if rest == 0:
            return 1
        return sum(count(rest - p, p - 1) for p in range(min(rest, max_part), 0, -1))

    return count(n, n)


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def partition_count(n: int) -> int:
    def count(rest, max_part):
        if rest == 0:
            return 1
        return sum(count(rest - p, p) for p in range(min(rest, max_part), 0, -1))

    return count(n, n)


def series_from_dict(d: dict, min_exp: int, order: int) -> LaurentSeries:
    return LaurentSeries.from_coeffs(
        min_exp, [d.get(k, 0) for k in range(min_exp, order)], order
    )


# ----------------------------------------------------------------------
# monomial


def test_monomial_constant():
    s = monomial(1, 0, 10)
    assert s.coefficient(0) == 1
    assert all(s.coefficient(k) == 0 for k in range(1, 10))
    assert (s.min_exp, s.order) == (0, 10)


def test_monomial_negative_exponent_rational():
    s = monomial(Fraction(-1, 2), -1, 10)
    assert s.coefficient(-1) == Fraction(-1, 2)
    assert s.min_exp == -1


def test_monomial_narrow_window():
    s = monomial(4, 3, 5)
    assert (s.min_exp, s.order) == (3, 5)
    assert s.coefficient(3) == 4 and s.coefficient(4) == 0


def test_monomial_invalid_window():
    with pytest.raises(InvalidWindow):
        monomial(1, 10, 10)


# ----------------------------------------------------------------------
# add / sub / neg / scale


def test_add_cancellation():
    a = one(10).add(monomial(1, 1, 10))
    b = one(10).sub(monomial(1, 1, 10))
    s = a.add(b)
    assert s.coefficient(0) == 2
    assert all(s.coefficient(k) == 0 for k in range(1, 10))


def test_scale_by_quarter():
    s = LaurentSeries.from_coeffs(0, [1, 1, 1], 3).scale(Fraction(1, 4))
    assert s.coeffs == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_sub_self_is_zero():
    a = one(10).add(monomial(1, 1, 10))
    assert a.sub(a).is_zero


def test_add_window_intersection():
    a = LaurentSeries.from_coeffs(-2, [1, 0, 3], 1)
    b = LaurentSeries.from_coeffs(0, [5, 5, 5, 5], 4)
    s = a.add(b)
    assert (s.min_exp, s.order) == (-2, 1)
    assert s.coefficient(0) == 8


# ----------------------------------------------------------------------
# mul


def test_mul_difference_of_squares():
    a = one(10).add(monomial(1, 1, 10))
    b = one(10).sub(monomial(1, 1, 10))
    p = a.mul(b)
    assert p.coefficient(0) == 1 and p.coefficient(2) == -1
    assert p.coefficient(1) == 0 and all(p.coefficient(k) == 0 for k in range(3, 10))


def test_mul_telescoping_geometric():
    geo = one(12).sub(monomial(1, 1, 12)).invert()
    p = one(12).sub(monomial(1, 1, 12)).mul(geo)
    assert p.coefficient(0) == 1
    assert all(p.coefficient(k) == 0 for k in range(1, 12))


def test_mul_three_binomials_against_convolution_oracle():
    expected = poly_from_binomials([1, 2, 3])
    s = (
        one(10)
        .sub(monomial(1, 1, 10))
        .mul(one(10).sub(monomial(1, 2, 10)))
        .mul(one(10).sub(monomial(1, 3, 10)))
    )
    for k in range(8):
        assert s.coefficient(k) == expected.get(k, 0), f"mismatch at q^{k}"


def test_mul_window_rule():
    a = LaurentSeries.from_coeffs(-1, [1, 2, 3], 2)  # window [-1, 2)
    b = LaurentSeries.from_coeffs(1, [4, 5], 3)  # window [1, 3)
    p = a.mul(b)
    assert p.min_exp == 0
    assert p.order == min(a.order + b.min_exp, b.order + a.min_exp)


# ----------------------------------------------------------------------
# invert


def test_invert_geometric():
    inv = one(10).sub(monomial(1, 1, 10)).invert()
    assert all(inv.coefficient(k) == 1 for k in range(10))


def test_invert_laurent_shift():
    s = monomial(1, 1, 10).sub(monomial(1, 2, 10))  # q(1-q), window [1,10)
    inv = s.invert()
    assert inv.min_exp == -1
    assert all(inv.coefficient(k) == 1 for k in range(-1, inv.order))


def test_invert_involution():
    a = LaurentSeries.from_coeffs(0, [1, -1, -1, 0, 0, 1], 6)
    assert a.invert().invert() == a


def test_invert_zero_raises():
    with pytest.raises(NotInvertible):
        zero(5).invert()


def test_invert_nonunit_leading_coefficient():
    a = LaurentSeries.from_coeffs(0, [2, 1, 1], 3)
    p = a.mul(a.invert())
    assert p.coefficient(0) == 1
    assert all(p.coefficient(k) == 0 for k in range(1, p.order))


# ----------------------------------------------------------------------
# substitute_power


def test_substitute_power_basic():
    s = one(4).add(monomial(1, 1, 4)).substitute_power(2)
    assert s.coefficient(0) == 1 and s.coefficient(2) == 1
    assert s.coefficient(1) == 0 and s.order == 8


def test_substitute_power_identity():
    a = LaurentSeries.from_coeffs(-1, [1, 2, 3], 2)
    assert a.substitute_power(1) == a


def test_substitute_power_laurent():
    s = monomial(1, -1, 4).add(monomial(1, 1, 4)).substitute_power(2)
    assert s.coefficient(-2) == 1 and s.coefficient(2) == 1
    assert s.min_exp == -2 and s.order == 8


# ----------------------------------------------------------------------
# pochhammer


def test_pochhammer_finite_against_binomial_oracle():
    expected = poly_from_binomials([1, 2, 3])  # (q;q)_3
    s = pochhammer(PochhammerSpec(1, 1, 1, 3), 10)
    for k in range(10):
        assert s.coefficient(k) == expected.get(k, 0)


def test_pochhammer_infinite_distinct_parts_oracle():
    s = pochhammer(PochhammerSpec(-1, 1, 1, None), 5)
    for n in range(5):
        assert s.coefficient(n) == distinct_partition_count(n), f"n={n}"


def test_pochhammer_empty_product():
    s = pochhammer(PochhammerSpec(1, 4, 2, 0), 8)
    assert s.coefficient(0) == 1
    assert all(s.coefficient(k) == 0 for k in range(1, 8))


def test_pochhammer_negative_offset_factorization():
    # (q^{-1};q^2)_inf = (1 - q^{-1}) (q;q^2)_inf
    lhs = pochhammer(PochhammerSpec(1, -1, 2, None), 8)
    rhs = one(10).sub(monomial(1, -1, 10)).mul(pochhammer(PochhammerSpec(1, 1, 2, None), 10))
    ok, mismatch = lhs.equal_up_to(rhs, 8)
    assert ok, mismatch


# ----------------------------------------------------------------------
# sum_terms


def test_sum_terms_gap_series():
    s = sum_terms(
        lambda n: monomial(1, n * n, 10) if n * n < 10 else zero(10), 10
    )
    squares = {0, 1, 4, 9}
    for k in range(10):
        assert s.coefficient(k) == (1 if k in squares else 0)


def test_sum_terms_divisor_counts_oracle():
    def term(i):
        n = i + 1
        if n >= 5:
            return zero(5)
        w = 5 - n
        body = one(w).sub(monomial(1, n, w)) if n < w else one(w)
        return body.invert().shift(n)

    s = sum_terms(term, 5)
    for n in range(1, 5):
        assert s.coefficient(n) == divisor_count(n), f"n={n}"


def test_sum_terms_stall_on_constant_tails():
    with pytest.raises(TruncationStall):
        sum_terms(lambda n: one(5), 5, cap=10_000)


def test_sum_terms_requires_full_windows():
    with pytest.raises(InvalidWindow):
        sum_terms(lambda n: one(3), 5)


def test_sum_terms_checks_the_window_of_every_term():
    # terms 0 and 1 are accumulated before term 2 arrives short
    def term(n):
        return monomial(1, n, 5 if n < 2 else 4)

    with pytest.raises(InvalidWindow, match=r"^term 2 delivers order 4, sum needs 5$"):
        sum_terms(term, 5)


def test_sum_terms_default_cap_grows_with_the_order(monkeypatch):
    monkeypatch.setattr(series_module, "DEFAULT_TERM_CAP", 3)
    # sum of q^n to order 40 takes 41 evaluations, well past the constant
    geometric = sum_terms(lambda n: monomial(1, n, n + 41), 40)
    assert geometric.nums == (1,) * 40
    with pytest.raises(TruncationStall, match=r"within 43 evaluations"):
        sum_terms(lambda n: one(40), 40)
    with pytest.raises(TruncationStall, match=r"within 3 evaluations"):
        sum_terms(lambda n: monomial(1, -3, -2), -2)
    # an explicit cap is not extended
    with pytest.raises(TruncationStall, match=r"within 7 evaluations"):
        sum_terms(lambda n: monomial(1, n, n + 41), 40, cap=7)


def test_sum_terms_cap_names_the_last_term_and_its_valuation():
    with pytest.raises(
        TruncationStall,
        match=r"^no term cleared order 5 within 7 evaluations: term 6 has valuation -6$",
    ):
        sum_terms(lambda n: monomial(1, -n, 5), 5, cap=7)


# ----------------------------------------------------------------------
# coefficient


def test_coefficient_partition_numbers_oracle():
    euler_inv = pochhammer(PochhammerSpec(1, 1, 1, None), 10).invert()
    assert euler_inv.coefficient(4) == partition_count(4) == 5


def test_coefficient_below_support():
    s = one(5).sub(monomial(1, 2, 5))
    assert s.coefficient(-1) == 0


def test_coefficient_boundary_out_of_window():
    s = one(5)
    with pytest.raises(OutOfWindow):
        s.coefficient(5)


# ----------------------------------------------------------------------
# equal_up_to


def test_equal_up_to_trivial():
    a = one(2).add(monomial(1, 1, 2))
    assert a.equal_up_to(a, 2) == (True, None)


def test_equal_up_to_reports_first_mismatch():
    a = one(2).add(monomial(1, 1, 2))
    b = one(2).add(monomial(2, 1, 2))
    ok, mismatch = a.equal_up_to(b, 2)
    assert not ok
    assert mismatch.exponent == 1
    assert (mismatch.lhs, mismatch.rhs) == (1, 2)


def test_equal_up_to_beyond_window_raises():
    with pytest.raises(OutOfWindow):
        one(3).equal_up_to(one(5), 4)


def test_euler_product_two_routes_order_100():
    """Pentagonal number theorem: sparse sum equals the literal product."""
    direct = pochhammer(PochhammerSpec(1, 1, 1, None), 100)

    def pentagonal(k):
        if k == 0:
            return one(100)
        e1, e2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        if e1 >= 100:
            return zero(100)
        t = monomial((-1) ** k, e1, 100)
        if e2 < 100:
            t = t.add(monomial((-1) ** k, e2, 100))
        return t

    sparse = sum_terms(pentagonal, 100)
    ok, mismatch = direct.equal_up_to(sparse, 100)
    assert ok, mismatch
    # spot anchor against the classical sign pattern
    assert [int(direct.coefficient(k)) for k in range(13)] == [
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: LaurentSeries(0, [0.5, 1], 2),
        lambda: LaurentSeries.from_coeffs(0, [1, 0.5], 2),
        lambda: monomial(0.1, 0, 2),
        lambda: monomial(1, 0, 2).scale(0.1),
    ],
    ids=["constructor", "from_coeffs", "monomial", "scale"],
)
def test_a_float_coefficient_is_a_type_error(make):
    """A float never enters the exact engine, neither as numerators nor as its binary expansion."""
    with pytest.raises(TypeError, match=r"coefficient 0\.[15] is not an int or a Fraction"):
        make()
