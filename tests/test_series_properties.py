"""Property tests for the series ring, driven by hypothesis."""

from collections import defaultdict
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from qlab.series import (
    LaurentSeries,
    PochhammerSpec,
    monomial,
    one,
    pochhammer,
    sum_terms,
    zero,
)


@st.composite
def series(draw, max_len=10):
    min_exp = draw(st.integers(-5, 5))
    n = draw(st.integers(0, max_len))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=n,
            max_size=n,
        )
    )
    return LaurentSeries.from_coeffs(min_exp, coeffs, min_exp + n)


nonzero_series = series().filter(lambda s: not s.is_zero)

finite_poch = st.builds(
    PochhammerSpec,
    sign=st.sampled_from([1, -1]),
    offset=st.integers(-3, 5),
    step=st.integers(1, 4),
    length=st.integers(0, 6),
)


def assert_equal_on_common(a: LaurentSeries, b: LaurentSeries) -> None:
    order = min(a.order, b.order)
    ok, mismatch = a.equal_up_to(b, order)
    assert ok, mismatch


@given(series(), series(), series())
def test_add_associative_and_commutative(a, b, c):
    assert_equal_on_common(a.add(b).add(c), a.add(b.add(c)))
    assert_equal_on_common(a.add(b), b.add(a))


@given(series(), series(), series())
def test_mul_associative(a, b, c):
    assert_equal_on_common(a.mul(b).mul(c), a.mul(b.mul(c)))


@given(series(), series())
def test_mul_commutative(a, b):
    assert_equal_on_common(a.mul(b), b.mul(a))


@given(series(), series(), series())
def test_mul_distributes_over_add(a, b, c):
    assert_equal_on_common(a.mul(b.add(c)), a.mul(b).add(a.mul(c)))


@given(nonzero_series)
def test_mul_by_inverse_is_one(a):
    p = a.mul(a.invert())
    if p.order <= 0:
        return
    assert p.coefficient(0) == 1
    for k in range(p.min_exp, p.order):
        if k != 0:
            assert p.coefficient(k) == 0, f"q^{k} in a * a^-1"


@given(nonzero_series)
def test_inverse_window(a):
    inv = a.invert()
    assert inv.min_exp == -a.min_exp
    assert inv.order == a.order - 2 * a.min_exp


@given(finite_poch, st.integers(5, 30))
def test_pochhammer_defining_recursion(spec, order):
    longer = pochhammer(PochhammerSpec(spec.sign, spec.offset, spec.step, spec.length + 1), order)
    shorter = pochhammer(spec, order)
    e = spec.offset + spec.length * spec.step
    factor = one(order + abs(e) + 1).sub(monomial(spec.sign, e, order + abs(e) + 1))
    assert_equal_on_common(longer, shorter.mul(factor))


@given(series(), series(), st.integers(1, 4))
def test_substitute_power_is_ring_homomorphism(a, b, k):
    assert_equal_on_common(
        a.add(b).substitute_power(k), a.substitute_power(k).add(b.substitute_power(k))
    )
    assert_equal_on_common(
        a.mul(b).substitute_power(k), a.substitute_power(k).mul(b.substitute_power(k))
    )


@given(finite_poch, st.integers(2, 20), st.integers(2, 20))
def test_pochhammer_window_contract_soundness(spec, n1, n2):
    """Evaluating at a larger order never changes the coefficients below."""
    lo, hi = min(n1, n2), max(n1, n2)
    a = pochhammer(spec, lo)
    b = pochhammer(spec, hi)
    ok, mismatch = a.equal_up_to(b, min(lo, a.order, b.order))
    assert ok, mismatch


@settings(max_examples=60)
@given(st.integers(-3, 3), st.integers(1, 3), st.integers(5, 25), st.integers(5, 25))
def test_infinite_pochhammer_window_soundness(offset, step, n1, n2):
    spec = PochhammerSpec(1, offset, step, None)
    lo, hi = min(n1, n2), max(n1, n2)
    a = pochhammer(spec, lo)
    b = pochhammer(spec, hi)
    ok, mismatch = a.equal_up_to(b, min(lo, a.order, b.order))
    assert ok, mismatch


@given(series(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_scale_matches_monomial_multiplication(a, c):
    if a.order <= 0:
        return
    assert_equal_on_common(a.scale(c), a.mul(monomial(c, 0, a.order)) if c else a.scale(0))


@given(series())
def test_canonical_representation(a):
    assert len(a.nums) == a.order - a.min_exp
    assert a.den >= 1
    if a.nums:
        assert a.nums[0] != 0
    else:
        assert a.min_exp == a.order


# ----------------------------------------------------------------------
# sum_terms, add and sub against a dict-of-Fraction reference
#
# The reference reads coefficients through ``coeffs`` and sums them in a
# dict, so it shares no code with the integer window the engine adds into.

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def canonical(s: LaurentSeries) -> tuple:
    return (s.min_exp, s.order, s.den, s.nums)


def reference_canonical(total: dict, order: int) -> tuple:
    """``canonical`` of the series with coefficients ``total`` below ``order``."""
    support = [k for k, c in total.items() if c and k < order]
    if not support:
        return (order, order, 1, ())
    lo = min(support)
    den = lcm(*(total[k].denominator for k in support))
    return (lo, order, den, tuple(int(total.get(k, 0) * den) for k in range(lo, order)))


def reference_sum(terms, order: int) -> tuple:
    total: dict = defaultdict(Fraction)
    for t in terms:
        if t.min_exp >= order:
            break
        for i, c in enumerate(t.coeffs):
            total[t.min_exp + i] += c
    return reference_canonical(total, order)


@st.composite
def summands(draw):
    """A target order and terms that close it: each reaches at least the
    target, some are negations of earlier ones (cancellation), and the
    last term clears the window."""
    order = draw(st.integers(-3, 8))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.integers(order - 8, order - 1))
        top = order + draw(st.integers(0, 3))
        coeffs = draw(st.lists(coefficients, min_size=top - m, max_size=top - m))
        terms.append(LaurentSeries.from_coeffs(m, coeffs, top))
    if terms:
        terms += [terms[i].neg() for i in draw(st.lists(st.integers(0, len(terms) - 1)))]
    terms.append(zero(order + draw(st.integers(0, 2))))
    return order, terms


_A = LaurentSeries.from_coeffs(0, [1, Fraction(1, 2), Fraction(-2, 3), 5, 0, 7], 6)
_B = LaurentSeries.from_coeffs(-2, [Fraction(3, 4), 0, 1, Fraction(1, 6), 2, -1, 1, 4, 1, 3], 8)


@example((6, [_A, _B, zero(6)]))  # mixed denominators; the later term lies lower
@example((6, [_A, _B, _A.neg(), _B.neg(), zero(6)]))  # cancels to zero
@example((6, [_B, _A, monomial(Fraction(-3, 4), -2, 6), zero(6)]))  # leading cancellation
@example((4, [_A, _B, monomial(1, 5, 6), _A]))  # terms above the target order
@example((0, [monomial(2, 0, 3), _A]))  # the first term clears the window
@given(summands())
def test_sum_terms_matches_the_fraction_reference(drawn):
    order, terms = drawn
    assert canonical(sum_terms(terms.__getitem__, order)) == reference_sum(terms, order)


@example(_A, _B)
@example(_A, _A)
@example(_B, LaurentSeries.from_coeffs(-5, [1, 0, Fraction(-1, 3), 0, 0, 2], 1))
@given(series(), series())
def test_add_and_sub_match_the_fraction_reference(a, b):
    order = min(a.order, b.order)
    for sign, result in ((1, a.add(b)), (-1, a.sub(b))):
        total: dict = defaultdict(Fraction)
        for s, c in ((a, 1), (b, sign)):
            for i, x in enumerate(s.coeffs):
                total[s.min_exp + i] += c * x
        assert canonical(result) == reference_canonical(total, order)


# ----------------------------------------------------------------------
# invert against Fraction long division


@st.composite
def invertible_series(draw):
    """A series whose stored leading numerator is ±1, ±2 or 3; the common
    denominator is prime to it, so normalising keeps it."""
    min_exp = draw(st.integers(-5, 5))
    lead = draw(st.sampled_from([1, -1, 2, -2, 3]))
    den = draw(st.sampled_from([1, 5, 7]))
    rest = draw(st.lists(st.integers(-9, 9), max_size=12))
    coeffs = [Fraction(x, den) for x in [lead, *rest]]
    return LaurentSeries.from_coeffs(min_exp, coeffs, min_exp + len(coeffs))


def reference_inverse(a: LaurentSeries) -> tuple:
    c = a.coeffs
    inv = [1 / c[0]]
    for k in range(1, len(c)):
        inv.append(-sum(c[i] * inv[k - i] for i in range(1, k + 1)) / c[0])
    total = {k - a.min_exp: x for k, x in enumerate(inv)}
    return reference_canonical(total, a.order - 2 * a.min_exp)


@example(LaurentSeries.from_coeffs(-3, [1, 2, 0, -1, 4, 0, 1], 4))
@example(LaurentSeries.from_coeffs(-2, [-1, 1, 1, 0, -3], 3))
@example(LaurentSeries.from_coeffs(-4, [2, -1, 0, 3, 1, 1, -2], 3))
@example(LaurentSeries.from_coeffs(-1, [Fraction(-2, 5), Fraction(1, 5), 0, 1], 3))
@example(LaurentSeries.from_coeffs(-3, [Fraction(3, 7), 1, -1, 2, 0, 5], 3))
@given(invertible_series())
def test_invert_matches_fraction_long_division(a):
    assert abs(a.nums[0]) in (1, 2, 3)
    assert canonical(a.invert()) == reference_inverse(a)
