"""Differential property tests of the q-product summation driver.

Each drawn term is summed at a truncation order N and again at N + 40; the
two results must agree below N.  The term windows are derived from the
factors' valuations, so a window that is too small shows up as a
disagreement (or an ``InvalidWindow``) here.  ``qsum`` sums its terms
backward as nested products of their ratio, and a closed product ``P(spec)``
is the same sum with ratio 0; both are also checked against a literal route that they do not take: every term built afresh from one
``pochhammer`` series per factor, ``mul`` and one ``invert`` of the
denominator, and the terms added by ``sum_terms``.  The eta route of the
factor-list rule ``_apply`` is checked against the literal binomial passes
it replaces, and sums whose valuations dip or fall against references that
do not share ``qsum``'s cutoff.  Each term's integer plan (``_plan``) is
checked against its literal factor lists at every step: the valuation, zero,
pole or error of each term, and the binomials each step multiplies and
divides by.  The enumeration oracle and the ``builder_forms`` cross-checks
stay the independent witnesses of the catalog's values.
"""

import itertools
import re
import sys
from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab import qfunctions as qf
from qlab import registry
from qlab import series as qs
from qlab.qfunctions import (
    HALF,
    MONO_ONE,
    MONO_Q,
    MONO_ZERO,
    N,
    SIGN,
    Monomial,
    P,
    Poch,
    QTerm,
    build,
    mono,
    one_minus,
    one_plus,
    qsum,
)
from qlab.record import replace
from qlab.series import (
    LaurentSeries,
    NotInvertible,
    PochhammerSpec,
    TruncationStall,
    monomial,
    one,
    pochhammer,
    sum_terms,
    zero,
)

# first exponents go down to -3, so a factor's valuation is at least -6
MAX_NEG_VALUATION = 6


@pytest.fixture(autouse=True, scope="module")
def unmemoized_summing():
    """``qsum.__wrapped__`` here runs with no memo at all: the sum it pulls factors out of is not memoized either.

    Otherwise a route compared with another, or counted, could be a memo hit.
    """
    with patch.object(qf, "qsum", qsum.__wrapped__):
        yield


lengths = st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 3)))


def factors(arg):
    # steps of 1 and fixed offsets with growing lengths keep several
    # negative exponents inside a summand, where the windows matter most
    steps, slopes = st.sampled_from([1, 1, 2, 3]), st.sampled_from([0, 0, 1, 2])
    return st.builds(Poch, arg, steps, lengths, slopes)


# numerators take any sign; a denominator never contains the binomial 1 - q^0
num_factors = factors(st.builds(mono, st.sampled_from([1, -1]), st.integers(-3, 3)))
den_factors = st.one_of(
    factors(st.builds(mono, st.just(-1), st.integers(-3, 3))),
    factors(st.builds(mono, st.just(1), st.integers(1, 4))),
)


@st.composite
def qterms(draw):
    num = tuple(draw(st.lists(num_factors, max_size=3)))
    den = tuple(draw(st.lists(den_factors, max_size=3)))
    # a linear exponent step above every possible valuation swing keeps the
    # term valuations increasing, so the sum's cutoff does not depend on N
    step = MAX_NEG_VALUATION * (len(num) + len(den)) + 1
    exp = (draw(st.integers(0, 1)), draw(st.integers(step, step + 2)), draw(st.integers(-8, 3)))
    start = draw(st.integers(0, 2))
    return QTerm(
        exp,
        num,
        den,
        scale=draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)])),
        ratio=draw(st.sampled_from([MONO_ONE, SIGN, MONO_ZERO, Monomial(Fraction(1, 2), 1)])),
        times_n=start > 0 and draw(st.booleans()),
        start=start,
    )


# the last term below order 17 has width 2, less than the first exponent
# -3 minus the valuation -6 of (q^-3;q)_3: that factor must not be skipped
@example(spec=QTerm((0, 7, 0), (Poch(mono(1, -3), 1, N),)), order=17)
@settings(max_examples=200, deadline=None)
@given(spec=qterms(), order=st.integers(1, 40))
def test_qsum_is_exact_below_its_order(spec, order):
    small = qsum(spec, order)
    assert small.order >= order
    assert small.equal_up_to(qsum(spec, order + 40), order) == (True, None)


# a product is the term at n = 0, which has no factor n
products = qterms().map(lambda spec: replace(spec, start=0, times_n=False))


def product(spec, order):
    """``spec``'s term at n = 0 as a catalog side states it, ``P(spec)``."""
    return P(spec)(order)


@settings(max_examples=200, deadline=None)
@given(spec=products, order=st.integers(1, 40))
def test_a_product_is_exact_below_its_order(spec, order):
    small = product(spec, order)
    assert small.order >= order
    assert small.equal_up_to(product(spec, order + 40), order) == (True, None)


def test_a_product_refuses_a_start_other_than_0():
    """``P`` states the term at n = 0 only; a later term is a sum's business."""
    with pytest.raises(ValueError, match=r"^a product is the term at n = 0, not at start 2$"):
        P(QTerm(start=2))


# ----------------------------------------------------------------------
# the literal product route as the reference


def literal_factor_valuation(sign, offset, step, length):
    """Exact valuation of (sign*q^offset; q^step)_length, or ``None`` if it is 0, binomial by binomial.

    A binomial 1 - sign*q^e with e < 0 leads with -sign*q^e; at e = 0 it is
    the constant 1 - sign, which vanishes for sign = 1.
    """
    v, k, e = 0, 0, offset
    while e <= 0 and (length is None or k < length):
        if e == 0 and sign == 1:
            return None
        v += e
        k += 1
        e += step
    return v


def literal_shift(num, den):
    """Exact valuation of prod(num) / prod(den) of literal factors, or ``None`` when a numerator vanishes.

    A denominator factor that vanishes raises ``NotInvertible``.
    """
    mu_den = [literal_factor_valuation(*f) for f in den]
    if None in mu_den:
        raise NotInvertible("a denominator factor vanishes")
    mu_num = [literal_factor_valuation(*f) for f in num]
    return None if None in mu_num else sum(mu_num) - sum(mu_den)


def reference_product(scale, e, num, den, order):
    """scale * q^e * prod(num) / prod(den), exact below ``order``.

    Each factor is one ``pochhammer`` series as wide as the product's
    window, the factors are multiplied with ``mul`` and the denominator is
    inverted once.  A factor's valuation is the first exponent of its series
    on [valuation, 1); that series is 0 when the factor vanishes.  A zero
    scale gives 0, poles or not.
    """
    if not scale:
        return zero(order)
    lead = {f: pochhammer(PochhammerSpec(*f), 1) for f in num + den}
    if any(lead[f].is_zero for f in den):
        raise NotInvertible("a denominator factor vanishes")
    if any(lead[f].is_zero for f in num):
        return zero(order)
    v = e + sum(lead[f].min_exp for f in num) - sum(lead[f].min_exp for f in den)
    if v >= order:
        return zero(order)
    width = order - v

    def product(factors):
        out = one(width)
        for f in factors:
            out = out.mul(pochhammer(PochhammerSpec(*f), lead[f].min_exp + width))
        return out

    return product(num).mul(product(den).invert()).scale(scale).shift(e)


def literal_at(factors, n):
    """The factors (sign, offset, step, length) of the ``Poch`` tuple ``factors`` at index n.

    A factor that is 1 there (argument 0 or length 0) is left out, and a
    negative length raises.  This is the literal route the plan compiles.
    """
    out = []
    for p in factors:
        sign = p.arg.coeff.numerator
        length = None if p.length is None else p.length[0] * n + p.length[1]
        if not sign or length == 0:
            continue
        if length is not None and length < 0:
            raise ValueError(f"negative Pochhammer length {length} at n={n}")
        out.append((sign, p.arg.power + p.slope * n, p.step, length))
    return out


def reference_term(spec, num, den, n, order):
    """Term n of the sum of ``spec`` over ``num``/``den``, by :func:`reference_product`."""
    e2, e1, e0 = spec.exp
    e = e2 * n * n + (e1 + spec.ratio.power) * n + e0
    if e != int(e):
        raise ValueError(f"non-integral exponent {e} at n={n}")
    scale = spec.scale * spec.ratio.coeff**n * (n if spec.times_n else 1)
    return reference_product(scale, int(e), literal_at(num, n), literal_at(den, n), order)


def result(f, *args):
    """``f(*args)``, or the name of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc).__name__


@example(spec=QTerm(num=(Poch(mono(1, -3), 1, (0, 3)),)), order=5)
@example(spec=QTerm(num=(one_plus(0),)), order=3)
@example(spec=QTerm(den=(one_plus(0),)), order=3)
# (q^-1;q^2)_inf / (-1;q^2)_inf, the shape of the product side of eq-1psi1-sec3
@example(spec=QTerm(num=(Poch(mono(1, -1), 2),), den=(Poch(mono(-1, 0), 2),)), order=20)
@settings(max_examples=200, deadline=None)
@given(spec=products, order=st.integers(1, 40))
def test_a_product_equals_the_literal_product(spec, order):
    expected = result(reference_term, spec, spec.num, spec.den, 0, order)
    assert result(product, spec, order) == expected


@settings(max_examples=100, deadline=None)
@given(spec=qterms(), order=st.integers(1, 40))
def test_sums_and_products_take_no_series_products(spec, order):
    """qsum and P reach the same outcome with every series sum, product and inverse disabled."""
    routes = ((qsum.__wrapped__, spec), (product, replace(spec, start=0, times_n=False)))
    expected = [result(f, s, order) for f, s in routes]
    disabled = (
        (LaurentSeries, "add"),
        (LaurentSeries, "mul"),
        (LaurentSeries, "invert"),
        (qf, "qpoch"),
        (qf, "inv_qpoch"),
    )
    with ExitStack() as stack:
        for owner, name in disabled:
            stack.enter_context(patch.object(owner, name, side_effect=AssertionError(name)))
        assert [result(f, s, order) for f, s in routes] == expected


# ----------------------------------------------------------------------
# the factor-list rule: eta quotients against the literal binomial passes


@st.composite
def applied_terms(draw):
    """An index n > 0 and the numerator and denominator factors of a term, none holding 1 - q^0 at n.

    Each factor (sign*q^(k + slope*n); q^step)_(a*n + b) is drawn at n: its
    first exponent there runs from -4 (a Laurent head of binomials below 0)
    to 3*step, so the first binomial above 0 lands on every residue, the
    half step among them; its slope is mostly not 0, most factors are
    infinite, and a finite length a*n + b runs from 0 to 8 with a from -1
    to 3.
    """
    n = draw(st.integers(1, 4))

    def factor(d):
        step, slope = d(st.integers(1, 6)), d(st.integers(-2, 3))
        length = d(st.one_of(st.none(), st.none(), st.tuples(st.integers(-1, 3), st.integers(0, 8))))
        k = d(st.integers(-4, 3 * step)) - slope * n
        if length is not None:
            length = (length[0], length[1] - length[0] * n)
        return Poch(mono(d(st.sampled_from([1, -1])), k), step, length, slope)

    def factor_list():
        drawn = (factor(draw) for _ in range(draw(st.integers(0, 4))))
        return tuple(p for p in drawn if None not in [literal_factor_valuation(*f) for f in literal_at((p,), n)])

    return n, factor_list(), factor_list()


@example(width=800, drawn=(0, (qf.EULER,), (Poch(mono(-1, 3), 2), Poch(mono(-1, -4), 4))))
@settings(max_examples=100, deadline=None)
@given(width=st.integers(0, 400), drawn=applied_terms())
def test_eta_route_equals_the_literal_passes(width, drawn):
    """_apply's window and constant at n equal the literal passes' and the pochhammer products'.

    ``_apply`` reads a plan's factors at n: offsets k + slope*n and lengths
    a*n + b, down to length 0.  Widths reach past the pentagonal exponents
    51, 57, 70, ..., where a wrong sign would first show.  The literal route
    is _apply with the eta quotients switched off; the second reference
    multiplies the window by one ``pochhammer`` series per factor at n and
    inverts the denominator.
    """
    n, num, den = drawn
    factors = qf._plan(QTerm(num=num, den=den)).factors
    arr = [(7 * k * k + 3 * k + 1) % 19 - 9 for k in range(width)]
    got = arr[:]
    c = qs._apply(got, factors, n)
    literal = arr[:]
    with patch.object(qs, "_eta_quotient", return_value=None):
        assert (got, c) == (literal, qs._apply(literal, factors, n))
    if width:
        num, den = literal_at(num, n), literal_at(den, n)
        mu = literal_shift(num, den)
        window = LaurentSeries(0, arr, width).mul(reference_product(1, 0, num, den, mu + width))
        applied = qs._make(mu, [x * c.numerator for x in got], c.denominator, mu + width)
        assert applied.equal_up_to(window, mu + width) == (True, None)


def counted_apply(width, spec):
    """_apply of the factors of ``spec`` at n = 0 on the window 1 of ``width``: the window, and the literal and pentagonal passes it took.

    Each ``_eta`` call by (q^t;q^t)_inf counts one pass per pentagonal
    exponent below the width.
    """
    counts = Counter()

    def counted(name, fn):
        def pass_(*args):
            counts[name] += 1
            return fn(*args)

        return pass_

    def eta(arr, t, divide):
        counts["pentagonal"] += len(list(qs._pentagonal(-(-len(arr) // t))))
        return original_eta(arr, t, divide)

    original_eta = qs._eta
    factors = qf._plan(spec).factors
    with ExitStack() as stack:
        for name in ("_binomial_factor_inplace", "_binomial_divide_inplace"):
            stack.enter_context(patch.object(qs, name, counted(name, getattr(qs, name))))
        stack.enter_context(patch.object(qs, "_eta", eta))
        arr = [1] + [0] * (width - 1)
        qs._apply(arr, factors, 0)
    return arr, counts


@pytest.mark.parametrize("divide", [False, True])
def test_euler_factor_takes_pentagonal_passes(divide):
    """(q;q)_inf on a window of width 800 takes no literal pass and one slice pass per pentagonal exponent.

    A silent fall-back to the W literal passes fails here, not only runs slowly.
    """
    width = 800
    arr, counts = counted_apply(width, QTerm(den=(qf.EULER,)) if divide else QTerm(num=(qf.EULER,)))
    assert counts["_binomial_factor_inplace"] + counts["_binomial_divide_inplace"] == 0, counts
    assert 0 < counts["pentagonal"] <= 2 * (2 * width / 3) ** 0.5 + 2, counts
    expected = build("euler_inverse" if divide else "euler_product", width, form=1)
    assert [expected.coefficient(k) for k in range(width)] == arr


def test_far_factor_takes_the_literal_passes():
    """(q^700;q)_inf at width 800 takes its 100 literal passes.

    The eta route would undo the 699 binomials below q^700 after its
    pentagonal passes.
    """
    arr, counts = counted_apply(800, QTerm(num=(Poch(mono(1, 700)),)))
    assert counts == {"_binomial_factor_inplace": 100}, counts
    assert arr == [1] + [0] * 699 + [-1] * 100


# ----------------------------------------------------------------------
# a step's rule: the plan's binomials against the literal factor lists


def exponents(factors, below=60):
    """The exponents below ``below`` of the binomials of literal factors (sign, offset, step, length)."""
    ends = ((o, below if length is None else min(below, o + length * t), t) for _, o, t, length in factors)
    return [e for o, end, t in ends for e in range(o, end, t)]


def test_a_factor_steps_by_the_difference_of_its_binomials():
    """A numerator factor loses the binomials at 0 that m lacks and gains the converse, for m = 1, 2, 3.

    Each way they are single binomials (sign, e) of the factor's sign, none
    twice, on at most two runs of the factor's progression.  A step from 0
    to m > 1 passes over the factors in between, among them factors that
    hold 1 - q^0 (a zero term), and starts from factors of length 0.
    """
    lengths = [None, *range(7)]
    across_zero = from_empty = 0
    for sign, step, offset in itertools.product((1, -1), (1, 2, 3), range(-4, 5)):
        # every shift from -3 to 4 steps, and the non-multiples of the step between
        for shift, la, lb in itertools.product(range(-3 * step, 4 * step + 1), lengths, lengths):
            if (la is None) != (lb is None):
                continue  # one factor is finite at every n or at none
            factor = Poch(mono(sign, offset), step, None if la is None else (lb - la, la), shift)
            plan = qf._plan(QTerm(num=(factor,)))
            for m in (1, 2, 3):
                try:
                    a, b = (literal_at((factor,), n) for n in (0, m))
                except ValueError:  # a negative length at m: no sum steps to it
                    continue
                across_zero += any(plan.term(k) is None for k in range(1, m))
                from_empty += la == 0
                gained, lost = plan.net(0, m, 60)
                for pairs, x, y in ((lost, a, b), (gained, b, a)):
                    es = [e for _, e in pairs]
                    assert all(s == sign for s, _ in pairs) and len(set(es)) == len(es), (factor, m, pairs)
                    # a run starts at each exponent whose predecessor by the step is missing
                    assert sum(e - step not in es for e in es) <= 2, (factor, m, pairs)
                    literal = sorted(set(exponents(x)) - set(exponents(y)))
                    assert sorted(e for e in es if e < 60) == literal, (factor, m, pairs)
    assert across_zero and from_empty, (across_zero, from_empty)


class CountingSign(int):
    """A binomial's sign that counts how often it is compared for equality."""

    compared = 0

    def __eq__(self, other):
        CountingSign.compared += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


@pytest.mark.parametrize("count", [50, 200])
def test_a_step_cancels_its_binomials_in_linear_time(count):
    """A step compares binomials of different factors a number of times linear in its lists, not quadratic.

    The numerator is ``count`` binomials 1 - q^(k+n), k = 1, ..., count, so a
    step from n to n + 1 loses 1 - q^(n+k) and gains 1 - q^(n+k+1): all but
    one each way cancel.  The even k come first, so the gained binomial that
    cancels a lost one is about half a list away.  Each factor's sign is a
    counting object of its own, so every comparison of two binomials is
    counted; a search of one list for each entry of the other makes about
    count^2/4.
    """
    ks = [*range(2, count + 1, 2), *range(1, count + 1, 2)]
    plan = qf._plan(QTerm(num=tuple(one_minus(k, 1) for k in ks)))
    plan.factors = [(den, CountingSign(sign), *rest) for den, sign, *rest in plan.factors]
    CountingSign.compared = 0
    mul, div = plan.net(5, 6, 10 * count)
    compared = CountingSign.compared
    assert (mul, div) == ([(1, 6 + count)], [(1, 6)])
    assert compared <= 4 * count, compared


# ----------------------------------------------------------------------
# nested qsum against terms built afresh

# Sums in the tests below run under this cap.  A steady draw (below) keeps
# one window, at most 66 wide; within some 70 steps each factor has moved its
# binomials above it (or, moving down, ended the sum), and from then on every
# step is a fixed point.  So a sum that has not closed by 200 terms never
# closes, and the cap keeps the literal route quick.
CAP = 200
# Literal terms of a steady draw looked at past its first index, or past the
# term a stall names: by then every exponent has fallen, or risen, for good.
LOOK = 60


def capped(order, cap=CAP):
    """qsum's term cap at ``order`` set to ``cap``."""
    return patch.object(qs, "DEFAULT_TERM_CAP", cap - order)


def literal_summed(spec, order, cap=CAP):
    """What ``qsum`` returns for a term with nothing to pull out, from literal terms added by ``sum_terms``.

    Every term is built afresh by the literal product route (a term of scale
    0 is 0, poles or not).  qsum's rule for where a sum ends or stalls is
    restated on the built terms, with ``qs._bounds``' floor and flags.
    """
    floor, never_falls, never_rises = qs._bounds(qf._plan(spec))

    def term(i):
        n = spec.start + i
        t = reference_term(spec, spec.num, spec.den, n, order)
        if t.min_exp < order:
            if never_rises and n >= floor:
                raise TruncationStall(
                    f"from term n={n} on every term has valuation at most {t.min_exp} "
                    f"below order {order}, so no term can clear the window"
                )
            return t
        if n >= floor and (never_falls or factor_valuation(spec, n) is None):
            return t
        return None

    return sum_terms(term, order, cap)


def outcome(spec, order, nested, cap=CAP):
    """``qsum(spec, order)`` without its memo, or the name of the exception it raised.

    With ``nested`` false a term with nothing to pull out (scale 1, no
    factor fixed in n), the one left once qsum has pulled out the rest, is
    summed by :func:`literal_summed`.
    """

    def literal(spec, order):
        if spec.scale == 1 and not any(p.fixed for p in spec.num + spec.den):
            return literal_summed(spec, order, cap)
        return qsum.__wrapped__(spec, order)

    with ExitStack() as stack:
        stack.enter_context(capped(order, cap))
        if not nested:
            stack.enter_context(patch.object(qf, "qsum", literal))
        return result(qf.qsum, spec, order)


@st.composite
def stepper_qterms(draw, steady):
    """Terms that exercise every kind of step.

    Steps 2 and 3 with slopes 1, 2 move a factor by part of a step; (0, 0)
    and N lengths give empty factors; 1 - q^0 and 1 + q^0 occur on both
    sides.  Numerator slopes are >= 0, so with offsets >= -3 each numerator
    has valuation >= -6 and a denominator's valuation only raises the
    term's.  Non-steady terms then close, unless a denominator of slope < 0
    has sign 1, which both routes refuse: e2 = 1 with e1 down to -4 makes
    the valuations dip and the window grow before they rise, and e2 = 0
    comes with e1 + ratio.power >= 1.  Steady terms have e2 = 0 and
    e1 = -ratio.power - (0, 1 or 2), or e2 = -1 and e1 + ratio.power from -2
    to 8, so that the exponent rises for up to four steps before it falls
    for good.  Such a sum stalls, unless a zero ratio or a numerator's
    1 - q^0 ends it, a pole stops it, or a denominator that moves down keeps
    its valuations from falling: that closes it when e2 = 0 and
    e1 + ratio.power = 0, and is a usage error otherwise, as is any factor of
    slope < 0 and sign 1.  A term that clears the window while the exponent
    still rises ends no sum.
    """
    ratios = [MONO_ONE, SIGN, Monomial(Fraction(1, 2), 1), mono(-1, 2), mono(1, -1), MONO_ZERO]
    ratio = draw(st.sampled_from(ratios))
    if steady and draw(st.booleans()):
        exp = (-1, draw(st.integers(-2, 8)) - ratio.power, draw(st.integers(-8, 3)))
    elif steady:
        exp = (0, -ratio.power - draw(st.integers(0, 2)), draw(st.integers(-8, 3)))
    elif draw(st.booleans()):
        exp = (1, draw(st.integers(-4, 8)), draw(st.integers(-8, 3)))
    else:
        exp = (0, draw(st.integers(1, 8)) - ratio.power, draw(st.integers(-8, 3)))
    args = st.builds(mono, st.sampled_from([1, -1]), st.integers(-3, 3))
    steps = st.sampled_from([1, 2, 3])
    num = st.builds(Poch, args, steps, lengths, st.integers(0, 3))
    den = st.builds(Poch, args, steps, lengths, st.integers(-1, 3))
    start = draw(st.integers(0, 2))
    return QTerm(
        exp,
        tuple(draw(st.lists(num, max_size=3))),
        tuple(draw(st.lists(den, max_size=3))),
        scale=draw(st.sampled_from([1, -1, Fraction(-1, 3)])),
        ratio=ratio,
        times_n=start > 0 and draw(st.booleans()),
        start=start,
    )


# 1 - q^(n-2) vanishes at n = 2 only
_SPLIT = QTerm((0, 1, 0), num=(one_minus(-2, 1),), den=(one_plus(0, 1),))
# q^(n^2-6n) / (q^(2n-9);q^2)_n has valuations 0, 2, 0, -5, -7, -5, 0, 7, ...:
# below order 1 or 2, term 1 is above the window between terms 0 and 2
_ABOVE = QTerm((1, -6, 0), den=(Poch(mono(1, -9), 2, N, 2),))


# a length that falls with n is refused on both routes
@example(spec=QTerm((1, 0, 0), (Poch(mono(-1, 1), 1, (-1, 3)),)), order=30)
# (-q^(n-3);q)_2 loses 1 + q^(n-3) and gains 1 + q^(n-1): steps that move 1 + q^e
# with e < 0 and 1 + q^0 on both sides, in the numerator and in the denominator,
# under an alternating and a rational ratio
@example(spec=QTerm((0, 1, 0), (Poch(mono(-1, -3), 1, (0, 2), 1),), ratio=SIGN), order=12)
@example(spec=QTerm((0, 1, 0), (Poch(mono(-1, -3), 1, (0, 2), 1),), ratio=mono(Fraction(-2, 3))), order=12)
@example(spec=QTerm((0, 1, 0), den=(Poch(mono(-1, -3), 1, (0, 2), 1),), ratio=SIGN), order=12)
@example(spec=QTerm((0, 1, 0), den=(Poch(mono(-1, -3), 1, (0, 2), 1),), ratio=mono(Fraction(-2, 3))), order=12)
# (q^(n-3);q)_2: the step from n = 0 divides by 1 - q^-3 and multiplies by 1 - q^-1
@example(spec=QTerm((0, 1, 0), (Poch(mono(1, -3), 1, (0, 2), 1),), ratio=SIGN), order=12)
@example(spec=QTerm((0, 1, 0), (Poch(mono(1, -3), 1, (0, 2), 1),), ratio=mono(Fraction(-2, 3))), order=12)
# term 1 (valuation 2), or terms 2 and 3, above the window between two terms
# below it, or the zero term 2: the step across them takes the ratio's power
# and the factors' binomials between the two terms, from a factor of length 0
@example(spec=replace(_ABOVE, ratio=mono(Fraction(-2, 3))), order=2)
@example(spec=replace(_SPLIT, ratio=mono(Fraction(-2, 3))), order=12)
@example(spec=QTerm((1, -7, 2), den=(Poch(mono(1, -13), 2, (1, -1), 2),), ratio=SIGN, times_n=True, start=1), order=1)
@settings(max_examples=200, deadline=None)
@given(spec=stepper_qterms(steady=False), order=st.integers(1, 40))
def test_stepped_qsum_equals_rebuilt_terms(spec, order):
    assert outcome(spec, order, nested=True) == outcome(spec, order, nested=False)


# changes above the window of width 2 that later come down into it: a
# falling exponent crosses 1 + q^0 and then lifts the valuation until the
# sum closes; a falling length is refused
@example(spec=QTerm(den=(Poch(mono(-1, 4), 1, (0, 1), -1),)), order=2)
@example(spec=QTerm(num=(Poch(mono(-1, 1), 1, (-1, 6)),)), order=3)
# falling exponents that are no stall: a denominator that moves down gives no
# bound (UnsupportedParameter), 1 - q^0 enters the numerator at n = 1 (the
# sum closes), or a zero ratio ends the sum at n = 1
@example(spec=QTerm((0, -1, 0), den=(Poch(mono(1, 2), 1, None, -1),)), order=10)
@example(spec=QTerm((0, -1, 0), (Poch(mono(1, 0), 1, N),)), order=10)
@example(spec=QTerm((0, -1, 0), ratio=MONO_ZERO), order=10)
# exponents 8n - n^2 clear order 10 at n = 2..6 and then fall for good: a
# stall at n = 7, not the sum 1 + q^7
@example(spec=QTerm((-1, 8, 0)), order=10)
@settings(max_examples=100, deadline=None)
@given(spec=stepper_qterms(steady=True), order=st.integers(1, 40))
def test_steady_terms_give_equal_series_or_both_stall(spec, order):
    """qsum equals the literal terms' sum, or stalls or fails where their valuations say.

    The reference shares no cutoff with qsum: a series must equal the
    literal terms summed over the first LOOK indices (only n = 0 for a
    zero ratio); a stall must name a term below the order whose literal
    valuation none of the next LOOK terms exceeds; any other error must
    come from a literal term in that range, or be the usage error of a
    factor of slope < 0 or of a length that falls with n.
    """
    with capped(order):
        try:
            got = qsum.__wrapped__(spec, order)
        except Exception as exc:
            got = exc
    first = range(spec.start, spec.start + LOOK)
    if isinstance(got, LaurentSeries):
        expected = zero(order)
        # a zero ratio makes every term past n = 0 zero, poles or not
        for n in range(spec.start, 1) if spec.ratio.is_zero else first:
            expected = expected.add(reference_term(spec, spec.num, spec.den, n, order))
        assert got.equal_up_to(expected, order) == (True, None)
    elif isinstance(got, TruncationStall):
        named = re.match(r"from term n=(\d+) on every term has valuation at most (-?\d+) below", str(got))
        assert named, got
        n, valuation = int(named[1]), int(named[2])
        # when the factors that do not depend on n vanish, the stall of the
        # sum they multiply is reported without them
        fixed = QTerm(num=tuple(p for p in spec.num if p.fixed), den=tuple(p for p in spec.den if p.fixed))
        if reference_valuation(fixed, 0) is None:
            num, den = (tuple(p for p in ps if not p.fixed) for ps in (spec.num, spec.den))
            spec = replace(spec, num=num, den=den)
        vals = [reference_valuation(spec, k) for k in range(n, n + LOOK)]
        assert vals[0] == valuation < order
        assert None not in vals and max(vals) == valuation
    elif isinstance(got, qf.UnsupportedParameter):
        assert any(p.slope < 0 or p.length and p.length[0] < 0 for p in spec.num + spec.den)
    else:
        assert type(got).__name__ in [result(reference_valuation, spec, n) for n in first]


def factor_valuation(spec, n):
    """The exact valuation of the factors of term n of ``spec``, from one ``pochhammer`` series per factor.

    ``None`` when a numerator factor vanishes; a pole raises ``NotInvertible``.
    """
    lead = [[pochhammer(PochhammerSpec(*f), 1) for f in literal_at(fs, n)] for fs in (spec.num, spec.den)]
    if any(s.is_zero for s in lead[1]):
        raise NotInvertible("a denominator factor vanishes")
    if any(s.is_zero for s in lead[0]):
        return None
    return sum(s.min_exp for s in lead[0]) - sum(s.min_exp for s in lead[1])


def reference_valuation(spec, n):
    """The exact valuation of term n of ``spec``, by :func:`factor_valuation`.

    ``None`` when the term is 0; a pole raises ``NotInvertible``.
    """
    mu = factor_valuation(spec, n)
    if not spec.scale or spec.ratio.is_zero and n or mu is None:
        return None
    e2, e1, e0 = spec.exp
    return e2 * n * n + (e1 + spec.ratio.power) * n + e0 + mu


@pytest.mark.parametrize(
    "spec, order, n, valuation",
    [
        # exponents 8n - n^2: 0, 7, 12, 15, 16, 15, 12, 7, 0, -9, ...; at order
        # 10 the terms n = 2..6 clear the window before the exponents fall
        (QTerm((-1, 8, 0)), 10, 7, 7),
        (QTerm((-1, 8, 0)), 30, 4, 16),
        # q^(-n^2) (-q^(1-n);q)_inf: the factor moves down and gains a
        # binomial below 0 at every step
        (QTerm((-1, 0, 0), num=(Poch(mono(-1, 1), 1, None, -1),)), 10, 0, 0),
    ],
)
def test_falling_valuations_stall_from_the_term_they_stay_below(spec, order, n, valuation):
    """The stall names the first term below the order that no later term exceeds.

    The reference is each term's valuation from its literal factors, over a
    range of n that does not depend on ``qsum``'s cutoff.
    """
    stall = f"from term n={n} on every term has valuation at most {valuation} below order {order},"
    with pytest.raises(TruncationStall, match=stall):
        qsum.__wrapped__(spec, order)
    vals = [reference_valuation(spec, k) for k in range(n + 30)]
    assert vals[n] == valuation < order
    assert max(vals[n:]) == valuation and vals[-1] < valuation - 30
    assert all(vals[k] >= order or vals[k] < max(vals[k:]) for k in range(n))


@pytest.mark.parametrize(
    "spec",
    [
        # e2 > 0 against a numerator that moves down: valuations 5, 0, -4, ...
        QTerm((1, -6, 5), num=(Poch(mono(-1, 1), 1, None, -1),)),
        # slope < 0 and sign 1: 1 - q^(2-n) is 1 - q^0 at n = 2 only
        QTerm((1, 0, 0), num=(one_minus(2, -1),)),
        QTerm((1, 0, 0), den=(one_minus(2, -1),)),
        # factors that move down on both sides
        QTerm(num=(Poch(mono(-1, 1), 1, None, -1),), den=(Poch(mono(-1, 1), 2, None, -1),)),
        # a length that falls with n: cut at order 3 this read 0, but at
        # order 6 it reads q^-4 + 3q^-3 + ...
        QTerm((1, -6, 5), num=(Poch(mono(-1, 1), 1, (-1, 10)),)),
    ],
)
def test_unbounded_valuations_are_a_usage_error(spec):
    """A sum whose valuations no bound from the spec can order is refused, not cut."""
    for order in (3, 6):
        with pytest.raises(qf.UnsupportedParameter, match="no bound on the term valuations"):
            qsum.__wrapped__(spec, order)


@settings(max_examples=100, deadline=None)
@given(
    spec=st.builds(
        QTerm,
        st.tuples(st.just(1), st.integers(-8, 0), st.integers(-3, 8)),
        st.lists(num_factors, max_size=3).map(tuple),
        st.lists(den_factors, max_size=3).map(tuple),
        ratio=st.sampled_from([MONO_ONE, SIGN, Monomial(Fraction(1, 2), 1)]),
        start=st.integers(0, 2),
    ),
    order=st.integers(1, 40),
)
def test_dipping_valuations_sum_every_term_below_the_order(spec, order):
    """Terms that clear the window before the valuations turn upward do not end the sum.

    With e2 = 1 and e1 down to -8 the exponents fall for a few steps before
    they rise, and a numerator of positive slope may vanish at one n only.
    The reference adds the literal terms n < 40 + start, past which every
    term clears order 40 (each factor has valuation at least -6).
    """
    expected = zero(order)
    for n in range(spec.start, spec.start + 40):
        expected = expected.add(reference_term(spec, spec.num, spec.den, n, order))
    assert qsum.__wrapped__(spec, order).equal_up_to(expected, order) == (True, None)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_zero_terms_are_exact_zeros(order):
    """Past n = 0 a zero ratio makes every term 0, even one whose factors have a pole.

    Term 1 is 0 / (1 - q^0), so the sum is q below every order, whether or not
    it reaches that term.
    """
    spec = QTerm((0, 0, 1), den=(Poch(mono(1, 0), 1, N),), ratio=MONO_ZERO)
    total = qsum.__wrapped__(spec, order)
    # q on [1, order + 1), so that it exists at order 1 too, where it is 0 below the order
    assert total.equal_up_to(monomial(1, 1, order + 1), order) == (True, None)


# 1 - q^0 is a pole in a factor that does not depend on n
_POLE = (Poch(mono(1, 0)),)


@pytest.mark.parametrize(
    "f, spec, nonzero",
    [
        # a zero ratio makes every term from n = 1 on 0; from n = 0, term 0 is 1/(1 - q^0)
        (qsum.__wrapped__, QTerm(den=_POLE, ratio=MONO_ZERO, start=1), {"start": 0}),
        (qsum.__wrapped__, QTerm(den=_POLE, scale=0), {"scale": 2}),
        (product, QTerm(den=_POLE, scale=0), {"scale": -1}),
    ],
)
def test_zero_terms_are_zero_despite_a_fixed_pole(f, spec, nonzero):
    """Every term is 0, so the sum or product is 0 before its pulled-out factors are looked at.

    The same spec with a term that is not 0 still divides by 1 - q^0.
    """
    assert f(spec, 3) == zero(3)
    with pytest.raises(NotInvertible):
        f(replace(spec, **nonzero), 3)


def test_falling_valuations_stall_at_once(scanned):
    """The sum of q^-n stalls at its first step instead of at the term cap."""
    stall = r"term n=0 on every term has valuation at most 0 below order 10,"
    with pytest.raises(TruncationStall, match=stall):
        qsum.__wrapped__(QTerm(ratio=mono(1, -1)), 10)
    assert len(scanned) == 1 and 0 < scanned[0] <= 2
    # (q^-2;q)_(n-3) is empty at n = 3, so no stall: it enters at exponent
    # -2, then 1 - q^0 ends the sum at n = 6
    spec = QTerm(ratio=mono(1, -1), num=(Poch(mono(1, -2), 1, (1, -3)),), start=3)
    total = qsum(spec, 10)
    assert [total.coefficient(k) for k in range(-8, 10)] == [1, -1, -2, 1, 1, 1] + [0] * 12


@pytest.mark.parametrize(
    "spec, valuation",
    [
        # 1 + q^-1 is pulled out with valuation -1
        (QTerm(num=(one_plus(-1),), ratio=mono(1, -1)), -1),
        # 1 / (1 + q^-2) is pulled out with valuation 2
        (QTerm(den=(one_plus(-2),), ratio=mono(1, -1)), 2),
    ],
)
def test_stalls_name_the_callers_order_and_valuation(spec, valuation):
    """A pulled-out factor moves the valuation in a stall message, never the order."""
    with pytest.raises(TruncationStall, match=f"valuation at most {valuation} below order 10,"):
        qsum.__wrapped__(spec, 10)


def test_vanishing_pulled_out_factor_still_stalls():
    """1 - q^0 makes every term 0, but the divergent sum it multiplies is still reported."""
    with pytest.raises(TruncationStall, match="below order 10,"):
        qsum.__wrapped__(QTerm(num=(one_minus(0),), ratio=mono(1, -1)), 10)


def counted(owner, name, counts):
    """A patch of ``owner.name`` that counts its calls in ``counts[name]``."""
    fn = getattr(owner, name)

    def call(*args):
        counts[name] += 1
        return fn(*args)

    return patch.object(owner, name, call)


@pytest.mark.parametrize(
    "name, params",
    [("f3_def", None), ("spt_lhs", None), ("No_plus_series", None), ("z_identity_lhs", {"z": mono(1, 3)})],
)
def test_catalog_sums_step_instead_of_rebuilding(name, params, scanned):
    """A silent fall-back to a product of every term's factors fails here, not only runs slowly.

    A sum applies its first term's whole factor list with ``_apply``, and
    no step goes through it, so a count of 0 means the hook no longer
    sits on the route.  One ``_make`` builds the sum, and the series of its
    one part is that sum: no term is a series of its own, and the sum is
    not copied.
    """
    counts = Counter()
    qsum.cache_clear()
    with ExitStack() as stack:
        for owner, fn in itertools.product((qf, qs), ("_apply", "_make")):
            stack.enter_context(counted(owner, fn, counts))
        build(name, 200, params)
    assert len(scanned) == 1 and scanned[0] > 10, scanned
    assert 1 <= counts["_apply"] <= 3, counts
    assert counts["_make"] == 1, counts


def stepped(name, record):
    """A patch of the kernel ``qs.name`` that hands ``record`` each call (sign, e) that ``_nested`` makes.

    A step's passes come from ``_nested`` itself or through ``_low``; the
    passes of ``_apply``, which applies a sum's first term, and of the
    literal ``pochhammer`` products are not steps and are not recorded.
    """
    fn = getattr(qs, name)

    def call(arr, sign, e):
        caller = sys._getframe(1)
        if caller.f_code is qs._low.__code__:
            caller = caller.f_back
        if caller.f_code is qs._nested.__code__:
            record(name, sign, e)
        return fn(arr, sign, e)

    return patch.object(qs, name, call)


def test_spt_sum_makes_three_passes_per_step():
    """sum q^n / ((1-q^n)^2 (q^(n+1);q)_inf) steps by (1-q^n)^2 / (1-q^(n+1)).

    From n + 1 back to n the two factors 1 - q^n leave the denominator and
    1 - q^(n+1) enters one and leaves another, so it cancels: each step is
    two multiplies and one exact divide.  Terms n = 1..199 reach below order
    200, so there are 198 steps; the binomial passes ``_apply`` makes for the
    first term's factors are not steps.
    """
    calls = Counter()

    def record(*call):
        calls[call] += 1

    qsum.cache_clear()
    with stepped("_binomial_factor_inplace", record), stepped("_binomial_divide_inplace", record):
        total = build("spt_lhs", 200)
    expected = Counter()
    for n in range(1, 199):
        expected["_binomial_factor_inplace", 1, n] += 2
        expected["_binomial_divide_inplace", 1, n + 1] += 1
    assert calls == expected
    assert sum(calls.values()) == 3 * 198
    assert total.equal_up_to(qf.spt_rhs(200), 200) == (True, None)


def test_catalog_sums_step_by_their_literal_net_binomials():
    """Every step of every catalog sum at order 200 makes exactly the passes of its literal net binomials.

    From a term m back to the term n before it a step multiplies by each
    binomial 1 - s*q^e as often as the numerator at m and the denominator at
    n hold it more than the numerator at n and the denominator at m, and
    divides by it as often as they hold it less.  A binomial at e > 0 is one
    pass at e, one at e < 0 a pass at -e, and 1 + q^0 no pass.  Passes at
    exponents from the window's width on are not compared: they change
    nothing.
    """
    steps, specs = [], {}
    compile_, net = qf._plan, qs._Plan.net

    def recording(spec, fixed=False):
        plan = compile_(spec, fixed)
        specs[plan] = spec
        return plan

    def stepping(plan, n, m, width):
        steps.append((specs[plan], n, m, width, Counter()))
        return net(plan, n, m, width)

    def record(*call):
        steps[-1][-1][call] += 1

    with ExitStack() as stack:
        stack.enter_context(patch.object(qf, "_plan", recording))
        stack.enter_context(patch.object(qs._Plan, "net", stepping))
        for name in ("_binomial_factor_inplace", "_binomial_divide_inplace"):
            stack.enter_context(stepped(name, record))
        run_catalog(200)
    low = 0
    for spec, n, m, width, calls in steps:
        num0, den0, num1, den1 = (
            literal_binomials(literal_at(fs, k), width) for k in (n, m) for fs in (spec.num, spec.den)
        )
        net_ = num1 + den0
        net_.subtract(num0 + den1)
        expected = Counter()
        for kernel, binomials in (("_binomial_factor_inplace", +net_), ("_binomial_divide_inplace", -net_)):
            for (sign, e), count in binomials.items():
                if e and abs(e) < width:
                    expected[kernel, sign, abs(e)] += count
                low += e <= 0
        assert Counter({c: k for c, k in calls.items() if c[2] < width}) == expected, (spec, n, m, calls)
    assert len(steps) > 5000 and low > 0, (len(steps), low)


@pytest.mark.parametrize(
    "spec, order, terms",
    [
        # valuations -2 and 0, then 0 at n = 2, then n
        *((_SPLIT, order, [(0, -2), (1, 0)] + [(n, n) for n in range(3, order)]) for order in (1, 3, 40)),
        *((_ABOVE, order, [(0, 0), (2, 0), (3, -5), (4, -7), (5, -5), (6, 0)]) for order in (1, 2)),
    ],
    ids=["zero-1", "zero-3", "zero-40", "above-1", "above-2"],
)
def test_a_zero_term_or_one_above_the_window_is_stepped_across(spec, order, terms):
    """The sum is one chain of the terms below the window: one ``_apply``, of the first term's factors, and one ``_make``.

    It equals the sum of the literal terms n < order + 10, past which every
    term clears the window.
    """
    plan = qf._plan(spec)
    assert qs._scan(plan, order) == terms
    counts = Counter()
    with counted(qf, "_make", counts), counted(qs, "_make", counts):
        with patch.object(qs, "_apply", wraps=qs._apply) as apply, patch.object(qf, "_apply", apply):
            total = qsum.__wrapped__(spec, order)
    assert counts["_make"] == 1
    assert [c.args[1:] for c in apply.call_args_list] == [(plan.factors, terms[0][0])]
    expected = zero(order)
    for n in range(order + 10):
        expected = expected.add(reference_term(spec, spec.num, spec.den, n, order))
    assert total.equal_up_to(expected, order) == (True, None)


# ----------------------------------------------------------------------
# the plan of a term against its literal factor lists


def literal_binomials(factors, width):
    """The binomials (sign, e), e < ``width``, of literal factors as a multiset."""
    return Counter((f[0], e) for f in factors for e in exponents([f], width))


def literal_valuation(spec, n):
    """Term n's valuation from its literal factor lists, or ``None`` for a zero term.

    The exponent is checked first, and a zero scale looks at no factor.
    """
    e2, e1, e0 = spec.exp
    e = e2 * n * n + (e1 + spec.ratio.power) * n + e0
    if e != int(e):
        raise ValueError(f"non-integral exponent {e} at n={n}")
    if not spec.scale or spec.ratio.is_zero and n:
        return None
    mu = literal_shift(literal_at(spec.num, n), literal_at(spec.den, n))
    return None if mu is None else int(e) + mu


def said(f, *args):
    """``f(*args)``, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def check_plan(spec, steps=30, width=60):
    """The plan of ``spec`` against its literal factor lists at n = start, ..., start + steps - 1.

    Term n's valuation, or its zero, pole or error message, is the literal
    one.  Where the lists at n and m both exist, for m = n + 1, n + 2 and
    n + 3 (a step across the terms between, which a sum passes over when
    they are 0 or above its window), the step multiplies by each binomial as
    often as the numerator at m and the denominator at n hold it more than
    the numerator at n and the denominator at m, and divides by it as often
    as they hold it less, so no binomial is on both sides.  Binomials at
    exponents from ``width`` on are not compared: no pass on the window sees
    them.
    """
    plan = qf._plan(spec)
    for n in range(spec.start, spec.start + steps):
        assert said(plan.term, n) == said(literal_valuation, spec, n), (spec, n)
        for m in (n + 1, n + 2, n + 3):
            try:
                lists = [literal_at(fs, k) for k in (n, m) for fs in (spec.num, spec.den)]
            except ValueError:  # a negative length: no sum steps across it
                continue
            num0, den0, num1, den1 = (literal_binomials(f, width) for f in lists)
            net = num1 + den0
            net.subtract(num0 + den1)
            mul, div = plan.net(n, m, width)
            got = [Counter(f for f in pairs if f[1] < width) for pairs in (mul, div)]
            assert got == [+net, -net], (spec, n, m, mul, div)
            assert not Counter(mul) & Counter(div), (spec, n, m, mul, div)


def run_catalog(order):
    """Every catalog row, and every named form at the rows' parameters, at ``order``."""
    values = {"b": MONO_Q, "z": mono(1, 3), "a": MONO_ONE}
    # so that every term is compiled; the sums qsum pulls factors out of are not memoized here
    qsum.cache_clear()
    registry.verify_all(order=order)
    for name in qf.names():
        params = {p: values[p] for p in qf.param_names(name)} or None
        for form in range(len(qf.builder_forms(name))):
            build(name, order, params, form)


def catalog_terms():
    """Every term that a catalog row or a named form sums or takes as a product, at the rows' parameters."""
    specs = set()
    compile_ = qf._plan

    def recording(spec, *args):
        specs.add(spec)
        return compile_(spec, *args)

    with patch.object(qf, "_plan", recording):
        run_catalog(30)
    return sorted(specs, key=repr)


def test_catalog_plans_equal_the_literal_factor_lists():
    specs = catalog_terms()
    assert len(specs) > 50
    for spec in specs:
        check_plan(spec)


# falling lengths that reach 0 and then turn negative, on both sides
@example(spec=QTerm(num=(Poch(mono(-1, 1), 1, (-1, 3)),), den=(Poch(mono(1, 2), 2, (-1, 4), 1),)))
# slopes that are not multiples of the step, finite and infinite, reaching exponents <= 0
@example(spec=QTerm(num=(Poch(mono(1, -3), 2, None, 1),), den=(Poch(mono(-1, -2), 3, (1, 1), 2),)))
# 1 - q^n enters one denominator factor and leaves another at every n, as in spt_lhs
@example(spec=QTerm((0, 1, 0), den=(one_minus(0, 1),) * 2 + (Poch(MONO_Q, 1, None, 1),), start=1))
# an exponent that is not an integer at n = 1
@example(spec=QTerm(exp=(HALF, 0, 0)))
# steps across a zero term (1 - q^0 at n = 2) and from a factor of length 0
@example(spec=_SPLIT)
@example(spec=_ABOVE)
# the 1 + q^n that one denominator loses is among the many that another gains,
# so it cancels
@example(spec=QTerm((0, 1, 0), den=(Poch(mono(-1, 0), 1, None, 1), Poch(mono(-1, -1), 2, None, 1))))
# of the many binomials that a numerator gains, the 1 + q^(n+1) that a
# denominator gains cancels
@example(spec=QTerm((0, 1, 0), num=(Poch(mono(-1, 10), 1, None, -20),), den=(one_plus(0, 1),)))
@settings(max_examples=300, deadline=None)
@given(spec=st.one_of(stepper_qterms(steady=False), stepper_qterms(steady=True)))
def test_plans_equal_the_literal_factor_lists(spec):
    check_plan(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (QTerm(exp=(HALF, 0, 0)), "ValueError: non-integral exponent 1/2 at n=1"),
        (QTerm(num=(Poch(mono(-1, 1), 1, (1, -3)),)), "ValueError: negative Pochhammer length -3 at n=0"),
        (QTerm(den=(one_minus(0, 1),)), "NotInvertible: a denominator factor vanishes"),
    ],
)
def test_qsum_error_messages(spec, message):
    """A sum that cannot be evaluated says why, in these words."""
    with pytest.raises(Exception) as info:
        qsum.__wrapped__(spec, 10)
    assert f"{type(info.value).__name__}: {info.value}" == message
