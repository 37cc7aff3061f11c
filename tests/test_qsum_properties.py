"""Differential property tests of the q-product summation driver.

Each drawn term is summed at a truncation order N and again at N + 40; the
two results must agree below N.  The term windows are derived from the
factors' valuations, so a window that is too small shows up as a
disagreement (or an ``InvalidWindow``) here.  The enumeration oracle and
the ``builder_forms`` cross-checks stay the independent witnesses of the
catalog's values.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab.qfunctions import MONO_ONE, MONO_ZERO, N, SIGN, Monomial, Poch, QTerm, mono, qprod, qsum

# first exponents go down to -3, so a factor's valuation is at least -6
MAX_NEG_VALUATION = 6

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


@settings(max_examples=200, deadline=None)
@given(spec=qterms(), order=st.integers(1, 40))
def test_qprod_is_exact_below_its_order(spec, order):
    small = qprod(spec, order)
    assert small.order >= order
    assert small.equal_up_to(qprod(spec, order + 40), order) == (True, None)
