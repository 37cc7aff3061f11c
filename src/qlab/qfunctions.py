"""Named builders for the q-series used throughout the package.

Each catalog name is one entry of the catalog mapping, which takes it to
one or more independent builder forms, each of which returns an exact
:class:`~qlab.series.LaurentSeries` at a requested truncation order.  Names
with several algebraically distinct computable forms (different
arrangements of the same series) expose all of them through
:func:`builder_forms`; the forms are cross-checked in the test suite and
must agree coefficient by coefficient.

The catalog covers the third-order mock theta functions f(q), omega(q) and
phi(q), the theta value phi(-q) = (q;q)_inf/(-q;q)_inf, the partition
generating function, smallest-part generating functions, the two-color
partition generating functions (even and odd smallest part), the even-rank
and positive-odd-rank generating functions, and Fine's numbers.

A few parameterized sums are exposed as well.  A name's parameters are its
builder's arguments after ``order`` (:func:`param_names`), each an exact
monomial c*q^k supplied through :class:`Monomial`.

Stating a sum.  Every series here is a q-hypergeometric sum whose summand
is one q-product, so a builder states that product as a :class:`QTerm` and
hands it to :func:`qsum`; a closed product is the same sum with ratio 0.
A :class:`Poch` is one factor (arg*q^(slope*n); q^step)_length, with the
length ``(a, b)`` meaning a*n + b (``N`` is the length n) and ``None`` the
infinite product.  For example f(q) = sum q^(n^2) / (-q;q)_n^2 is::

    qsum(QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 1), 1, N),) * 2), order)

and sum_{n>=1} (-1)^n q^(2n) / (1 + q^(2n+1)) is ``QTerm(exp=(0, 2, 0),
den=(one_plus(1, 2),), ratio=SIGN, start=1)``.  The driver works out the
truncation windows, including the Laurent depth of factors with negative
exponents, and the cutoff from the factors' exact valuations; builders
never pick a window or a cutoff by hand.

Series as data.  Each form is one :class:`QSeries`, parts ``S(spec)`` and
``P(spec)`` (the ratio-0 sum), each summed by :func:`qsum`, joined by ``+``,
every multiplier moved into a part's term: 1/(q;q)_inf - 4 N(q) is ``euler_inv
+ _no_plus_form1.times(-4)``, with no series arithmetic between the parts.
A parameterized form is a function of ``(order, **params)`` stating its
parts the same way; only the literal-product reference forms are not.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .record import Record, replace
from .series import (
    DEFAULT_TERM_CAP,
    LaurentSeries,
    PochhammerSpec,
    Rational,
    TruncationStall,
    _Plan,
    _apply,
    _binomial_divide_inplace,
    _binomial_factor_inplace,
    _low,
    _make,
    _total,
    exact,
    pochhammer,
    zero,
)


class UnknownName(KeyError):
    """The requested series name is not in the catalog."""

    def __str__(self) -> str:
        return f"unknown series name {self.args[0]!r}"


class MissingParameter(ValueError):
    """A parameterized builder was invoked without a required parameter."""


class UnsupportedParameter(ValueError):
    """A parameter value that the builders cannot evaluate exactly."""


# ----------------------------------------------------------------------
# monomial parameters


def _integer(field: str, x: object) -> None:
    """A float or anything else but an int in an integer field raises TypeError."""
    if not isinstance(x, int):
        raise TypeError(f"{field} {x!r} is not an int")


class Monomial(Record):
    """An exact monomial c*q^power used as a specialization value."""

    coeff: Fraction
    power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", Fraction(exact(self.coeff)))
        _integer("power", self.power)
        if self.coeff == 0 and self.power != 0:
            raise ValueError("the zero monomial must carry power 0")

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def inv(self) -> "Monomial":
        if self.is_zero:
            raise ZeroDivisionError("zero monomial has no inverse")
        return Monomial(1 / self.coeff, -self.power)

    def times(self, other: "Monomial") -> "Monomial":
        if self.is_zero or other.is_zero:
            return Monomial(Fraction(0), 0)
        return Monomial(self.coeff * other.coeff, self.power + other.power)

    def times_q(self, k: int) -> "Monomial":
        if self.is_zero:
            return self
        return Monomial(self.coeff, self.power + k)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.power == 0:
            return str(self.coeff)
        q = "q" if self.power == 1 else f"q^{self.power}"
        if self.coeff == 1:
            return q
        if self.coeff == -1:
            return f"-{q}"
        return f"{self.coeff}*{q}"

    _PATTERN = re.compile(
        # a '*' may only join a coefficient to q
        r"^\s*(?:(?P<coeff>[+-]?\d+(?:/\d+)?)\s*(?:\*\s*(?=-?q))?)?"
        r"(?:(?P<neg>-)?q(?:\^(?P<pow>-?\d+))?)?\s*$"
    )

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Parse strings like ``0``, ``1``, ``q``, ``-q``, ``q^-1``, ``1/2*q^3``, ``2*-q``."""
        m = cls._PATTERN.match(text)
        if not m or (m.group("coeff") is None and m.group("neg") is None and "q" not in text):
            raise ValueError(f"cannot parse monomial {text!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in monomial {text!r}") from None
        if m.group("neg"):
            coeff = -coeff
        power = 0
        if "q" in text:
            power = int(m.group("pow")) if m.group("pow") else 1
        return cls(coeff, power)


MONO_ZERO = Monomial(Fraction(0), 0)
MONO_ONE = Monomial(Fraction(1), 0)
MONO_Q = Monomial(Fraction(1), 1)


def mono(c: Rational, k: int = 0) -> Monomial:
    return Monomial(c, k)


# ----------------------------------------------------------------------
# literal products for the reference forms of (q;q)_inf and its inverse


@lru_cache(maxsize=None)
def qpoch(sign: int, offset: int, step: int, length: Optional[int], order: int) -> LaurentSeries:
    """Cached (sign*q^offset; q^step)_length truncated at ``order``."""
    return pochhammer(PochhammerSpec(sign, offset, step, length), order)


@lru_cache(maxsize=None)
def inv_qpoch(sign: int, offset: int, step: int, length: Optional[int], order: int) -> LaurentSeries:
    return qpoch(sign, offset, step, length, order).invert()


# ----------------------------------------------------------------------
# declarative q-product terms and the summation driver

#: ``(a, b)`` stands for the length a*n + b; ``N`` is the length n.
Affine = Tuple[int, int]
N: Affine = (1, 0)
HALF = Fraction(1, 2)
#: The ratio of an alternating sum: (-1)^n.
SIGN = Monomial(Fraction(-1), 0)



class Poch(Record):
    """One factor (arg*q^(slope*n); q^step)_length of a q-product term.

    ``arg`` gives the sign of the binomials and the first exponent at n = 0;
    its coefficient must be 1 or -1, or 0 for the factor 1.  ``length`` is
    an :data:`Affine` length or ``None`` for the infinite product.
    """

    arg: Monomial
    step: int = 1
    length: Optional[Affine] = None
    slope: int = 0

    def __post_init__(self) -> None:
        if self.arg.coeff not in (0, 1, -1):
            raise UnsupportedParameter(
                f"unsupported product argument coefficient {self.arg.coeff} "
                "(monomial parameters must have coefficient 0, 1 or -1)"
            )
        if self.length is not None and (not isinstance(self.length, tuple) or len(self.length) != 2):
            raise TypeError(f"length {self.length!r} is not None or a pair of ints")
        for field, x in (("step", self.step), ("slope", self.slope), *(("length", x) for x in self.length or ())):
            _integer(field, x)
        if self.step < 1:
            raise ValueError("step must be a positive integer")

    @property
    def fixed(self) -> bool:
        """True when the factor does not depend on n."""
        return self.slope == 0 and (self.length is None or self.length[0] == 0)


def one_minus(k: int, slope: int = 0) -> Poch:
    """The binomial factor 1 - q^(k + slope*n)."""
    return Poch(Monomial(Fraction(1), k), 1, (0, 1), slope)


def one_plus(k: int, slope: int = 0) -> Poch:
    """The binomial factor 1 + q^(k + slope*n)."""
    return Poch(Monomial(Fraction(-1), k), 1, (0, 1), slope)


EULER = Poch(MONO_Q)  # (q;q)_inf
NEG_EULER = Poch(mono(-1, 1))  # (-q;q)_inf
EULER_Q2 = Poch(mono(1, 2), 2)  # (q^2;q^2)_inf


class QTerm(Record):
    """The summand scale * ratio^n * [n] * q^(e2*n^2 + e1*n + e0) * prod(num) / prod(den).

    ``exp`` is ``(e2, e1, e0)``; e2 and e1 may be halves as long as the
    exponent is integral at every n.  ``ratio`` carries the n-th power of a
    monomial (a sign, a parameter), ``times_n`` adds the factor n, and a sum
    over the term runs over n >= ``start``.
    """

    exp: Tuple[Rational, Rational, int] = (0, 0, 0)
    num: Tuple[Poch, ...] = ()
    den: Tuple[Poch, ...] = ()
    scale: Rational = 1
    ratio: Monomial = MONO_ONE
    times_n: bool = False
    start: int = 0

    def __post_init__(self) -> None:
        for field, x in (("scale", self.scale), *(("exp", x) for x in self.exp)):
            exact(x, field)
        _integer("start", self.start)
        if self.times_n and self.start < 1:
            raise ValueError("a term with the factor n must start at n >= 1")

    def times(
        self,
        scale: Rational = 1,
        e: int = 0,
        num: Tuple[Poch, ...] = (),
        den: Tuple[Poch, ...] = (),
    ) -> "QTerm":
        """This term multiplied by the constant scale * q^e * prod(num) / prod(den)."""
        e2, e1, e0 = self.exp
        return replace(
            self,
            exp=(e2, e1, e0 + e),
            num=self.num + num,
            den=self.den + den,
            scale=self.scale * scale,
        )


def _bounds(plan: _Plan) -> Tuple[int, bool, bool]:
    """(floor, never_falls, never_rises) for the term valuations of the sum of ``plan``.

    From index ``floor`` on the valuation v_n = e_n + (valuation of P_n)
    never falls, or never rises, as the flags say.  It is bounded from the
    compiled term, with E_n = e_(n+1) - e_n = e2*(2n+1) + e1:

    * a factor of slope >= 0 and length slope >= 0 settles: from some n on
      its binomials at exponents <= 0 stay fixed, so its valuation is
      constant (and a numerator that vanishes there vanishes for good);
    * a factor of slope < 0 only gains binomials below 0 as n grows, so its
      valuation falls, without bound: it lowers v_n in a numerator and
      raises it in a denominator;
    * from ``turn`` on, E_n keeps the sign it has for large n.

    A zero ratio gives (start, True, False): every term past n = 0 is
    exactly 0, so the first term that clears the window ends the sum.  A
    factor whose length falls with n (it turns negative), a factor of
    slope < 0 and sign 1 (its 1 - q^0 comes and goes), or valuations pushed
    both ways give no bound and raise :class:`UnsupportedParameter`.
    """
    start, factors = plan.start, plan.factors
    if not plan.ratio:
        return start, True, False
    large = plan.a2 or plan.a1  # the sign of E_n for large n
    falling = [(den, sign) for den, sign, _, slope, *_ in factors if slope < 0]
    never_falls = large >= 0 and all(den for den, _ in falling)
    never_rises = large <= 0 and not any(den for den, _ in falling)
    shrinks = any(a is not None and a < 0 for *_, a, _ in factors)
    if shrinks or any(sign == 1 for _, sign in falling) or not (never_falls or never_rises):
        raise UnsupportedParameter(
            "no bound on the term valuations follows from this sum: a factor's length falls "
            "with n, a factor of slope < 0 has sign 1, or the valuations are pushed both ways"
        )
    settle = [start]
    for _, _, k, slope, step, a, b in factors:
        if slope > 0:  # the first exponent reaches 1
            settle.append(-((k - 1) // slope))
        elif slope == 0:  # the length reaches the binomials at exponents <= 0
            settle.append(-((b - (-k // step + 1 if k <= 0 else 0)) // a))
    turn = math.ceil((Fraction(-plan.a1, plan.a2) - 1) / 2) if plan.a2 else start
    return max(*settle, turn), never_falls, never_rises


def _plan(spec: QTerm, fixed: bool = False) -> _Plan:
    """``spec`` compiled to integers (:class:`~qlab.series._Plan`).

    A factor that is 1 at every n (argument 0 or length 0) is left out, and
    with ``fixed`` so is every factor that depends on n.
    """
    factors = [
        (den, p.arg.coeff.numerator, p.arg.power, p.slope, p.step, *(p.length or (None, None)))
        for den, ps in enumerate((spec.num, spec.den))
        for p in ps
        if p.arg.coeff and p.length != (0, 0) and (p.fixed or not fixed)
    ]
    e2, e1, e0 = spec.exp
    return _Plan((e2, e1 + spec.ratio.power, e0), factors, spec.start, spec.scale, spec.ratio.coeff, spec.times_n)


@lru_cache(maxsize=None)
def qsum(spec: QTerm, order: int) -> LaurentSeries:
    """Sum ``spec`` over n >= ``spec.start``, exact below ``order``.

    Factors that do not depend on n are pulled out: their valuation joins
    every term's exponent, and :func:`~qlab.series._apply` applies the rest
    to the summed window (eta-type factors by the pentagonal number
    theorem), so the sum, its windows and its stall messages are in the
    caller's frame.  The term that is left, of scale 1, is summed by
    ``qsum`` itself under the same memo, so f(q), f(q)/4 and f(q) (q;q)_inf
    share one evaluation.  A term with nothing to pull out is compiled once
    (:func:`_plan`), :func:`_scan` finds from exact valuations which terms
    reach below ``order``, and :func:`_nested` sums them as one chain of
    nested products: no term is a series of its own.  A sum whose first
    term has scale 0 (a zero scale, or a zero ratio from n = 1 on) is 0,
    whatever poles its factors hold.
    """
    outer = _plan(spec, True)
    outer.exponent(spec.start)  # a non-integral first exponent raises, even at scale 0
    if not spec.scale or spec.ratio.is_zero and spec.start:
        return zero(order)
    outer_num, outer_den = outer.at(0)
    # When the pulled-out product vanishes the sum still runs, so that a
    # pole or a stall in it is reported rather than multiplied by zero.
    mu = outer.valuation(0)
    num, den = (tuple(f for f in fs if not f.fixed) for fs in (spec.num, spec.den))
    inner = replace(spec, num=num, den=den, scale=1).times(e=mu or 0)
    if inner == spec:
        plan = _plan(spec)
        terms = _scan(plan, order)
        return _make(*_nested(plan, terms, order), order) if terms else zero(order)
    total = qsum(inner, order)
    if mu is None:
        return zero(order)
    arr = list(total.nums)
    c = spec.scale * _apply(arr, outer_num, outer_den) / total.den
    return _make(total.min_exp, [x * c.numerator for x in arr], c.denominator, order)


def _scan(plan: _Plan, order: int) -> List[Tuple[int, int]]:
    """The terms of the sum of ``plan`` (scale 1) that reach below ``order``, as pairs (n, valuation).

    Term n has valuation e_n plus that of its factors, or is 0: a zero
    ratio past n = 0, or a vanishing numerator.  Both are read off integers
    (:meth:`~qlab.series._Plan.term`).  Past :func:`_bounds`' floor a term
    not below ``order`` ends the sum when valuations never fall or it
    vanishes, and a term below it stalls the sum
    (:class:`~qlab.series.TruncationStall`) when they never rise; any other
    term not below ``order`` is passed over.  A sum that no term ends within
    ``max(order, 0) + DEFAULT_TERM_CAP`` terms stalls too.
    """
    floor, never_falls, never_rises = _bounds(plan)
    cap = max(order, 0) + DEFAULT_TERM_CAP
    terms = []
    for n in range(plan.start, plan.start + cap):
        v = plan.term(n)
        last = None if v is None or v >= order else v
        if last is not None:
            if never_rises and n >= floor:
                raise TruncationStall(
                    f"from term n={n} on every term has valuation at most {last} "
                    f"below order {order}, so no term can clear the window"
                )
            terms.append((n, last))
        elif n >= floor and (never_falls or v is None):
            return terms
    suffix = f": term {cap - 1} has valuation {last}" if cap > 0 and last is not None else ""
    raise TruncationStall(f"no term cleared order {order} within {cap} evaluations{suffix}")


def _nested(plan: _Plan, terms: List[Tuple[int, int]], order: int) -> Tuple[int, List[int], int]:
    """The terms (n, v_n) of ``terms``, n rising, summed as (lo, nums, den).

    The sum is sum nums[i] q^(lo + i) / den, exact below ``order``.  Term n
    is w_n c_n q^(v_n) W_n: w_n = n for a ``times_n`` term, else 1, a
    constant c_n and W_n = 1 + O(q).  With s the first term, the sum is
    c_s W_s X_s, where X = w q^v at the last term and backward, from each
    term m to the one before it, n,

        X_n = w_n q^(v_n) + (c_m / c_n) (W_m / W_n) X_m,

    one integer window A / d on [lo, order), lo the least valuation so far.
    Terms left out of ``terms`` (0, or above the window) are stepped
    across.  W_m / W_n is one kernel pass per binomial that ``plan``, the
    compiled term, gives the step (:meth:`~qlab.series._Plan.net`); one at
    an exponent <= 0 goes by :func:`~qlab.series._low`, and its constant
    joins c_m / c_n.  That ratio goes into d, and into a pass over A only
    for a numerator other than 1 or -1.  Last,
    :func:`~qlab.series._apply` applies W_s, the first term's whole factor
    list, once.
    """
    m, lo = terms[-1]
    coeff, d = plan.ratio, 1
    passes = (_binomial_factor_inplace, _binomial_divide_inplace)
    arr = [m if plan.times_n else 1] + [0] * (order - lo - 1)
    for n, v in terms[-2::-1]:
        c = [coeff.numerator ** (m - n), coeff.denominator ** (m - n)]
        for i, binomials in enumerate(plan.net(n, m, len(arr))):
            for sign, e in binomials:
                if e > 0:
                    passes[i](arr, sign, e)
                else:
                    c[i] *= _low(passes[i], arr, sign, e)
        p, q = c
        if p != 1 or q != 1:  # X = (p / (q d)) A + w q^v, in lowest terms with p > 0
            g = math.gcd(p, q * d) * (1 if p > 0 else -1)
            p, d = p // g, q * d // g
            if p != 1:
                arr[:] = [x * p for x in arr]
        if v < lo:
            arr[:0] = [0] * (lo - v)
            lo = v
        arr[v - lo] += d * (n if plan.times_n else 1)
        m = n
    c = plan.scale * coeff**m * _apply(arr, *plan.at(m)) / d
    return lo, arr if c.numerator == 1 else [x * c.numerator for x in arr], c.denominator


# ----------------------------------------------------------------------
# series as data


class QSeries(Record):
    """A sum of parts, each the :func:`qsum` of one :class:`QTerm`.

    Every unparameterized named series and catalog side is one: parts join
    with ``+``, :func:`S` and :func:`P` make one-part values, and
    :meth:`times` moves a constant multiplier into each part's term, so no
    series arithmetic runs between the parts.
    """

    parts: Tuple[QTerm, ...]

    def __add__(self, other: "QSeries") -> "QSeries":
        return QSeries(self.parts + other.parts)

    def times(self, *args, **kwargs) -> "QSeries":
        """Every part's term times one constant, given as :meth:`QTerm.times` takes it."""
        return QSeries(tuple(t.times(*args, **kwargs) for t in self.parts))

    def __call__(self, order: int) -> LaurentSeries:
        """The parts, evaluated in the order stated, added into one window below ``order``.

        A lone part is already the canonical series on that window, so it is
        returned as it is.
        """
        series = [qsum(t, order) for t in self.parts]
        return series[0] if len(series) == 1 else _total(series, order)


def S(spec: QTerm) -> QSeries:
    """The sum of ``spec`` over n >= ``spec.start`` (:func:`qsum`)."""
    return QSeries((spec,))


def P(spec: QTerm) -> QSeries:
    """The term of ``spec`` at n = 0: its sum with ratio 0, 0^n T_n summed over n >= 0."""
    if spec.start:
        raise ValueError(f"a product is the term at n = 0, not at start {spec.start}")
    return S(replace(spec, ratio=MONO_ZERO))


# ----------------------------------------------------------------------
# Euler products and theta


def euler_product_direct(order: int) -> LaurentSeries:
    """(q;q)_inf as the literal product of binomials."""
    return qpoch(1, 1, 1, None, order)


# sum_{k>=0} (-1)^k q^(k(3k-1)/2), the pentagonal exponents of one sign
_PENTAGONAL = QTerm(exp=(3 * HALF, -HALF, 0), ratio=SIGN)

#: (q;q)_inf through the pentagonal number theorem (sparse sum).
euler_product_pentagonal = S(_PENTAGONAL) + S(
    replace(_PENTAGONAL, exp=(3 * HALF, HALF, 0), start=1)
)

#: 1/(q;q)_inf, the partition generating function: one pentagonal recurrence.
euler_inv = P(QTerm(den=(EULER,)))


def euler_inverse_direct(order: int) -> LaurentSeries:
    return inv_qpoch(1, 1, 1, None, order)


#: sum over all integers n of (-1)^n q^(n^2), folded to n >= 0.
theta_phi_neg_sum = S(QTerm(exp=(1, 0, 0), scale=2, ratio=SIGN, start=1)) + P(QTerm())

#: (q;q)_inf / (-q;q)_inf.
theta_phi_neg_prod = P(QTerm(num=(EULER,), den=(NEG_EULER,)))

# ----------------------------------------------------------------------
# mock theta functions

#: f(q) = sum q^(n^2) / (-q;q)_n^2, the principal third-order mock theta.
f3_def = S(QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 1), 1, N),) * 2))

#: omega(q) = sum q^(2n(n+1)) / (q;q^2)_{n+1}^2.
omega3_def = S(QTerm(exp=(2, 2, 0), den=(Poch(MONO_Q, 2, (1, 1)),) * 2))

#: The smallest-part style rewriting of omega(q):
#: sum over n >= 1 of q^(n-1) / ((1-q^n) (q^{n+1};q)_n (q^{2n+2};q^2)_inf).
omega3_rep_rhs = S(
    QTerm(
        exp=(0, 1, -1),
        den=(one_minus(0, 1), Poch(MONO_Q, 1, N, 1), Poch(mono(1, 2), 2, None, 2)),
        start=1,
    )
)

# sum q^(n^2) / (-q^2;q^2)_n
_PHI3 = QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 2), 2, N),))

#: phi(q) = sum q^(n^2) / (-q^2;q^2)_n, third order.
phi3_def = S(_PHI3)

#: phi(-q) = sum (-1)^n q^(n^2) / (-q^2;q^2)_n.
phi3_neg = S(replace(_PHI3, ratio=SIGN))

# ----------------------------------------------------------------------
# smallest-part generating functions

#: sum q^n / ((1-q^n)^2 (q^{n+1};q)_inf): counts smallest parts.
spt_lhs = S(QTerm(exp=(0, 1, 0), den=(one_minus(0, 1),) * 2 + (Poch(MONO_Q, 1, None, 1),), start=1))


def _moment_bracket(k: int, tail_exp: Tuple[Rational, Rational, int]) -> QSeries:
    # sum n q^(kn)/(1-q^(kn)) + sum (-1)^n (1+q^n) q^(tail_exp(n))/(1-q^(kn))^2
    body = QTerm(exp=(0, k, 0), den=(one_minus(0, k),), times_n=True, start=1)
    tail = QTerm(
        exp=tail_exp, num=(one_plus(0, 1),), den=(one_minus(0, k),) * 2, ratio=SIGN, start=1
    )
    return S(body) + S(tail)


#: The rank-moment style evaluation of the smallest-part sum: the bracket
#: over (q;q)_inf.  The theta-like tail carries q^(n(3n+1)/2); the
#: coefficient check against the oracle's smallest-part counts pins that
#: exponent down.
spt_rhs = _moment_bracket(1, (3 * HALF, HALF, 0)).times(den=(EULER,))

#: sum q^(2n) / ((1-q^(2n))^2 (-q^{n+1};q)_n (q^{n+1};q)_inf): weighted by
#: smallest-part multiplicity over the even-smallest-part two-color partitions.
sptG_lhs = S(
    QTerm(
        exp=(0, 2, 0),
        den=(one_minus(0, 2),) * 2 + (Poch(mono(-1, 1), 1, N, 1), Poch(MONO_Q, 1, None, 1)),
        start=1,
    )
)

#: sum n q^(2n)/(1-q^(2n)) + sum (-1)^n (1+q^n) q^(3n(n+1)/2)/(1-q^(2n))^2.
sptg_bracket = _moment_bracket(2, (3 * HALF, 3 * HALF, 0))

#: Companion evaluation of sptG_lhs with the same theta-like tail.
sptG_rhs = sptg_bracket.times(den=(EULER,))

# ----------------------------------------------------------------------
# two-color partition generating functions and rank series


def _two_color(*den: Poch) -> QSeries:
    # sum_{n>=1} q^(2n) / prod(den)
    return S(QTerm(exp=(0, 2, 0), den=den, start=1))


# sum q^(2n) / ((1-q^(2n)) (-q^{n+1};q)_n (q^{n+1};q)_inf)
_g_form_split = _two_color(one_minus(0, 2), Poch(mono(-1, 1), 1, N, 1), Poch(MONO_Q, 1, None, 1))

# sum q^(2n) / ((1-q^(2n)) (q^{2n+2};q^2)_n (q^{2n+1};q)_inf)
_g_form_merged = _two_color(one_minus(0, 2), Poch(mono(1, 2), 2, N, 2), Poch(MONO_Q, 1, None, 2))

# sum q^(2n) / ((q^{2n+2};q^2)_n (q^{2n};q)_inf): even smallest part 2n,
# blue parts >= 2n, red parts even in (2n, 4n]
_g_form_combinatorial = _two_color(Poch(mono(1, 2), 2, N, 2), Poch(MONO_ONE, 1, None, 2))

# sum q^(2n) / ((q^{2n};q^2)_{n+1} (q^{2n+1};q)_inf)
_no_plus_form1 = _two_color(Poch(MONO_ONE, 2, (1, 1), 2), Poch(MONO_Q, 1, None, 2))

# sum q^(2n) / ((-q^n;q)_{n+1} (q^n;q)_inf)
_no_plus_form3 = _two_color(Poch(mono(-1, 0), 1, (1, 1), 1), Poch(MONO_ONE, 1, None, 1))

# q^2 sum_{n>=0} q^(2n) / ((-q^{n+1};q)_{n+2} (q^{n+1};q)_inf)
_no_plus_form4 = S(
    QTerm(exp=(0, 2, 2), den=(Poch(mono(-1, 1), 1, (1, 2), 1), Poch(MONO_Q, 1, None, 1)))
)

# (q^2/(q;q)_inf) sum (q;q)_n q^(2n) / (-q^{n+1};q)_{n+2}
_no_plus_form5 = S(
    QTerm(
        exp=(0, 2, 2),
        num=(Poch(MONO_Q, 1, N),),
        den=(Poch(mono(-1, 1), 1, (1, 2), 1), EULER),
    )
)

# (q^2/(q;q)_inf) sum (q;q)_n (-q;q)_n q^(2n) / (-q;q)_{2n+2}
_no_plus_form6 = S(
    QTerm(
        exp=(0, 2, 2),
        num=(Poch(MONO_Q, 1, N), Poch(mono(-1, 1), 1, N)),
        den=(Poch(mono(-1, 1), 1, (2, 2)), EULER),
    )
)

#: sum (q^2;q^2)_n q^(2n) / ((-q^3;q^2)_n (-q^4;q^2)_n).
even_base_quotient_sum = S(
    QTerm(
        exp=(0, 2, 0),
        num=(Poch(mono(1, 2), 2, N),),
        den=(Poch(mono(-1, 3), 2, N), Poch(mono(-1, 4), 2, N)),
    )
)

# q^2 / ((q;q)_inf (1+q)(1+q^2)) times the even-base quotient sum
_no_plus_form7 = even_base_quotient_sum.times(e=2, den=(EULER, one_plus(1), one_plus(2)))

#: 1/(q;q)_inf - 4 * (positive-odd-rank generating sum).
f3_newrep_rhs = euler_inv + _no_plus_form1.times(-4)

#: sum_{n>=0} q^(2n+1) / ((q^{2n+1};q)_inf (q^{2n+2};q^2)_n): odd smallest
#: part 2n+1, blue parts >= 2n+1, red parts even in (2n, 4n].
gprime_series = S(QTerm(exp=(0, 2, 1), den=(Poch(MONO_Q, 1, None, 2), Poch(mono(1, 2), 2, N, 2))))

#: Even-rank generating function: 1/(q;q)_inf - 2 * (split two-color sum).
ne_series_rhs = euler_inv + _g_form_split.times(-2)

#: sum (-1)^n q^(n(3n+1)/2) / (1+q^n): Fine's numbers.
fineJ_direct = S(QTerm(exp=(3 * HALF, HALF, 0), den=(one_plus(0, 1),), ratio=SIGN, start=1))

#: - sum (q;q)_n q^(2n) / ((1-q^(2n)) (-q^{n+1};q)_n).
fineJ_rhs = S(
    QTerm(
        exp=(0, 2, 0),
        num=(Poch(MONO_Q, 1, N),),
        den=(one_minus(0, 2), Poch(mono(-1, 1), 1, N, 1)),
        scale=-1,
        start=1,
    )
)

#: (f(q) (q;q)_inf - 1) / 4.
fineJ_from_f3 = f3_def.times(Fraction(1, 4), num=(EULER,)) + P(QTerm(scale=Fraction(-1, 4)))

#: Closed evaluation of the odd-smallest-part two-color series:
#: q^2 - q(1+q) phi(-q) + q(3-q)/(2 (q;q)_inf)
#: + q(1+q)(q^2;q^2)_inf / (2 (-q;q)_inf^3).
thm61_rhs = (
    P(QTerm(exp=(0, 0, 2)))
    + phi3_neg.times(-1, 1, num=(one_plus(1),))
    + euler_inv.times(Fraction(3, 2), 1)
    + euler_inv.times(-HALF, 2)
    + P(QTerm(exp=(0, 0, 1), num=(one_plus(1), EULER_Q2), den=(NEG_EULER,) * 3, scale=HALF))
)

# ----------------------------------------------------------------------
# parameterized sums


def _lem21_theta_part(b: Monomial) -> QTerm:
    # -q (q^2;q^2)_inf / ((-q;q^2)_inf (-b q^2;q^2)_inf)
    #    * sum_{m>=0} (-1)^m b^m q^(m^2+2m) / (-q^3;q^2)_{m+1}
    den = (Poch(mono(-1, 3), 2, (1, 1)), Poch(mono(-1, 1), 2), Poch(b.times(mono(-1, 2)), 2))
    return QTerm(exp=(1, 2, 1), num=(EULER_Q2,), den=den, scale=-1, ratio=b.times(SIGN))


def lem21_lhs(order: int, b: Monomial) -> LaurentSeries:
    """sum (q^2;q^2)_n q^(2n) / ((-q;q^2)_n (-b q^2;q^2)_n)."""
    num = (Poch(mono(1, 2), 2, N),)
    den = (Poch(mono(-1, 1), 2, N), Poch(b.times(mono(-1, 2)), 2, N))
    return S(QTerm(exp=(0, 2, 0), num=num, den=den))(order)


def lem21_rhs(order: int, b: Monomial) -> LaurentSeries:
    """(1+q)/(1+q^3) + theta part + the continued tail sum.

    Valid for any monomial b; this is the analytically continued form whose
    tail terms carry q^(2m+1), so it converges formally even at b = 1.
    """
    # (1+q)(1-q^2) sum_{m>=1} (-b)^m q^(2m+1) / ((1+q^(2m+1))(1+q^(2m+3)))
    tail = QTerm(
        exp=(0, 2, 1),
        num=(one_plus(1), one_minus(2)),
        den=(one_plus(1, 2), one_plus(3, 2)),
        ratio=b.times(SIGN),
        start=1,
    )
    part1 = P(QTerm(num=(one_plus(1),), den=(one_plus(3),)))
    return (part1 + S(_lem21_theta_part(b)) + S(tail))(order)


def before_ac_rhs(order: int, b: Monomial) -> LaurentSeries:
    """The pre-continuation form: theta part + (1+b)(1+q) sum (-b)^m/(1+q^{2m+3}).

    At b = 1 the final sum has constant-valuation terms and is formally
    divergent; evaluation then raises TruncationStall at its first step.
    """
    num = (Poch(b.times(SIGN), 1, (0, 1)), one_plus(1))
    tail = QTerm(num=num, den=(one_plus(3, 2),), ratio=b.times(SIGN))
    return (S(_lem21_theta_part(b)) + S(tail))(order)


def entry239_lhs(order: int, a: Monomial) -> LaurentSeries:
    """sum (-1)^m q^(m^2) / (-a q^2;q^2)_m."""
    den = (Poch(a.times(mono(-1, 2)), 2, N),)
    return S(QTerm(exp=(1, 0, 0), den=den, ratio=SIGN))(order)


def entry239_rhs(order: int, a: Monomial) -> LaurentSeries:
    """(1+a) sum (-1)^(m-1) q^(m^2) / (-a q;q^2)_m + phi(-q)/(-a q;q)_inf."""
    arg = a.times(mono(-1, 1))
    num = (Poch(a.times(SIGN), 1, (0, 1)),)
    s = QTerm(exp=(1, 0, 0), num=num, den=(Poch(arg, 2, N),), scale=-1, ratio=SIGN, start=1)
    theta = QTerm(num=(EULER,), den=(NEG_EULER, Poch(arg)))
    return (S(s) + P(theta))(order)


def _z_inv(z: Monomial) -> Monomial:
    if z.is_zero:
        raise UnsupportedParameter("z must be a nonzero monomial")
    return z.inv()


def z_identity_lhs(order: int, z: Monomial) -> LaurentSeries:
    """sum (z;q^2)_n (z^{-1};q^2)_n q^(2n) / ((q^2;q^2)_n (-q;q)_{2n})."""
    num = (Poch(z, 2, N), Poch(_z_inv(z), 2, N))
    den = (Poch(mono(1, 2), 2, N), Poch(mono(-1, 1), 1, (2, 0)))
    return S(QTerm(exp=(0, 2, 0), num=num, den=den))(order)


def z_identity_rhs(order: int, z: Monomial) -> LaurentSeries:
    """The paired product form with the theta-like tail, for monomial z.

    (1/(q^2;q^2)_inf^2) [ (z^{-1}q^2;q^2)_inf (z q^2;q^2)_inf
      + sum_{n>=1} (-1)^n (1+q^n) (z^{-1};q^2)_inf (z;q^2)_inf
          q^(3n(n+1)/2) / ((1-z q^(2n)) (1-q^(2n)/z)) ]

    At z = q^(2j), j != 0, the term n = |j| is 0/0: a zero factor of
    (z^{-1};q^2)_inf (z;q^2)_inf cancels the vanishing denominator.  The
    product form cannot take that limit, so such z are rejected.
    """
    zi = _z_inv(z)
    if z.coeff == 1 and z.power and z.power % 2 == 0:
        raise UnsupportedParameter(
            f"z_identity_rhs has a removable singularity at z={z} "
            f"(0/0 in the term n={abs(z.power) // 2}); z_identity_lhs evaluates there"
        )
    head = QTerm(num=(Poch(zi.times_q(2), 2), Poch(z.times_q(2), 2)), den=(EULER_Q2,) * 2)
    tail = QTerm(
        exp=(3 * HALF, 3 * HALF, 0),
        num=(one_plus(0, 1), Poch(zi, 2), Poch(z, 2)),
        den=(Poch(z, 1, (0, 1), 2), Poch(zi, 1, (0, 1), 2), EULER_Q2, EULER_Q2),
        ratio=SIGN,
        start=1,
    )
    return (P(head) + S(tail))(order)


# ----------------------------------------------------------------------
# the name catalog


_Forms = Tuple[Callable[..., LaurentSeries], ...]


def _catalog(*rows: tuple) -> Dict[str, _Forms]:
    catalog: Dict[str, _Forms] = {}
    for name, *forms in rows:
        if name in catalog:
            raise ValueError(f"duplicate series name {name}")
        catalog[name] = tuple(forms)
    return catalog


#: Each series name with its builder forms; :func:`names` keeps this order.
_CATALOG = _catalog(
    ("f3_def", f3_def),
    ("f3_newrep_rhs", f3_newrep_rhs),
    ("omega3_def", omega3_def),
    ("omega3_rep_rhs", omega3_rep_rhs),
    ("phi3_def", phi3_def),
    ("phi3_neg", phi3_neg),
    ("theta_phi_neg", theta_phi_neg_sum, theta_phi_neg_prod),
    ("euler_product", euler_product_direct, euler_product_pentagonal),
    ("euler_inverse", euler_inv, euler_inverse_direct),
    ("spt_lhs", spt_lhs),
    ("spt_rhs", spt_rhs),
    ("sptG_lhs", sptG_lhs),
    ("sptG_rhs", sptG_rhs),
    ("G_series", _g_form_split, _g_form_merged, _g_form_combinatorial),
    ("Gprime_series", gprime_series),
    (
        "No_plus_series",
        _no_plus_form1,
        _g_form_split,
        _no_plus_form3,
        _no_plus_form4,
        _no_plus_form5,
        _no_plus_form6,
        _no_plus_form7,
    ),
    ("Ne_series_rhs", ne_series_rhs),
    ("fineJ_direct", fineJ_direct),
    ("fineJ_rhs", fineJ_rhs),
    ("fineJ_from_f3", fineJ_from_f3),
    ("thm61_rhs", thm61_rhs),
    ("lem21_lhs", lem21_lhs),
    ("lem21_rhs", lem21_rhs),
    ("before_ac_rhs", before_ac_rhs),
    ("z_identity_lhs", z_identity_lhs),
    ("z_identity_rhs", z_identity_rhs),
    ("entry239_lhs", entry239_lhs),
    ("entry239_rhs", entry239_rhs),
    ("even_base_quotient_sum", even_base_quotient_sum),
)


def names() -> Tuple[str, ...]:
    """All series names, in catalog order."""
    return tuple(_CATALOG)


def builder_forms(name: str) -> _Forms:
    """Every independent builder form of ``name``."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownName(name) from None


def param_names(name: str) -> Tuple[str, ...]:
    """The parameters of ``name``: its first form's arguments after ``order``.

    A :class:`QSeries` form takes the order alone; a function form's
    arguments are read from its code object.
    """
    code = getattr(builder_forms(name)[0], "__code__", None)
    if code is None:
        return ()
    return code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]


def check_order(order: int) -> None:
    """Raise ValueError unless the truncation order is at least 1."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")


def evaluate(form: Callable[..., LaurentSeries], order: int, **params: Monomial) -> LaurentSeries:
    """``form(order, **params)``, where a window that memory cannot hold raises a ``MemoryError`` naming the order."""
    try:
        return form(order, **params)
    except MemoryError:  # a bare one names nothing
        raise MemoryError(f"the series window below order {order} does not fit in memory") from None


def build(
    name: str,
    order: int,
    params: Optional[Mapping[str, Monomial]] = None,
    form: int = 0,
) -> LaurentSeries:
    """Evaluate a named series at the requested truncation order.

    ``params`` supplies monomial values for parameterized names and must
    name exactly the parameters :func:`param_names` reads from the builder.
    """
    check_order(order)
    forms = builder_forms(name)
    declared = param_names(name)
    given = dict(params or {})
    if set(given) != set(declared):
        missing = set(declared) - set(given)
        if missing:
            raise MissingParameter(f"{name} needs parameters {sorted(missing)}")
        raise MissingParameter(
            f"{name} takes parameters {list(declared)}, got {sorted(given)}"
        )
    if not 0 <= form < len(forms):
        raise IndexError(f"{name} has forms 0..{len(forms) - 1}, got {form}")
    result = evaluate(forms[form], order, **given)
    if result.order < order:
        raise InvalidWindowContract(name, result.order, order)
    return result


class InvalidWindowContract(AssertionError):
    """A builder delivered a smaller window than requested (internal bug)."""

    def __init__(self, name: str, got: int, wanted: int):
        super().__init__(f"{name} delivered order {got}, wanted {wanted}")
