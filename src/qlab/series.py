"""Exact truncated Laurent series in q over arbitrary-precision rationals.

The single value type is :class:`LaurentSeries`: a finite window of exact
rational coefficients together with the bound below which those coefficients
are guaranteed correct.  All ring operations track windows pessimistically,
so every coefficient that can be read out of a series is exact; nothing is
ever approximated with floating point.

Windows.  A series stores coefficients for exponents ``min_exp <= k < order``.
Coefficients below ``min_exp`` are exactly zero; coefficients at ``order`` and
above are unknown.  Binary operations shrink the window to the range on which
the result is fully determined: sums keep ``min(a.order, b.order)``, products
keep ``min(a.order + b.min_exp, b.order + a.min_exp)``.

Representation.  Coefficients are stored as integers over a single positive
common denominator, which keeps the hot convolution loops in plain integer
arithmetic; :class:`fractions.Fraction` values are materialised only at the
API boundary.  The leading stored coefficient is nonzero, except that a
series which is zero on its whole window is stored with an empty coefficient
block and ``min_exp == order``.

Kernels.  The in-place binomial and pentagonal passes over integer windows,
and :func:`_apply`, which multiplies a window by a list of q-product factors
through them, are the engine behind :mod:`qlab.qfunctions`' products and sums.
A sum's term is compiled once into integers (:class:`_Plan`), from which
each term's valuation, and the binomials that step one term into a later
one, are worked out at their indices.

Everything here is immutable and side-effect free, so series may be shared
freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .record import Record

Rational = Union[int, Fraction]

#: Term evaluations beyond ``order`` that :func:`sum_terms` and ``qsum`` allow
#: before a formally divergent sum is reported via :class:`TruncationStall`.
#: The catalog's convergent sums stop within order + 1 terms, so at every
#: order the cap only bounds how long a divergent sum runs.
DEFAULT_TERM_CAP = 20_000


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class InvalidWindow(SeriesError):
    """A requested window is empty or inconsistent with the data."""


class NotInvertible(SeriesError):
    """Inversion of a series whose leading coefficient is unavailable or zero."""


class OutOfWindow(SeriesError):
    """A coefficient beyond the determined window was requested."""


class TruncationStall(SeriesError):
    """A term sum failed to leave the window within the term cap.

    This is the formal-divergence signal: the terms of the sum keep
    contributing below the truncation order instead of escaping above it.
    """


class Mismatch(NamedTuple):
    """First disagreeing coefficient found by :meth:`LaurentSeries.equal_up_to`."""

    exponent: int
    lhs: Fraction
    rhs: Fraction


class LaurentSeries:
    """A truncated formal Laurent series with exact rational coefficients.

    Instances are canonical: the coefficient stored at ``min_exp`` is nonzero
    unless the series is zero on its whole window, in which case the window
    is collapsed to ``min_exp == order``.  Construct via :func:`monomial`,
    :func:`pochhammer`, :func:`sum_terms` or :meth:`from_coeffs`.
    """

    __slots__ = ("min_exp", "nums", "den", "order")

    min_exp: int
    nums: Tuple[int, ...]
    den: int
    order: int

    def __init__(self, min_exp: int, coeffs: Sequence[Rational], order: int):
        if order - min_exp != len(coeffs):
            raise InvalidWindow(
                f"window [{min_exp}, {order}) needs {order - min_exp} "
                f"coefficients, got {len(coeffs)}"
            )
        den = 1
        for c in coeffs:
            if isinstance(c, Fraction):
                d = c.denominator
                den = den // gcd(den, d) * d
            else:
                exact(c)
        nums = [
            (c.numerator * (den // c.denominator) if isinstance(c, Fraction) else c * den)
            for c in coeffs
        ]
        src = _make(min_exp, nums, den, order)
        object.__setattr__(self, "min_exp", src.min_exp)
        object.__setattr__(self, "nums", src.nums)
        object.__setattr__(self, "den", src.den)
        object.__setattr__(self, "order", src.order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def from_coeffs(
        cls, min_exp: int, coeffs: Sequence[Rational], order: int
    ) -> "LaurentSeries":
        """Build a series from explicit window data (validated, normalised)."""
        return cls(min_exp, coeffs, order)

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        """True when every coefficient on the window is zero."""
        return not self.nums

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The window coefficients, lowest exponent first, as Fractions."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.nums)

    def _num_at(self, k: int) -> int:
        i = k - self.min_exp
        if 0 <= i < len(self.nums):
            return self.nums[i]
        return 0

    def coefficient(self, k: int) -> Fraction:
        """Exact coefficient of q^k; zero below the window, error at/above ``order``."""
        if k >= self.order:
            raise OutOfWindow(f"coefficient {k} requested, window ends at {self.order}")
        return Fraction(self._num_at(k), self.den)

    def equal_up_to(
        self, other: "LaurentSeries", order: int
    ) -> Tuple[bool, Optional[Mismatch]]:
        """Compare coefficients for all exponents below ``order``.

        Returns ``(True, None)`` on agreement, otherwise ``(False, mismatch)``
        with the smallest disagreeing exponent and both values.
        """
        if order > self.order or order > other.order:
            raise OutOfWindow(
                f"comparison order {order} exceeds windows "
                f"{self.order} / {other.order}"
            )
        lo = min(self.min_exp, other.min_exp)
        da, db = self.den, other.den
        for k in range(lo, order):
            a = self._num_at(k) * db
            b = other._num_at(k) * da
            if a != b:
                return False, Mismatch(k, self.coefficient(k), other.coefficient(k))
        return True, None

    # ------------------------------------------------------------------
    # ring operations

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        return _total((self, other), min(self.order, other.order))

    def neg(self) -> "LaurentSeries":
        return _raw(self.min_exp, tuple(-x for x in self.nums), self.den, self.order)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def scale(self, c: Rational) -> "LaurentSeries":
        """Multiply every coefficient by the exact rational ``c``."""
        c = Fraction(exact(c))
        if not c:
            return zero(self.order)
        cn, cd = c.numerator, c.denominator
        return _make(self.min_exp, [x * cn for x in self.nums], self.den * cd, self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k exactly; the window translates with no loss."""
        return _raw(self.min_exp + k, self.nums, self.den, self.order + k)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        me = self.min_exp + other.min_exp
        mo = min(self.order + other.min_exp, other.order + self.min_exp)
        if mo <= me:
            return zero(mo)
        a, b = self.nums, other.nums
        if len(a) > len(b):
            a, b = b, a
        length = mo - me  # equals min(len(a), len(b))
        out = [0] * length
        for i, ai in enumerate(a):
            if ai:
                m = length - i
                out[i:] = [x + ai * y for x, y in zip(out[i:], b[:m])]
        return _make(me, out, self.den * other.den, mo)

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse on the determined window.

        For a series known on ``[m, N)`` with nonzero leading coefficient the
        inverse is known on ``[-m, N - 2m)``, which is exactly the window on
        which ``self.mul(result)`` evaluates to 1.
        """
        if not self.nums:
            raise NotInvertible("series is zero on its window")
        a = self.nums
        lead = a[0]
        n = len(a)
        # c[k] is the k-th inverse coefficient times lead**(k+1), which keeps
        # the recurrence integral: c[k] = -sum_i a[i] lead**(i-1) c[k-i]
        weights = [(i, ai * lead ** (i - 1)) for i, ai in enumerate(a) if ai and i > 0]
        c = [0] * n
        c[0] = 1
        for k in range(1, n):
            s = 0
            for i, wi in weights:
                if i > k:
                    break
                s += wi * c[k - i]
            c[k] = -s
        # inverse coefficient k is den * c[k] * lead**(n-1-k) / lead**n
        power = self.den
        for k in range(n - 1, -1, -1):
            c[k] *= power
            power *= lead
        m = self.min_exp
        return _make(-m, c, lead**n, self.order - 2 * m)

    def substitute_power(self, k: int) -> "LaurentSeries":
        """Replace q by q^k (k >= 1): coefficients move to k-times exponents."""
        if k < 1:
            raise ValueError("substitute_power requires k >= 1")
        if k == 1 or not self.nums:
            return _raw(self.min_exp * k, self.nums, self.den, self.order * k)
        out = [0] * (k * len(self.nums))
        for i, x in enumerate(self.nums):
            out[i * k] = x
        return _make(self.min_exp * k, out, self.den, self.order * k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.min_exp == other.min_exp
            and self.order == other.order
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.min_exp, self.order, self.den, self.nums))

    def __repr__(self) -> str:
        terms = []
        for i, x in enumerate(self.nums):
            if x:
                terms.append(f"{Fraction(x, self.den)}*q^{self.min_exp + i}")
            if len(terms) == 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} on [{self.min_exp},{self.order})>"


# ----------------------------------------------------------------------
# construction helpers


def exact(c: object, field: str = "coefficient") -> Rational:
    """``c`` itself if it is an int or a Fraction; a float or anything else raises TypeError naming ``field``."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{field} {c!r} is not an int or a Fraction")
    return c


def _raw(min_exp: int, nums: Tuple[int, ...], den: int, order: int) -> LaurentSeries:
    s = object.__new__(LaurentSeries)
    object.__setattr__(s, "min_exp", min_exp)
    object.__setattr__(s, "nums", nums)
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "order", order)
    return s


def zero(order: int) -> LaurentSeries:
    """The zero series, known to vanish for all exponents below ``order``."""
    return _raw(order, (), 1, order)


def _make(min_exp: int, nums: Sequence[int], den: int, order: int) -> LaurentSeries:
    """Normalise raw window data: strip leading zeros, reduce, fix den sign."""
    i = 0
    n = len(nums)
    while i < n and not nums[i]:
        i += 1
    if i == n:
        return zero(order)
    if i:
        min_exp += i
        nums = nums[i:]
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    if den > 1:
        g = den
        for x in nums:
            if x:
                g = gcd(g, x)
                if g == 1:
                    break
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
    return _raw(min_exp, tuple(nums), den, order)


def _add_into(acc: list, lo: int, den: int, t: LaurentSeries, order: int) -> Tuple[int, int]:
    """Add ``t`` below ``order`` into ``acc``, numerators over ``den`` on [lo, order).

    One slice pass adds the term's window.  ``acc`` grows downward only for
    a term below ``lo``, and is rescaled only when ``t.den`` does not divide
    ``den``.  Returns the new ``(lo, den)``.
    """
    m = t.min_exp
    if m >= order:
        return lo, den
    if m < lo:
        acc[:0] = [0] * (lo - m)
        lo = m
    k, r = divmod(den, t.den)
    if r:
        f = t.den // gcd(den, t.den)
        acc[:] = [x * f for x in acc]
        den *= f
        k = den // t.den
    y = t.nums[: order - m]
    i = m - lo
    if k == 1:
        acc[i:] = [x + z for x, z in zip(acc[i:], y)]
    else:
        acc[i:] = [x + k * z for x, z in zip(acc[i:], y)]
    return lo, den


def _total(terms: Sequence[LaurentSeries], order: int) -> LaurentSeries:
    """The sum of ``terms`` below ``order``, normalised once by :func:`_make`.

    A term may be raw window data (:func:`_raw`).  The terms are added into
    one integer window first.
    """
    acc: list = []
    lo, den = order, 1
    for t in terms:
        lo, den = _add_into(acc, lo, den, t, order)
    return _make(lo, acc, den, order)


def one(order: int) -> LaurentSeries:
    """The constant series 1 on the window [0, order)."""
    return monomial(1, 0, order)


def monomial(c: Rational, k: int, order: int) -> LaurentSeries:
    """The single-term series c*q^k on the window [k, order)."""
    if k >= order:
        raise InvalidWindow(f"monomial exponent {k} not below order {order}")
    c = Fraction(exact(c))
    nums = [c.numerator] + [0] * (order - k - 1)
    return _make(k, nums, c.denominator, order)


# ----------------------------------------------------------------------
# q-shifted factorials


class PochhammerSpec(Record):
    """Symbolic q-shifted factorial (sign*q^offset; q^step)_length.

    ``length`` is a nonnegative integer or ``None`` for the infinite product.
    The factor exponents ``offset + k*step`` grow without bound because
    ``step >= 1``, so truncated evaluation always terminates.
    """

    sign: int
    offset: int
    step: int
    length: Optional[int]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.step < 1:
            raise ValueError("step must be a positive integer")
        if self.length is not None and self.length < 0:
            raise ValueError("length must be nonnegative or None")


# the factor (sign*q^offset; q^step)_length as (sign, offset, step, length)
_Factor = Tuple[int, int, int, Optional[int]]


def _binomial_factor_inplace(arr: list, sign: int, e: int) -> None:
    """Multiply the dense window ``arr`` by (1 - sign*q^e) in place."""
    length = len(arr)
    if e >= length:
        return
    if e >= 0:
        m = length - e
        if sign == 1:
            arr[e:] = [x - y for x, y in zip(arr[e:], arr[:m])]
        else:
            arr[e:] = [x + y for x, y in zip(arr[e:], arr[:m])]
    else:
        m = -e
        if m >= length:
            return
        if sign == 1:
            arr[: length - m] = [x - y for x, y in zip(arr[: length - m], arr[m:])]
        else:
            arr[: length - m] = [x + y for x, y in zip(arr[: length - m], arr[m:])]


def _binomial_divide_inplace(arr: list, sign: int, e: int) -> None:
    """Divide the dense window ``arr`` by (1 - sign*q^e), e >= 1, in place.

    This is ``arr[k] += sign*arr[k - e]`` for rising k, which stays exact in
    integers.  Dividing by 1 + q^e is multiplying by 1 - q^e and dividing by
    1 - q^(2e), so only running sums remain: along each residue class mod e
    when there are few of them, else block by block, each block of e adding
    the finished block before it.
    """
    if sign == -1:
        _binomial_factor_inplace(arr, 1, e)
        e *= 2
    length = len(arr)
    if e * e < length:
        for r in range(e):
            arr[r::e] = accumulate(arr[r::e])
    else:
        for i in range(e, length, e):
            arr[i : i + e] = [x + y for x, y in zip(arr[i : i + e], arr[i - e : i])]


def _pentagonal(top: int) -> Iterator[Tuple[int, int]]:
    """(g, sign) for each generalized pentagonal g in [1, top): (q;q)_inf = 1 + sum sign*q^g."""
    k = 1
    while k * (3 * k - 1) // 2 < top:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < top:
                yield g, -1 if k % 2 else 1
        k += 1


def _eta(arr: list, t: int, divide: bool) -> None:
    """Multiply or divide ``arr`` in place by (q^t;q^t)_inf = 1 + sum sign*q^(t*g).

    A multiply is one slice pass per pentagonal exponent t*g below the
    width.  A divide runs y_k = x_k - sum sign*y_(k - g) along each residue
    class mod t, which stays exact in integers.
    """
    pent = list(_pentagonal(-(-len(arr) // t)))
    if not divide:
        src = arr[:]
        for g, sign in pent:
            d = g * t
            if sign == 1:
                arr[d:] = [x + y for x, y in zip(arr[d:], src)]
            else:
                arr[d:] = [x - y for x, y in zip(arr[d:], src)]
        return
    for r in range(t):
        z = arr[r::t]
        for k in range(1, len(z)):
            x = z[k]
            for g, sign in pent:
                if g > k:
                    break
                if sign == 1:
                    x -= z[k - g]
                else:
                    x += z[k - g]
            z[k] = x
        arr[r::t] = z


def _eta_quotient(sign: int, a: int, step: int) -> Optional[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """(sign*q^a; q^step)_inf, a >= 1, as (base, powers), or ``None`` unless step | 2a.

    The factor is prod (q^t;q^t)_inf^p over ``powers`` (t, p), divided by
    the finite (sign*q^base; q^step) run of the binomials below q^a:

    * (q^s;q^s)_inf is the base case;
    * (-q^s;q^s)_inf = (q^2s;q^2s)_inf / (q^s;q^s)_inf;
    * (q^t;q^2t)_inf = (q^t;q^t)_inf / (q^2t;q^2t)_inf;
    * (-q^t;q^2t)_inf = (q^2t;q^2t)_inf^2 / ((q^t;q^t)_inf (q^4t;q^4t)_inf).
    """
    if 2 * a % step:
        return None
    if a % step == 0:
        return step, ((step, 1),) if sign == 1 else ((2 * step, 1), (step, -1))
    t = step // 2
    return t, ((t, 1), (step, -1)) if sign == 1 else ((step, 2), (t, -1), (2 * step, -1))


def _low(kernel: Callable[[list, int, int], None], arr: list, sign: int, e: int) -> int:
    """Apply 1 - sign*q^e, e <= 0, to ``arr`` by ``kernel``, up to the returned constant.

    1 - sign*q^e is -sign * q^e * (1 - sign*q^-e), and 1 + q^0 is 2 (no
    factor may hold 1 - q^0): the window takes 1 - sign*q^-e by ``kernel``,
    a multiply or an exact divide, the q^e is the caller's
    (:meth:`_Plan.valuation`), and -sign, or 2, is returned.
    """
    if not e:
        return 2
    kernel(arr, sign, -e)
    return -sign


def _apply(arr: List[int], num: List[_Factor], den: List[_Factor]) -> Fraction:
    """Multiply ``arr`` in place by prod(num) / prod(den), up to the returned constant.

    Binomials at exponents <= 0 go by :func:`_low`, and the quotient of
    their constants is returned.  An infinite factor's binomials from q^a
    on, a >= 1, go by the pentagonal number theorem when step | 2a
    (:func:`_eta_quotient` and :func:`_eta`) and that takes fewer passes
    over the window: the finite run below q^a plus one per pentagonal
    exponent, against one per binomial from q^a.  Every other binomial below
    the width is one literal multiply or exact divide.
    """
    c, width = [1, 1], len(arr)
    passes = (_binomial_factor_inplace, _binomial_divide_inplace)
    for i, factors in enumerate((num, den)):
        for sign, offset, step, length in factors:
            end = width if length is None else min(offset + length * step, width)
            a = offset if offset > 0 else offset % step or step  # the first exponent >= 1
            for e in range(offset, min(a, end), step):
                c[i] *= _low(passes[i], arr, sign, e)
            eta = length is None and a < end and _eta_quotient(sign, a, step)
            base, powers = eta or (a, ())
            pent = sum(abs(p) * len(list(_pentagonal(-(-width // t)))) for t, p in powers)
            if not eta or (a - base) // step + pent >= len(range(a, end, step)):
                for e in range(a, end, step):
                    passes[i](arr, sign, e)
                continue
            for t, p in powers:
                for _ in range(abs(p)):
                    _eta(arr, t, (p < 0) != (i == 1))
            for e in range(base, a, step):  # the finite run undoes the binomials below q^a
                passes[1 - i](arr, sign, e)
    return Fraction(*c)


# ----------------------------------------------------------------------
# compiled q-product terms

class _Plan:
    """A q-product term compiled to integers once, for the scan and the steps of its sum.

    Term n is scale * ratio^n * [n] * q^(e_n) * P_n with ``exp`` = (e2, e1,
    e0) and e_n = e2*n^2 + e1*n + e0, integral at every n; its scale is
    nonzero exactly when ``scale != 0`` and (the ratio is not 0 or n = 0).
    P_n is the product of ``factors``, each (den, sign, k, slope, step, a,
    b) for (sign*q^(k + slope*n); q^step)_(a*n + b), ``a = None`` when
    infinite, sign 1 or -1, in the numerator unless ``den``.  Each step's
    binomials, P_m / P_n for m > n, are worked out from these tuples at n
    and m (:meth:`net`).
    """

    def __init__(self, exp: tuple, factors: list, start: int, scale: Rational, ratio: Rational, times_n: bool):
        self.d = d = lcm(*(Fraction(x).denominator for x in exp if not isinstance(x, int)))
        self.a2, self.a1, self.a0 = (int(x * d) for x in exp)
        self.factors, self.start, self.scale, self.ratio, self.times_n = factors, start, scale, ratio, times_n

    def exponent(self, n: int) -> int:
        """e_n, or ``ValueError`` when it is not an integer."""
        x = (self.a2 * n + self.a1) * n + self.a0
        if x % self.d:
            raise ValueError(f"non-integral exponent {Fraction(x, self.d)} at n={n}")
        return x // self.d

    def term(self, n: int) -> Optional[int]:
        """The valuation of term n, or ``None`` when it is 0.

        A term of scale 0 is 0 without a look at its factors; else P_n's
        numerator may vanish (:meth:`valuation`).
        """
        e = self.exponent(n)
        mu = self.valuation(n) if self.scale and (self.ratio or not n) else None
        return None if mu is None else e + mu

    def valuation(self, n: int) -> Optional[int]:
        """The exact valuation of P_n, or ``None`` when a numerator vanishes.

        It is the sum of its binomials' exponents <= 0, read off each factor
        in closed form.  A negative length raises ``ValueError``, and a
        denominator that vanishes :class:`NotInvertible`.
        """
        v, zero, pole = 0, False, False
        for den, sign, k, slope, step, a, b in self.factors:
            length = None if a is None else a * n + b
            if length is not None and length <= 0:
                if length:
                    raise ValueError(f"negative Pochhammer length {length} at n={n}")
                continue
            o = k + slope * n
            if o > 0:
                continue
            c = -o // step + 1
            if length is not None and length < c:
                c = length
            elif sign == 1 and not -o % step:  # it holds 1 - q^0
                pole, zero = pole or den, zero or not den
                continue
            u = c * o + step * c * (c - 1) // 2
            v += -u if den else u
        if pole:
            raise NotInvertible("a denominator factor vanishes")
        return None if zero else v

    def at(self, n: int) -> Tuple[List[_Factor], List[_Factor]]:
        """The numerator and denominator factors of P_n, as :func:`~qlab.series._apply` takes them."""
        out: Tuple[List[_Factor], List[_Factor]] = ([], [])
        for den, sign, k, slope, step, a, b in self.factors:
            length = None if a is None else a * n + b
            if length is not None and length <= 0:
                if length:
                    raise ValueError(f"negative Pochhammer length {length} at n={n}")
                continue
            out[den].append((sign, k + slope * n, step, length))
        return out

    def net(self, n: int, m: int, width: int) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """The binomials 1 - sign*q^e that multiply and divide P_n into P_m, as pairs (sign, e).

        A factor at n is the progression of L_n = a*n + b binomials
        1 - sign*q^e from e = o = k + slope*n by ``step``.  The step loses
        those that the factor at m lacks and gains the converse: when the
        factor moves by a multiple of the step, at most two runs each way,
        with ends among o, p = k + slope*m, o + step*L_n and p + step*L_m;
        else all of n and all of m.  An infinite factor's run with no end
        stops at ``width``; finite ends are not clipped.  Lost numerator and
        gained denominator binomials divide, and a binomial on both sides
        cancels, as many times as it is on both, in time linear in the lists.
        """
        mul: list = []
        div: list = []
        for den, sign, k, slope, step, a, b in self.factors:
            o, p = k + slope * n, k + slope * m
            if a is None:
                runs = ((o, width, den), (p, width, not den)) if (p - o) % step else ((o, p, den), (p, o, not den))
            else:
                h, g = o + step * (a * n + b), p + step * (a * m + b)
                if (p - o) % step:
                    runs = ((o, h, den), (p, g, not den))
                else:  # min and max spelled out: calls to them cost more than the rest of the step
                    runs = ((o, h if h < p else p, den), (o if o > g else g, h, den),
                            (p, g if g < o else o, not den), (p if p > h else h, g, not den))
            for lo, hi, multiplies in runs:  # a lost binomial multiplies in a denominator
                if hi - lo > step:
                    (mul if multiplies else div).extend([(sign, e) for e in range(lo, hi, step)])
                elif lo < hi:  # most runs are empty or one binomial, which a comprehension would slow
                    (mul if multiplies else div).append((sign, lo))
        if mul and div and not set(mul).isdisjoint(div):
            left = dict.fromkeys(div, 0)  # how many times each binomial divides
            for f in div:
                left[f] += 1
            keep = []
            for f in mul:
                if left.get(f):
                    left[f] -= 1
                else:
                    keep.append(f)
            mul, div = keep, [f for f, c in left.items() for _ in range(c)]
        return mul, div


def pochhammer(spec: PochhammerSpec, order: int) -> LaurentSeries:
    """Evaluate a q-shifted factorial as an exact series on [min_exp, order).

    Finite length multiplies the literal binomials.  Infinite length stops
    once the factor exponent reaches ``order - min_exp``, beyond which no
    factor can touch the window.
    """
    sign, offset, step, length = spec.sign, spec.offset, spec.step, spec.length
    neg_exps = []
    if offset < 0:
        k = 0
        e = offset
        while e < 0 and (length is None or k < length):
            neg_exps.append(e)
            k += 1
            e = offset + k * step
    mu = sum(neg_exps)
    if order <= mu:
        return zero(order)
    top = order if order >= 1 else 1
    arr = [0] * (top - mu)
    arr[-mu] = 1
    # Negative-exponent factors must be applied while the partial product
    # still has bounded support, so they come first.
    for e in neg_exps:
        _binomial_factor_inplace(arr, sign, e)
    k = len(neg_exps)
    bound = top - mu
    while length is None or k < length:
        e = offset + k * step
        if e >= bound:
            break
        _binomial_factor_inplace(arr, sign, e)
        k += 1
    return _make(mu, arr[: order - mu], 1, order)


# ----------------------------------------------------------------------
# truncated sums


def sum_terms(
    term: Callable[[int], Optional[LaurentSeries]],
    order: int,
    cap: Optional[int] = None,
) -> LaurentSeries:
    """Sum ``term(0) + term(1) + ...`` until a term clears the window.

    The sum stops at the first index whose term has no coefficient below
    ``order``; all earlier terms are accumulated.  A term may be ``None``:
    it adds nothing and does not stop the sum (a term that is 0 below
    ``order`` while later ones need not be).  Terms must be built with a
    window reaching at least ``order``.  Every term is added in place into
    one integer window on [lo, order) over one common denominator, and the
    total is normalised once at the end.  If no closing term appears within
    ``cap`` evaluations (default ``max(order, 0) + DEFAULT_TERM_CAP``) the
    sum is formally divergent at this truncation and
    :class:`TruncationStall` is raised, naming the last term evaluated and
    its valuation.
    """
    if cap is None:
        cap = max(order, 0) + DEFAULT_TERM_CAP
    acc: list = []
    lo, den = order, 1
    for idx in range(cap):
        t = term(idx)
        if t is None:
            continue
        if t.order < order:
            raise InvalidWindow(
                f"term {idx} delivers order {t.order}, sum needs {order}"
            )
        if t.min_exp >= order:
            return _make(lo, acc, den, order)
        lo, den = _add_into(acc, lo, den, t, order)
    last = f": term {idx} has valuation {t.min_exp}" if cap > 0 and t is not None else ""
    raise TruncationStall(
        f"no term cleared order {order} within {cap} evaluations{last}"
    )
