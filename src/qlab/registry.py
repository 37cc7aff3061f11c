"""The identity catalog and its verification engine.

Each :class:`IdentityEntry` pairs two independent series builders (left and
right side of one identity) with the monomial specializations at which the
identity is checked; each row's label and default truncation order follow
from its parameters.  A side is one :class:`~qlab.qfunctions.QSeries` (a
named series, or sums and products, each a ``qsum``, joined by ``+``), or for a
parameterized row a function of ``(order, **params)`` that states its parts
the same way, so no series arithmetic runs on any side.

:func:`verify_all` runs a set of rows (the whole catalog, or the entries
:func:`select` resolves from a selector): it builds both sides of each row,
compares them coefficient by coefficient through
:meth:`LaurentSeries.equal_up_to`, and turns a failing row into a failed
report without aborting the run.  :func:`verify` checks one row the same
way.

Parameterized identities are checked at finitely many monomial
specializations with distinct exponents rather than through a bivariate
engine; a passing row is evidence at that specialization only, and the
reports keep the rows separate.  One catalog row is a deliberate negative
control: the pre-continuation evaluation at b = 1 must stall (its tail has
constant-valuation terms), mirroring why the analytic continuation is needed
in the first place.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .record import Record, replace
from .series import LaurentSeries, Mismatch, TruncationStall
from . import qfunctions as qf
from .qfunctions import (
    EULER,
    EULER_Q2,
    HALF,
    MONO_ONE,
    MONO_Q,
    MONO_ZERO,
    N,
    NEG_EULER,
    SIGN,
    Monomial,
    P,
    Poch,
    QTerm,
    S,
    mono,
    one_minus,
    one_plus,
)


class UnknownIdentity(KeyError):
    """The requested identity id is not in the catalog."""


class UnknownSpecialization(ValueError):
    """The requested specialization is not registered for this identity."""


SideBuilder = Callable[..., LaurentSeries]


class Specialization(Record):
    """One parameter assignment at which an identity row is verified."""

    params: Tuple[Tuple[str, Monomial], ...] = ()
    expects_stall: bool = False

    @property
    def label(self) -> Optional[str]:
        """``name=value`` pairs joined by commas, or ``None`` without parameters."""
        return ",".join(f"{k}={v}" for k, v in self.params) or None


UNSPECIALIZED = (Specialization(),)


class IdentityEntry(Record):
    """A catalog row: two builders, the specializations they are checked at, an anchor."""

    id: str
    anchor: str
    lhs: SideBuilder
    rhs: SideBuilder
    specializations: Tuple[Specialization, ...] = UNSPECIALIZED

    @property
    def default_order(self) -> int:
        """100, or 60 for an entry with parameters."""
        return 60 if any(s.params for s in self.specializations) else 100

    def specialization(self, label: Optional[str]) -> Specialization:
        for spec in self.specializations:
            if spec.label == label:
                return spec
        raise UnknownSpecialization(
            f"{self.id} has no specialization {label!r}; "
            f"available: {[s.label for s in self.specializations]}"
        )


class VerificationReport(Record):
    """Outcome of one identity row at one truncation order."""

    id: str
    specialization: Optional[str]
    order: int
    passed: bool
    first_mismatch: Optional[Mismatch]
    elapsed_ms: float
    stalled: bool = False
    expected_stall: bool = False
    error: Optional[str] = None

    @property
    def row_id(self) -> str:
        return row_name(self.id, self.specialization)


def row_name(entry_id: str, label: Optional[str]) -> str:
    """The name of one catalog row: ``id``, or ``id@label`` for a specialization."""
    return entry_id if label is None else f"{entry_id}@{label}"


def _spec_rows(param: str, values: Sequence[Monomial]) -> Tuple[Specialization, ...]:
    return tuple(Specialization(params=((param, v),)) for v in values)


# ----------------------------------------------------------------------
# shared sub-sums (each used by several catalog rows)

# sum (-1)^n q^(2n+1) / (1 + q^(2n+1))
_ALT_Q_ODD_OVER_PLUS = S(QTerm(exp=(0, 2, 1), den=(one_plus(1, 2),), ratio=SIGN))
# sum (-1)^n q^(2n) / (1 + q^(2n+1))
_ALT_Q2_OVER_PLUS = S(QTerm(exp=(0, 2, 0), den=(one_plus(1, 2),), ratio=SIGN))
# sum (-1)^n q^n / (1 + q^(2n+2))
_ALT_Q_OVER_PLUS2 = S(QTerm(exp=(0, 1, 0), den=(one_plus(2, 2),), ratio=SIGN))
# sum_{m>=1} (-1)^(m-1) q^(m^2) / (-q;q^2)_m
_ALT_SQ_SUM_BASE1 = S(
    QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 1), 2, N),), scale=-1, ratio=SIGN, start=1)
)
# sum_{m>=1} (-1)^m q^(m^2) / (-q^3;q^2)_m
_ALT_SQ_SUM_BASE3 = S(QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 3), 2, N),), ratio=SIGN, start=1))
# sum_{m>=0} (-1)^m q^(m^2) / (-q^2;q^2)_{m+1}
_PHI3M_SUM = S(QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 2), 2, (1, 1)),), ratio=SIGN))
# sum_{n>=0} (-1)^n q^(2n) / ((1+q^(2n+1))(1+q^(2n+3)))
_PAIR_TAIL_FROM0 = QTerm(exp=(0, 2, 0), den=(one_plus(1, 2), one_plus(3, 2)), ratio=SIGN)
# the same from n = 1
_PAIR_TAIL = S(replace(_PAIR_TAIL_FROM0, start=1))
# (q;q)_inf^2 / (-q;q)_inf^2
_THETA_SQ = P(QTerm(num=(EULER, EULER), den=(NEG_EULER, NEG_EULER)))
# (q;q)_inf / (-q;q)_inf^2
_THETA_OVER_PLUS = P(QTerm(num=(EULER,), den=(NEG_EULER, NEG_EULER)))
# q(1+q)/((q;q)_inf (1+q^3))
#   + (q(1+q)(1-q^2)/(q;q)_inf) sum_{m>=1} (-1)^m q^(2m+1)/((1+q^(2m+1))(1+q^(2m+3)))
_ODD_HEAD_AND_TAIL = (
    P(QTerm(exp=(0, 0, 1), num=(one_plus(1),), den=(EULER, one_plus(3))))
    + _PAIR_TAIL.times(e=2, num=(one_plus(1), one_minus(2)), den=(EULER,))
)
# sum_{n>=1} (q^2;q^2)_{n-1}^2 q^(2n) / ((q^2;q^2)_n (-q;q)_{2n});
# the n=0 term vanishes under the reciprocal negative-index convention
_ALMOST_SPT = S(
    QTerm(
        exp=(0, 2, 0),
        num=(Poch(mono(1, 2), 2, (1, -1)),) * 2,
        den=(Poch(mono(1, 2), 2, N), Poch(mono(-1, 1), 1, (2, 0))),
        start=1,
    )
)


# ----------------------------------------------------------------------
# one-off entry sides

# (f(q) + 1/(q;q)_inf)/2; the constant term 1 counts the empty partition
_EVEN_RANK_LHS = (qf.f3_def + qf.euler_inv).times(HALF)

# 1/4 - (1/4) (q;q)_inf^2 / (-q;q)_inf^2
_LEM31_RHS = P(QTerm(scale=Fraction(1, 4))) + _THETA_SQ.times(Fraction(-1, 4))


def _fourparam_lhs(order: int, B: Monomial, a: Monomial, b: Monomial) -> LaurentSeries:
    # base Q = q^2, vanishing-A limit:
    # sum (B;Q)_n Q^n / ((-aQ;Q)_n (-bQ;Q)_n)
    num = (Poch(B, 2, N),)
    den = (Poch(a.times(mono(-1, 2)), 2, N), Poch(b.times(mono(-1, 2)), 2, N))
    return S(QTerm(exp=(0, 2, 0), num=num, den=den))(order)


def _fourparam_rhs(order: int, B: Monomial, a: Monomial, b: Monomial) -> LaurentSeries:
    # base Q = q^2, vanishing-A limit, using
    # lim (A^{-1};Q)_m A^m = (-1)^m Q^(m(m-1)/2):
    #  -(B;Q)_inf / (a (-bQ;Q)_inf (-aQ;Q)_inf)
    #      * sum (-1)^m Q^(m(m-1)/2) (bQ/a)^m / (-B/a;Q)_{m+1}
    #  + (1+b) sum (-a^{-1};Q)_{m+1} (-b)^m / (-B/a;Q)_{m+1}
    ia = a.inv()
    neg_b_over_a = Poch(B.times(ia).times(SIGN), 2, (1, 1))
    s1 = QTerm(
        exp=(1, -1, -a.power),
        num=(Poch(B, 2),),
        den=(neg_b_over_a, Poch(b.times(mono(-1, 2)), 2), Poch(a.times(mono(-1, 2)), 2)),
        scale=-ia.coeff,
        ratio=b.times(ia).times(mono(-1, 2)),
    )
    s2 = QTerm(
        num=(Poch(ia.times(SIGN), 2, (1, 1)), Poch(b.times(SIGN), 1, (0, 1))),
        den=(neg_b_over_a,),
        ratio=b.times(SIGN),
    )
    return (S(s1) + S(s2))(order)


# the bilateral quotient sum with base q^2, split into unilateral tails:
# 2(1+q^2) sum (-1)^n q^n/(1+q^(2n+2)) - (1+q^2)/(2q)
_PSI_SPLIT_BASE2_LHS = (
    _ALT_Q_OVER_PLUS2.times(2, num=(one_plus(2),))
    + P(QTerm(exp=(0, 0, -1), num=(one_plus(2),), scale=-HALF))
)

# (q^3;q^2)_inf (q^{-1};q^2)_inf (q^2;q^2)_inf^2
#   / ((-q;q^2)_inf^2 (-q^4;q^2)_inf (-1;q^2)_inf)
_PSI_PRODUCT_BASE2_RHS = P(
    QTerm(
        num=(Poch(mono(1, 3), 2), Poch(mono(1, -1), 2), EULER_Q2, EULER_Q2),
        den=(Poch(mono(-1, 1), 2),) * 2 + (Poch(mono(-1, 4), 2), Poch(mono(-1, 0), 2)),
    )
)

# 1/(4q) - (1/(4q)) (q;q)_inf^2/(-q;q)_inf^2
_FINAL1729_RHS = (
    P(QTerm(exp=(0, 0, -1), scale=Fraction(1, 4))) + _THETA_SQ.times(Fraction(-1, 4), -1)
)

# -(1/q^2) (q^2;q^2)_inf/((-q^4;q^2)_inf (-q^3;q^2)_inf) * S1
#   + (1+q)(1+q^2)/q * S2
_4PARA1_RHS = _ALT_SQ_SUM_BASE1.times(
    -1, -2, num=(EULER_Q2,), den=(Poch(mono(-1, 4), 2), Poch(mono(-1, 3), 2))
) + _ALT_Q2_OVER_PLUS.times(1, -1, num=(one_plus(1), one_plus(2)))

# -S1 + (1/(q;q)_inf) sum (-1)^m q^(2m+1)/(1+q^(2m+1))
_2SUMS_RHS = _ALT_SQ_SUM_BASE1.times(-1) + _ALT_Q_ODD_OVER_PLUS.times(den=(EULER,))

# (1/2) phi(-q) - (1/2) (q;q)_inf/(-q;q)_inf^2
_PHI312_RHS = qf.phi3_neg.times(HALF) + _THETA_OVER_PLUS.times(-HALF)

# (1/2) f(q) + (1/2) (q;q)_inf/(-q;q)_inf^2
_231_RHS = (qf.f3_def + _THETA_OVER_PLUS).times(HALF)

# (1/4) f(q) - (1/4) (q;q)_inf/(-q;q)_inf^2
_SUMINF_RHS = qf.f3_def.times(Fraction(1, 4)) + _THETA_OVER_PLUS.times(Fraction(-1, 4))

# -q + (1+q) phi(-q)
_PHI3M_RHS = qf.phi3_neg.times(num=(one_plus(1),)) + P(QTerm(exp=(0, 0, 1), scale=-1))

# 2(1+q)(1+q^3) sum_{n>=0} (-1)^n q^(2n)/((1+q^(2n+1))(1+q^(2n+3)))
#   - (1/q)(1+q^3)/(1+q)
_PSI_SPLIT_SEC6_LHS = (
    S(_PAIR_TAIL_FROM0.times(2, num=(one_plus(1), one_plus(3))))
    + P(QTerm(exp=(0, 0, -1), num=(one_plus(3),), den=(one_plus(1),), scale=-1))
)

# (q^3;q^2)_inf (q^{-1};q^2)_inf (q^2;q^2)_inf (q^4;q^2)_inf
#   / ((-q^2;q^2)_inf^2 (-q^5;q^2)_inf (-q;q^2)_inf)
_PSI_PRODUCT_SEC6_RHS = P(
    QTerm(
        num=(Poch(mono(1, 3), 2), Poch(mono(1, -1), 2), EULER_Q2, Poch(mono(1, 4), 2)),
        den=(Poch(mono(-1, 2), 2),) * 2 + (Poch(mono(-1, 5), 2), Poch(mono(-1, 1), 2)),
    )
)

# 1/(2q(1+q)^2) - 1/((1+q)(1+q^3)) - (1/(2q(1-q^2))) (q;q)_inf^2/(-q;q)_inf^2
_LAST1_RHS = (
    P(QTerm(exp=(0, 0, -1), den=(one_plus(1), one_plus(1)), scale=HALF))
    + P(QTerm(den=(one_plus(1), one_plus(3)), scale=-1))
    + _THETA_SQ.times(-HALF, -1, den=(one_minus(2),))
)

# q^2 - q(1+q) phi(-q) + q(1+q)(q;q)_inf/(-q;q)_inf^2
#   + q(1+q)/((q;q)_inf (1+q^3))
#   + (q(1+q)(1-q^2)/(q;q)_inf) sum (-1)^m q^(2m+1)/((1+q^(2m+1))(1+q^(2m+3)))
_LAST2_RHS = (
    P(QTerm(exp=(0, 0, 2)))
    + qf.phi3_neg.times(-1, 1, num=(one_plus(1),))
    + _THETA_OVER_PLUS.times(1, 1, num=(one_plus(1),))
    + _ODD_HEAD_AND_TAIL
)

# q sum_{m>=1} (-1)^m q^(m^2)/(-q^3;q^2)_m + q(1+q)/((q;q)_inf(1+q^3))
#   + (q(1+q)(1-q^2)/(q;q)_inf) * the paired tail at q^(2m+1)
_SERIESF_RHS = _ALT_SQ_SUM_BASE3.times(e=1) + _ODD_HEAD_AND_TAIL

# q(q;q)_inf/((-q;q)_inf(-q^2;q)_inf) - q sum (-1)^m q^(m^2)/(-q^2;q^2)_{m+1}
#   + q(1+q)/((q;q)_inf(1+q^3)) + the paired-tail block
_BEFOREPHI_RHS = (
    P(QTerm(exp=(0, 0, 1), num=(EULER,), den=(NEG_EULER, Poch(mono(-1, 2)))))
    + _PHI3M_SUM.times(-1, 1)
    + _ODD_HEAD_AND_TAIL
)


# ----------------------------------------------------------------------
# catalog


_B_VALUES = (MONO_ZERO, MONO_Q, mono(1, 2), MONO_ONE)
_Z_VALUES = (MONO_Q, mono(1, 3), mono(1, 5))
_A_VALUES = (MONO_ONE, MONO_Q, mono(1, 2))

_CATALOG: Tuple[IdentityEntry, ...] = (
    IdentityEntry(
        id="omega3-rep",
        anchor="omega(q) equals its smallest-part style sum",
        lhs=qf.omega3_def,
        rhs=qf.omega3_rep_rhs,
    ),
    IdentityEntry(
        id="spt-fundamental",
        anchor="smallest-part sum equals its rank-moment evaluation "
               "(first member, the enumerative count, is checked by the oracle suite)",
        lhs=qf.spt_lhs,
        rhs=qf.spt_rhs,
    ),
    IdentityEntry(
        id="thm-1.1",
        anchor="new representation of f(q) through the positive-odd-rank sum",
        lhs=qf.f3_def,
        rhs=qf.f3_newrep_rhs,
    ),
    IdentityEntry(
        id="thm-1.3",
        anchor="two-color smallest-part sum equals its evaluated form",
        lhs=qf.sptG_lhs,
        rhs=qf.sptG_rhs,
    ),
    IdentityEntry(
        id="cor-1.4-even-rank",
        anchor="even-rank generating function (constant term: empty partition)",
        lhs=_EVEN_RANK_LHS,
        rhs=qf.ne_series_rhs,
    ),
    IdentityEntry(
        id="cor-1.4-fine",
        anchor="Fine's numbers as a two-color style sum",
        lhs=qf.fineJ_direct,
        rhs=qf.fineJ_rhs,
    ),
    IdentityEntry(
        id="lem-2.1",
        anchor="analytic continuation of the b-parameterized quotient sum",
        lhs=qf.lem21_lhs,
        rhs=qf.lem21_rhs,
        specializations=_spec_rows("b", _B_VALUES),
    ),
    IdentityEntry(
        id="eq-before-ac",
        anchor="pre-continuation evaluation; b=1 is the divergence control",
        lhs=qf.lem21_lhs,
        rhs=qf.before_ac_rhs,
        specializations=tuple(
            Specialization(params=(("b", v),), expects_stall=(v == MONO_ONE))
            for v in _B_VALUES
        ),
    ),
    IdentityEntry(
        id="eq-4parameter",
        anchor="four-parameter transformation in the vanishing-A limit, base q^2",
        lhs=_fourparam_lhs,
        rhs=_fourparam_rhs,
        specializations=(
            Specialization(params=(("B", mono(1, 2)), ("a", mono(1, -1)), ("b", MONO_Q))),
            Specialization(params=(("B", mono(1, 2)), ("a", MONO_Q), ("b", mono(1, 2)))),
        ),
    ),
    IdentityEntry(
        id="lem-3.1",
        anchor="closed form of sum (-1)^n q^(2n+1)/(1+q^(2n+1))",
        lhs=_ALT_Q_ODD_OVER_PLUS,
        rhs=_LEM31_RHS,
    ),
    IdentityEntry(
        id="eq-2phi12",
        anchor="reindexing of the alternating quotient sum",
        lhs=_ALT_Q2_OVER_PLUS,
        rhs=_ALT_Q_OVER_PLUS2,
    ),
    IdentityEntry(
        id="eq-1psi1-sec3",
        anchor="Ramanujan 1psi1 bilateral evaluation, base q^2, split form",
        lhs=_PSI_SPLIT_BASE2_LHS,
        rhs=_PSI_PRODUCT_BASE2_RHS,
    ),
    IdentityEntry(
        id="eq-final1729",
        anchor="evaluation of sum (-1)^n q^n/(1+q^(2n+2))",
        lhs=_ALT_Q_OVER_PLUS2,
        rhs=_FINAL1729_RHS,
    ),
    IdentityEntry(
        id="eq-z-identity",
        anchor="z-parameterized product-plus-tail identity, odd monomials",
        lhs=qf.z_identity_lhs,
        rhs=qf.z_identity_rhs,
        specializations=_spec_rows("z", _Z_VALUES),
    ),
    IdentityEntry(
        id="eq-almost-spt",
        anchor="the double-derivative limit identity behind thm-1.3",
        lhs=_ALMOST_SPT,
        rhs=qf.sptg_bracket,
    ),
    IdentityEntry(
        id="eq-transf",
        anchor="rewriting chain, first equals last (intermediates are "
               "form-equivalent builders of No_plus_series)",
        lhs=qf.builder_forms("No_plus_series")[0],
        rhs=qf.builder_forms("No_plus_series")[6],
    ),
    IdentityEntry(
        id="eq-4para1",
        anchor="even-base quotient sum evaluated via the four-parameter limit",
        lhs=qf.even_base_quotient_sum,
        rhs=_4PARA1_RHS,
    ),
    IdentityEntry(
        id="eq-2sums",
        anchor="positive-odd-rank sum split into the alternating q^(m^2) piece",
        lhs=qf.builder_forms("No_plus_series")[0],
        rhs=_2SUMS_RHS,
    ),
    IdentityEntry(
        id="entry-239",
        anchor="alternating q^(m^2) transformation with parameter a "
               "(Lost Notebook entry 2.3.9)",
        lhs=qf.entry239_lhs,
        rhs=qf.entry239_rhs,
        specializations=_spec_rows("a", _A_VALUES),
    ),
    IdentityEntry(
        id="eq-phi312",
        anchor="the base-1 alternating q^(m^2) sum through phi(-q)",
        lhs=_ALT_SQ_SUM_BASE1,
        rhs=_PHI312_RHS,
    ),
    IdentityEntry(
        id="eq-2.3.1",
        anchor="relation between phi(-q) and f(q) (Lost Notebook entry 2.3.1)",
        lhs=qf.phi3_neg,
        rhs=_231_RHS,
    ),
    IdentityEntry(
        id="eq-suminf",
        anchor="the base-1 alternating q^(m^2) sum through f(q)",
        lhs=_ALT_SQ_SUM_BASE1,
        rhs=_SUMINF_RHS,
    ),
    IdentityEntry(
        id="eq-g1",
        anchor="split two-color sum equals its combinatorial product form",
        lhs=qf.builder_forms("G_series")[0],
        rhs=qf.builder_forms("G_series")[2],
    ),
    IdentityEntry(
        id="eq-g2",
        anchor="positive-odd-rank sum equals the split two-color sum",
        lhs=qf.builder_forms("No_plus_series")[0],
        rhs=qf.builder_forms("G_series")[0],
    ),
    IdentityEntry(
        id="thm-6.1",
        anchor="odd-smallest-part series in closed form via phi(-q)",
        lhs=qf.gprime_series,
        rhs=qf.thm61_rhs,
    ),
    IdentityEntry(
        id="eq-phi3m",
        anchor="shifted phi(-q) partial-fraction step",
        lhs=_PHI3M_SUM,
        rhs=_PHI3M_RHS,
    ),
    IdentityEntry(
        id="eq-1psi1-sec6",
        anchor="Ramanujan 1psi1 bilateral evaluation with the paired tail, split form",
        lhs=_PSI_SPLIT_SEC6_LHS,
        rhs=_PSI_PRODUCT_SEC6_RHS,
    ),
    IdentityEntry(
        id="eq-last1",
        anchor="closed form of the paired alternating tail",
        lhs=_PAIR_TAIL,
        rhs=_LAST1_RHS,
    ),
    IdentityEntry(
        id="eq-last2",
        anchor="odd-smallest-part series before the final tail evaluation",
        lhs=qf.gprime_series,
        rhs=_LAST2_RHS,
    ),
    IdentityEntry(
        id="eq-seriesf",
        anchor="odd-smallest-part series after continuing the quotient sum at b=1",
        lhs=qf.gprime_series,
        rhs=_SERIESF_RHS,
    ),
    IdentityEntry(
        id="eq-beforephi",
        anchor="odd-smallest-part series with the alternating piece transformed",
        lhs=qf.gprime_series,
        rhs=_BEFOREPHI_RHS,
    ),
)

_BY_ID: Dict[str, IdentityEntry] = {e.id: e for e in _CATALOG}


def catalog() -> Tuple[IdentityEntry, ...]:
    """The complete, immutable identity catalog."""
    return _CATALOG


def get_entry(entry_id: str) -> IdentityEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownIdentity(entry_id) from None


def select(selector: str) -> Tuple[IdentityEntry, ...]:
    """The catalog rows a selector names, as entries for :func:`verify_all`.

    ``all`` is the whole catalog, an id is that entry with every
    specialization, and ``id@label`` is the entry cut down to that one row.
    Raises :class:`UnknownIdentity` or :class:`UnknownSpecialization`.
    """
    if selector == "all":
        return _CATALOG
    entry_id, at, label = selector.partition("@")
    entry = get_entry(entry_id)
    if at:
        return (replace(entry, specializations=(entry.specialization(label),)),)
    return (entry,)


# ----------------------------------------------------------------------
# verification


def _run_row(
    entry: IdentityEntry, spec: Specialization, order: int
) -> VerificationReport:
    """Build and compare one row; every outcome, a builder error too, is a report."""
    kwargs = dict(spec.params)
    start = time.perf_counter()
    passed, stalled, mismatch, error = False, False, None, None
    try:
        lhs = qf.evaluate(entry.lhs, order, **kwargs)
        rhs = qf.evaluate(entry.rhs, order, **kwargs)
        if spec.expects_stall:
            # completing without a stall means the negative control failed
            error = "expected TruncationStall, but evaluation completed"
        else:
            passed, mismatch = lhs.equal_up_to(rhs, order)
    except Exception as exc:  # aggregate without aborting the run
        stalled = isinstance(exc, TruncationStall)
        passed = stalled and spec.expects_stall
        if not passed:
            error = f"{type(exc).__name__}: {exc}"
    return VerificationReport(
        id=entry.id,
        specialization=spec.label,
        order=order,
        passed=passed,
        first_mismatch=mismatch,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        stalled=stalled,
        expected_stall=spec.expects_stall,
        error=error,
    )


def verify(
    entry_id: str,
    specialization: Optional[str] = None,
    order: Optional[int] = None,
) -> VerificationReport:
    """Verify one catalog row at ``order``, or at its entry's default order when None.

    Raises only on an unknown id or specialization, or on an order that is
    not an int (``TypeError``) or below 1 (``ValueError``), as
    :func:`~qlab.qfunctions.build` raises.
    """
    entry = get_entry(entry_id)
    spec = entry.specialization(specialization)
    order = order if order is not None else entry.default_order
    qf.check_order(order)
    return _run_row(entry, spec, order)


def verify_all(
    order: Optional[int] = None,
    entries: Optional[Sequence[IdentityEntry]] = None,
    jobs: int = 1,
) -> List[VerificationReport]:
    """Verify every row of ``entries`` (default: the whole catalog).

    Every row runs at ``order``, or at its entry's default order when
    ``order`` is None.  An order that is not an int or below 1 raises
    (:func:`~qlab.qfunctions.check_order`) before any row runs; beyond that
    it never raises: a row whose sides fail to build
    becomes a failed report.  With ``jobs > 1`` and several catalog rows, the rows
    run in a process pool.  Results are sorted by row id regardless of
    execution order.
    """
    if order is not None:
        qf.check_order(order)
    entries = _CATALOG if entries is None else entries
    rows = [
        (entry, spec, order if order is not None else entry.default_order)
        for entry in entries
        for spec in entry.specializations
    ]
    # workers rebuild each row from its catalog id
    if jobs > 1 and len(rows) > 1 and all(_BY_ID.get(e.id) is e for e in entries):
        import concurrent.futures

        ids, labels, orders = zip(*[(e.id, s.label, o) for e, s, o in rows])
        # a fork start method starts every worker up front, so start no idle ones
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(rows))) as pool:
            reports = list(pool.map(verify, ids, labels, orders))
    else:
        reports = [_run_row(e, s, o) for e, s, o in rows]
    reports.sort(key=lambda r: (r.id, r.specialization or ""))
    return reports


def all_row_ids() -> List[str]:
    """Every id@specialization row name, in catalog order."""
    return [row_name(e.id, s.label) for e in _CATALOG for s in e.specializations]
