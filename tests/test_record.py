"""The frozen records: equality, hashing, immutability, defaults, validation and ``replace``."""

import pickle
from fractions import Fraction
from typing import Optional

import pytest

from qlab.partitions import StatRow, TwoColorPartition
from qlab.qfunctions import MONO_Q, N, Monomial, Poch, QTerm, S, mono
from qlab.record import Record, replace
from qlab.registry import Specialization, VerificationReport, get_entry
from qlab.series import PochhammerSpec


class Twin(Record):
    """A record with the same fields as Poch."""

    arg: Monomial
    step: int = 1
    length: Optional[tuple] = None
    slope: int = 0


def test_fields_and_defaults_come_from_the_annotations():
    assert Poch._fields == ("arg", "step", "length", "slope")
    p = Poch(MONO_Q)
    assert (p.arg, p.step, p.length, p.slope) == (MONO_Q, 1, None, 0)
    assert Poch(MONO_Q, 2, N) == Poch(arg=MONO_Q, length=N, step=2)
    assert QTerm().start == 0 and QTerm().num == ()
    assert Specialization().params == () and not Specialization().expects_stall


def test_a_record_equals_only_a_record_of_its_class_with_equal_fields():
    p = Poch(MONO_Q, 2, N)
    assert p == Poch(Monomial(Fraction(1), 1), 2, (1, 0))
    assert p != Poch(MONO_Q, 2, N, 1)
    assert p != (MONO_Q, 2, N, 0)
    assert (MONO_Q, 2, N, 0) != p
    assert p != Twin(MONO_Q, 2, N, 0)
    assert Poch(MONO_Q) != QTerm()
    assert Monomial(1, 0) != (Fraction(1), 0)


def test_the_hash_agrees_with_equality():
    a = QTerm(exp=(1, 0, 0), den=(Poch(mono(-1, 1), 1, N),))
    b = QTerm(exp=(1, 0, 0), den=(Poch(Monomial(-1, 1), 1, (1, 0)),))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, QTerm()}) == 2
    assert {Monomial(Fraction(1, 2), 3): "x"}[Monomial(Fraction(2, 4), 3)] == "x"


def test_repr_names_the_class_and_every_field():
    assert repr(Monomial(Fraction(1, 2), 3)) == "Monomial(coeff=Fraction(1, 2), power=3)"
    assert repr(PochhammerSpec(1, 0, 1, None)) == (
        "PochhammerSpec(sign=1, offset=0, step=1, length=None)"
    )


def test_assignment_raises_but_object_setattr_still_reaches_a_field():
    m = Monomial(Fraction(1), 2)
    with pytest.raises(AttributeError):
        m.power = 3
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.power
    assert m.power == 2
    object.__setattr__(m, "power", 3)
    assert m.power == 3 and m == Monomial(1, 3)


def test_post_init_validates_and_normalises():
    assert type(Monomial(2, 1).coeff) is Fraction
    with pytest.raises(ValueError, match="zero monomial"):
        Monomial(0, 1)
    with pytest.raises(ValueError, match="step"):
        PochhammerSpec(1, 0, 0, None)
    with pytest.raises(ValueError, match="n >= 1"):
        QTerm(times_n=True)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: Poch(), "missing field 'arg'"),
        (lambda: Poch(MONO_Q, 1, None, 0, 9), "takes 4 fields"),
        (lambda: Poch(MONO_Q, nope=1), "'nope'"),
        (lambda: Poch(MONO_Q, arg=MONO_Q), "'arg'"),
    ],
)
def test_bad_arguments_are_type_errors(make, match):
    with pytest.raises(TypeError, match=match):
        make()


def test_replace_changes_fields_and_revalidates():
    m = Monomial(Fraction(1), 1)
    assert replace(m, power=4) == Monomial(1, 4)
    assert m.power == 1
    with pytest.raises(ValueError, match="zero monomial"):
        replace(m, coeff=0)
    with pytest.raises(ValueError, match="sign"):
        replace(PochhammerSpec(1, 0, 1, None), sign=2)
    with pytest.raises(ValueError, match="length"):
        replace(PochhammerSpec(1, 0, 1, None), length=-1)
    with pytest.raises(TypeError, match="'nope'"):
        replace(m, nope=1)
    entry = get_entry("thm-1.1")
    renamed = replace(entry, id="copy")
    assert renamed.id == "copy" and renamed.lhs is entry.lhs and entry.id == "thm-1.1"


@pytest.mark.parametrize(
    "record",
    [
        VerificationReport("thm-1.1", None, 10, True, None, 1.5),
        StatRow(1, 1, 0, 1, 1, 0, 1, 1, 0, 1),
        TwoColorPartition.of([(2, "blue")]),
        Monomial(Fraction(-1, 3), 2),
        S(QTerm(exp=(1, 0, 0))),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_pickle_to_equal_records(record):
    """Pool workers send their reports back pickled."""
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy is not record
