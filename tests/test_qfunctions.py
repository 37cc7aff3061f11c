"""Tests for the named series builders and their cross-form invariants."""

import inspect
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qlab import partitions as pt
from qlab import qfunctions as qf
from qlab.qfunctions import (
    MONO_ONE,
    MONO_Q,
    MONO_ZERO,
    MissingParameter,
    Monomial,
    UnknownName,
    build,
    builder_forms,
    mono,
    names,
    param_names,
)
from qlab.series import TruncationStall


def coeffs(series, lo, hi):
    return [series.coefficient(k) for k in range(lo, hi)]


def test_euler_inverse_example():
    assert coeffs(build("euler_inverse", 6), 0, 6) == [1, 1, 2, 3, 5, 7]


def test_f3_low_coefficients():
    assert coeffs(build("f3_def", 4), 0, 4) == [1, 1, -2, 3]


def test_theta_low_coefficients():
    assert coeffs(build("theta_phi_neg", 5), 0, 5) == [1, -2, 0, 0, 2]


def test_g_series_known_value():
    assert build("G_series", 9).coefficient(8) == 7


def test_form_counts():
    assert len(builder_forms("G_series")) == 3
    assert len(builder_forms("theta_phi_neg")) == 2
    assert len(builder_forms("euler_product")) == 2
    assert len(builder_forms("euler_inverse")) == 2
    assert len(builder_forms("No_plus_series")) == 7
    assert len(builder_forms("f3_def")) == 1


def test_unknown_name_rejected():
    with pytest.raises(UnknownName) as info:
        build("nu3_def", 10)
    assert str(info.value) == "unknown series name 'nu3_def'"


def test_missing_parameter_rejected():
    with pytest.raises(MissingParameter):
        build("lem21_lhs", 10)
    with pytest.raises(MissingParameter):
        build("f3_def", 10, {"b": MONO_Q})


@pytest.mark.parametrize(
    "name, params, form, error, message",
    [
        ("lem21_lhs", None, 0, MissingParameter, "lem21_lhs needs parameters ['b']"),
        ("f3_def", {"b": MONO_Q}, 0, MissingParameter, "f3_def takes parameters [], got ['b']"),
        ("G_series", None, 3, IndexError, "G_series has forms 0..2, got 3"),
    ],
)
def test_build_usage_errors_keep_their_messages(name, params, form, error, message):
    """The messages ``qlab compute`` prints for a usage error (exit 2).

    An unknown name raises :class:`UnknownName` (``test_unknown_name_rejected``).
    """
    with pytest.raises(error) as info:
        build(name, 10, params, form=form)
    assert str(info.value) == message


def test_catalog_states_each_name_once_with_its_parameters():
    """Every form of a name takes ``order`` and then the parameters ``param_names`` reads."""
    for name in names():
        for form in builder_forms(name):
            assert tuple(inspect.signature(form).parameters) == ("order", *param_names(name)), name
    assert param_names("lem21_lhs") == ("b",)
    with pytest.raises(ValueError, match="duplicate series name f3_def"):
        qf._catalog(("f3_def", qf.f3_def), ("f3_def", qf.f3_def))


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        build("f3_def", 0)


@pytest.mark.parametrize(
    "name",
    [n for n in names() if len(builder_forms(n)) > 1],
)
def test_multi_form_agreement(name):
    """All registered forms of a name agree on their common window."""
    forms = builder_forms(name)
    reference = build(name, 60, form=0)
    for i in range(1, len(forms)):
        other = build(name, 60, form=i)
        ok, mismatch = reference.equal_up_to(other, 60)
        assert ok, f"{name} form {i}: {mismatch}"


def test_euler_inverse_coefficients_monotone():
    e = build("euler_inverse", 60)
    values = [e.coefficient(k) for k in range(60)]
    assert all(v.denominator == 1 and v > 0 for v in values)
    assert all(values[k] <= values[k + 1] for k in range(1, 59))


def test_spt_lhs_positive_integers():
    s = build("spt_lhs", 50)
    for n in range(1, 50):
        v = s.coefficient(n)
        assert v.denominator == 1 and v > 0, f"spt coefficient at {n}: {v}"


def test_spt_lhs_matches_oracle():
    s = build("spt_lhs", 31)
    for n in range(1, 31):
        assert s.coefficient(n) == pt.spt(n), f"n={n}"


def test_fine_numbers_triple_agreement():
    direct = build("fineJ_direct", 60)
    two_color_style = build("fineJ_rhs", 60)
    from_f3 = build("fineJ_from_f3", 60)
    assert direct.equal_up_to(two_color_style, 60) == (True, None)
    assert direct.equal_up_to(from_f3, 60) == (True, None)
    assert two_color_style.equal_up_to(from_f3, 60) == (True, None)


def test_shifted_omega_counts_partitions():
    """q*omega(q) has nonnegative integer coefficients counting partitions
    whose odd parts are all less than twice the smallest part."""
    shifted = build("omega3_def", 60).shift(1)
    for n in range(1, 61):
        v = shifted.coefficient(n)
        assert v.denominator == 1 and v >= 0
    for n in range(1, 21):
        assert shifted.coefficient(n) == pt.count_omega_interpretation(n), f"n={n}"


def test_rank_parity_matches_f3():
    f3 = build("f3_def", 21)
    for n in range(1, 21):
        stats = pt.rank_stats(n)
        assert f3.coefficient(n) == stats.even - stats.odd, f"n={n}"


def test_gprime_series_matches_oracle():
    g = build("Gprime_series", 21)
    for n in range(1, 21):
        assert g.coefficient(n) == pt.count_Gprime(n), f"n={n}"


def test_window_soundness_across_orders():
    """Coefficients must not depend on the truncation order they were
    computed at."""
    for name in ("f3_def", "spt_rhs", "thm61_rhs", "omega3_rep_rhs"):
        small = build(name, 12)
        large = build(name, 37)
        ok, mismatch = small.equal_up_to(large, 12)
        assert ok, f"{name}: {mismatch}"
    z = mono(1, 5)
    small = build("z_identity_rhs", 9, {"z": z})
    large = build("z_identity_rhs", 23, {"z": z})
    ok, mismatch = small.equal_up_to(large, 9)
    assert ok, f"z_identity_rhs: {mismatch}"


def test_z_identity_negative_powers_of_z():
    """Both sides are symmetric under z <-> 1/z, so z = q^-j must work as z = q^j.

    At z = q^-41 the windows of the terms reach hundreds of coefficients
    below 0.
    """
    for j in (1, 41):
        lhs = build("z_identity_lhs", 30, {"z": mono(1, -j)})
        assert lhs.equal_up_to(build("z_identity_lhs", 30, {"z": mono(1, j)}), 30) == (True, None), j
    for j in (3, 41):
        z = mono(1, -j)
        lhs = build("z_identity_lhs", 30, {"z": z})
        assert lhs.equal_up_to(build("z_identity_rhs", 30, {"z": z}), 30) == (True, None), j


def test_z_identity_rhs_evaluates_next_to_its_removable_singularities():
    """Only z = q^(2j), j != 0, is rejected; these z keep both sides equal."""
    for z in (mono(-1, 2), MONO_ONE, mono(-1), mono(1, 3)):
        lhs = build("z_identity_lhs", 20, {"z": z})
        assert lhs.equal_up_to(build("z_identity_rhs", 20, {"z": z}), 20) == (True, None), z


def test_builders_honor_requested_order():
    for name in names():
        values = {
            "b": MONO_Q,
            "z": mono(1, 3),
            "a": MONO_ONE,
        }
        params = {p: values[p] for p in param_names(name)}
        series = build(name, 17, params or None)
        assert series.order >= 17, name


def test_before_ac_stalls_at_one(scanned):
    """The divergent tail stalls at its first step, long before the cap."""
    stall = r"term n=0 on every term has valuation at most 0 below order 20,"
    with pytest.raises(TruncationStall, match=stall):
        build("before_ac_rhs", 20, {"b": MONO_ONE})
    # the tail is the last sum scanned, the one that raised
    assert 0 < scanned[-1] <= 3


def test_monomial_parse():
    assert Monomial.parse("0") == MONO_ZERO
    assert Monomial.parse("1") == MONO_ONE
    assert Monomial.parse("q") == MONO_Q
    assert Monomial.parse("-q") == Monomial(Fraction(-1), 1)
    assert Monomial.parse("q^-1") == Monomial(Fraction(1), -1)
    assert Monomial.parse("q^5") == mono(1, 5)
    assert Monomial.parse("1/2*q^3") == Monomial(Fraction(1, 2), 3)
    assert Monomial.parse("-3") == Monomial(Fraction(-3), 0)
    assert Monomial.parse("2*q") == mono(2, 1)
    assert Monomial.parse("2 * q^-2") == mono(2, -2)
    assert Monomial.parse("2*-q") == mono(-2, 1)
    with pytest.raises(ValueError):
        Monomial.parse("x+1")


@pytest.mark.parametrize("text", ["2*", "1*", "*q", "*", "q*", "2**q", "-*q", "1/2*"])
def test_monomial_parse_rejects_a_stray_star(text):
    with pytest.raises(ValueError, match="cannot parse monomial"):
        Monomial.parse(text)


@example(m=MONO_ZERO)
@example(m=MONO_ONE)
@example(m=MONO_Q)
@example(m=mono(1, -1))
@example(m=mono(-1, 2))
@example(m=Monomial(Fraction(1, 2), 3))
@given(
    m=st.one_of(
        st.just(MONO_ZERO),
        st.builds(Monomial, st.fractions().filter(bool), st.integers()),
    )
)
def test_monomial_str_roundtrip(m):
    assert Monomial.parse(str(m)) == m


@pytest.mark.parametrize(
    "make, field",
    [(lambda: Monomial(0.1, 1), "coefficient"), (lambda: mono(0.1, 1), "coefficient"), (lambda: qf.QTerm(scale=0.1), "scale")],
    ids=["Monomial", "mono", "QTerm"],
)
def test_a_float_parameter_or_scale_is_a_type_error(make, field):
    """0.1 would otherwise become 3602879701896397/36028797018963968; the error names the field."""
    with pytest.raises(TypeError, match=rf"^{field} 0\.1 is not an int or a Fraction$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: qf.QTerm(exp=(0.1, 0, 0)), r"^exp 0\.1 is not an int or a Fraction$"),
        (lambda: qf.QTerm(exp=(0, 0.5, 0)), r"^exp 0\.5 is not an int or a Fraction$"),
        (lambda: qf.QTerm(exp=(1, 0, 0.0)), r"^exp 0\.0 is not an int or a Fraction$"),
        (lambda: Monomial(1, 0.5), r"power 0\.5 is not an int"),
        (lambda: qf.QTerm(exp=(0, 1, 0), start=1.0), r"start 1\.0 is not an int"),
        (lambda: qf.Poch(MONO_Q, 2.0), r"step 2\.0 is not an int"),
        (lambda: qf.Poch(MONO_Q, 1, None, 1.0), r"slope 1\.0 is not an int"),
        (lambda: qf.Poch(MONO_Q, 1, (1, 0.0)), r"length 0\.0 is not an int"),
    ],
    ids=["exp-e2", "exp-e1", "exp-e0", "Monomial.power", "QTerm.start", "Poch.step", "Poch.slope", "Poch.length"],
)
def test_a_float_in_an_integer_field_is_a_type_error(make, message):
    """Refused when the value is made, not summed silently or failing only when evaluated."""
    with pytest.raises(TypeError, match=message):
        make()


@pytest.mark.parametrize("length", [(1,), (1, 0, 0), [1, 0]], ids=["short", "long", "list"])
def test_a_length_that_is_not_a_pair_is_a_type_error(length):
    """Refused when the factor is made, not with a bare unpack or hash error when it is summed."""
    with pytest.raises(TypeError, match=r"^length .* is not None or a pair of ints$"):
        qf.Poch(MONO_Q, 1, length)


@pytest.mark.parametrize(
    "make",
    [
        # once a bare ZeroDivisionError from the scan
        lambda: qf.qsum(qf.QTerm(exp=(0, 1, 0), den=(qf.Poch(mono(1, 1), 0, qf.N, 1),)), 10),
        # once a TruncationStall for a product that means nothing
        lambda: qf.qsum(qf.QTerm(den=(qf.Poch(mono(1, 1), 0),)), 10),
        lambda: qf.Poch(MONO_Q, -2),
    ],
    ids=["growing", "infinite", "negative"],
)
def test_a_pochhammer_step_below_one_is_refused(make):
    with pytest.raises(ValueError, match="step must be a positive integer"):
        make()


def test_sums_that_differ_in_a_constant_factor_share_one_evaluation():
    """f(q), -f(q)/4 and f(q) (q;q)_inf run one summing loop (``_nested``)."""
    qf.qsum.cache_clear()
    with patch.object(qf, "_nested", wraps=qf._nested) as nested:
        f = qf.f3_def(50)
        assert qf.f3_def.times(Fraction(-1, 4))(50) == f.scale(Fraction(-1, 4))
        assert qf.f3_def.times(num=(qf.EULER,))(50) == f.mul(qf.euler_product_direct(50))
    assert nested.call_count == 1


def test_a_series_adds_its_parts_in_one_window():
    """S + P.times(c, e) is the sum of the parts, each scaled and shifted exactly."""
    s = qf.QTerm(exp=(1, 0, 0), den=(qf.Poch(mono(-1, 1), 1, qf.N),) * 2)
    p = qf.QTerm(den=(qf.EULER,))
    got = (qf.S(s) + qf.P(p).times(Fraction(-1, 3), -2))(30)
    assert got == qf.qsum(s, 30).add(qf.euler_inverse_direct(32).scale(Fraction(-1, 3)).shift(-2))
