"""Tests for the identity catalog and the verification engine."""

import time
from contextlib import ExitStack
from unittest.mock import patch

import pytest

from qlab.record import replace
from qlab.registry import (
    IdentityEntry,
    Specialization,
    UnknownIdentity,
    UnknownSpecialization,
    all_row_ids,
    catalog,
    get_entry,
    verify,
    verify_all,
)
from qlab.series import LaurentSeries, TruncationStall, monomial, one
from qlab import registry as rg

EXPECTED_IDS = [
    "omega3-rep",
    "spt-fundamental",
    "thm-1.1",
    "thm-1.3",
    "cor-1.4-even-rank",
    "cor-1.4-fine",
    "lem-2.1",
    "eq-before-ac",
    "eq-4parameter",
    "lem-3.1",
    "eq-2phi12",
    "eq-1psi1-sec3",
    "eq-final1729",
    "eq-z-identity",
    "eq-almost-spt",
    "eq-transf",
    "eq-4para1",
    "eq-2sums",
    "entry-239",
    "eq-phi312",
    "eq-2.3.1",
    "eq-suminf",
    "eq-g1",
    "eq-g2",
    "thm-6.1",
    "eq-phi3m",
    "eq-1psi1-sec6",
    "eq-last1",
    "eq-last2",
    "eq-seriesf",
    "eq-beforephi",
]


EXPECTED_ROWS = [
    "omega3-rep",
    "spt-fundamental",
    "thm-1.1",
    "thm-1.3",
    "cor-1.4-even-rank",
    "cor-1.4-fine",
    "lem-2.1@b=0",
    "lem-2.1@b=q",
    "lem-2.1@b=q^2",
    "lem-2.1@b=1",
    "eq-before-ac@b=0",
    "eq-before-ac@b=q",
    "eq-before-ac@b=q^2",
    "eq-before-ac@b=1",
    "eq-4parameter@B=q^2,a=q^-1,b=q",
    "eq-4parameter@B=q^2,a=q,b=q^2",
    "lem-3.1",
    "eq-2phi12",
    "eq-1psi1-sec3",
    "eq-final1729",
    "eq-z-identity@z=q",
    "eq-z-identity@z=q^3",
    "eq-z-identity@z=q^5",
    "eq-almost-spt",
    "eq-transf",
    "eq-4para1",
    "eq-2sums",
    "entry-239@a=1",
    "entry-239@a=q",
    "entry-239@a=q^2",
    "eq-phi312",
    "eq-2.3.1",
    "eq-suminf",
    "eq-g1",
    "eq-g2",
    "thm-6.1",
    "eq-phi3m",
    "eq-1psi1-sec6",
    "eq-last1",
    "eq-last2",
    "eq-seriesf",
    "eq-beforephi",
]


def test_catalog_complete():
    ids = [entry.id for entry in catalog()]
    assert ids == EXPECTED_IDS
    assert len(set(ids)) == len(ids)


def test_catalog_row_count():
    # counting specializations separately raises the row count well above 31
    assert len(all_row_ids()) == 42
    assert len(all_row_ids()) >= 31


def test_every_anchor_nonempty():
    assert all(entry.anchor for entry in catalog())


def test_contains_specialized_rows():
    rows = all_row_ids()
    assert "lem-2.1@b=1" in rows
    assert "eq-before-ac@b=1" in rows
    assert "eq-z-identity@z=q^5" in rows
    assert "eq-4parameter@B=q^2,a=q^-1,b=q" in rows


def test_every_row_id_is_pinned_and_resolves():
    """The labels read from each row's parameters name every row, and ``verify`` finds each one."""
    assert all_row_ids() == EXPECTED_ROWS
    for row in EXPECTED_ROWS:
        entry_id, _, label = row.partition("@")
        report = verify(entry_id, label or None, order=1)
        assert (report.row_id, report.passed) == (row, True)


def test_default_orders():
    assert get_entry("thm-1.1").default_order == 100
    assert get_entry("lem-2.1").default_order == 60
    assert get_entry("eq-z-identity").default_order == 60


def test_verify_thm11_passes():
    report = verify("thm-1.1", order=50)
    assert report.passed
    assert report.first_mismatch is None
    assert report.order == 50


def test_verify_unknown_id():
    with pytest.raises(UnknownIdentity):
        verify("nope")


def test_verify_unknown_specialization():
    with pytest.raises(UnknownSpecialization):
        verify("lem-2.1", "b=q^9")
    with pytest.raises(UnknownSpecialization):
        verify("thm-1.1", "b=q")


def test_negative_control_perturbed_rhs():
    base = get_entry("lem-3.1")

    def perturbed(order):
        return base.rhs(order).add(monomial(1, 3, order))

    entry = replace(base, id="lem-3.1-perturbed", rhs=perturbed)
    report = rg._run_row(entry, entry.specializations[0], 30)
    assert not report.passed
    assert report.first_mismatch.exponent == 3
    assert report.first_mismatch.rhs - report.first_mismatch.lhs == 1


def test_expected_stall_counts_as_pass():
    report = verify("eq-before-ac", "b=1", 40)
    assert report.passed
    assert report.stalled
    assert report.expected_stall
    assert report.first_mismatch is None


def _stalling_side(order):
    raise TruncationStall("synthetic divergence")


def test_unexpected_stall_is_a_failed_report():
    entry = IdentityEntry(
        id="stall-probe",
        anchor="synthetic",
        lhs=lambda order: one(order),
        rhs=_stalling_side,
    )
    report = rg._run_row(entry, entry.specializations[0], 5)
    assert not report.passed
    assert report.stalled and not report.expected_stall
    assert report.error.startswith("TruncationStall")


def test_negative_control_that_completes_is_a_failed_report():
    entry = IdentityEntry(
        id="stall-probe",
        anchor="synthetic",
        lhs=lambda order: one(order),
        rhs=lambda order: one(order),
        specializations=(Specialization(expects_stall=True),),
    )
    report = rg._run_row(entry, entry.specializations[0], 5)
    assert not report.passed and not report.stalled
    assert report.first_mismatch is None
    assert report.error == "expected TruncationStall, but evaluation completed"


def test_verify_all_small_orders():
    for order in (1, 12):
        reports = verify_all(order=order)
        assert len(reports) == 42
        failed = [r.row_id for r in reports if not r.passed]
        assert not failed, f"order {order}: {failed}"


def _slow_stalling_side(order):
    time.sleep(0.01)
    raise TruncationStall("synthetic divergence")


def test_verify_all_aggregates_errors_without_aborting():
    broken = IdentityEntry(
        id="zz-broken",
        anchor="synthetic",
        lhs=lambda order: one(order),
        rhs=_slow_stalling_side,
    )
    reports = verify_all(order=5, entries=list(catalog()) + [broken])
    by_id = {r.row_id: r for r in reports}
    assert not by_id["zz-broken"].passed
    assert by_id["zz-broken"].error is not None
    # the error report keeps the time spent before the failure
    assert by_id["zz-broken"].elapsed_ms >= 10.0
    others = [r for r in reports if r.id != "zz-broken"]
    assert all(r.passed for r in others)


def test_fault_injection_exactly_one_failure():
    base = get_entry("eq-2phi12")
    bad = replace(
        base,
        id="zz-perturbed",
        rhs=lambda order: base.rhs(order).add(monomial(1, 3, order)),
    )
    reports = verify_all(order=10, entries=list(catalog()) + [bad])
    failures = [r for r in reports if not r.passed]
    assert len(failures) == 1
    assert failures[0].id == "zz-perturbed"
    assert failures[0].first_mismatch.exponent == 3


def test_determinism_modulo_elapsed():
    runs = [verify_all(order=8), verify_all(order=8)]
    strip = lambda rs: [
        (r.id, r.specialization, r.order, r.passed, r.first_mismatch, r.stalled)
        for r in rs
    ]
    assert strip(runs[0]) == strip(runs[1])


def test_reports_sorted_by_row_id():
    reports = verify_all(order=4)
    keys = [(r.id, r.specialization or "") for r in reports]
    assert keys == sorted(keys)


def test_monotonicity_spot_check():
    """A pass at order N implies a pass at every smaller order."""
    for entry_id in ("thm-1.1", "eq-last1", "eq-1psi1-sec6"):
        high = verify(entry_id, order=40)
        assert high.passed
        for low in (5, 17, 33):
            assert verify(entry_id, order=low).passed, f"{entry_id}@{low}"


def test_verify_all_order_applies_to_every_row():
    reports = verify_all(order=80)
    assert sorted(r.row_id for r in reports) == sorted(all_row_ids())
    assert all(r.order == 80 for r in reports)
    failed = [r.row_id for r in reports if not r.passed]
    assert not failed, failed


def test_parallel_fanout_matches_serial():
    serial = verify_all(order=5)
    parallel = verify_all(order=5, jobs=2)
    strip = lambda rs: [(r.row_id, r.order, r.passed, r.stalled) for r in rs]
    assert strip(serial) == strip(parallel)


@pytest.mark.parametrize(
    "selector, jobs, workers", [("eq-z-identity", 8, 3), ("eq-z-identity", 2, 2), ("all", 8, 8)]
)
def test_pool_starts_no_more_workers_than_rows(monkeypatch, selector, jobs, workers):
    """A fork start method starts every worker up front, so idle ones would cost a fork each."""
    import concurrent.futures

    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    entries = rg.select(selector)
    reports = verify_all(order=5, entries=entries, jobs=jobs)
    assert started == [workers]
    assert len(reports) == sum(len(e.specializations) for e in entries)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize(
    "run", [lambda: verify("thm-1.1", order=-5), lambda: verify_all(order=0)]
)
def test_order_below_one_is_refused(run):
    """An order below 1 would check no coefficient, so it is an error, not a pass."""
    with pytest.raises(ValueError, match="order must be positive, got"):
        run()


def test_catalog_sides_take_no_series_arithmetic():
    """Every side is a sum of ``qsum`` parts; none multiplies, inverts or shifts series."""
    names = ("add", "neg", "sub", "scale", "shift", "mul", "invert")
    with ExitStack() as stack:
        for name in names:
            patch_ = patch.object(LaurentSeries, name, side_effect=AssertionError(name))
            stack.enter_context(patch_)
        reports = verify_all(order=60, jobs=1)
    assert len(reports) == 42
    assert [r.row_id for r in reports if not r.passed] == []
