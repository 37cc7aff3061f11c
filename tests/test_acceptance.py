"""Acceptance suite: every top-level claim of the package, run end to end.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they complete).
All comparisons are exact; there are no numeric tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from qlab import partitions as pt
from qlab.partitions import BLUE, RED, TwoColorPartition
from qlab.qfunctions import build, builder_forms, names, param_names
from qlab.registry import verify_all
from qlab.series import LaurentSeries

MAX_N = 40


def _line(num: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def oracle():
    """Every enumerated statistic for 1 <= n <= 40, computed once."""
    return pt.stat_table(MAX_N)


def test_criterion_1_registry_full_pass():
    start = time.perf_counter()
    reports = verify_all(order=100)
    elapsed = time.perf_counter() - start
    failures = [r.row_id for r in reports if not r.passed]
    by_row = {r.row_id: r for r in reports}
    control = by_row["eq-before-ac@b=1"]
    ok = (
        not failures
        and len({r.id for r in reports}) == 31
        and control.stalled
        and control.expected_stall
        and elapsed < 60.0
    )
    print(f"\n  registry: {len(reports)} rows, {elapsed:.1f}s, failures: {failures}")
    _line(1, "registry full pass with divergence control", ok)


def test_criterion_2_two_color_equals_positive_odd_rank(oracle):
    g_series = build("G_series", MAX_N + 1)
    no_plus = build("No_plus_series", MAX_N + 1)
    ok = True
    for row in oracle:
        values = {
            row.two_color,
            row.odd_positive_rank,
            g_series.coefficient(row.n),
            no_plus.coefficient(row.n),
        }
        if len(values) != 1:
            ok = False
            print(f"  n={row.n}: {values}")
    anchor = oracle[7]
    ok = ok and anchor.two_color == anchor.odd_positive_rank == 7
    expected_list = {
        ((8, BLUE),),
        ((6, BLUE), (2, BLUE)),
        ((4, BLUE), (4, BLUE)),
        ((4, BLUE), (2, BLUE), (2, BLUE)),
        ((2, BLUE), (2, BLUE), (2, BLUE), (2, BLUE)),
        ((3, BLUE), (3, BLUE), (2, BLUE)),
        ((4, RED), (2, BLUE), (2, BLUE)),
    }
    found = {tuple(p.parts) for p in pt.list_G(8)}
    ok = ok and found == {tuple(TwoColorPartition.of(p).parts) for p in expected_list}
    _line(2, "two-color count equals positive odd rank, oracle and series", ok)


def test_criterion_3_mock_theta_f_representation(oracle):
    lhs = build("f3_def", 100)
    rhs = build("f3_newrep_rhs", 100)
    same, mismatch = lhs.equal_up_to(rhs, 100)
    parity_ok = all(
        lhs.coefficient(row.n) == row.even_rank - row.odd_rank for row in oracle
    )
    if mismatch:
        print(f"  series mismatch: {mismatch}")
    _line(3, "f(q) representation and rank parity", same and parity_ok)


def test_criterion_4_smallest_part_identities(oracle):
    spt_l = build("spt_lhs", 100)
    spt_r = build("spt_rhs", 100)
    spt_same, m1 = spt_l.equal_up_to(spt_r, 100)
    spt_oracle_ok = all(spt_l.coefficient(row.n) == row.spt for row in oracle)
    anchors_ok = [int(spt_l.coefficient(n)) for n in range(1, 5)] == [1, 3, 5, 10]
    sptg_l = build("sptG_lhs", 100)
    sptg_r = build("sptG_rhs", 100)
    sptg_same, m2 = sptg_l.equal_up_to(sptg_r, 100)
    sptg_oracle_ok = all(
        sptg_l.coefficient(row.n) == row.spt_two_color for row in oracle
    )
    for m in (m1, m2):
        if m:
            print(f"  mismatch: {m}")
    _line(
        4,
        "smallest-part identities, classic and two-color, with oracle counts",
        spt_same and spt_oracle_ok and anchors_ok and sptg_same and sptg_oracle_ok,
    )


def test_criterion_5_even_rank_and_fine_numbers(oracle):
    ne = build("Ne_series_rhs", MAX_N + 1)
    ne_ok = all(ne.coefficient(row.n) == row.even_rank for row in oracle)
    direct = build("fineJ_direct", 100)
    rhs = build("fineJ_rhs", 100)
    from_f3 = build("fineJ_from_f3", 100)
    t1, _ = direct.equal_up_to(rhs, 100)
    t2, _ = direct.equal_up_to(from_f3, 100)
    t3, _ = rhs.equal_up_to(from_f3, 100)
    _line(5, "even-rank series and Fine-number triple agreement", ne_ok and t1 and t2 and t3)


def test_criterion_6_odd_smallest_part(oracle):
    lhs = build("Gprime_series", 100)
    rhs = build("thm61_rhs", 100)
    same, mismatch = lhs.equal_up_to(rhs, 100)
    oracle_ok = all(lhs.coefficient(row.n) == row.two_color_odd for row in oracle)
    anchors_ok = lhs.coefficient(1) == 1 and lhs.coefficient(3) == 3
    if mismatch:
        print(f"  mismatch: {mismatch}")
    _line(6, "odd-smallest-part closed form and oracle counts", same and oracle_ok and anchors_ok)


def test_criterion_7_omega_interpretation(oracle):
    shifted = build("omega3_def", MAX_N + 1).shift(1)
    count_ok = all(
        shifted.coefficient(row.n) == row.odd_part_bounded for row in oracle
    )
    lhs = build("omega3_def", 100)
    rhs = build("omega3_rep_rhs", 100)
    same, mismatch = lhs.equal_up_to(rhs, 100)
    if mismatch:
        print(f"  mismatch: {mismatch}")
    _line(7, "odd-parts-bounded interpretation of omega(q)", count_ok and same)


def _random_series(rng: random.Random) -> LaurentSeries:
    min_exp = rng.randint(-5, 5)
    length = rng.randint(0, 10)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)
    ]
    return LaurentSeries.from_coeffs(min_exp, coeffs, min_exp + length)


def _agree(a: LaurentSeries, b: LaurentSeries) -> bool:
    return a.equal_up_to(b, min(a.order, b.order))[0]


def test_criterion_8_engine_properties():
    rng = random.Random(20260810)
    cases = 0
    ok = True
    for _ in range(1000):
        a, b, c = (_random_series(rng) for _ in range(3))
        ok = ok and _agree(a.add(b).add(c), a.add(b.add(c)))
        ok = ok and _agree(a.mul(b), b.mul(a))
        ok = ok and _agree(a.mul(b).mul(c), a.mul(b.mul(c)))
        ok = ok and _agree(a.mul(b.add(c)), a.mul(b).add(a.mul(c)))
        if not a.is_zero:
            p = a.mul(a.invert())
            ok = ok and p.coefficient(0) == 1
            ok = ok and all(
                p.coefficient(k) == 0 for k in range(p.min_exp, p.order) if k
            )
        cases += 1
        if not ok:
            break
    ok = ok and cases >= 1000

    direct, pentagonal = builder_forms("euler_product")
    same, mismatch = direct(500).equal_up_to(pentagonal(500), 500)
    ok = ok and same
    if mismatch:
        print(f"  euler forms differ: {mismatch}")

    for name in names():
        forms = builder_forms(name)
        if len(forms) < 2 or param_names(name):
            continue
        reference = build(name, 100, form=0)
        for i in range(1, len(forms)):
            agree, mismatch = reference.equal_up_to(build(name, 100, form=i), 100)
            ok = ok and agree
            if mismatch:
                print(f"  {name} form {i}: {mismatch}")
    _line(8, "ring axioms, inversion, dual Euler routes, form equivalence", ok)
