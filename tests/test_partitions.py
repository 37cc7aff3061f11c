"""Tests for the partition oracle: the counting DP against enumeration and the series."""

import ast
import inspect

import pytest

from qlab import cli, partitions
from qlab.partitions import (
    BLUE,
    COUNT_LIMIT,
    DEFAULT_CAP,
    RED,
    CapExceeded,
    InvalidPartition,
    StatRow,
    TwoColorPartition,
    count_G,
    count_Gprime,
    count_omega_interpretation,
    enumerate_partitions,
    iter_g_partitions,
    iter_gprime_partitions,
    list_G,
    rank,
    rank_histogram,
    rank_stats,
    spt,
    sptG,
    stat_row,
    stat_table,
)


def test_enumerate_counts():
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(8)) == 22


def test_enumerate_single():
    assert enumerate_partitions(1) == [(1,)]


def test_enumerate_deterministic_order():
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        enumerate_partitions(DEFAULT_CAP + 1)
    # the cap itself is accepted; a lazy generator shows it without listing p(60)
    assert next(iter_g_partitions(DEFAULT_CAP)).weight == DEFAULT_CAP
    monkeypatch.setattr(partitions, "DEFAULT_CAP", 12)
    assert len(enumerate_partitions(12)) == 77
    with pytest.raises(CapExceeded):
        enumerate_partitions(13)


def test_rank_values():
    assert rank([4, 2, 2]) == 1
    assert rank([5, 3]) == 3
    assert rank([1]) == 0


def test_rank_rejects_empty():
    with pytest.raises(InvalidPartition):
        rank([])


def test_rank_stats_anchor_n8():
    stats = rank_stats(8)
    assert stats.odd_positive == 7
    assert stats.total == 22


def test_rank_stats_small():
    assert rank_stats(1).odd_positive == 0
    assert rank_stats(2) == (2, 0, 2, 1)


def test_spt_values():
    assert [spt(n) for n in range(1, 5)] == [1, 3, 5, 10]


def test_count_G_anchor_n8_exact_list():
    """The seven two-color partitions of 8 with even smallest part."""
    expected = {
        ((8, BLUE),),
        ((6, BLUE), (2, BLUE)),
        ((4, BLUE), (4, BLUE)),
        ((4, BLUE), (2, BLUE), (2, BLUE)),
        ((2, BLUE), (2, BLUE), (2, BLUE), (2, BLUE)),
        ((3, BLUE), (3, BLUE), (2, BLUE)),
        ((4, RED), (2, BLUE), (2, BLUE)),
    }
    found = list_G(8)
    assert count_G(8) == 7
    assert {tuple(p.parts) for p in found} == {
        tuple(TwoColorPartition.of(parts).parts) for parts in expected
    }


def test_count_G_small():
    assert count_G(1) == 0
    assert count_G(2) == 1
    assert [(p.value, p.color) for p in list_G(2)[0].parts] == [(2, BLUE)]


def test_count_Gprime_values():
    assert count_Gprime(1) == 1
    assert count_Gprime(2) == 1  # two blue ones
    assert count_Gprime(3) == 3


def test_sptG_values():
    assert sptG(2) == 1
    assert sptG(4) == 3
    assert sptG(8) == 13


def test_count_omega_interpretation_values():
    assert count_omega_interpretation(1) == 1
    assert count_omega_interpretation(2) == 2
    assert count_omega_interpretation(5) == 6


def test_conjugation_negates_rank():
    for n in range(1, 15):
        hist = rank_histogram(n)
        for r, count in hist.items():
            assert hist.get(-r, 0) == count, f"rank {r} asymmetry at n={n}"


def test_rank_parity_tautologies():
    for n in range(1, 26):
        stats = rank_stats(n)
        assert stats.total == stats.even + stats.odd
        assert stats.odd == 2 * stats.odd_positive


def test_two_color_count_equals_positive_odd_rank():
    """The headline equality, checked purely combinatorially."""
    for n in range(1, 21):
        assert count_G(n) == rank_stats(n).odd_positive, f"n={n}"


def test_listed_partitions_satisfy_invariants():
    for n in (6, 9, 12):
        for part in list_G(n):
            part.validate()


def test_same_value_both_colors_occurs():
    # blue 4 and red 4 coexisting, smallest part 2
    both = [
        p
        for p in list_G(12)
        if (4, RED) in p.parts and (4, BLUE) in p.parts
    ]
    assert both, "expected a partition carrying 4 in both colors"
    for p in both:
        p.validate()


def test_validator_rejects_broken_partitions():
    with pytest.raises(InvalidPartition):
        TwoColorPartition.of([(3, BLUE)]).validate()  # odd smallest in even mode
    with pytest.raises(InvalidPartition):
        TwoColorPartition.of([(2, RED), (2, BLUE)]).validate()  # red at the boundary
    with pytest.raises(InvalidPartition):
        TwoColorPartition.of([(6, RED), (2, BLUE)]).validate()  # red beyond 4m
    with pytest.raises(InvalidPartition):
        TwoColorPartition.of([(4, RED)]).validate()  # smallest part not blue
    ok = TwoColorPartition.of([(4, RED), (2, BLUE), (2, BLUE)])
    ok.validate()


def test_validator_odd_mode():
    TwoColorPartition.of([(4, RED), (3, BLUE)]).validate(odd_smallest=True)
    with pytest.raises(InvalidPartition):
        TwoColorPartition.of([(2, BLUE)]).validate(odd_smallest=True)


def test_stat_row_consistency():
    row = stat_row(8)
    assert row.p == 22
    assert row.odd_positive_rank == row.two_color == 7
    assert row.spt == 57


def test_stat_table_covers_range():
    table = stat_table(6)
    assert [row.n for row in table] == list(range(1, 7))
    assert table[3].p == 5


def test_weight_must_be_positive():
    with pytest.raises(ValueError):
        rank_stats(0)


@pytest.mark.parametrize("n", range(1, 31))
def test_stat_row_equals_a_recount_over_the_objects(n):
    """The counting DP against the object route: partitions, ranks, colored lists."""
    parts = enumerate_partitions(n)
    g, gprime = list_G(n), list(iter_gprime_partitions(n))
    for objects in (parts, g, gprime):
        assert len(set(objects)) == len(objects)
    for obj in gprime:
        obj.validate(odd_smallest=True)
    ranks = [rank(p) for p in parts]
    assert stat_row(n) == StatRow(
        n=n,
        p=len(parts),
        even_rank=sum(1 for r in ranks if r % 2 == 0),
        odd_rank=sum(1 for r in ranks if r % 2),
        odd_positive_rank=sum(1 for r in ranks if r % 2 and r > 0),
        two_color=len(g),
        two_color_odd=len(gprime),
        spt=sum(p.count(p[-1]) for p in parts),
        spt_two_color=sum(t.smallest_multiplicity() for t in g),
        odd_part_bounded=sum(1 for p in parts if all(v % 2 == 0 or v < 2 * p[-1] for v in p)),
    )


def test_stat_table_rows_equal_stat_row():
    assert stat_table(40) == [stat_row(n) for n in range(1, 41)]


def test_partition_number_anchors():
    assert stat_row(100).p == 190569292
    assert stat_row(COUNT_LIMIT).p == 3972999029388


def test_stat_table_equals_the_series_side_up_to_the_counting_limit():
    """All nine ``stats`` columns, coefficient by coefficient, at the counting limit."""
    columns = [
        (c, field, side(COUNT_LIMIT + 1)) for c, (field, side) in cli._stat_columns().items()
    ]
    for row in stat_table(COUNT_LIMIT):
        for col, field, series in columns:
            assert series.coefficient(row.n) == getattr(row, field), f"{col} at n={row.n}"


@pytest.mark.parametrize(
    "count",
    [
        stat_table,
        stat_row,
        rank_histogram,
        rank_stats,
        spt,
        sptG,
        count_G,
        count_Gprime,
        count_omega_interpretation,
    ],
)
def test_counts_stop_at_the_counting_limit(count):
    with pytest.raises(CapExceeded, match=f"counting limit {COUNT_LIMIT}"):
        count(COUNT_LIMIT + 1)
    with pytest.raises(ValueError):
        count(0)


def test_partitions_imports_no_series_machinery():
    tree = ast.parse(inspect.getsource(partitions))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert modules
    assert not [m for m in modules if {"series", "qfunctions"} & set(m.split("."))]
