"""Partition counts by integer dynamic programming, and partition enumeration.

Nothing here uses series machinery, so this module serves as the
independent oracle for the generating-function side of the package.

The counts come from one integer DP, straight from the definitions, that
fills every ``StatRow`` for the weights 1..max_n in one pass: p(n), the rank
classification (rank = largest part minus number of parts; even, odd and
positive odd counts), spt(n) (the total number of smallest parts), the
number of partitions whose odd parts are all below twice the smallest part,
and the two-color (red/blue) counts G(n), G'(n) and sptG(n), where the
smallest part is a blue 2m (G) or 2m+1 (G') and the red parts are even in
(2m, 4m].  Every count takes a weight in 1..COUNT_LIMIT.

The objects come from the enumerators: ``iter_partitions``,
``enumerate_partitions``, the two-color generators and ``list_G``, with
``rank`` and ``TwoColorPartition.validate`` to check them.  They take a
weight in 1..DEFAULT_CAP and are the reference side of the DP's tests.
"""

from __future__ import annotations

from itertools import starmap
from operator import add
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .record import Record

#: Largest weight accepted by the enumerators (about 1e6 partitions at 60).
DEFAULT_CAP = 60

#: Largest weight accepted by the counts (the DP is cubic in it).
COUNT_LIMIT = 200

BLUE = "blue"
RED = "red"


class CapExceeded(Exception):
    """The requested weight is beyond the enumeration cap or the counting limit."""


class InvalidPartition(Exception):
    """A partition value object violates its invariants."""


Partition = Tuple[int, ...]


class ColoredPart(NamedTuple):
    value: int
    color: str


class TwoColorPartition(Record):
    """A partition into red and blue parts, stored in canonical order.

    Canonical order is descending by value with blue before red at equal
    value, which makes lists of these objects reproducible.
    """

    parts: Tuple[ColoredPart, ...]

    @staticmethod
    def of(parts: Sequence[Tuple[int, str]]) -> "TwoColorPartition":
        ordered = tuple(
            ColoredPart(v, c)
            for v, c in sorted(parts, key=lambda p: (-p[0], p[1]))
        )
        return TwoColorPartition(ordered)

    @property
    def weight(self) -> int:
        return sum(p.value for p in self.parts)

    @property
    def smallest(self) -> int:
        return min(p.value for p in self.parts)

    def smallest_multiplicity(self) -> int:
        s = self.smallest
        return sum(1 for p in self.parts if p.value == s)

    def validate(self, odd_smallest: bool = False) -> None:
        """Check the color/interval invariants; raise InvalidPartition if broken.

        With ``odd_smallest=False`` the smallest part must be an even blue
        value 2m, red values even in (2m, 4m], blue values >= 2m.  With
        ``odd_smallest=True`` the smallest part is an odd blue value 2m+1
        and the red interval is the same (2m, 4m].
        """
        if not self.parts:
            raise InvalidPartition("two-color partition has no parts")
        s = self.smallest
        if odd_smallest:
            if s % 2 == 0:
                raise InvalidPartition(f"smallest part {s} is even")
            m = (s - 1) // 2
        else:
            if s % 2 == 1:
                raise InvalidPartition(f"smallest part {s} is odd")
            m = s // 2
        if not any(p.value == s and p.color == BLUE for p in self.parts):
            raise InvalidPartition("smallest part is not blue")
        for v, color in self.parts:
            if color == BLUE:
                if v < s:
                    raise InvalidPartition(f"blue part {v} below smallest {s}")
            elif color == RED:
                if v % 2 or not (2 * m < v <= 4 * m):
                    raise InvalidPartition(
                        f"red part {v} outside the even interval ({2*m}, {4*m}]"
                    )
            else:
                raise InvalidPartition(f"unknown color {color!r}")


class RankStats(NamedTuple):
    total: int
    even: int
    odd: int
    odd_positive: int


class StatRow(Record):
    """All oracle statistics for one weight."""

    n: int
    p: int
    even_rank: int
    odd_rank: int
    odd_positive_rank: int
    two_color: int
    two_color_odd: int
    spt: int
    spt_two_color: int
    odd_part_bounded: int


def _check_weight(n: int, limit: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    if n > limit:
        raise CapExceeded(f"weight {n} exceeds the {name} {limit}")


def _check_cap(n: int) -> None:
    _check_weight(n, DEFAULT_CAP, "enumeration cap")


# ----------------------------------------------------------------------
# counts


def _add_part(counts: List[int], part: int) -> None:
    """Allow any number of parts equal to ``part``: counts[k] += counts[k - part], k ascending."""
    for lo in range(part, len(counts), part):
        hi = lo + part
        counts[lo:hi] = map(add, counts[lo:hi], counts[lo - part : hi - part])


def _with_smallest(rest: List[int], s: int) -> Tuple[List[int], List[int]]:
    """Per weight, the ways to take k >= 1 parts s plus one counted by ``rest``.

    Returns the count and the count weighted by k: with ``rest`` counting
    partitions into parts above s, the partitions whose smallest part is s
    and their total number of smallest parts.
    """
    once = [0] * s + rest[: len(rest) - s]
    _add_part(once, s)
    weighted = once[:]
    _add_part(weighted, s)
    return once, weighted


def _accumulate(total: List[int], counts: List[int]) -> None:
    total[:] = map(add, total, counts)


def _counts(max_n: int) -> Tuple[List[Dict[int, int]], List[StatRow]]:
    """The rank histogram and the ``StatRow`` of every weight 1..max_n, from one DP."""
    _check_weight(max_n, COUNT_LIMIT, "counting limit")
    size = max_n + 1

    # Raise the largest part a from 1 to max_n.  by_parts[s][c] counts the
    # partitions of s into c parts, each at most a; a partition of n with
    # largest part a and c further parts has rank a - 1 - c.
    by_parts = [[1]] + [[0] * (s + 1) for s in range(1, size)]
    by_rank = [[0] * (2 * n + 1) for n in range(size)]  # by_rank[n][r + n]
    for a in range(1, size):
        for s in range(a, size):
            row, fewer = by_parts[s], by_parts[s - a]
            row[1 : s - a + 2] = map(add, row[1 : s - a + 2], fewer)
        for n in range(a, size):
            ranks = by_rank[n]
            ranks[2 * a - 1 : n + a] = map(
                add, ranks[2 * a - 1 : n + a], reversed(by_parts[n - a])
            )

    # Lower the smallest part s from max_n to 1.  above[k] counts the
    # partitions of k into parts greater than s.
    above = [1] + [0] * max_n
    spt_total, bounded = [0] * size, [0] * size
    g, g_spt, g_odd = [0] * size, [0] * size, [0] * size
    for s in range(max_n, 0, -1):
        _accumulate(spt_total, _with_smallest(above, s)[1])
        # the other parts may be odd only below 2s
        allowed = [1] + [0] * max_n
        for v in range(s + 1, size):
            if v % 2 == 0 or v < 2 * s:
                _add_part(allowed, v)
        _accumulate(bounded, _with_smallest(allowed, s)[0])
        # a blue smallest part 2m or 2m+1, other blue parts above it, red parts even in (2m, 4m]
        m = s // 2
        colored = above[:]
        for v in range(2 * m + 2, 4 * m + 1, 2):
            _add_part(colored, v)
        once, weighted = _with_smallest(colored, s)
        if s % 2:
            _accumulate(g_odd, once)
        else:
            _accumulate(g, once)
            _accumulate(g_spt, weighted)
        _add_part(above, s)

    histograms, rows = [], []
    for n in range(1, size):
        hist = {r - n: c for r, c in enumerate(by_rank[n]) if c}
        odd = sum(c for r, c in hist.items() if r % 2)
        row = StatRow(
            n=n,
            p=above[n],
            even_rank=sum(hist.values()) - odd,
            odd_rank=odd,
            odd_positive_rank=sum(c for r, c in hist.items() if r % 2 and r > 0),
            two_color=g[n],
            two_color_odd=g_odd[n],
            spt=spt_total[n],
            spt_two_color=g_spt[n],
            odd_part_bounded=bounded[n],
        )
        if row.p != row.even_rank + row.odd_rank:
            raise InvalidPartition(f"rank counts do not add up to p({n})")
        if row.odd_rank != 2 * row.odd_positive_rank:
            raise InvalidPartition(f"odd ranks are not sign-symmetric at n={n}")
        histograms.append(hist)
        rows.append(row)
    return histograms, rows


def stat_table(max_n: int) -> List[StatRow]:
    """Oracle statistics for every weight 1..max_n."""
    return _counts(max_n)[1]


def stat_row(n: int) -> StatRow:
    """Every oracle statistic for weight n."""
    return stat_table(n)[-1]


def rank_histogram(n: int) -> Dict[int, int]:
    """Map rank value -> number of partitions of n with that rank."""
    return _counts(n)[0][-1]


def rank_stats(n: int) -> RankStats:
    """Classify all partitions of n by rank parity and sign."""
    row = stat_row(n)
    return RankStats(row.p, row.even_rank, row.odd_rank, row.odd_positive_rank)


def spt(n: int) -> int:
    """Total multiplicity of the smallest part over all partitions of n."""
    return stat_row(n).spt


def count_omega_interpretation(n: int) -> int:
    """Partitions of n in which each odd part is less than twice the smallest part."""
    return stat_row(n).odd_part_bounded


def count_G(n: int) -> int:
    """Number of two-color partitions of n with even smallest part."""
    return stat_row(n).two_color


def count_Gprime(n: int) -> int:
    """Number of two-color partitions of n with odd smallest part."""
    return stat_row(n).two_color_odd


def sptG(n: int) -> int:
    """Total smallest-part multiplicity over the partitions counted by count_G."""
    return stat_row(n).spt_two_color


# ----------------------------------------------------------------------
# enumeration


def iter_partitions(
    n: int, max_part: Optional[int] = None, min_part: int = 1
) -> Iterator[Partition]:
    """Yield all partitions of n with parts in [min_part, max_part], largest-first order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, min_part - 1, -1):
        for rest in iter_partitions(n - first, first, min_part):
            yield (first,) + rest


def enumerate_partitions(n: int) -> List[Partition]:
    """All partitions of n, each exactly once, in deterministic order."""
    _check_cap(n)
    return list(iter_partitions(n))


def rank(parts: Sequence[int]) -> int:
    """Largest part minus number of parts."""
    if not parts:
        raise InvalidPartition("rank of the empty partition is undefined here")
    if any(p < 1 for p in parts):
        raise InvalidPartition(f"parts must be positive: {parts}")
    return max(parts) - len(parts)


def _iter_red_multisets(values: Sequence[int], budget: int) -> Iterator[Tuple[int, ...]]:
    """Multisets over ``values`` (descending tuples) with sum <= budget."""
    if not values:
        yield ()
        return
    head, tail = values[0], values[1:]
    max_copies = budget // head
    for copies in range(max_copies + 1):
        for rest in _iter_red_multisets(tail, budget - copies * head):
            yield (head,) * copies + rest


def _two_color(n: int, odd: bool) -> Iterator[Tuple[int, Partition, Partition]]:
    """``(smallest, reds, blues)`` per two-color partition of n, smallest part ascending.

    The smallest part is a blue 2m (``odd=False``) or 2m+1 (``odd=True``),
    ``reds`` (even, in (2m, 4m]) and the other ``blues`` descend.
    """
    _check_cap(n)
    for smallest in range(1 if odd else 2, n + 1, 2):
        m = smallest // 2
        for reds in _iter_red_multisets(tuple(range(4 * m, 2 * m, -2)), n - smallest):
            for blues in iter_partitions(n - smallest - sum(reds), min_part=smallest):
                yield smallest, reds, blues


def _colored(smallest: int, reds: Partition, blues: Partition) -> TwoColorPartition:
    return TwoColorPartition.of(
        [(v, RED) for v in reds] + [(v, BLUE) for v in blues] + [(smallest, BLUE)]
    )


def iter_g_partitions(n: int) -> Iterator[TwoColorPartition]:
    """Two-color partitions of n with even smallest part, canonical order per m."""
    return starmap(_colored, _two_color(n, odd=False))


def iter_gprime_partitions(n: int) -> Iterator[TwoColorPartition]:
    """Two-color partitions of n with odd smallest part 2m+1, red even in (2m, 4m]."""
    return starmap(_colored, _two_color(n, odd=True))


def list_G(n: int) -> List[TwoColorPartition]:
    """Explicit sorted list of the partitions counted by count_G."""
    found = list(iter_g_partitions(n))
    found.sort(key=lambda t: tuple((-p.value, p.color) for p in t.parts))
    return found
