"""Brute-force partition enumeration and statistics.

Every quantity here is computed by direct enumeration of the objects being
counted, with no series machinery involved, so this module serves as the
independent oracle for the generating-function side of the package.

Per weight n, one walk over the partitions of n gives p(n), the rank
classification (rank = largest part minus number of parts; even, odd and
positive odd counts), spt(n) (the total number of smallest parts) and the
number of partitions whose odd parts are all below twice the smallest part.
One generator walks the two-color (red/blue) partitions with a blue smallest
part 2m (even) or 2m+1 (odd) and red parts even in (2m, 4m]: it gives both
counts, the smallest-part total of the even family and the explicit lists.
Every weight must lie in 1..DEFAULT_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Largest weight accepted by the enumerators (about 1e6 partitions at 60).
DEFAULT_CAP = 60

BLUE = "blue"
RED = "red"


class CapExceeded(Exception):
    """The requested weight is beyond the configured enumeration cap."""


class InvalidPartition(Exception):
    """A partition value object violates its invariants."""


Partition = Tuple[int, ...]


class ColoredPart(NamedTuple):
    value: int
    color: str


@dataclass(frozen=True)
class TwoColorPartition:
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


@dataclass(frozen=True)
class StatRow:
    """All enumerated statistics for one weight."""

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


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    if n > DEFAULT_CAP:
        raise CapExceeded(f"weight {n} exceeds enumeration cap {DEFAULT_CAP}")


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


def _walk(n: int) -> Tuple[Dict[int, int], int, int]:
    """One pass over the partitions of n: rank histogram, spt(n), odd-part-bounded count.

    Each partition is built as runs of equal parts, largest value first,
    so its last run is its smallest part with that part's multiplicity.
    ``r`` is the largest part minus the parts placed so far, and the first
    odd value placed is the largest odd part.
    """
    _check_cap(n)
    ranks: Dict[int, int] = {}
    spt_total = bounded = 0

    def visit(rest: int, below: int, r: Optional[int], odd: int) -> None:
        nonlocal spt_total, bounded
        for v in range(min(below - 1, rest), 0, -1):
            odd_v = odd or v % 2 and v
            # a run of ones must use up the rest
            for k in range(rest // v, 0 if v > 1 else rest - 1, -1):
                r_k = (v if r is None else r) - k
                if rest > k * v:
                    visit(rest - k * v, v, r_k, odd_v)
                else:
                    ranks[r_k] = ranks.get(r_k, 0) + 1
                    spt_total += k
                    bounded += odd_v < 2 * v

    visit(n, n + 1, None, 0)
    return ranks, spt_total, bounded


def _rank_stats(ranks: Dict[int, int]) -> RankStats:
    total = sum(ranks.values())
    odd = sum(c for r, c in ranks.items() if r % 2)
    odd_positive = sum(c for r, c in ranks.items() if r % 2 and r > 0)
    return RankStats(total, total - odd, odd, odd_positive)


def rank_stats(n: int) -> RankStats:
    """Classify all partitions of n by rank parity and sign."""
    return _rank_stats(_walk(n)[0])


def rank_histogram(n: int) -> dict:
    """Map rank value -> number of partitions of n with that rank."""
    return _walk(n)[0]


def spt(n: int) -> int:
    """Total multiplicity of the smallest part over all partitions of n."""
    return _walk(n)[1]


def count_omega_interpretation(n: int) -> int:
    """Partitions of n in which each odd part is less than twice the smallest part."""
    return _walk(n)[2]


# ----------------------------------------------------------------------
# two-color partitions


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
    ``reds`` (even, in (2m, 4m]) and the other ``blues`` descend.  No red part
    equals the smallest, so it occurs ``1 + blues.count(smallest)`` times.
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


def _g_stats(n: int) -> Tuple[int, int]:
    """The number of G(n) partitions and their total smallest-part multiplicity."""
    multiplicities = [1 + blues.count(s) for s, _, blues in _two_color(n, odd=False)]
    return len(multiplicities), sum(multiplicities)


def count_G(n: int) -> int:
    """Number of two-color partitions of n with even smallest part."""
    return _g_stats(n)[0]


def list_G(n: int) -> List[TwoColorPartition]:
    """Explicit sorted list of the partitions counted by count_G."""
    found = list(iter_g_partitions(n))
    found.sort(key=lambda t: tuple((-p.value, p.color) for p in t.parts))
    return found


def count_Gprime(n: int) -> int:
    """Number of two-color partitions of n with odd smallest part."""
    return sum(1 for _ in _two_color(n, odd=True))


def sptG(n: int) -> int:
    """Total smallest-part multiplicity over the partitions counted by count_G."""
    return _g_stats(n)[1]


# ----------------------------------------------------------------------
# aggregated table


def stat_row(n: int) -> StatRow:
    """Every oracle statistic for weight n from one walk per family; asserts the tautologies."""
    ranks, spt_total, odd_part_bounded = _walk(n)
    stats = _rank_stats(ranks)
    two_color, spt_two_color = _g_stats(n)
    row = StatRow(
        n=n,
        p=stats.total,
        even_rank=stats.even,
        odd_rank=stats.odd,
        odd_positive_rank=stats.odd_positive,
        two_color=two_color,
        two_color_odd=count_Gprime(n),
        spt=spt_total,
        spt_two_color=spt_two_color,
        odd_part_bounded=odd_part_bounded,
    )
    if row.p != row.even_rank + row.odd_rank:
        raise InvalidPartition(f"rank parity classes do not add up at n={n}")
    if row.odd_rank != 2 * row.odd_positive_rank:
        raise InvalidPartition(f"odd ranks are not sign-symmetric at n={n}")
    return row


def stat_table(max_n: int) -> List[StatRow]:
    """Oracle statistics for every weight 1..max_n."""
    return [stat_row(n) for n in range(1, max_n + 1)]
