"""Domain types for triangular arrays and sign matrices, their validators,
and the sign statistics used by the signed enumerations.

Conventions: triangles are stored top row first, row ``i`` (1-based) has
exactly ``i`` entries.  All values are plain Python ints, so every statistic
and count is exact.  All types are immutable and all functions are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidInputError


@dataclass(frozen=True)
class TriangularArray:
    """Integer triangle; carrier for monotone and decreasing monotone triangles."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InvalidInputError("triangle needs at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise InvalidInputError(f"row {i} has {len(row)} entries, expected {i}")
            if not all(isinstance(x, int) for x in row):
                raise InvalidInputError(f"row {i} has a non-integer entry")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def bottom(self) -> tuple[int, ...]:
        return self.rows[-1]


@dataclass(frozen=True)
class SignMatrix:
    """Rectangular matrix over {-1, 0, 1}; carrier for ASMs, 2-ASMs and W-objects.

    Zero-column matrices are allowed: the smallest W-object is 1 x 0.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InvalidInputError("matrix needs at least one row")
        width = len(entries[0])
        for r, row in enumerate(entries):
            if len(row) != width:
                raise InvalidInputError(f"row {r + 1} has {len(row)} entries, expected {width}")
            for c, x in enumerate(row):
                if x not in (-1, 0, 1):
                    raise InvalidInputError(f"entry ({r + 1},{c + 1}) = {x} not in {{-1,0,1}}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]


class RowSeqClass(Enum):
    """Shape class of a bottom-row candidate; drives evaluation dispatch."""

    STRICTLY_INCREASING = "strictly-increasing"
    WEAKLY_DECREASING_MULT2 = "weakly-decreasing-mult2"
    HAS_TRIPLE = "has-triple"
    OTHER = "other"


@dataclass(frozen=True)
class StatRecord:
    """Per-triangle statistics of a decreasing monotone triangle.

    ``sc`` always equals ``newcomers + sum(pairs_per_row[:-1])`` and
    ``dd == dd_bar + pairs_per_row[-1]``.
    """

    pairs_per_row: tuple[int, ...]
    newcomers: int
    peaks: int
    base_pairs: int
    dd: int
    dd_bar: int
    sc: int


def is_strictly_increasing(k) -> bool:
    return all(a < b for a, b in zip(k, k[1:]))


def is_weakly_decreasing(k) -> bool:
    return all(a >= b for a, b in zip(k, k[1:]))


def has_triple(k) -> bool:
    return any(c >= 3 for c in Counter(k).values())


def classify_row_sequence(k) -> RowSeqClass:
    """Classify a bottom-row candidate.

    A single entry is both strictly increasing and weakly decreasing; the
    strictly increasing tag wins in that degenerate case.
    """
    k = tuple(k)
    if not k:
        raise InvalidInputError("empty sequence")
    if is_strictly_increasing(k):
        return RowSeqClass.STRICTLY_INCREASING
    if is_weakly_decreasing(k):
        if has_triple(k):
            return RowSeqClass.HAS_TRIPLE
        return RowSeqClass.WEAKLY_DECREASING_MULT2
    return RowSeqClass.OTHER


def validate_monotone(t: TriangularArray) -> bool:
    """True iff rows strictly increase and both diagonal families weakly increase."""
    rows = t.rows
    for row in rows:
        if not is_strictly_increasing(row):
            return False
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            if not (lower[j] <= x <= lower[j + 1]):
                return False
    return True


def validate_dmt(t: TriangularArray) -> bool:
    """True iff the triangle is a decreasing monotone triangle.

    Checks weak decrease along both diagonal families, per-row multiplicity
    at most two, and the no-single-descendant condition (no value occurring
    exactly once in each of two consecutive rows).
    """
    rows = t.rows
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            if not (lower[j] >= x >= lower[j + 1]):
                return False
    for row in rows:
        if any(c > 2 for c in Counter(row).values()):
            return False
    for upper, lower in zip(rows, rows[1:]):
        cu, cl = Counter(upper), Counter(lower)
        if any(cu[v] == 1 and cl[v] == 1 for v in cu):
            return False
    return True


def condition3_equivalent(t: TriangularArray) -> bool:
    """Literal evaluation of the local reformulation of the NSD condition.

    An entry equal to its SE-neighbour and smaller than its SW-neighbour must
    equal its right neighbour; symmetrically, an entry equal to its
    SW-neighbour and greater than its SE-neighbour must equal its left
    neighbour.  Only valid on triangles already satisfying the diagonal and
    multiplicity conditions.
    """
    rows = t.rows
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            if not (lower[j] >= x >= lower[j + 1]):
                raise InvalidInputError("diagonal condition violated")
    for row in rows:
        if any(c > 2 for c in Counter(row).values()):
            raise InvalidInputError("an entry occurs more than twice in a row")
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            sw, se = lower[j], lower[j + 1]
            if x == se and x < sw:
                if j + 1 >= len(upper) or upper[j + 1] != x:
                    return False
            if x == sw and x > se:
                if j == 0 or upper[j - 1] != x:
                    return False
    return True


def transition_stats(k, l) -> tuple[int, int]:
    """Pairs in ``l`` and newcomers of ``l`` relative to the row ``k`` below it.

    A pair is two adjacent equal entries; ``l[j]`` is a newcomer iff
    ``k[j] > l[j] > k[j+1]``.  Defined for interlacing DMT row pairs only.
    """
    k, l = tuple(k), tuple(l)
    if len(k) < 2 or len(l) != len(k) - 1:
        raise InvalidInputError(f"need |l| = |k| - 1 >= 1, got |k|={len(k)}, |l|={len(l)}")
    pairs = sum(1 for a, b in zip(l, l[1:]) if a == b)
    newcomers = sum(1 for j, x in enumerate(l) if k[j] > x > k[j + 1])
    return pairs, newcomers


def _mt_bottom(n):
    # (1, 2, ..., n)
    return tuple(range(1, n + 1))


def _dmt_bottom(n):
    # (n, n, n-1, n-1, ..., 1, 1)
    return tuple(v for x in range(n, 0, -1) for v in (x, x))


def _pair_values(row) -> set:
    return {v for v, c in Counter(row).items() if c == 2}


def triangle_stats(t: TriangularArray) -> StatRecord:
    """All sign statistics of a DMT, computed in one pass over the rows."""
    if not validate_dmt(t):
        raise InvalidInputError("not a decreasing monotone triangle")
    rows = t.rows
    n = len(rows)
    pairs_per_row = tuple(sum(1 for a, b in zip(row, row[1:]) if a == b) for row in rows)
    newcomers = 0
    sc = 0
    dd_bar = 0
    peaks = 0
    base_pairs = pairs_per_row[-1]
    for i in range(n - 1):
        upper, lower = rows[i], rows[i + 1]
        p, nc = transition_stats(lower, upper)
        sc += p + nc
        newcomers += nc
        cu, cl = Counter(upper), Counter(lower)
        dd_bar += sum(1 for v in _pair_values(upper) if cl[v] == 2)
        peaks += sum(1 for v in cu if cu[v] == 1 and cl[v] == 2)
        base_pairs += sum(1 for v in _pair_values(upper) if cl[v] == 1)
    dd = dd_bar + pairs_per_row[-1]
    return StatRecord(
        pairs_per_row=pairs_per_row,
        newcomers=newcomers,
        peaks=peaks,
        base_pairs=base_pairs,
        dd=dd,
        dd_bar=dd_bar,
        sc=sc,
    )
