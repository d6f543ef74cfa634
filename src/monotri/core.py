"""Domain types for triangular arrays and sign matrices, their validators,
and the sign statistics used by the signed enumerations; a DMT's check and
its statistics read one pass.

Conventions: triangles are stored top row first, row ``i`` (1-based) has
exactly ``i`` entries.  All types are immutable and all functions are pure.

The integer rule is stated here only: a value is an integer iff its type is
exactly ``int``; bools, floats, strings and numpy scalars are refused with
``InvalidInputError``, never truncated.  The carriers (``TriangularArray``,
``SignMatrix``, ``exactla.ExactMatrix``) apply it to every entry when built,
``_int_entries`` to a row and ``_check_size`` to every size and index.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidInputError


def _row_tuples(rows) -> tuple:
    """``rows`` as a tuple of tuples, refused by row if a row is not iterable."""
    rows = tuple(rows) if hasattr(rows, "__iter__") else (rows,)  # a bare value is one row
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        for i, row in enumerate(rows, start=1):
            if not hasattr(row, "__iter__"):
                raise InvalidInputError(f"row {i}: {row!r} is not a sequence of entries") from None
        raise


@dataclass(frozen=True)
class TriangularArray:
    """Integer triangle; carrier for monotone and decreasing monotone triangles."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _row_tuples(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InvalidInputError("triangle needs at least one row")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise InvalidInputError(f"row {i} has {len(row)} entries, expected {i}")
            for x in row:
                if type(x) is not int:
                    raise InvalidInputError(f"row {i} has a non-integer entry {x!r}")

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
        entries = _row_tuples(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InvalidInputError("matrix needs at least one row")
        width = len(entries[0])
        for r, row in enumerate(entries, start=1):
            if len(row) != width:
                raise InvalidInputError(f"row {r} has {len(row)} entries, expected {width}")
            for x in row:
                if type(x) is not int or not -1 <= x <= 1:
                    c = next(c for c, y in enumerate(row, 1) if y is x)  # earlier entries passed
                    raise InvalidInputError(f"row {r} column {c}: {x!r} not in {{-1,0,1}}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def columns(self):
        return list(zip(*self.entries))


class RowSeqClass(Enum):
    """Shape class of a bottom-row candidate, as ``classify_row_sequence``
    reports it; ``alpha``'s automatic dispatch picks its method from it."""

    STRICTLY_INCREASING = "strictly-increasing"
    WEAKLY_DECREASING_MULT2 = "weakly-decreasing-mult2"
    HAS_TRIPLE = "has-triple"
    OTHER = "other"


@dataclass(frozen=True)
class StatRecord:
    """Per-triangle statistics of a decreasing monotone triangle.

    ``pairs_per_row[i]`` counts the values row i holds twice.  Each value of
    a row but the last makes a step (c, c'): its count there and in the row
    below.  The rest are read off a tally of those steps:

    ``newcomers`` (1, 0), ``peaks`` (1, 2), ``dd_bar`` (2, 2);
    ``base_pairs`` (2, 1) and ``dd`` (2, 2), each plus the bottom row's pairs;
    ``sc`` (1, 0) plus the pairs of every row but the last.
    """

    pairs_per_row: tuple[int, ...]
    newcomers: int
    peaks: int
    base_pairs: int
    dd: int
    dd_bar: int
    sc: int


def is_strictly_increasing(k) -> bool:
    return all(map(operator.lt, k, k[1:]))


def is_weakly_decreasing(k) -> bool:
    return all(map(operator.ge, k, k[1:]))


def has_triple(k) -> bool:
    s = sorted(k)  # a value taken three times is three in a row once sorted
    return any(map(operator.eq, s, s[2:]))


def _is_int(x) -> bool:
    """The integer rule, for checks outside the carriers."""
    return type(x) is int


def _int_entries(k) -> tuple[int, ...]:
    """``k`` as a tuple whose entries are all integers."""
    k = tuple(k)
    for x in k:
        if type(x) is not int:
            raise InvalidInputError(f"entry {x!r} is not an integer")
    return k


def _check_size(x, name: str, lo: int = 0, hi: float = math.inf) -> None:
    """The one check on sizes and indices: InvalidInputError unless ``x`` is
    an integer in ``[lo, hi]``."""
    if type(x) is not int or not lo <= x <= hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")


def _check_wni(n, i) -> None:
    """The parameters of W(n, i) and of its W-objects: 1 <= i <= 2n-1."""
    _check_size(n, "n", 1)
    _check_size(i, "i", 1, 2 * n - 1)


def classify_row_sequence(k) -> RowSeqClass:
    """Classify a bottom-row candidate, whose entries must be integers.

    A single entry is both strictly increasing and weakly decreasing; the
    strictly increasing tag wins in that degenerate case.
    """
    k = _int_entries(k)
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


def _dmt_steps(rows):
    """Decide a DMT in one pass: ``(counts, steps)``, its per-row value counts
    and its tally of count steps (see ``StatRecord``), or None unless the
    diagonals weakly decrease, no row holds a value thrice and no step is
    (1, 1), the no-single-descendant rule.  Past the diagonal check rows
    weakly decrease, so each pair of adjacent equal entries sets its value's
    count to 2, and a second pair of one value is a third entry."""
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            if not (lower[j] >= x >= lower[j + 1]):
                return None
    counts = []
    for row in rows:
        cnt = dict.fromkeys(row, 1)
        for v, w in zip(row, row[1:]):
            if v == w:
                if cnt[v] == 2:
                    return None
                cnt[v] = 2
        counts.append(cnt)
    steps = Counter([(c, lower.get(v, 0)) for upper, lower in zip(counts, counts[1:])
                     for v, c in upper.items()])
    if steps[1, 1]:
        return None
    return counts, steps


def validate_dmt(t: TriangularArray) -> bool:
    """True iff the triangle is a decreasing monotone triangle.

    Checks weak decrease along both diagonal families, per-row multiplicity
    at most two, and the no-single-descendant condition (no value occurring
    exactly once in each of two consecutive rows).
    """
    return _dmt_steps(t.rows) is not None


def transition_stats(k, l) -> tuple[int, int]:
    """Pairs in ``l`` and newcomers of ``l`` relative to the row ``k`` below it.

    A pair is two adjacent equal entries; ``l[j]`` is a newcomer iff
    ``k[j] > l[j] > k[j+1]``.  Defined for interlacing DMT row pairs only.
    """
    k, l = _int_entries(k), _int_entries(l)
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
    """All sign statistics of a DMT, read off the count-step tally of the
    DMT check (see ``StatRecord`` for the table)."""
    checked = _dmt_steps(t.rows)
    if checked is None:
        raise InvalidInputError("not a decreasing monotone triangle")
    counts, steps = checked
    pairs_per_row = tuple([sum(c == 2 for c in cnt.values()) for cnt in counts])
    bottom_pairs = pairs_per_row[-1]
    return StatRecord(
        pairs_per_row=pairs_per_row,
        newcomers=steps[1, 0],
        peaks=steps[1, 2],
        base_pairs=steps[2, 1] + bottom_pairs,
        dd=steps[2, 2] + bottom_pairs,
        dd_bar=steps[2, 2],
        sc=steps[1, 0] + sum(pairs_per_row[:-1]),
    )
