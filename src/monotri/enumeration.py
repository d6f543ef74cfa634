"""Exhaustive streams and memoized signed counting of monotone triangles,
decreasing monotone triangles, ASMs, 2-ASMs and W-objects.

Triangles rest on one kernel, ``_rows_above``: a depth-first stream, over
an explicit stack of prefixes, of the rows directly above a bottom row with
their sign contribution, in lexicographically decreasing order.  A DMT
prefix carries its run length and sign count, so the multiplicity and
singleton rules and ``pairs + newcomers`` are settled as the row grows; it
extends in place while its next entry has one value, and is pushed only
where the row branches.  ``predecessors`` checks its row and returns that
stream; ``enum_triangles`` walks its rows up from the bottom row with
``machines._paths``, the walker the sign matrices share.

``signed_count`` runs one DP over distinct rows of either class and reads
every count, its own row's too, through one door, ``_lookup``: a bounded
LRU cache keyed by the kernel and the gap word as read.  Rows of one or two
entries have a closed form, and so have rows of three or four whose count
is alpha: every MT row, and every DMT row under ``sc``.  For any other word
``_key`` alone decides the word the DP counts and its sign: the word or its
reverse (the mirror image), whichever puts the wider end gap in front, or
for a DMT row under ``sc`` a rotation, with sign 0 where the rotation shows
the count is 0.
``_count(kernel, gaps)`` counts a key by the rules in its docstring: from
the rows above its rest or its rest's rest, or from narrower first gaps,
so no count streams its own rows above or walks an end gap wider than the
row.  Rows above reach the DP only through ``_above``, a small LRU cache
filled from ``predecessors``: bounded by the gaps before any is made,
checked, and kept as gap words.
The ``enum_*`` functions check their arguments when called and return the
stream.

Each sign-matrix class (ASMs, 2-ASMs and the W-objects for (n, i)) has one
description, ``_matrix_class``: the machine that reads each row, the one
that reads every column, and the width.  ``enum_matrices`` and
``enum_wni_objects`` run ``machines.backtrack`` from it, over the row words
of ``machines.generate``, in row-major lexicographic order with
-1 < 0 < 1; ``is_valid_wni`` and ``transform.matrix_to_triangle`` check
membership against it, and ``wni_object_sign`` counts steps along the
column walks that check returns.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from operator import sub
from dataclasses import dataclass
from enum import Enum

from . import machines
from .core import (
    RowSeqClass,
    SignMatrix,
    TriangularArray,
    _check_size,
    _check_wni,
    _pair_values,
    classify_row_sequence,
    validate_dmt,
    validate_monotone,
)
from .errors import InternalError, InvalidInputError, ResourceLimitError

STATISTICS = ("plain", "sc", "dd_with_prefactor", "dd_bar")

_MEMO_ENTRIES = 1 << 20
# rows held by _above, the rows above rests: on a cold pass over the
# alpha-cold rows of perfbench a larger bound gains no hit and 64 lose about
# a third of them, and an unbounded table raises the peak memory of staircase
# n = 17 from 34 to 59 MB and of alpha(9; 2, 4, ..., 18) from 33 to 80 MB
_ABOVE_ENTRIES = 256
_ABOVE_LIMIT = 1 << 20  # rows above one row that the DP may stream or keep


class TriangleClass(Enum):
    MT = "mt"
    DMT = "dmt"


def _check_bottom(k, cls, shape=None) -> tuple[int, ...]:
    k = tuple(k)
    shape = shape or classify_row_sequence(k)
    if cls is TriangleClass.MT:
        if shape is not RowSeqClass.STRICTLY_INCREASING:
            raise InvalidInputError(f"{k} is not strictly increasing")
    elif cls is not TriangleClass.DMT:
        raise InvalidInputError(f"unknown triangle class {cls!r}")
    # a single entry is tagged strictly increasing, and fits DMT too
    elif len(k) > 1 and shape is not RowSeqClass.WEAKLY_DECREASING_MULT2:
        raise InvalidInputError(f"{k} is not weakly decreasing with multiplicity <= 2")
    return k


def predecessors(k, cls: TriangleClass):
    """All admissible rows directly above bottom row ``k``, with their
    sign-change contribution, in lexicographically decreasing order.

    MT rows interlace strictly (sign contribution 0).  DMT rows interlace
    the other way round, keep every value at most twice, share no singleton
    value with ``k``, and contribute ``pairs + newcomers`` sign changes.
    """
    k = _check_bottom(k, cls)
    if len(k) < 2:
        raise InvalidInputError("bottom row must have at least two entries")
    return _rows_above(k, cls)


def _rows_above(k, cls):
    """Depth-first stream of ``predecessors``: prefixes wait on a stack,
    pushed smallest first; the rows completing one prefix go out together.
    A DMT prefix grows without the stack while its next entry is forced, as
    under every pair of ``k``."""
    m = len(k) - 1
    if cls is TriangleClass.MT:
        stack = [((), k[0] - 1)]  # (prefix, its last value)
        while stack:
            row, last = stack.pop()
            j = len(row)
            lo = k[j] + (last == k[j])
            if j < m - 1:
                stack += [(row + (v,), v) for v in range(lo, k[j + 1] + 1)]
            else:
                yield from [(row + (v,), 0) for v in range(k[m], lo - 1, -1)]
        return
    # single[j]: k_j occurs once in k, read off its neighbours.  A run begun
    # at a singleton k_j could neither pair nor close, so none is begun there;
    # one begun at a singleton k_{j+1} must pair next.  A prefix grows in place
    # while its next entry has one value; it never has none, as k has no triple.
    single = [a != b != c for a, b, c in zip((None,) + k, k, k[1:] + (None,))]
    # (prefix, last value, last run length, sc so far), from the empty prefix
    stack = [((), None, 2, 0)]
    while stack:
        row, last, run, sc = stack.pop()
        j = len(row)
        while True:
            hi, lo = k[j], k[j + 1]
            pair = last == hi and run == 1
            # new runs take the values lo..top, top >= lo - 1
            top = lo - 1 if pair and single[j] else hi - (last == hi or single[j])
            if j == m - 1:
                if pair:
                    yield row + (hi,), sc + 1
                yield from [(row + (v,), sc + (hi > v > lo))
                            for v in range(top, lo + single[m] - 1, -1)]
                break
            choices = top - lo + 1 + pair
            if choices > 1:
                stack += [(row + (v,), v, 1, sc + (hi > v > lo)) for v in range(lo, top + 1)]
                if pair:
                    stack.append((row + (hi,), hi, 2, sc + 1))
                break
            if pair:
                row, last, run, sc = row + (hi,), hi, 2, sc + 1
            else:
                row, last, run = row + (lo,), lo, 1
            j += 1


def enum_triangles(bottom, cls: TriangleClass):
    """All triangles of the class with the given bottom row, built by
    iterated predecessor rows (branches that cannot reach the apex die)."""
    return _checked_triangles(_check_bottom(bottom, cls), cls)


def _checked_triangles(bottom, cls):
    """``machines._paths`` up from the bottom row, each move a row above
    from ``predecessors``, which checks every row it is given: a path is the
    rows above, bottom up.  No move list is kept, as the distinct rows above
    can grow exponentially with the spread."""
    validator = validate_monotone if cls is TriangleClass.MT else validate_dmt

    def moves(r, row):
        return ((above, above) for above, _ in predecessors(row, cls))

    for path in machines._paths(bottom, len(bottom) - 1, moves):
        t = TriangularArray((*path[::-1], bottom))
        if not validator(t):
            raise InternalError(f"enumerated an invalid {cls.value} triangle {t.rows}")
        yield t


def _gaps(row):
    """The gap word ``(k1 - k2, ..., k_{n-1} - k_n)`` of ``row``."""
    return tuple([*map(sub, row, row[1:])])


def _key(kernel, gaps):
    """The word the DP counts for gap word ``gaps`` of three or more entries,
    and the sign that carries its count to that of ``gaps``, 0 when that
    count is 0: the one place either is chosen.  The mirror image
    (-k_n, ..., -k_1) keeps the class and every kernel's count; its key is
    the word or its reverse, whichever puts the wider end gap in front (the
    first pair of gaps that differ in size, read inward, decides): the
    larger word for DMT, gaps >= 0.  It serves every kernel but ``sc`` (alpha
    at a DMT row), every MT word, and spread > n.  Under ``sc`` at spread
    <= n, alpha(n; k) = (-1)^(n-1) alpha(n; k2..kn, k1 - n) (Fischer 2007)
    turns the cycle ``(spare,) + gaps``, spare = n - spread, and leaving
    out its entry j gives a row weighed by (-1)^((n-1)j).  Two adjacent
    zeros in it give one with a triple, so sign 0; else the key is the
    largest word either way of a cut at the widest entry, the first cut
    found winning a tie.  A key, its own cut j = 0, is its own key with sign
    1; where the spare alone is widest, the cut there is the mirror key."""
    n = len(gaps) + 1
    if kernel != "sc" or gaps[0] < 0 or (spare := n - sum(gaps)) < 0:
        back = gaps[::-1]
        return min(gaps, back) if gaps[0] < 0 else max(gaps, back), 1
    if not spare and not (gaps[0] and gaps[-1]):
        return gaps, 0
    cycle = ((spare,) + gaps) * 2  # the cut at j is cycle[j + 1:j + n]
    top = max(cycle)
    j = cut = cycle.index(top)
    key = max(cycle[j + 1:j + n], cycle[j + n - 1:j:-1])
    for _ in range(1, cycle.count(top) // 2):
        j = cycle.index(top, j + 1)
        if (word := max(cycle[j + 1:j + n], cycle[j + n - 1:j:-1])) > key:
            key, cut = word, j
    return key, -1 if n % 2 == 0 and cut % 2 else 1


@functools.lru_cache(maxsize=_ABOVE_ENTRIES)
def _above(kernel, gaps):
    """Each row A above the row K with gap word ``gaps`` that ends in 0 as
    ``(K[0] - A[0], A's gaps, parity of A's weight under kernel)``: every row
    the DP sums is made from these, the rows above a key's rest or its
    rest's rest, never a key's own.  They come from ``predecessors``,
    called through the module name, so each is checked, once the product of
    ``|g| + 1`` (<= 2 ** spread) bounds them by ``_ABOVE_LIMIT``.  The tuple
    is copied from a list: one built from the stream grows by reallocation,
    which fragments the heap (2.3 MB more peak memory over 40 cold passes of
    perfbench's alpha-cold)."""
    row = tuple(accumulate(reversed(gaps), initial=0))[::-1]
    if abs(row[0]) > 20 and math.prod([abs(g) + 1 for g in gaps]) > _ABOVE_LIMIT:
        raise ResourceLimitError(
            f"over {_ABOVE_LIMIT} rows above a row of {len(row)} entries and spread {abs(row[0])}")
    stream = predecessors(row, TriangleClass.MT if gaps[0] < 0 else TriangleClass.DMT)
    if kernel != "sc" and gaps[0] >= 0:  # MT rows have neither pairs nor sign changes
        pairs = _pair_values(row) if kernel == "pair" else set()
        stream = ((a, len(_pair_values(a) & pairs) if pairs else 0) for a, _ in stream)
    return tuple([(row[0] - a[0], _gaps(a), e & 1) for a, e in stream])


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _lookup(kernel, gaps):
    """The count of gap word ``gaps``, the DP's memo, keyed by the word as
    read, and the only door to ``_count``.  A word of no gaps counts 1.  A
    word ``(g,)`` has g - 1 rows above, each a DMT newcomer, or one row (0)
    when g = 0, or 1 - g MT rows when g < 0: it counts ``1 - g`` under ``sc``
    and ``|g - 1|`` else.  A word of three or four entries that counts alpha,
    every MT word and every DMT word under ``sc``, is alpha's closed form in
    ``p_i = 1 - g_i``, from Fischer's operator formula.  A longer word, or a
    DMT one under ``plain`` or ``pair``, is read, on a miss, as ``_key``
    decides: a key with sign 1 is counted by ``_count``, any other word is
    its sign times its key's count, read through ``_lookup``."""
    n = len(gaps) + 1
    if n < 3:
        return 1 if n == 1 else 1 - gaps[0] if kernel == "sc" else abs(gaps[0] - 1)
    if n < 5 and (kernel == "sc" or gaps[0] < 0):
        p = [1 - g for g in gaps]
        if n == 3:
            return (p[0] * p[1] * (p[0] + p[1]) - 2) // 2
        p1, p2, p3 = p
        return (p1 * p2 * p3 * (p1 + p2) * (p2 + p3) * (p1 + p2 + p3) - 2 * (p1 + p2) ** 3
                - 2 * (p2 + p3) ** 3 + 4 * p2 ** 3 - 12 * p1 * p2 * p3 + 14 * (p1 + p3)) // 12
    key, sign = _key(kernel, gaps)
    if key == gaps and sign == 1:
        return _count(kernel, gaps)
    return sign * _lookup(kernel, key) if sign else 0


def _count(kernel, gaps):
    """DP over distinct rows of either class; ``gaps`` is a key of three or
    more entries with no closed form, made and read by ``_lookup`` alone,
    and every row it sums is read through ``_lookup`` and weighed by
    ``kernel``: ``plain`` 1, ``sc`` (-1)^sc, ``pair`` (-1) to the number of
    pair values the row shares with the row below, which dd and dd_bar
    share.  Every weight is 1 on MT rows, which have neither pairs nor sign
    changes.

    A key ``(k1,) + R`` of n entries with first gap ``w = |k1 - k2|`` at
    most n sums its rows above in two blocks, built from narrower first
    gaps and from the rows ``(A, weight)`` above R or R's rest R'', so it
    never streams its own.  The first block is, at w >= 2, the count of the
    key one gap narrower, ``(k1 + 1,) + R`` for MT and ``(k1 - 1,) + R`` for
    DMT: the rows above that the second block misses, with the same weights
    (k1 and k1 - 1 are DMT singletons outside them).  At w <= 1 it is empty
    for MT, and for a DMT key ``(x + w, x) + R''`` the rows ``(x, x) + B``
    for B above R'', with one more pair, shared with the row below if it
    holds x twice too.  At w = 1 these are all: the singleton x + 1 stays
    out, so a row above begins with x, and so does its next entry, forced by
    a pair x or to pair a singleton x.  The second block puts one entry in
    front of each A: k1 for MT, and at w = 1 also k2 when A begins above k2;
    x at w = 0; the newcomer k1 - 1 for DMT at w >= 2, one more sign change
    under ``sc``.  By that step, and by induction from ``_lookup``'s
    two-entry count, every kernel's count has degree at most n - 1 in k1
    from w = 1 on (for ``sc`` Fischer 2006), so a gap wider than n is the
    Lagrange extrapolation from gaps 1..n over the same R, taken in
    increasing gap so each step finds the one below it cached; as the wider
    end gap is in front, the recursion is a few rows deep."""
    n, gap, rest = len(gaps) + 1, gaps[0], gaps[1:]
    w, step = abs(gap), 1 if gap > 0 else -1  # k1 - step narrows the first gap
    if w > n:
        # L_i(w) over the nodes 1..n, with its denominator folded into the combs
        return sum([(-1) ** (n - i) * math.comb(w - 1, i - 1) * math.comb(w - i - 1, n - i)
                    * _lookup(kernel, (step * i,) + rest) for i in range(1, n + 1)])
    if w > 1:
        value = _lookup(kernel, (gap - step,) + rest)
    elif gap < 0:
        value = 0
    else:
        # (x, x) + B: one more pair, shared if the row below has x twice
        flip = kernel == "sc" or kernel == "pair" and 0 in gaps[:2]
        if n == 3:  # B is empty: the one row (x, x), word (0,), counts 1
            value = -1 if flip else 1
        else:
            value = 0
            for drop, above, odd in _above(kernel, gaps[2:]):
                count = _lookup(kernel, (0, rest[0] + drop) + above)
                value += -count if odd != flip else count
        if gap:
            return value
    # A's row begins with k1 - (gap > 0): a DMT newcomer k1 - 1 is one more
    # sign change; at MT gap -1, k2 also fronts each A that begins above it
    base, flip, both = gap - (gap > 0), gap > 0 and kernel == "sc", gap == -1
    for drop, above, odd in _above(kernel, rest):
        count = _lookup(kernel, (base + drop,) + above)
        if both and drop < 0:
            count += _lookup(kernel, (drop,) + above)
        value += -count if odd != flip else count
    return value


def clear_caches() -> None:
    """Empty the DP memo and its rows above."""
    _lookup.cache_clear()
    _above.cache_clear()


def signed_count(bottom, cls: TriangleClass, statistic: str):
    """Count triangles with the bottom row, weighted by the statistic.

    ``plain``: unsigned count.  ``sc``: sum of (-1)^sc.
    ``dd_with_prefactor``: (-1)^C(n,2) * sum of (-1)^dd.
    ``dd_bar``: sum of (-1)^dd_bar.
    """
    return _signed_count(bottom, cls, statistic, None)


def _signed_count(bottom, cls, statistic, shape):
    """``signed_count``, for a caller that has already classified the row as
    ``shape`` (or passes None)."""
    bottom = _check_bottom(bottom, cls, shape)
    if statistic not in STATISTICS:
        raise InvalidInputError(f"unknown statistic {statistic!r}")
    value = _lookup("pair" if statistic.startswith("dd") else statistic, _gaps(bottom))
    if statistic != "dd_with_prefactor":
        return value
    exponent = math.comb(len(bottom), 2) + len(_pair_values(bottom))
    return -value if exponent % 2 else value


def _matrix_class(kind: str, n: int, i: int | None = None):
    """The one description of each sign-matrix class: the machine that reads
    each row, the machine that reads every column, and the width.  ``asm``:
    the n x n ASMs; ``2asm``: the 2n x n 2-ASMs; ``wni`` with ``i``: the
    (2n-1) x (n-1) W-objects for (n, i), whose row 2n-i (1-based) is the
    modified row."""
    _check_size(n, "n", 1)
    if kind == "asm":
        return (machines.ASM_WORD,) * n, machines.ASM_WORD, n
    if kind == "2asm":
        return (machines.ASM_WORD,) * (2 * n), machines.TWO_ASM_COLUMN, n
    if kind == "wni" and i is not None:
        _check_wni(n, i)
        rows = [machines.ASM_WORD] * (2 * n - 1)
        rows[2 * n - i - 1] = machines.MODIFIED_ROW
        return tuple(rows), machines.TWO_ASM_COLUMN, n - 1
    raise InvalidInputError(f"unknown matrix kind {kind!r}")


def _class_members(kind, n, i=None):
    """Stream of the class's matrices, row-major lexicographic; checks its
    arguments when called."""
    row_machines, column_machine, width = _matrix_class(kind, n, i)
    words = {m: list(machines.generate(m, width)) for m in dict.fromkeys(row_machines)}
    return machines.backtrack(column_machine, width, [words[m] for m in row_machines])


def _check_member(m: SignMatrix, kind: str, n: int, i: int | None = None) -> list:
    """The column machine's walk down each column of ``m``; InvalidInputError
    unless ``m`` belongs to the class."""
    row_machines, column_machine, width = _matrix_class(kind, n, i)
    if (m.rows, m.cols) != (len(row_machines), width):
        raise InvalidInputError(
            f"a {kind} matrix for n={n} is {len(row_machines)} x {width}, got {m.rows} x {m.cols}")
    for machine, row in zip(row_machines, m.entries):
        if machines._walk(machines.MACHINES[machine], row) is None:
            raise InvalidInputError(f"row {row} rejected by {machine}")
    walks = [machines._walk(machines.MACHINES[column_machine], col) for col in m.columns()]
    if None in walks:
        raise InvalidInputError(f"column {walks.index(None) + 1} rejected by {column_machine}")
    return walks


def enum_matrices(kind: str, n: int):
    """All ASMs (n x n) or 2-ASMs (2n x n) of size n, row-major lexicographic."""
    return (SignMatrix(entries) for entries in _class_members(kind, n))


@dataclass(frozen=True)
class WniObject:
    """The (2n-1) x (n-1) matrix form of one signed object counted by the
    difference numbers W(n, i); row 2n-i is the modified row."""

    n: int
    i: int
    matrix: SignMatrix


def is_valid_wni(obj: WniObject) -> bool:
    try:
        _check_member(obj.matrix, "wni", obj.n, obj.i)
    except InvalidInputError:
        return False
    return True


def enum_wni_objects(n: int, i: int):
    """All W-objects for (n, i), in row-major lexicographic matrix order."""
    return (WniObject(n, i, SignMatrix(entries)) for entries in _class_members("wni", n, i))


def wni_object_sign(obj: WniObject) -> int:
    """(-1)^(i + n + E) where E is the total number of column machine steps
    excluding the 0-loops taken at partial sum 0, counted along the column
    walks of the membership check with ``parse_steps``'s rest test."""
    table = machines.MACHINES[machines.TWO_ASM_COLUMN].table
    edges = 0
    for walk in _check_member(obj.matrix, "wni", obj.n, obj.i):
        loops = sum(1 for a, b in zip(walk, walk[1:]) if a == b == 0)
        edges += len(machines._rests(table, walk)) - 1 - loops
    return -1 if (obj.i + obj.n + edges) % 2 else 1
