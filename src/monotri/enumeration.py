"""Exhaustive streams and memoized signed counting of monotone triangles,
decreasing monotone triangles, ASMs, 2-ASMs and W-objects.

Triangles rest on one kernel, ``_rows_above``: a depth-first stream, over
an explicit stack of prefixes, of the rows directly above a bottom row with
their sign contribution, in lexicographically decreasing order.  A DMT
prefix carries its run length and sign count, so the multiplicity and
singleton rules and ``pairs + newcomers`` are settled as the row grows; it
extends in place while its next entry has one value, and is pushed only
where the row branches.  ``predecessors`` checks its row and returns that
stream; ``enum_triangles`` stacks rows from it.

``signed_count`` runs a DP over distinct rows, one bounded LRU cache per
class, each keyed by ``_key``: the row shifted to end in 0 or its mirror
image shifted likewise, whichever is smaller; the first pair of gaps that
differ, read inward from both ends, decides which, and one tuple is built.
``_count_dmt(kernel, row)`` counts a key by the rules in its docstring:
from its rows above, from the rows above its rest, read from
``_rest_rows``, a small LRU cache, or from narrower first gaps, so no
count walks a gap wider than the row.
``_mt_partial`` fixes the row above one entry at a time, so the rows above
the bottom rows of one level share their partial sums; the MT count of a
key is its step-0 partial sum.  The ``enum_*`` functions check their
arguments when called and return the stream.

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
from .errors import InternalError, InvalidInputError

STATISTICS = ("plain", "sc", "dd_with_prefactor", "dd_bar")

_MEMO_ENTRIES = 1 << 20
# rests held by _rest_rows: on the cold alpha-cold rows of perfbench a
# larger bound gains no hit, and an unbounded table more than doubles the
# peak memory of staircase n = 15 for no gain in time
_REST_ENTRIES = 256


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


def _towers(bottom, cls):
    if len(bottom) == 1:
        yield (bottom,)
        return
    for row, _ in predecessors(bottom, cls):
        for tower in _towers(row, cls):
            yield tower + (bottom,)


def enum_triangles(bottom, cls: TriangleClass):
    """All triangles of the class with the given bottom row, built by
    iterated predecessor rows (branches that cannot reach the apex die)."""
    return _checked_triangles(_check_bottom(bottom, cls), cls)


def _checked_triangles(bottom, cls):
    validator = validate_monotone if cls is TriangleClass.MT else validate_dmt
    for tower in _towers(bottom, cls):
        t = TriangularArray(tower)
        if not validator(t):
            raise InternalError(f"enumerated an invalid {cls.value} triangle {t.rows}")
        yield t


def _key(row):
    """The DP key of ``row``: the row shifted to end in 0 or its mirror image
    (-k_n, ..., -k_1) shifted likewise, whichever tuple is smaller.  Mirroring
    maps MT rows to MT rows and DMT rows to DMT rows, and keeps every
    kernel's count.  Entry i of the shifted tuple is the spread k_1 - k_n
    less the first i - 1 gaps, of the mirrored one the spread less the last
    i - 1, so the first pair of gaps ``k_i - k_{i+1}``, ``k_{n-i} - k_{n-i+1}``
    that differ, read inward, decides: the shifted tuple where the front gap
    is wider, the mirrored one where it is narrower.  A row whose gaps read
    the same both ways is its own mirror image up to shift.  One tuple is
    built."""
    i, j = 0, len(row) - 1
    while i + 1 < j:
        ends = row[i] - row[i + 1] - row[j - 1] + row[j]
        if ends < 0:
            first = row[0]
            return tuple([first - x for x in reversed(row)])
        if ends:
            break
        i += 1
        j -= 1
    last = row[-1]
    return tuple([x - last for x in row])


@functools.lru_cache(maxsize=_REST_ENTRIES)
def _rest_rows(rest):
    """The DMT rows above ``rest`` with their sign changes, as one tuple, from
    ``predecessors`` called through the module name, so the steps of
    ``_count_dmt`` over one rest stream and check it once."""
    return tuple(predecessors(rest, TriangleClass.DMT))


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _count_dmt(kernel, row):
    """DP over distinct DMT rows; ``row`` is a key of ``_key``, and so is every
    row it looks up.  It sums the rows above, keys each by ``_key``, and
    weighs it by ``kernel``: ``plain`` 1, ``sc`` (-1)^sc, ``pair`` (-1) to
    the number of pair values the row shares with ``row``, which dd and
    dd_bar share.  A key of three or more entries with first gap at most 1
    streams its rows above from ``_rows_above``, unchecked, as the DP built
    it from a checked row.

    A key ``(g, 0)`` has g - 1 rows above, each a newcomer, or one row (0)
    when g = 0: its count is ``1 - g`` under ``sc`` and ``|g - 1|`` else.
    A key ``(k1,) + R`` of n >= 3 entries with gap ``k1 - R[0]`` from 2 to n
    steps along that gap: its count is that of ``(k1 - 1,) + R`` plus, for
    each ``(A, sc)`` above R, that of ``(k1 - 1,) + A`` weighed as above
    with one more sign change under ``sc``.  The rows above with first
    entry at most k1 - 2 are those above ``(k1 - 1,) + R`` with the same
    weights, as k1 and k1 - 1 are singletons outside them; the rest are the
    ``(k1 - 1,) + A``, that entry a newcomer.  The rows above R come from
    ``_rest_rows``.  By that step, as A[0] <= R[0], and by induction from
    the two-entry count, every kernel's count has degree at most n - 1 in
    k1 from gap 1 on (for ``sc`` Fischer 2006), so a gap wider than n
    is the Lagrange extrapolation from gaps 1..n over the same R, taken in
    increasing gap so each step finds the one below it cached.  ``_key``
    puts the wider end gap in front, so the recursion is a few rows deep
    whatever the gaps at the ends."""
    n, gap, rest = len(row), row[0] - row[1], row[1:]
    if n == 2:
        return 1 - gap if kernel == "sc" else abs(gap - 1)
    if gap > n:
        # L_i(gap) over the nodes 1..n, with its denominator folded into the combs
        return sum([(-1) ** (n - i) * math.comb(gap - 1, i - 1) * math.comb(gap - i - 1, n - i)
                    * _count_dmt(kernel, _key((rest[0] + i,) + rest)) for i in range(1, n + 1)])
    by_sc, by_pairs = kernel == "sc", kernel == "pair"
    below_pairs = _pair_values(row) if by_pairs else None
    if gap < 2:
        head, value, stream = (), 0, _rows_above(row, TriangleClass.DMT)
    else:
        head, stream = (row[0] - 1,), _rest_rows(rest)
        value = _count_dmt(kernel, _key(head + rest))
    flip = len(head)  # an entry k1 - 1 in front is one more sign change
    for above, sc in stream:
        sub = _count_dmt(kernel, _key(head + above))
        if by_sc and (sc + flip) & 1 or by_pairs and len(_pair_values(above) & below_pairs) & 1:
            value -= sub
        else:
            value += sub
    return value


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _mt_partial(mixed, j):
    """The MT count of a bottom row, summed over the rows above it that begin
    with ``mixed[:j]``; ``mixed[j:]`` is the bottom row from entry ``j`` on.
    One step writes entry ``j`` of the row above over slot ``j``: a value in
    ``[k_j, k_{j+1}]`` above the entry before it.  Step 0 shifts the tuple so
    that the row above starts at 0, so the rows above the bottom rows of one
    level share these sums; the last step looks each finished row up by its
    key at step 0.  With ``mixed`` a key of ``_key`` and ``j`` 0 this is the
    DP's MT count of that row."""
    m = len(mixed) - 1
    lo = mixed[j] + (j > 0 and mixed[j - 1] == mixed[j])  # entry j - 1 may be k_j
    hi = mixed[j + 1]
    if j == m - 1:
        if m == 1:
            return hi - lo + 1
        head = mixed[:j]
        return sum([_mt_partial(_key(head + (v,)), 0) for v in range(lo, hi + 1)])
    tail = mixed[j + 1:]
    if j == 0:
        return sum([_mt_partial((0,) + tuple([x - v for x in tail]), 1)
                    for v in range(lo, hi + 1)])
    head = mixed[:j]
    return sum([_mt_partial(head + (v,) + tail, j + 1) for v in range(lo, hi + 1)])


def clear_caches() -> None:
    """Empty the DMT DP memo, its rest rows and the MT partial sums."""
    _count_dmt.cache_clear()
    _rest_rows.cache_clear()
    _mt_partial.cache_clear()


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
    n = len(bottom)
    if n == 1:
        value = 1
    else:
        # every weight is 1 on MT rows, which have neither pairs nor sign changes
        if cls is TriangleClass.MT:
            value = _mt_partial(_key(bottom), 0)
        else:
            value = _count_dmt("pair" if statistic.startswith("dd") else statistic, _key(bottom))
    if statistic != "dd_with_prefactor":
        return value
    bottom_pairs = sum(1 for a, b in zip(bottom, bottom[1:]) if a == b)
    exponent = n * (n - 1) // 2 + bottom_pairs
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
