"""Exhaustive streams and memoized signed counting of monotone triangles,
decreasing monotone triangles, ASMs, 2-ASMs and W-objects.

Triangles rest on one kernel, ``_rows_above``: a depth-first stream, over
an explicit stack of prefixes, of the rows directly above a bottom row with
their sign contribution, in lexicographically decreasing order.  A DMT
prefix carries its run length and sign count, so the multiplicity and
singleton rules and ``pairs + newcomers`` are settled as the row grows.
``predecessors`` checks its row and returns that stream; ``enum_triangles``
stacks rows from it.  ``signed_count`` runs a DP over distinct rows,
memoised in a bounded LRU cache keyed by ``_key``: the row shifted to end
in 0 or its mirror image shifted likewise, whichever is smaller.  DMT rows
sum over that stream, whose transition weights carry the signs.  MT rows
fix the row above one entry at a time (``_mt_partial``, a second bounded
cache), so the rows above the bottom rows of one level share their partial
sums.  The ``enum_*`` functions check their arguments when called and
return the stream.

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
from collections import Counter
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


class TriangleClass(Enum):
    MT = "mt"
    DMT = "dmt"

    # members are singletons compared by identity; the identity hash is C
    # code, where Enum.__hash__ is Python code run on every DP cache lookup
    __hash__ = object.__hash__


def _check_bottom(k, cls, shape=None) -> tuple[int, ...]:
    k = tuple(k)
    shape = shape or classify_row_sequence(k)
    if cls is TriangleClass.MT and shape is not RowSeqClass.STRICTLY_INCREASING:
        raise InvalidInputError(f"{k} is not strictly increasing")
    # a single entry is tagged strictly increasing, and fits DMT too
    if cls is TriangleClass.DMT and len(k) > 1 and shape is not RowSeqClass.WEAKLY_DECREASING_MULT2:
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
    pushed smallest first; the rows completing one prefix go out together."""
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
    singles = {v for v, c in Counter(k).items() if c == 1}
    # (prefix, last value, last run length, sc so far), from the empty prefix;
    # a run may close unless it is a singleton of k at length one
    stack = [((), None, 2, 0)]
    while stack:
        row, last, run, sc = stack.pop()
        j = len(row)
        hi, lo = k[j], k[j + 1]
        top = hi - (last == hi)
        closable = run == 2 or last not in singles
        if j < m - 1:
            if closable:
                stack += [(row + (v,), v, 1, sc + (hi > v > lo)) for v in range(lo, top + 1)]
            if last == hi and run == 1:
                stack.append((row + (hi,), hi, 2, sc + 1))
            continue
        if last == hi and run == 1:
            yield row + (hi,), sc + 1
        if closable:
            yield from [(row + (v,), sc + (hi > v > lo))
                        for v in range(top, lo - 1, -1) if v not in singles]


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
    kernel's count."""
    first, last = row[0], row[-1]
    shifted = tuple([x - last for x in row])
    mirrored = tuple([first - x for x in reversed(row)])
    return shifted if shifted <= mirrored else mirrored


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _count(kernel, row, cls):
    """DP over distinct rows; ``row`` is a key of ``_key``, and so is every
    row it looks up.  ``kernel`` names the transition weight.  MT rows are
    summed one entry of the row above at a time by ``_mt_partial``; DMT rows
    stream their rows above whole from ``predecessors``."""
    if cls is TriangleClass.MT:
        _check_bottom(row, cls)
        return _mt_partial.__wrapped__(row, 0)
    value = 0
    leaf = len(row) == 2
    below_pairs = _pair_values(row) if kernel == "pair" else None
    for above, sc in predecessors(row, cls):
        sub = 1 if leaf else _count(kernel, _key(above), cls)
        if kernel == "plain":
            value += sub
        elif kernel == "sc":
            value += -sub if sc % 2 else sub
        else:  # pair coincidence weight, shared by dd and dd_bar
            value += -sub if len(_pair_values(above) & below_pairs) % 2 else sub
    return value


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _mt_partial(mixed, j):
    """The MT count of a bottom row, summed over the rows above it that begin
    with ``mixed[:j]``; ``mixed[j:]`` is the bottom row from entry ``j`` on.
    One step writes entry ``j`` of the row above over slot ``j``: a value in
    ``[k_j, k_{j+1}]`` above the entry before it.  Step 0 shifts the tuple so
    that the row above starts at 0, so the rows above the bottom rows of one
    level share these sums; the last step looks each finished row up in
    ``_count``.  ``_count`` makes step 0 uncached, as its own value."""
    m = len(mixed) - 1
    lo = mixed[j] + (j > 0 and mixed[j - 1] == mixed[j])  # entry j - 1 may be k_j
    hi = mixed[j + 1]
    if j == m - 1:
        if m == 1:
            return hi - lo + 1
        head = mixed[:j]
        return sum([_count("plain", _key(head + (v,)), TriangleClass.MT)
                    for v in range(lo, hi + 1)])
    tail = mixed[j + 1:]
    if j == 0:
        return sum([_mt_partial((0,) + tuple([x - v for x in tail]), 1)
                    for v in range(lo, hi + 1)])
    head = mixed[:j]
    return sum([_mt_partial(head + (v,) + tail, j + 1) for v in range(lo, hi + 1)])


def clear_caches() -> None:
    """Empty the DP's memo and the MT partial sums."""
    _count.cache_clear()
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
        kernel = ("plain" if cls is TriangleClass.MT
                  else "pair" if statistic.startswith("dd") else statistic)
        value = _count(kernel, _key(bottom), cls)
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
