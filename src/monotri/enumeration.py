"""Exhaustive streams and memoized signed counting of monotone triangles,
decreasing monotone triangles, ASMs, 2-ASMs and W-objects.

Triangles rest on one kernel, ``_rows_above``: a depth-first stream, over
an explicit stack of prefixes, of the rows directly above a bottom row with
their sign contribution, in lexicographically decreasing order.  A DMT
prefix carries its run length and sign count, so the multiplicity and
singleton rules and ``pairs + newcomers`` are settled as the row grows.
``predecessors`` checks its row and returns that stream; ``enum_triangles``
stacks rows from it, and ``signed_count`` runs a DP over distinct rows
through it, whose transition weights carry the signs, memoised in a
bounded LRU cache keyed by rows shifted to end in 0.  The ``enum_*``
functions check their arguments when called and return the stream;
matrices come from ``machines.backtrack`` over the row words of
``machines.generate``, in row-major lexicographic order with -1 < 0 < 1.
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


def _check_bottom(k, cls) -> tuple[int, ...]:
    k = tuple(k)
    shape = classify_row_sequence(k)
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


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _count(kernel, row, cls):
    """DP over distinct rows; ``row`` has at least two entries and ends in 0,
    and so does every row it looks up.  ``kernel`` names the transition weight."""
    value = 0
    leaf = len(row) == 2
    below_pairs = _pair_values(row) if kernel == "pair" else None
    for above, sc in predecessors(row, cls):
        last = above[-1]
        sub = 1 if leaf else _count(kernel, tuple([x - last for x in above]), cls)
        if kernel == "plain":
            value += sub
        elif kernel == "sc":
            value += -sub if sc % 2 else sub
        else:  # pair coincidence weight, shared by dd and dd_bar
            value += -sub if len(_pair_values(above) & below_pairs) % 2 else sub
    return value


def clear_caches() -> None:
    """Empty the DP's memo."""
    _count.cache_clear()


def signed_count(bottom, cls: TriangleClass, statistic: str):
    """Count triangles with the bottom row, weighted by the statistic.

    ``plain``: unsigned count.  ``sc``: sum of (-1)^sc.
    ``dd_with_prefactor``: (-1)^C(n,2) * sum of (-1)^dd.
    ``dd_bar``: sum of (-1)^dd_bar.
    """
    bottom = _check_bottom(bottom, cls)
    if statistic not in STATISTICS:
        raise InvalidInputError(f"unknown statistic {statistic!r}")
    n = len(bottom)
    if n == 1:
        value = 1
    else:
        kernel = "pair" if statistic.startswith("dd") else statistic
        value = _count(kernel, tuple([x - bottom[-1] for x in bottom]), cls)
    if statistic != "dd_with_prefactor":
        return value
    bottom_pairs = sum(1 for a, b in zip(bottom, bottom[1:]) if a == b)
    exponent = n * (n - 1) // 2 + bottom_pairs
    return -value if exponent % 2 else value


def enum_matrices(kind: str, n: int):
    """All ASMs (n x n) or 2-ASMs (2n x n) of size n, row-major lexicographic."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    if kind == "asm":
        height, column_machine = n, machines.ASM_WORD
    elif kind == "2asm":
        height, column_machine = 2 * n, machines.TWO_ASM_COLUMN
    else:
        raise InvalidInputError(f"unknown matrix kind {kind!r}")
    words = list(machines.generate(machines.ASM_WORD, n))
    return (SignMatrix(entries)
            for entries in machines.backtrack(column_machine, n, [words] * height))


@dataclass(frozen=True)
class WniObject:
    """The (2n-1) x (n-1) matrix form of one signed object counted by the
    difference numbers W(n, i); row 2n-i is the modified row."""

    n: int
    i: int
    matrix: SignMatrix


def _wni_shape_ok(n, i):
    return n >= 1 and 1 <= i <= 2 * n - 1


def is_valid_wni(obj: WniObject) -> bool:
    n, i, m = obj.n, obj.i, obj.matrix
    if not _wni_shape_ok(n, i):
        return False
    if m.rows != 2 * n - 1 or m.cols != n - 1:
        return False
    modified = 2 * n - i - 1
    for r, row in enumerate(m.entries):
        machine = machines.MODIFIED_ROW if r == modified else machines.ASM_WORD
        if not machines.accepts(machine, row):
            return False
    return all(machines.accepts(machines.TWO_ASM_COLUMN, col) for col in m.columns())


def enum_wni_objects(n: int, i: int):
    """All W-objects for (n, i), in row-major lexicographic matrix order."""
    if not _wni_shape_ok(n, i):
        raise InvalidInputError(f"need 1 <= i <= 2n-1, got n={n}, i={i}")
    height, width = 2 * n - 1, n - 1
    modified = 2 * n - i - 1
    asm_words = list(machines.generate(machines.ASM_WORD, width))
    mod_words = list(machines.generate(machines.MODIFIED_ROW, width))
    row_words = [mod_words if r == modified else asm_words for r in range(height)]
    return (WniObject(n, i, SignMatrix(entries))
            for entries in machines.backtrack(machines.TWO_ASM_COLUMN, width, row_words))


def wni_object_sign(obj: WniObject) -> int:
    """(-1)^(i + n + E) where E is the total number of column machine steps
    excluding the 0-loops taken at partial sum 0."""
    if not is_valid_wni(obj):
        raise InvalidInputError("not a valid W-object")
    edges = 0
    for col in obj.matrix.columns():
        trace = machines.parse_steps(machines.TWO_ASM_COLUMN, col)
        edges += len(trace.steps) - trace.sigma0_zero_loops
    return -1 if (obj.i + obj.n + edges) % 2 else 1
