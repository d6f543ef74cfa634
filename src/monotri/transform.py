"""Bijections between triangles and sign matrices.

Both directions share one partial-sum rule: entry (i, j) of the matrix is
the count of value j in row i of the triangle minus the same count one row
up.  ``triangle_to_matrix`` counts each row's values into a list;
``matrix_to_triangle`` reads the counts of row i off the column walks that
the membership check returns (each walk's state after row i) and joins one
run per value, the value repeated by its count.  Monotone triangles with
bottom row (1..n) correspond to n x n ASMs (column sums 1); decreasing
monotone triangles with bottom row (n, n, ..., 1, 1) correspond to (2n) x n
2-ASMs (column sums 2).

The structured subset S1 (every even row consists entirely of pairs) maps
onto monotone triangles by collapsing each pair of an even row to a single
entry and reversing the row; the odd rows of an S1 triangle are forced, and
are rebuilt here by interleaving the two adjacent even rows.

Every triangle argument is checked once, by ``_kind_params``: a valid
triangle of the given kind on its standard bottom row, (1..n) or
(n, n, ..., 1, 1).  The S1 functions use the DMT kind of that check.  Every
matrix argument is checked against the one description of its class in
``enumeration``, which names the machines that read its rows and columns.
"""

from __future__ import annotations

from enum import Enum
from operator import getitem, sub

from .core import (
    SignMatrix,
    TriangularArray,
    _dmt_bottom,
    _mt_bottom,
    validate_dmt,
    validate_monotone,
)
from .enumeration import _check_member
from .errors import InternalError, InvalidInputError


class BijectionKind(Enum):
    MT_ASM = "mt-asm"
    DMT_2ASM = "dmt-2asm"


def _kind_params(t: TriangularArray, kind: BijectionKind) -> int:
    """``n`` of a valid triangle of this kind on its standard bottom row."""
    if kind is BijectionKind.MT_ASM:
        n = t.n
        if not validate_monotone(t):
            raise InvalidInputError("not a monotone triangle")
        if t.bottom != _mt_bottom(n):
            raise InvalidInputError(f"bottom row must be (1..{n})")
        return n
    if t.n % 2:
        raise InvalidInputError("triangle size must be even for a DMT on (n,n,...,1,1)")
    n = t.n // 2
    if not validate_dmt(t):
        raise InvalidInputError("not a decreasing monotone triangle")
    if t.bottom != _dmt_bottom(n):
        raise InvalidInputError(f"bottom row must be ({n},{n},...,1,1)")
    return n


def _even_rows_paired(t: TriangularArray) -> bool:
    # a DMT row holds no value three times, so a row of equal adjacent
    # pairs holds every one of its values exactly twice
    return all(row[::2] == row[1::2] for row in t.rows[1::2])


def triangle_to_matrix(t: TriangularArray, kind: BijectionKind) -> SignMatrix:
    """Partial-sum-difference matrix of a triangle."""
    n = _kind_params(t, kind)
    prev = [0] * n
    out = []
    for row in t.rows:
        b = [0] * n  # b[v - 1]: the count of value v, which lies in 1..n
        for v in row:
            b[v - 1] += 1
        out.append(tuple(map(sub, b, prev)))
        prev = b
    return SignMatrix(tuple(out))


def matrix_to_triangle(m: SignMatrix, kind: BijectionKind) -> TriangularArray:
    """Inverse of ``triangle_to_matrix``: row i joins one run per value 1..n,
    ascending for an ASM and descending for a 2-ASM; ``runs[j][s]`` is the
    j-th value repeated s times, s the i-th partial sum of its column: the
    state after row i of the column walk that the membership check returns."""
    mt = kind is BijectionKind.MT_ASM
    n = m.rows if mt else m.cols
    walks = _check_member(m, "asm" if mt else "2asm", n)
    runs = [((), (v,), (v, v)) for v in (range(1, n + 1) if mt else range(n, 0, -1))]
    sums = zip(*(walks if mt else walks[::-1]))
    next(sums)  # the walks' common start, before row 1
    t = TriangularArray(tuple([sum(map(getitem, runs, row_sums), ()) for row_sums in sums]))
    if not (validate_monotone(t) if mt else validate_dmt(t)):
        raise InternalError(f"{kind.value} inverse produced an invalid triangle {t.rows}")
    return t


def is_s1(t: TriangularArray) -> bool:
    """True iff every even row consists entirely of pairs."""
    _kind_params(t, BijectionKind.DMT_2ASM)
    return _even_rows_paired(t)


def s1_to_mt(t: TriangularArray) -> TriangularArray:
    """Collapse the pairs of each even row and reverse: the corresponding
    monotone triangle with bottom row (1..n)."""
    n = _kind_params(t, BijectionKind.DMT_2ASM)
    if not _even_rows_paired(t):
        raise InvalidInputError("even rows are not all pairs")
    out = TriangularArray(tuple(row[-2::-2] for row in t.rows[1::2]))
    if not (validate_monotone(out) and out.bottom == _mt_bottom(n)):
        raise InternalError(f"collapsing the S1 triangle gave {out.rows}")
    return out


def mt_to_s1(t: TriangularArray) -> TriangularArray:
    """Inverse of ``s1_to_mt``: even row 2i doubles the reversed i-th row of
    the monotone triangle.  The odd row between the even rows
    (b1, b1, ..., bi, bi) and (a1, a1, ..., a(i+1), a(i+1)) is forced by the
    diagonal inequalities to interleave them: (a1, b1, a2, ..., bi, a(i+1))."""
    n = _kind_params(t, BijectionKind.MT_ASM)
    rows, above = [], ()
    for row in t.rows:
        below = row[::-1]
        rows += [below[:1] + tuple(v for b, a in zip(above, below[1:]) for v in (b, a)),
                 tuple(v for x in below for v in (x, x))]
        above = below
    out = TriangularArray(tuple(rows))
    if not (validate_dmt(out) and out.bottom == _dmt_bottom(n) and _even_rows_paired(out)):
        raise InternalError(f"interleaving the rows gave no S1 triangle: {out.rows}")
    return out


def reflect_rows(m: SignMatrix) -> SignMatrix:
    """Reverse the row order; maps W-objects for (n, i) onto those for
    (n, 2n-i)."""
    return SignMatrix(tuple(reversed(m.entries)))
