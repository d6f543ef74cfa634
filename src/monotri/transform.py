"""Bijections between triangles and sign matrices.

Both directions share one partial-sum engine: entry (i, j) of the matrix is
the count of value j in row i of the triangle minus the same count one row
up.  Monotone triangles with bottom row (1..n) correspond to n x n ASMs
(column sums 1); decreasing monotone triangles with bottom row
(n, n, ..., 1, 1) correspond to (2n) x n 2-ASMs (column sums 2).

The structured subset S1 (every even row consists entirely of pairs) maps
onto monotone triangles by collapsing each pair of an even row to a single
entry and reversing the row; the odd rows of an S1 triangle are forced and
are reconstructed here by interval collapse from the two adjacent even rows.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from . import machines
from .core import SignMatrix, TriangularArray, validate_dmt, validate_monotone
from .errors import AmbiguityError, InternalError, InvalidInputError


class BijectionKind(Enum):
    MT_ASM = "mt-asm"
    DMT_2ASM = "dmt-2asm"


def _mt_bottom(n):
    return tuple(range(1, n + 1))


def _dmt_bottom(n):
    return tuple(v for x in range(n, 0, -1) for v in (x, x))


def _kind_params(t: TriangularArray, kind: BijectionKind):
    if kind is BijectionKind.MT_ASM:
        n = t.n
        if not validate_monotone(t):
            raise InvalidInputError("not a monotone triangle")
        if t.bottom != _mt_bottom(n):
            raise InvalidInputError(f"bottom row must be (1..{n})")
        return n
    if t.n % 2:
        raise InvalidInputError("triangle size must be even for the 2-ASM bijection")
    n = t.n // 2
    if not validate_dmt(t):
        raise InvalidInputError("not a decreasing monotone triangle")
    if t.bottom != _dmt_bottom(n):
        raise InvalidInputError(f"bottom row must be ({n},{n},...,1,1)")
    return n


def triangle_to_matrix(t: TriangularArray, kind: BijectionKind) -> SignMatrix:
    """Partial-sum-difference matrix of a triangle."""
    n = _kind_params(t, kind)
    prev = [0] * n
    out = []
    for row in t.rows:
        counts = Counter(row)
        b = [counts.get(j, 0) for j in range(1, n + 1)]
        out.append(tuple(b[j] - prev[j] for j in range(n)))
        prev = b
    return SignMatrix(tuple(out))


def _validate_matrix(m: SignMatrix, kind: BijectionKind) -> int:
    if kind is BijectionKind.MT_ASM:
        if m.rows != m.cols:
            raise InvalidInputError("an ASM must be square")
        n = m.rows
        col_machine = machines.ASM_WORD
    else:
        if m.cols == 0 or m.rows != 2 * m.cols:
            raise InvalidInputError("a 2-ASM of size n must be (2n) x n")
        n = m.cols
        col_machine = machines.TWO_ASM_COLUMN
    for row in m.entries:
        if not machines.accepts(machines.ASM_WORD, row):
            raise InvalidInputError(f"row {row} is not an ASM word")
    for col in m.columns():
        if not machines.accepts(col_machine, col):
            raise InvalidInputError(f"column {col} rejected by {col_machine}")
    return n


def matrix_to_triangle(m: SignMatrix, kind: BijectionKind) -> TriangularArray:
    """Inverse of ``triangle_to_matrix``: row i lists value j with the
    multiplicity of the i-th partial column sum."""
    n = _validate_matrix(m, kind)
    rows = []
    totals = [0] * n
    for mat_row in m.entries:
        totals = [a + b for a, b in zip(totals, mat_row)]
        if kind is BijectionKind.MT_ASM:
            row = tuple(j for j in range(1, n + 1) if totals[j - 1] == 1)
        else:
            row = tuple(v for j in range(n, 0, -1) for v in [j] * totals[j - 1])
        rows.append(row)
    t = TriangularArray(tuple(rows))
    validator = validate_monotone if kind is BijectionKind.MT_ASM else validate_dmt
    if not validator(t):
        raise InternalError(f"{kind.value} inverse produced an invalid triangle {t.rows}")
    return t


def _check_s1_shape(t: TriangularArray) -> int:
    if t.n % 2:
        raise InvalidInputError("an S1 triangle has an even number of rows")
    n = t.n // 2
    if not validate_dmt(t) or t.bottom != _dmt_bottom(n):
        raise InvalidInputError(f"need a DMT with bottom row ({n},{n},...,1,1)")
    return n


def is_s1(t: TriangularArray) -> bool:
    """True iff every even row consists entirely of pairs."""
    n = _check_s1_shape(t)
    for i in range(1, n + 1):
        row = t.rows[2 * i - 1]
        if any(c != 2 for c in Counter(row).values()):
            return False
    return True


def s1_to_mt(t: TriangularArray) -> TriangularArray:
    """Collapse the pairs of each even row and reverse: the corresponding
    monotone triangle with bottom row (1..n)."""
    n = _check_s1_shape(t)
    if not is_s1(t):
        raise InvalidInputError("even rows are not all pairs")
    rows = []
    for i in range(1, n + 1):
        distinct = tuple(sorted(set(t.rows[2 * i - 1])))
        rows.append(distinct)
    out = TriangularArray(tuple(rows))
    if not (validate_monotone(out) and out.bottom == _mt_bottom(n)):
        raise InternalError(f"collapsing the S1 triangle gave {out.rows}")
    return out


def mt_to_s1(t: TriangularArray) -> TriangularArray:
    """Inverse of ``s1_to_mt``: even row 2i doubles the reversed i-th row of
    the monotone triangle; each odd-row entry is forced to the single value
    allowed by the diagonal inequalities against both neighbouring even rows."""
    n = t.n
    if not validate_monotone(t):
        raise InvalidInputError("not a monotone triangle")
    if t.bottom != _mt_bottom(n):
        raise InvalidInputError(f"bottom row must be (1..{n})")
    even_rows = [tuple(v for x in reversed(row) for v in (x, x)) for row in t.rows]
    rows = []
    for i in range(n):
        below = even_rows[i]
        above = even_rows[i - 1] if i > 0 else ()
        odd = []
        for j in range(2 * i + 1):
            lo = below[j + 1] if j + 1 < len(below) else below[j]
            hi = below[j]
            if j < len(above):
                lo = max(lo, above[j])
            if j > 0 and j - 1 < len(above):
                hi = min(hi, above[j - 1])
            if lo != hi:
                raise AmbiguityError(
                    f"odd row {2 * i + 1}, entry {j + 1} not forced: [{lo}, {hi}]"
                )
            odd.append(lo)
        rows.append(tuple(odd))
        rows.append(below)
    out = TriangularArray(tuple(rows))
    if not (validate_dmt(out) and is_s1(out)):
        raise AmbiguityError("forced odd rows did not produce an S1 triangle")
    return out


def reflect_rows(m: SignMatrix) -> SignMatrix:
    """Reverse the row order; maps W-objects for (n, i) onto those for
    (n, 2n-i)."""
    return SignMatrix(tuple(reversed(m.entries)))
