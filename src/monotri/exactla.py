"""Exact integer linear algebra: determinant and rank from one fraction-free
(Bareiss) elimination, and builders for the fixed matrices of the
eigenvector argument (the eigen-system matrix, its shifted form S and the
trimmed S', and the descending-plane-partition determinant matrix)."""

from __future__ import annotations

from dataclasses import dataclass

from .core import _check_size, _int_entries
from .errors import InvalidInputError
from .evaluate import binomial

MATRIX_KINDS = ("eigenm", "s", "sprime", "behrend")


@dataclass(frozen=True)
class ExactMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(_int_entries(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise InvalidInputError("matrix is not rectangular")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def build_matrix(kind: str, n: int) -> ExactMatrix:
    """The named matrix of order parameter n.

    eigenm: (2n-1)^2 with entry C(n-i, 2n-i-j) (-1)^(n+i), 1-based.
    s: eigenm minus the identity.
    sprime: s with row n and the last column removed.
    behrend: n x n with entry C(i+j, j) - [i = j+1], 0-based.
    """
    if not isinstance(kind, str) or kind.lower() not in MATRIX_KINDS:
        raise InvalidInputError(f"unknown matrix kind {kind!r}")
    kind = kind.lower()
    _check_size(n, "n", 1)
    if kind == "behrend":
        return ExactMatrix(
            tuple(
                tuple(binomial(i + j, j) - (1 if i == j + 1 else 0) for j in range(n))
                for i in range(n)
            )
        )
    size = 2 * n - 1

    def m_entry(i, j):
        return binomial(n - i, 2 * n - i - j) * (-1 if (n + i) % 2 else 1)

    if kind == "eigenm":
        return ExactMatrix(
            tuple(tuple(m_entry(i, j) for j in range(1, size + 1)) for i in range(1, size + 1))
        )
    s = tuple(
        tuple(m_entry(i, j) - (1 if i == j else 0) for j in range(1, size + 1))
        for i in range(1, size + 1)
    )
    if kind == "s":
        return ExactMatrix(s)
    trimmed = tuple(row[:-1] for r, row in enumerate(s, start=1) if r != n)
    return ExactMatrix(trimmed)


def _bareiss(entries) -> tuple[int, int]:
    """Fraction-free (Bareiss 1968) elimination with full pivot search.

    Returns the rank (the number of nonzero pivots) and the last pivot times
    the sign of the row and column swaps, or 0 if fewer than min(rows, cols)
    pivots are nonzero: for a square matrix, its determinant.
    """
    a = [list(row) for row in entries]
    rows, cols = len(a), len(a[0]) if a else 0
    sign = 1
    prev = 1
    for k in range(min(rows, cols)):
        pivot = next(
            ((i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j] != 0), None
        )
        if pivot is None:
            return k, 0
        pr, pc = pivot
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return min(rows, cols), sign * prev


def det_exact(m: ExactMatrix) -> int:
    """Exact determinant by fraction-free elimination; the 0 x 0 determinant
    is 1."""
    if m.rows != m.cols:
        raise InvalidInputError("determinant needs a square matrix")
    return _bareiss(m.entries)[1]


def rank_exact(m: ExactMatrix) -> int:
    """Exact rank over the rationals: the number of nonzero pivots of the
    same fraction-free elimination."""
    return _bareiss(m.entries)[0]


def mat_vec(a: ExactMatrix, v) -> tuple[int, ...]:
    v = tuple(v)
    if a.cols != len(v):
        raise InvalidInputError("incompatible shapes for matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)
