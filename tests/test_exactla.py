import random
from fractions import Fraction

import pytest

from monotri import (
    ExactMatrix,
    InvalidInputError,
    W_number,
    X_number,
    build_matrix,
    det_exact,
    rank_exact,
    refined_asm,
)
from monotri.exactla import mat_vec
from monotri.evaluate import binomial

from golden import ASM_COUNTS


def identity_matrix(n):
    return ExactMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def mat_mul(a, b):
    bt = list(zip(*b.entries)) if b.entries else []
    return ExactMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries)
    )


def det_cofactor(rows):
    """Naive cofactor expansion; independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += -term if j % 2 else term
    return total


def fraction_elimination(rows, cols):
    """Gaussian elimination over the rationals: (rank, determinant when the
    matrix is square, else None).  An oracle independent of the package's
    fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    rank = 0
    det = Fraction(1)
    for c in range(cols):
        pivot_row = next((r for r in range(rank, n) if a[r][c] != 0), None)
        if pivot_row is None:
            det = Fraction(0)
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            det = -det
        inv = a[rank][c]
        det *= inv
        for r in range(rank + 1, n):
            if a[r][c] != 0:
                factor = a[r][c] / inv
                for j in range(c, cols):
                    a[r][j] -= factor * a[rank][j]
        rank += 1
        if rank == n:
            break
    if n != cols:
        return rank, None
    assert det.denominator == 1
    return rank, int(det)


def _random_matrix(rng, rows, cols, inner=None, density=1.0):
    # a product through `inner` dimensions has rank at most `inner`; a low
    # density leaves zero rows and columns, so that pivots need row swaps
    if inner is None:
        return tuple(
            tuple(rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols))
            for _ in range(rows)
        )
    left = _random_matrix(rng, rows, inner, density=density)
    right = _random_matrix(rng, inner, cols, density=density)
    return tuple(
        tuple(sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


@pytest.mark.parametrize("shape", ["square", "tall", "wide", "deficient", "empty"])
@pytest.mark.parametrize("density", [1.0, 0.3])
def test_rank_and_det_against_fraction_oracle(shape, density):
    rng = random.Random(f"exactla-{shape}-{density}")
    for _ in range(40):
        if shape == "square":
            n = rng.randint(1, 6)
            rows, cols, inner = n, n, None
        elif shape == "tall":
            cols = rng.randint(1, 5)
            rows, inner = rng.randint(cols + 1, 8), None
        elif shape == "wide":
            rows = rng.randint(1, 5)
            cols, inner = rng.randint(rows + 1, 8), None
        elif shape == "deficient":
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            inner = rng.randint(0, min(rows, cols) - 1)
            if rng.random() < 0.3:
                cols = rows
        else:
            rows, cols, inner = rng.choice(((0, 0), (1, 0), (4, 0))) + (None,)
        entries = _random_matrix(rng, rows, cols, inner, density)
        m = ExactMatrix(entries)
        assert (m.rows, m.cols) == (rows, cols if rows else 0)
        rank, det = fraction_elimination(entries, m.cols)
        assert rank_exact(m) == rank, entries
        if det is None:
            with pytest.raises(InvalidInputError):
                det_exact(m)
        else:
            assert det_exact(m) == det, entries
        if shape == "deficient":
            assert rank <= inner < min(rows, cols)


def test_det_basics():
    assert det_exact(identity_matrix(3)) == 1
    assert det_exact(ExactMatrix(((1, 1), (0, 2)))) == 2
    assert det_exact(ExactMatrix(())) == 1
    assert det_exact(ExactMatrix(((0, 0), (0, 0)))) == 0
    with pytest.raises(InvalidInputError):
        det_exact(ExactMatrix(((1, 2, 3),)))


def test_shape_errors():
    with pytest.raises(InvalidInputError, match="not rectangular"):
        ExactMatrix(((1, 2), (3,)))
    with pytest.raises(InvalidInputError, match="incompatible shapes"):
        mat_vec(identity_matrix(2), (1, 2, 3))


def test_det_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
        assert det_exact(ExactMatrix(rows)) == det_cofactor([list(r) for r in rows])


def test_rank_basics():
    assert rank_exact(ExactMatrix(((0, 0), (0, 0)))) == 0
    assert rank_exact(identity_matrix(4)) == 4
    assert rank_exact(ExactMatrix(((1, 2), (2, 4), (3, 6)))) == 1


def test_behrend_matrix():
    assert build_matrix("behrend", 2).entries == ((1, 1), (0, 2))
    for n in range(1, 8):
        assert det_exact(build_matrix("behrend", n)) == ASM_COUNTS[n - 1]


def test_s_matrix_small():
    assert build_matrix("s", 1).entries == ((0,),)
    for n in range(1, 6):
        assert rank_exact(build_matrix("s", n)) == 2 * n - 2


def test_sprime_determinant():
    for n in range(2, 6):
        expected = (-1) ** (n - 1) * sum(
            refined_asm(n - 1, i) for i in range(1, n)
        )
        assert det_exact(build_matrix("sprime", n)) == expected


def test_eigen_system():
    for n in range(1, 6):
        m = build_matrix("eigenm", n)
        w = tuple(W_number(n, i) for i in range(1, 2 * n))
        x = tuple(X_number(n, i) for i in range(1, 2 * n))
        assert mat_vec(m, w) == w
        assert mat_vec(m, x) == x


def test_build_matrix_errors():
    with pytest.raises(InvalidInputError):
        build_matrix("hilbert", 3)
    with pytest.raises(InvalidInputError):
        build_matrix("s", 0)


@pytest.mark.parametrize("kind", [5, None, ("s",)], ids=["int", "none", "tuple"])
def test_build_matrix_refuses_a_non_string_kind(kind):
    with pytest.raises(InvalidInputError, match="unknown matrix kind"):
        build_matrix(kind, 2)


def _sprime_blocks(n):
    sp = build_matrix("sprime", n).entries
    m = n - 1
    a = tuple(row[:m] for row in sp[:m])
    b = tuple(row[m:] for row in sp[:m])
    c = tuple(row[:m] for row in sp[m:])
    d = tuple(row[m:] for row in sp[m:])
    return a, b, c, d


def test_sprime_block_structure():
    # the four (n-1) x (n-1) blocks have the closed forms used in the
    # eigenspace-dimension argument
    for n in range(2, 5):
        m = n - 1
        a, b, c, d = _sprime_blocks(n)
        assert a == tuple(
            tuple(-1 if i == j else 0 for j in range(m)) for i in range(m)
        )
        assert b == tuple(
            tuple(
                binomial(n - i, n - i - j + 1) * (-1) ** (n + i)
                for j in range(1, m + 1)
            )
            for i in range(1, m + 1)
        )
        assert c == tuple(
            tuple(binomial(-i, n - i - j) * (-1) ** i for j in range(1, m + 1))
            for i in range(1, m + 1)
        )
        assert d == tuple(
            tuple(-1 if i + 1 == j else 0 for j in range(1, m + 1))
            for i in range(1, m + 1)
        )


def test_c_block_inverse_and_determinant_factorization():
    for n in range(2, 5):
        m = n - 1
        a, b, c, d = (ExactMatrix(x) for x in _sprime_blocks(n))
        c_inv = ExactMatrix(
            tuple(
                tuple(binomial(i - n, i + j - n) * (-1) ** (n - i) for j in range(1, m + 1))
                for i in range(1, m + 1)
            )
        )
        assert mat_mul(c, c_inv) == identity_matrix(m)
        # det(S') = det(A) det(C) det(C^-1 D - A^-1 B); here A = -I
        cinv_d = mat_mul(c_inv, d)
        inner = ExactMatrix(
            tuple(
                tuple(cinv_d.entries[i][j] + b.entries[i][j] for j in range(m))
                for i in range(m)
            )
        )
        lhs = det_exact(build_matrix("sprime", n))
        assert lhs == det_exact(a) * det_exact(c) * det_exact(inner)


def test_rank_of_rationals():
    # fraction-free pipeline keeps exactness on a matrix with huge entries
    big = 10**30
    m = ExactMatrix(((big, big + 1), (big - 1, big)))
    assert det_exact(m) == big * big - (big + 1) * (big - 1)
    assert rank_exact(m) == 2
    assert Fraction(det_exact(m)) == Fraction(1)
