"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints one `[acceptance] criterion-NN: PASS/FAIL` line (visible
with `pytest -s` or on failure).  Criteria 10's largest rows are opt-in:
the n = 11 check runs here through the explicit parameter, the n = 13 value
is covered by the `long`-marked test at the bottom (`pytest -m long`).
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

from monotri import (
    AlphaMethod,
    BijectionKind,
    SignMatrix,
    TriangleClass,
    TriangularArray,
    W_number,
    X_number,
    accepts,
    alpha,
    binomial,
    build_matrix,
    det_exact,
    deserialize,
    enum_matrices,
    enum_triangles,
    enum_wni_objects,
    is_s1,
    matrix_to_triangle,
    mt_to_s1,
    rank_exact,
    refined_asm,
    reflect_rows,
    s1_to_mt,
    serialize,
    signed_count,
    sum_operator,
    triangle_stats,
    triangle_to_matrix,
    verify,
    wni_object_sign,
)
from monotri.enumeration import WniObject
from monotri.exactla import mat_vec
from monotri.machines import ASM_WORD, TWO_ASM_COLUMN

from golden import (
    ASM_COUNTS,
    DMT_10,
    DMTS_63321,
    REFINED,
    STAIRCASE_TABLE,
    TWOASM_5,
    W43_MATRIX,
    dmt_bottom,
    mt_bottom,
)
from test_evaluate import literal_sum_operator
from test_machines import _asm_word_prose


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _wdec(length, lo, hi):
    for k in product(range(hi, lo - 1, -1), repeat=length):
        if all(a >= b for a, b in zip(k, k[1:])):
            yield k


def test_criterion_01_alpha_golden_values():
    with criterion("criterion-01 alpha golden values"):
        assert alpha((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP) == 16939
        assert alpha((2, 4, 5, 8, 9), AlphaMethod.OPERATOR_RECURSION) == 16939
        assert alpha((6, 3, 3, 2, 1)) == 3
        assert alpha((1, 4)) == 4
        assert alpha((4, 4, 1, 1)) == 2


def test_criterion_02_five_triangle_reproduction():
    with criterion("criterion-02 five-triangle reproduction"):
        got = list(enum_triangles((6, 3, 3, 2, 1), TriangleClass.DMT))
        assert len(got) == 5
        assert {t.rows for t in got} == set(DMTS_63321)
        parities = [triangle_stats(t).dd % 2 for t in got]
        assert sorted(parities) == [0, 0, 0, 0, 1]
        first_displayed = TriangularArray(DMTS_63321[0])
        assert triangle_stats(first_displayed).dd == 4


def test_criterion_03_signed_enumeration_grid():
    with criterion("criterion-03 signed dd enumeration = alpha"):
        for m in range(1, 5):
            for k in _wdec(m, 1, 4):
                if any(k.count(v) > 2 for v in k):
                    signed = 0
                else:
                    signed = signed_count(k, TriangleClass.DMT, "dd_with_prefactor")
                assert signed == alpha(k, AlphaMethod.OPERATOR_RECURSION), k


def test_criterion_04_refined_asm_connection():
    with criterion("criterion-04 refined ASM connection"):
        for n in range(1, 5):
            tail = tuple(v for x in range(n - 1, 0, -1) for v in (x, x))
            sign = (-1) ** (n - 1)
            for i in range(1, 2 * n):
                expected = sign * (refined_asm(n, i) if i <= n else 0)
                assert alpha((n - 1 + i,) + tail, AlphaMethod.SIGNED_DMT_DP) == expected
        for n in range(1, 5):
            hist = [0] * n
            for m in enum_matrices("asm", n):
                hist[m.entries[0].index(1)] += 1
            assert tuple(hist) == REFINED[n]
        assert REFINED[4] == (7, 14, 14, 7) and sum(REFINED[4]) == 42


def test_criterion_05_reciprocity_chain():
    with criterion("criterion-05 reciprocity chain"):
        for n in range(1, 5):
            a = alpha(dmt_bottom(n), AlphaMethod.SIGNED_DMT_DP)
            b = alpha(mt_bottom(n), AlphaMethod.MONOTONE_DP)
            c = sum(1 for _ in enum_matrices("asm", n))
            assert a == b == c == ASM_COUNTS[n - 1]


def test_criterion_06_difference_number_identities():
    with criterion("criterion-06 W/X identities"):
        for n in range(1, 5):
            for i in range(1, 2 * n):
                assert W_number(n, i) == X_number(n, i)
                assert W_number(n, i) == (-1) ** (n - 1) * W_number(n, 2 * n - i)
        for n in range(1, 6):
            m = build_matrix("eigenm", n)
            w = tuple(W_number(n, i) for i in range(1, 2 * n))
            x = tuple(X_number(n, i) for i in range(1, 2 * n))
            assert mat_vec(m, w) == w
            assert mat_vec(m, x) == x
        for n in range(2, 6):
            rhs = -sum(binomial(n - 1, i) * W_number(n - 1, i) for i in range(1, n))
            assert W_number(n, 1) == rhs


def test_criterion_07_rank_and_determinants():
    with criterion("criterion-07 rank and determinants"):
        for n in range(1, 6):
            assert rank_exact(build_matrix("s", n)) == 2 * n - 2
        for n in range(2, 6):
            a_prev = sum(refined_asm(n - 1, i) for i in range(1, n))
            assert det_exact(build_matrix("sprime", n)) == (-1) ** (n - 1) * a_prev
        assert sum(refined_asm(4, i) for i in range(1, 5)) == 42
        assert sum(refined_asm(5, i) for i in range(1, 6)) == 429
        for n in range(1, 8):
            assert det_exact(build_matrix("behrend", n)) == ASM_COUNTS[n - 1]


def test_criterion_08_bijection_roundtrips():
    with criterion("criterion-08 bijection roundtrips"):
        for n in range(1, 5):
            for m in enum_matrices("asm", n):
                t = matrix_to_triangle(m, BijectionKind.MT_ASM)
                assert triangle_to_matrix(t, BijectionKind.MT_ASM) == m
        for n in range(1, 4):
            for m in enum_matrices("2asm", n):
                t = matrix_to_triangle(m, BijectionKind.DMT_2ASM)
                assert triangle_to_matrix(t, BijectionKind.DMT_2ASM) == m
        golden_m = SignMatrix(TWOASM_5)
        golden_t = TriangularArray(DMT_10)
        fwd = triangle_to_matrix(golden_t, BijectionKind.DMT_2ASM)
        assert serialize(fwd) == serialize(golden_m)
        rev = matrix_to_triangle(
            deserialize(serialize(golden_m), "matrix"), BijectionKind.DMT_2ASM
        )
        assert serialize(rev) == serialize(golden_t)
        for n in range(1, 4):
            members = [
                t
                for t in enum_triangles(dmt_bottom(n), TriangleClass.DMT)
                if is_s1(t)
            ]
            assert len(members) == ASM_COUNTS[n - 1]
            for t in members:
                assert mt_to_s1(s1_to_mt(t)) == t


def test_criterion_09_w_object_signed_sums():
    with criterion("criterion-09 W-object signed sums"):
        for n in range(1, 4):
            for i in range(1, 2 * n):
                signed = sum(wni_object_sign(o) for o in enum_wni_objects(n, i))
                assert signed == W_number(n, i), (n, i)
        sample = WniObject(4, 3, SignMatrix(W43_MATRIX))
        assert any(o == sample for o in enum_wni_objects(4, 3))
        assert wni_object_sign(sample) == 1
        for n in range(1, 4):
            sign = (-1) ** (n - 1)
            for i in range(1, 2 * n):
                for o in enum_wni_objects(n, i):
                    mirrored = WniObject(n, 2 * n - i, reflect_rows(o.matrix))
                    assert wni_object_sign(mirrored) == sign * wni_object_sign(o)


def test_criterion_10_staircase_table():
    with criterion("criterion-10 staircase table"):
        default = verify("table")
        assert default.status == "Verified"
        assert default.parameters["n_max"] == 9
        ran = {e for _, e, _ in default.details}
        assert ran == {-1, 3, -26, 646, 0}
        assert STAIRCASE_TABLE[11] not in ran  # larger rows are opt-in
        for n in (4, 6):
            assert alpha(tuple(range(n, 0, -1))) == 0
        opted_in = verify("table", {"n_max": 11})
        assert opted_in.status == "Verified"
        assert any(e == -45885 for _, e, _ in opted_in.details)


def test_criterion_11_staircase_conjecture():
    with criterion("criterion-11 staircase conjecture"):
        for m in range(1, 5):
            left = alpha(tuple(range(2 * m + 1, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
            right = alpha(tuple(range(2, 2 * m + 1, 2)), AlphaMethod.MONOTONE_DP)
            assert left == (-1) ** m * right, m
        assert alpha(tuple(range(9, 0, -1)), AlphaMethod.SIGNED_DMT_DP) == 646
        assert alpha((2, 4, 6, 8), AlphaMethod.MONOTONE_DP) == 646


def test_criterion_12_dd_bar_connection():
    with criterion("criterion-12 dd_bar signed sums"):
        for n in range(1, 4):
            signed = signed_count(dmt_bottom(n), TriangleClass.DMT, "dd_bar")
            assert signed == alpha(mt_bottom(n), AlphaMethod.MONOTONE_DP)


def test_criterion_13_property_suites():
    with criterion("criterion-13 property suites"):
        assert verify("lemma2", {"samples": 30, "seed": 0}).status == "Verified"
        assert verify("stats_parity").status == "Verified"

        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 5)
            k = tuple(rng.randint(-3, 6) for _ in range(n))
            coeffs = [
                (rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(n - 1)))
                for _ in range(3)
            ]

            def f(*args):
                total = 0
                for c, exps in coeffs:
                    term = c
                    for a, e in zip(args, exps):
                        term *= a**e
                    total += term
                return total

            v5 = sum_operator(f, k, 5)
            if n >= 3:
                assert literal_sum_operator(f, k, 8) == v5
            if n >= 2:
                assert sum_operator(f, k, 9) == v5

        for n in range(1, 5):
            for k in product(range(0, 5), repeat=n):
                base = alpha(k, AlphaMethod.OPERATOR_RECURSION)
                for c in (-2, 2):
                    assert alpha(tuple(x + c for x in k), AlphaMethod.OPERATOR_RECURSION) == base
                reflected = tuple(-x for x in reversed(k))
                assert alpha(reflected, AlphaMethod.OPERATOR_RECURSION) == base
        for n in range(1, 5):
            for k in product(range(0, 6), repeat=n):
                rotated = k[1:] + (k[0] - n,)
                assert alpha(k, AlphaMethod.OPERATOR_RECURSION) == (-1) ** (
                    n - 1
                ) * alpha(rotated, AlphaMethod.OPERATOR_RECURSION)

        for length in range(0, 9):
            for w in product((-1, 0, 1), repeat=length):
                assert accepts(ASM_WORD, w) == _asm_word_prose(w)
                if accepts(TWO_ASM_COLUMN, w):
                    sums = [sum(w[: i + 1]) for i in range(length)]
                    assert sums and sums[-1] == 2
                    assert all(s in (0, 1, 2) for s in sums)

        rng = random.Random(7)
        for _ in range(50):
            size = rng.randint(1, 5)
            rows = tuple(
                tuple(rng.randint(-9, 9) for _ in range(i)) for i in range(1, size + 1)
            )
            t = TriangularArray(rows)
            assert deserialize(serialize(t), "triangle") == t
            entries = tuple(
                tuple(rng.choice((-1, 0, 1)) for _ in range(size)) for _ in range(size)
            )
            m = SignMatrix(entries)
            assert deserialize(serialize(m), "matrix") == m


@pytest.mark.long
def test_criterion_10_long_rows():
    with criterion("criterion-10-long staircase rows 11 and 13"):
        report = verify("table", {"n_max": 13})
        assert report.status == "Verified"
        values = {e for _, e, _ in report.details}
        assert -45885 in values and 9304650 in values
