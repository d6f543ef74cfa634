import pytest

from monotri import (
    AlphaMethod,
    BijectionKind,
    InternalError,
    InvalidInputError,
    SignMatrix,
    TriangleClass,
    TriangularArray,
    alpha,
    enum_matrices,
    enum_triangles,
    enum_wni_objects,
    is_s1,
    matrix_to_triangle,
    mt_to_s1,
    reflect_rows,
    s1_to_mt,
    triangle_stats,
    triangle_to_matrix,
    validate_dmt,
    validate_monotone,
    wni_object_sign,
)
from monotri.enumeration import WniObject
from monotri.machines import ASM_WORD, accepts

from golden import DMT_10, TWOASM_5, W43_MATRIX, dmt_bottom, mt_bottom
from test_enumeration import is_valid_wni
from test_machines import _s1_column_prose


GOLDEN_T = TriangularArray(DMT_10)
GOLDEN_M = SignMatrix(TWOASM_5)


def test_golden_pair_forward():
    assert triangle_to_matrix(GOLDEN_T, BijectionKind.DMT_2ASM) == GOLDEN_M


def test_golden_pair_reverse():
    assert matrix_to_triangle(GOLDEN_M, BijectionKind.DMT_2ASM) == GOLDEN_T


def test_trivial_pair():
    t = TriangularArray(((1,),))
    m = SignMatrix(((1,),))
    assert triangle_to_matrix(t, BijectionKind.MT_ASM) == m
    assert matrix_to_triangle(m, BijectionKind.MT_ASM) == t


def test_self_checks_raise_internal_error(monkeypatch):
    # raised, not asserted, so that the checks also run under python -O
    from monotri import enumeration, transform

    monkeypatch.setattr(transform, "validate_monotone", lambda t: False)
    with pytest.raises(InternalError):
        s1_to_mt(TriangularArray(((1,), (1, 1))))
    monkeypatch.setattr(transform, "validate_dmt", lambda t: False)
    with pytest.raises(InternalError):
        matrix_to_triangle(SignMatrix(((1,),)), BijectionKind.MT_ASM)
    with pytest.raises(InternalError):
        matrix_to_triangle(GOLDEN_M, BijectionKind.DMT_2ASM)
    monkeypatch.setattr(enumeration, "validate_monotone", lambda t: False)
    monkeypatch.setattr(enumeration, "validate_dmt", lambda t: False)
    for bottom, cls in (((1, 2, 3), TriangleClass.MT), ((2, 2, 1, 1), TriangleClass.DMT)):
        with pytest.raises(InternalError):
            next(enum_triangles(bottom, cls))


def test_small_mt_asm_example():
    t = TriangularArray(((2,), (1, 3), (1, 2, 3)))
    m = triangle_to_matrix(t, BijectionKind.MT_ASM)
    assert m.entries == ((0, 1, 0), (1, -1, 1), (0, 1, 0))


def test_mt_asm_roundtrip_exhaustive():
    for n in range(1, 5):
        count = 0
        for m in enum_matrices("asm", n):
            t = matrix_to_triangle(m, BijectionKind.MT_ASM)
            assert validate_monotone(t) and t.bottom == mt_bottom(n)
            assert triangle_to_matrix(t, BijectionKind.MT_ASM) == m
            count += 1
        for t in enum_triangles(mt_bottom(n), TriangleClass.MT):
            m = triangle_to_matrix(t, BijectionKind.MT_ASM)
            assert all(accepts(ASM_WORD, row) for row in m.entries)
            assert all(accepts(ASM_WORD, col) for col in m.columns())
            assert matrix_to_triangle(m, BijectionKind.MT_ASM) == t
            count -= 1
        assert count == 0


def test_dmt_2asm_roundtrip_exhaustive():
    for n in range(1, 4):
        seen = set()
        for m in enum_matrices("2asm", n):
            t = matrix_to_triangle(m, BijectionKind.DMT_2ASM)
            assert validate_dmt(t) and t.bottom == dmt_bottom(n)
            assert triangle_to_matrix(t, BijectionKind.DMT_2ASM) == m
            seen.add(t.rows)
        triangles = {t.rows for t in enum_triangles(dmt_bottom(n), TriangleClass.DMT)}
        assert seen == triangles


def test_bijection_input_validation():
    with pytest.raises(InvalidInputError):
        triangle_to_matrix(TriangularArray(((2,), (1, 3), (1, 2, 4))), BijectionKind.MT_ASM)
    with pytest.raises(InvalidInputError):
        triangle_to_matrix(GOLDEN_T, BijectionKind.MT_ASM)
    with pytest.raises(InvalidInputError):
        matrix_to_triangle(SignMatrix(((0, 1), (1, 0), (0, 0), (1, 1))), BijectionKind.DMT_2ASM)
    # the 2-ASMs for n = 1 are 2 x 1
    with pytest.raises(InvalidInputError, match="2 x 1, got 1 x 1"):
        matrix_to_triangle(SignMatrix(((1,),)), BijectionKind.DMT_2ASM)


# (name, function, kind of triangle it takes)
_TRIANGLE_FNS = (
    ("triangle_to_matrix-mt", lambda t: triangle_to_matrix(t, BijectionKind.MT_ASM), "mt"),
    ("mt_to_s1", mt_to_s1, "mt"),
    ("triangle_to_matrix-dmt", lambda t: triangle_to_matrix(t, BijectionKind.DMT_2ASM), "dmt"),
    ("is_s1", is_s1, "dmt"),
    ("s1_to_mt", s1_to_mt, "dmt"),
)
_BAD_TRIANGLES = {
    "mt": (
        ("wrong-bottom", ((1,), (1, 3))),
        ("invalid", ((3,), (1, 2))),
        ("dmt", ((1,), (1, 1))),
    ),
    "dmt": (
        ("odd-size", ((1,),)),
        ("odd-size-valid-dmt", ((2,), (2, 2), (3, 2, 2))),
        ("wrong-bottom", ((2,), (2, 2))),
        ("invalid", ((1,), (2, 1))),
        ("mt", ((1,), (1, 2))),
    ),
}


@pytest.mark.parametrize("fn, rows", [
    pytest.param(fn, rows, id=f"{name}-{case}")
    for name, fn, kind in _TRIANGLE_FNS
    for case, rows in _BAD_TRIANGLES[kind]
])
def test_triangle_functions_reject_the_same_inputs(fn, rows):
    with pytest.raises(InvalidInputError):
        fn(TriangularArray(rows))


def test_mt_to_s1_output_self_check(monkeypatch):
    # each part of the check on the built S1 triangle raises InternalError
    from monotri import transform

    t = TriangularArray(((2,), (1, 3), (1, 2, 3)))
    for name, broken in (
        ("validate_dmt", lambda t: False),
        ("_dmt_bottom", lambda n: (0,) * (2 * n)),
        ("_even_rows_paired", lambda t: False),
    ):
        with monkeypatch.context() as m:
            m.setattr(transform, name, broken)
            with pytest.raises(InternalError):
                mt_to_s1(t)
    assert is_s1(mt_to_s1(t))


def test_is_s1():
    assert not is_s1(GOLDEN_T)  # row 4 = (4,4,3,2) leaves 3 and 2 unpaired
    assert is_s1(TriangularArray(((1,), (1, 1))))
    with pytest.raises(InvalidInputError):
        is_s1(TriangularArray(((1,), (2, 1))))


def test_s1_membership_count():
    for n in (1, 2, 3):
        members = [
            t for t in enum_triangles(dmt_bottom(n), TriangleClass.DMT) if is_s1(t)
        ]
        assert len(members) == alpha(mt_bottom(n), AlphaMethod.MONOTONE_DP)
        for t in members:
            assert triangle_stats(t).dd_bar % 2 == 0


def test_s1_mt_roundtrip():
    t = TriangularArray(((1,), (1, 1)))
    assert s1_to_mt(t) == TriangularArray(((1,),))
    for n in (1, 2, 3, 4):
        mts = set()
        for t in enum_triangles(dmt_bottom(n), TriangleClass.DMT):
            if not is_s1(t):
                continue
            mt = s1_to_mt(t)
            assert validate_monotone(mt) and mt.bottom == mt_bottom(n)
            assert mt_to_s1(mt) == t
            mts.add(mt.rows)
        expected = {t.rows for t in enum_triangles(mt_bottom(n), TriangleClass.MT)}
        assert mts == expected


def test_mt_to_s1_examples():
    assert mt_to_s1(TriangularArray(((1,),))) == TriangularArray(((1,), (1, 1)))
    s1 = mt_to_s1(TriangularArray(((2,), (1, 3), (1, 2, 3))))
    assert s1.rows[1] == (2, 2)
    assert s1.rows[3] == (3, 3, 1, 1)
    assert s1.rows[5] == (3, 3, 2, 2, 1, 1)


def test_s1_errors():
    with pytest.raises(InvalidInputError):
        s1_to_mt(GOLDEN_T)
    with pytest.raises(InvalidInputError):
        mt_to_s1(TriangularArray(((2,), (2, 3))))


def test_s1_columns_match_is_s1():
    # a 2-ASM encodes a structured triangle iff every column is an s1 column
    for n in (1, 2, 3):
        for m in enum_matrices("2asm", n):
            t = matrix_to_triangle(m, BijectionKind.DMT_2ASM)
            columns_say = all(_s1_column_prose(col) for col in m.columns())
            assert columns_say == is_s1(t), m.entries


def test_reflect_rows_involution():
    m = SignMatrix(TWOASM_5)
    assert reflect_rows(reflect_rows(m)) == m
    assert reflect_rows(m).entries == tuple(reversed(m.entries))


def test_reflect_maps_w_objects():
    sample = WniObject(4, 3, SignMatrix(W43_MATRIX))
    mirrored = WniObject(4, 5, reflect_rows(sample.matrix))
    assert is_valid_wni(mirrored)
    for n in (1, 2, 3):
        sign = 1 if (n - 1) % 2 == 0 else -1
        for i in range(1, 2 * n):
            originals = list(enum_wni_objects(n, i))
            images = {o.matrix for o in enum_wni_objects(n, 2 * n - i)}
            reflected = {reflect_rows(o.matrix) for o in originals}
            assert reflected == images
            for o in originals:
                m = WniObject(n, 2 * n - i, reflect_rows(o.matrix))
                assert wni_object_sign(m) == sign * wni_object_sign(o)
