import random
import tracemalloc
from itertools import product

import pytest

from monotri import (
    AlphaMethod,
    InvalidInputError,
    SignMatrix,
    TriangleClass,
    W_number,
    alpha,
    enum_matrices,
    enum_triangles,
    enum_wni_objects,
    predecessors,
    signed_count,
    sum_operator,
    transition_stats,
    triangle_stats,
    validate_dmt,
    validate_monotone,
    wni_object_sign,
)
from monotri.enumeration import WniObject
from monotri.machines import ASM_WORD, MODIFIED_ROW, TWO_ASM_COLUMN, accepts

from golden import ASM_COUNTS, DMTS_63321, W43_MATRIX, dmt_bottom, mt_bottom


def brute_matrices(kind, n):
    """Filtered brute force over all {-1,0,1} assignments; oracle for the
    backtracking enumerator at tiny sizes."""
    height, column_machine = (n, ASM_WORD) if kind == "asm" else (2 * n, TWO_ASM_COLUMN)
    rows_pool = list(product((-1, 0, 1), repeat=n))
    for entries in product(rows_pool, repeat=height):
        if not all(accepts(ASM_WORD, row) for row in entries):
            continue
        m = SignMatrix(entries)
        if all(accepts(column_machine, col) for col in m.columns()):
            yield m


def test_predecessors_figure_rows():
    rows = [l for l, _ in predecessors((6, 3, 3, 2, 1), TriangleClass.DMT)]
    assert set(rows) == {(3, 3, 2, 2), (4, 3, 2, 2), (5, 3, 2, 2)}
    assert rows == sorted(rows, reverse=True)


def test_predecessors_mt():
    assert [l for l, _ in predecessors((1, 2), TriangleClass.MT)] == [(2,), (1,)]
    for _, sc in predecessors((1, 3, 5), TriangleClass.MT):
        assert sc == 0


def test_predecessors_pair_bottom():
    for n in (1, 4, 9):
        assert list(predecessors((n, n), TriangleClass.DMT)) == [((n,), 0)]


def test_predecessors_errors():
    with pytest.raises(InvalidInputError):
        list(predecessors((2, 1), TriangleClass.MT))
    with pytest.raises(InvalidInputError):
        list(predecessors((2, 2, 2), TriangleClass.DMT))
    with pytest.raises(InvalidInputError):
        list(predecessors((5,), TriangleClass.DMT))


def brute_predecessors(k, cls):
    """Every row in the interlacing intervals, in lexicographically
    decreasing order, kept if it obeys the row rules of the class; oracle
    for ``predecessors``."""
    m = len(k) - 1
    if cls is TriangleClass.MT:
        intervals = [range(k[j + 1], k[j] - 1, -1) for j in range(m)]
    else:
        intervals = [range(k[j], k[j + 1] - 1, -1) for j in range(m)]
    for row in product(*intervals):
        if cls is TriangleClass.MT:
            if all(a < b for a, b in zip(row, row[1:])):
                yield row, 0
        elif (all(a >= b for a, b in zip(row, row[1:]))
              and all(row.count(v) <= 2 for v in row)
              and not any(row.count(v) == 1 == k.count(v) for v in row)):
            yield row, sum(transition_stats(k, row))


def _random_bottom(rng, cls):
    if cls is TriangleClass.MT:
        return tuple(sorted(rng.sample(range(-6, 8), rng.randint(2, 7))))
    pool = [v for v in range(-4, 6) for _ in (0, 1)]
    return tuple(sorted(rng.sample(pool, rng.randint(2, 8)), reverse=True))


@pytest.mark.parametrize("cls", list(TriangleClass))
def test_predecessors_against_brute_force(cls):
    rng = random.Random(20111)
    for _ in range(300):
        k = _random_bottom(rng, cls)
        assert list(predecessors(k, cls)) == list(brute_predecessors(k, cls)), k


@pytest.mark.parametrize("cls, bottom", [
    (TriangleClass.MT, (0, 10, 20, 30, 40)),
    (TriangleClass.DMT, (40, 40, 30, 20, 20, 10, 0, 0)),
], ids=["MT", "DMT"])
def test_streams_are_lazy(cls, bottom):
    # about 10^4 rows lie directly above each bottom row (over 1 MB as a
    # list); the first row and the first triangle come without building them
    tracemalloc.start()
    try:
        next(predecessors(bottom, cls))
        next(enum_triangles(bottom, cls))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_predecessor_sum_matches_operator():
    # the summation operator equals the sign-weighted sum over predecessor
    # rows, for any polynomial; cubes of coordinates as a spot check grid
    for k in ((4, 2, 2), (3, 3, 1), (5, 4, 2, 2), (2, 2, 1, 1)):
        f = lambda *args: sum((i + 1) * a**3 for i, a in enumerate(args))
        direct = sum(
            (-1) ** sc * f(*l) for l, sc in predecessors(k, TriangleClass.DMT)
        )
        assert sum_operator(f, k) == direct, k


def test_enum_triangles_figure():
    got = list(enum_triangles((6, 3, 3, 2, 1), TriangleClass.DMT))
    assert len(got) == 5
    assert {t.rows for t in got} == set(DMTS_63321)
    dds = sorted(triangle_stats(t).dd % 2 for t in got)
    assert dds == [0, 0, 0, 0, 1]


def test_enum_triangles_single():
    for cls in TriangleClass:
        (t,) = enum_triangles((7,), cls)
        assert t.rows == ((7,),)


def test_enum_triangles_mt_count():
    assert sum(1 for _ in enum_triangles((1, 2, 3), TriangleClass.MT)) == 7


def test_enum_triangles_all_valid():
    for bottom, cls, validator in (
        ((2, 4, 5), TriangleClass.MT, validate_monotone),
        ((4, 3, 3, 1), TriangleClass.DMT, validate_dmt),
    ):
        for t in enum_triangles(bottom, cls):
            assert validator(t)
            assert t.bottom == bottom


def test_signed_count_goldens():
    assert signed_count((6, 3, 3, 2, 1), TriangleClass.DMT, "dd_with_prefactor") == 3
    assert signed_count((6, 3, 3, 2, 1), TriangleClass.DMT, "sc") == 3
    assert signed_count((2, 4, 5, 8, 9), TriangleClass.MT, "plain") == 16939
    assert signed_count((3, 3, 2, 2, 1, 1), TriangleClass.DMT, "dd_bar") == 7
    assert signed_count((6, 3, 3, 2, 1), TriangleClass.DMT, "plain") == 5


def test_signed_count_errors():
    with pytest.raises(InvalidInputError):
        signed_count((2, 2, 2), TriangleClass.DMT, "plain")
    with pytest.raises(InvalidInputError):
        signed_count((1, 2), TriangleClass.MT, "nope")


def _wdec_mult2(length, lo, hi):
    for k in product(range(hi, lo - 1, -1), repeat=length):
        if all(a >= b for a, b in zip(k, k[1:])) and all(k.count(v) <= 2 for v in k):
            yield k


def test_signed_count_matches_stats_sum():
    # DP totals equal direct sums of the statistic over enumerated triangles
    for m in range(1, 5):
        for k in _wdec_mult2(m, 1, 4):
            triangles = list(enum_triangles(k, TriangleClass.DMT))
            n = len(k)
            stats = [triangle_stats(t) for t in triangles]
            assert signed_count(k, TriangleClass.DMT, "plain") == len(triangles)
            assert signed_count(k, TriangleClass.DMT, "sc") == sum(
                (-1) ** s.sc for s in stats
            )
            prefactor = (-1) ** (n * (n - 1) // 2)
            assert signed_count(k, TriangleClass.DMT, "dd_with_prefactor") == (
                prefactor * sum((-1) ** s.dd for s in stats)
            )
            assert signed_count(k, TriangleClass.DMT, "dd_bar") == sum(
                (-1) ** s.dd_bar for s in stats
            )


def test_theorem_grid_signed_count_vs_alpha():
    for m in range(1, 5):
        for k in _wdec_mult2(m, 1, 4):
            assert signed_count(k, TriangleClass.DMT, "dd_with_prefactor") == alpha(
                k, AlphaMethod.OPERATOR_RECURSION
            ), k
            assert signed_count(k, TriangleClass.DMT, "sc") == signed_count(
                k, TriangleClass.DMT, "dd_with_prefactor"
            )


def test_enum_matrices_counts():
    assert [sum(1 for _ in enum_matrices("asm", n)) for n in (1, 2, 3, 4)] == list(
        ASM_COUNTS[:4]
    )
    assert list(enum_matrices("asm", 1)) == [SignMatrix(((1,),))]


def test_enum_matrices_against_brute_force():
    for kind, sizes in (("asm", (1, 2, 3)), ("2asm", (1, 2))):
        for n in sizes:
            fast = list(enum_matrices(kind, n))
            slow = list(brute_matrices(kind, n))
            assert fast == slow, (kind, n)


def test_enum_matrices_order_and_validity():
    last = None
    for m in enum_matrices("asm", 3):
        flat = tuple(x for row in m.entries for x in row)
        if last is not None:
            assert flat > last
        last = flat
        assert all(accepts(ASM_WORD, row) for row in m.entries)
        assert all(accepts(ASM_WORD, col) for col in m.columns())
    for m in enum_matrices("2asm", 2):
        assert all(accepts(ASM_WORD, row) for row in m.entries)
        assert all(accepts(TWO_ASM_COLUMN, col) for col in m.columns())


def test_two_asm_count_matches_triangles():
    # the 2-ASMs of size n biject with the triangles over (n,n,...,1,1)
    for n in (1, 2, 3):
        count = sum(1 for _ in enum_matrices("2asm", n))
        assert count == signed_count(dmt_bottom(n), TriangleClass.DMT, "plain")


def test_mt_count_matches_asm_count():
    for n in (1, 2, 3, 4):
        plain = signed_count(mt_bottom(n), TriangleClass.MT, "plain")
        assert plain == sum(1 for _ in enum_matrices("asm", n)) == ASM_COUNTS[n - 1]


def test_wni_stream_membership():
    sample = WniObject(4, 3, SignMatrix(W43_MATRIX))
    assert any(o == sample for o in enum_wni_objects(4, 3))
    assert wni_object_sign(sample) == 1


def test_wni_trivial_object():
    objs = list(enum_wni_objects(1, 1))
    assert objs == [WniObject(1, 1, SignMatrix(((),)))]
    assert wni_object_sign(objs[0]) == 1


def test_wni_row_machines():
    for o in enum_wni_objects(3, 2):
        modified = 2 * o.n - o.i - 1
        for r, row in enumerate(o.matrix.entries):
            machine = MODIFIED_ROW if r == modified else ASM_WORD
            assert accepts(machine, row)
        for col in o.matrix.columns():
            assert accepts(TWO_ASM_COLUMN, col)
            assert sum(col) == 2


def test_wni_signed_sums_match_w_numbers():
    for n in (1, 2, 3):
        for i in range(1, 2 * n):
            signed = sum(wni_object_sign(o) for o in enum_wni_objects(n, i))
            assert signed == W_number(n, i), (n, i)


def test_wni_errors():
    with pytest.raises(InvalidInputError):
        list(enum_wni_objects(2, 4))
    with pytest.raises(InvalidInputError):
        wni_object_sign(WniObject(2, 1, SignMatrix(((0,), (0,), (0,)))))


def test_enum_matrices_errors():
    with pytest.raises(InvalidInputError):
        list(enum_matrices("asm", 0))
    with pytest.raises(InvalidInputError):
        list(enum_matrices("magic", 2))


@pytest.mark.parametrize("call", [
    lambda: enum_triangles((1, 1), TriangleClass.MT),
    lambda: enum_triangles((), TriangleClass.DMT),
    lambda: enum_matrices("asm", 0),
    lambda: enum_matrices("magic", 2),
    lambda: enum_wni_objects(2, 4),
    lambda: predecessors((2, 1), TriangleClass.MT),
    lambda: predecessors((2, 2, 2), TriangleClass.DMT),
    lambda: predecessors((5,), TriangleClass.DMT),
], ids=["mt-row", "empty-row", "asm-size", "kind", "wni-index",
        "predecessors-mt-row", "predecessors-triple", "predecessors-short"])
def test_enum_rejects_bad_arguments_at_the_call(call):
    # the stream is never pulled
    with pytest.raises(InvalidInputError):
        call()
