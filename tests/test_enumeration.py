import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import sub
from pathlib import Path

import pytest

from monotri import (
    AlphaMethod,
    InvalidInputError,
    SignMatrix,
    TriangleClass,
    TriangularArray,
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
from monotri import enumeration
from monotri.enumeration import STATISTICS, WniObject, is_valid_wni
from monotri.machines import (
    ASM_WORD,
    MACHINES,
    MODIFIED_ROW,
    TWO_ASM_COLUMN,
    accepts,
    parse_steps,
)
from monotri.transform import BijectionKind, matrix_to_triangle

from golden import ASM_COUNTS, DMTS_63321, STAIRCASE_TABLE, W43_MATRIX, dmt_bottom, mt_bottom
from test_evaluate import counting_states
from test_machines import _asm_word_prose, _modified_row_prose, _two_asm_prose


def prose_class(kind, n, i=None):
    """The prose predicate of each row and of every column, and the width,
    of a matrix class: the classes described without the machines."""
    if kind == "asm":
        return [_asm_word_prose] * n, _asm_word_prose, n
    if kind == "2asm":
        return [_asm_word_prose] * (2 * n), _two_asm_prose, n
    rows = [_asm_word_prose] * (2 * n - 1)
    rows[2 * n - i - 1] = _modified_row_prose
    return rows, _two_asm_prose, n - 1


def brute_matrices(kind, n, i=None):
    """Members and non-members of a matrix class, by brute force over
    {-1,0,1} words judged by the prose predicates: every matrix whose rows
    pass them, split by its columns, then every member with one row swapped
    for a word that row's predicate refuses.  Members come in row-major
    lexicographic order."""
    row_preds, col_pred, width = prose_class(kind, n, i)
    words = list(product((-1, 0, 1), repeat=width))
    members, non_members = [], []
    for entries in product(*[[w for w in words if p(w)] for p in row_preds]):
        (members if all(map(col_pred, zip(*entries))) else non_members).append(entries)
    non_members += [m[:r] + (w,) + m[r + 1:] for m in members
                    for r, p in enumerate(row_preds) for w in words if not p(w)]
    return [SignMatrix(e) for e in members], [SignMatrix(e) for e in non_members]


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


# dense in pairs, where a gap of the bottom row offers one value: the doubled
# staircases, the W rows (n-1+i, n-1, n-1, ..., 1, 1), and rows that open and
# close with a pair
PAIRED_BOTTOMS = ([dmt_bottom(n) for n in range(1, 5)]
                  + [(n - 1 + i,) + dmt_bottom(n - 1) for n in range(2, 5) for i in range(1, 2 * n)]
                  + [(5, 5, 3, 2, 2), (6, 6, 4, 3, 1, 1), (4, 4, 3, 1, 0, 0)])


@pytest.mark.parametrize("cls", list(TriangleClass))
def test_predecessors_against_brute_force(cls):
    rng = random.Random(20111)
    bottoms = [_random_bottom(rng, cls) for _ in range(300)]
    if cls is TriangleClass.DMT:
        bottoms += PAIRED_BOTTOMS
    for k in bottoms:
        assert list(predecessors(k, cls)) == list(brute_predecessors(k, cls)), k


def gap_word(row):
    return tuple(a - b for a, b in zip(row, row[1:]))


def _key_oracle(row):
    # the gap word of the row or of its mirror image, each shifted to end in
    # 0: the smaller row puts the wider end gap in front of a DMT row, the
    # larger in front of an MT row
    shifted = tuple(x - row[-1] for x in row)
    mirrored = tuple(row[0] - x for x in reversed(row))
    return gap_word((max if row[0] < row[1] else min)(shifted, mirrored))


def _tied_gap_pairs(k):
    """How many pairs of gaps tie, read inward from both ends, and whether
    all of them do."""
    gaps = gap_word(k)
    pairs = list(zip(gaps, reversed(gaps)))[:len(gaps) // 2]
    tied = 0
    while tied < len(pairs) and pairs[tied][0] == pairs[tied][1]:
        tied += 1
    return tied, tied == len(pairs)


def _mirror_keys(k):
    # the keys and signs _key gives k's gap word under plain and pair, and
    # under sc too for an MT row: each is the mirror key with sign 1
    kernels = ("plain", "pair") + (("sc",) if k[0] < k[1] else ())
    return {enumeration._key(kernel, gap_word(k)) for kernel in kernels}


def test_key_puts_the_wider_end_gap_in_front():
    # every strictly increasing and every DMT row of length 2..6 over 0..6;
    # the rows whose gaps read the same both ways tie at the end gaps
    rows = [k for n in range(2, 7) for k in product(range(7), repeat=n)
            if all(a < b for a, b in zip(k, k[1:]))
            or all(a >= b for a, b in zip(k, k[1:])) and max(map(k.count, k)) <= 2]
    palindromes = 0
    for k in rows:
        assert _mirror_keys(k) == {(_key_oracle(k), 1)}, k
        palindromes += _tied_gap_pairs(k)[1]
    assert (len(rows), palindromes) == (1008, 188)
    # rows of 8 and 9 entries, DMT with gaps 0..2 and MT with gaps 1..3: the
    # first pair of gaps that differ, read inward, decides
    rows = [tuple(accumulate(gaps, sub, initial=0)) for n in (8, 9)
            for gaps in product((0, 1, 2), repeat=n - 1) if (0, 0) not in zip(gaps, gaps[1:])]
    rows += [tuple(accumulate(gaps, initial=0)) for n in (8, 9)
             for gaps in product((1, 2, 3), repeat=n - 1)]
    tallies = Counter()
    for k in rows:
        assert _mirror_keys(k) == {(_key_oracle(k), 1)}, k
        tied, palindrome = _tied_gap_pairs(k)
        tallies["palindrome" if palindrome else tied] += 1
    assert tallies == {0: 8848, 1: 2916, 2: 1016, 3: 270, "palindrome": 266}


def test_every_key_is_its_own_key():
    # every DMT word of 3..8 entries with gaps 0..3 and every MT word of 3..9
    # entries with gaps 1..3, under each kernel: a key read again is itself
    # with sign 1, so _lookup counts it and never reads it through itself.
    # Under sc a word whose spare gap n - spread alone is widest keys as its
    # mirror, and one whose cycle at spare 0 has two adjacent zeros has sign 0
    dmt = [gaps for n in range(3, 9) for gaps in product(range(4), repeat=n - 1)
           if (0, 0) not in zip(gaps, gaps[1:])]
    mt = [gaps for n in range(3, 10) for gaps in product((-1, -2, -3), repeat=n - 1)]
    tallies = Counter()
    for kernel in ("plain", "sc", "pair"):
        for gaps in dmt + mt:
            key, sign = enumeration._key(kernel, gaps)
            if sign:
                assert enumeration._key(kernel, key) == (key, 1), (kernel, gaps)
            spare = len(gaps) + 1 - sum(gaps)
            if kernel != "sc" or gaps[0] < 0 or spare < 0:
                tallies["mirror"] += 1
            elif spare > max(gaps):
                assert (key, sign) == (max(gaps, gaps[::-1]), 1), gaps
                tallies["spare widest"] += 1
            else:
                zero = spare == 0 and 0 in (gaps[0], gaps[-1])
                assert (sign == 0) == zero, gaps
                tallies["zero" if zero else sign] += 1
    assert tallies == {"mirror": 75138, "spare widest": 138, "zero": 734, 1: 885, -1: 568}


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


def _towers(bottom, cls):
    """The towers of rows above ``bottom``, top row first, stacked by one
    recursive call per row in the order ``predecessors`` lists each row:
    the oracle for the order of ``enum_triangles``."""
    if len(bottom) == 1:
        yield (bottom,)
        return
    for row, _ in predecessors(bottom, cls):
        for tower in _towers(row, cls):
            yield tower + (bottom,)


def test_enum_triangles_match_recursive_towers():
    # every MT row of 2..5 entries over 0..6, and every triple-free DMT row
    # of 2..7 entries over 1..4: the same triangles, one for one, in order
    mt = [k for n in range(2, 6) for k in combinations(range(7), n)]
    dmt = [k for n in range(2, 8) for k in combinations_with_replacement(range(4, 0, -1), n)
           if max(map(k.count, k)) <= 2]
    total = Counter()
    for cls, rows in ((TriangleClass.MT, mt), (TriangleClass.DMT, dmt)):
        for k in rows:
            got = list(enum_triangles(k, cls))
            assert got == [TriangularArray(t) for t in _towers(k, cls)], (cls, k)
            total[cls] += len(got)
    assert (len(mt), len(dmt)) == (112, 75)
    assert total == {TriangleClass.MT: 76623, TriangleClass.DMT: 244}


def test_triangle_streams_do_not_recurse_per_row():
    # the rows above are walked over a stack, not by a call per row: under
    # a recursion limit of 60 the first triangles of 200 rows come out, and
    # at the default limit those of 1200 rows
    def check_first(bottom, cls, validator):
        t = next(enum_triangles(bottom, cls))
        assert validator(t) and t.n == len(bottom) and t.bottom == bottom

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(60)
    try:
        check_first(mt_bottom(200), TriangleClass.MT, validate_monotone)
        check_first(dmt_bottom(100), TriangleClass.DMT, validate_dmt)
    finally:
        sys.setrecursionlimit(limit)
    check_first(mt_bottom(1200), TriangleClass.MT, validate_monotone)
    check_first(dmt_bottom(600), TriangleClass.DMT, validate_dmt)


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


def stream_dp(cls, kernel):
    """Oracle for the DP kernels: sums over the whole rows of
    ``predecessors``, memoised on the exact row, with no translation or
    mirror keys."""
    def pair_values(row):
        return {v for v in row if row.count(v) == 2}

    @functools.cache
    def count(k):
        if len(k) == 1:
            return 1
        total = 0
        for above, sc in predecessors(k, cls):
            flips = {"plain": 0, "sc": sc, "pair": len(pair_values(above) & pair_values(k))}
            total += (-1) ** flips[kernel] * count(above)
        return total

    return count


def mirror(k):
    return tuple(-x for x in reversed(k))


@pytest.mark.parametrize("cls, kernel, statistic", [
    (TriangleClass.DMT, "plain", "plain"),
    (TriangleClass.DMT, "sc", "sc"),
    (TriangleClass.DMT, "pair", "dd_bar"),
    (TriangleClass.MT, "plain", "plain"),
])
def test_dp_counts_are_mirror_invariant(cls, kernel, statistic):
    # the DP keys a row and its mirror image as one; exhaustive over bottom
    # rows of 2..8 entries from 1..7, against the oracle that keys neither
    count = stream_dp(cls, kernel)
    rows = [k for m in range(2, 9)
            for k in combinations_with_replacement(range(7, 0, -1), m)
            if max(map(k.count, k)) <= 2]
    if cls is TriangleClass.MT:
        rows = [k[::-1] for k in rows if len(set(k)) == len(k)]
    assert len(rows) == (1639 if cls is TriangleClass.DMT else 120)
    for k in rows:
        want = count(k)
        assert count(mirror(k)) == want, k
        assert signed_count(k, cls, statistic) == want, k


@pytest.mark.parametrize("kernel, statistic", [("plain", "plain"), ("sc", "sc"), ("pair", "dd_bar")])
def test_dp_counts_at_wide_first_gaps(kernel, statistic):
    # the DP telescopes along a first gap of 2 or more: every DMT row of 2..5
    # entries whose first entry reaches 12 over a rest from 1..5, and its
    # mirror image, against the oracle that streams whole rows
    count = stream_dp(TriangleClass.DMT, kernel)
    rests = [r for m in range(1, 5) for r in combinations_with_replacement(range(5, 0, -1), m)
             if max(map(r.count, r)) <= 2]
    rows = [(k1,) + r for r in rests for k1 in range(r[0], 13) if r.count(k1) < 2]
    assert len(rows) == 806
    for k in rows:
        want = count(k)
        assert signed_count(k, TriangleClass.DMT, statistic) == want, k
        assert signed_count(mirror(k), TriangleClass.DMT, statistic) == want, k


def test_rotated_sc_count():
    # under sc a DMT row of spread <= n is looked up by its rotation class,
    # alpha(n; k1..kn) = (-1)^(n-1) alpha(n; k2..kn, k1-n): every DMT row of
    # 3..7 entries from 0..7, against the oracle that keys nothing.  Rows of
    # spread n with a pair at either end are 0 by the zero rule.  The public
    # entry reads its own row through the same lookup, so it rotates too
    count = stream_dp(TriangleClass.DMT, "sc")
    rows = [k for m in range(3, 8) for k in combinations_with_replacement(range(7, -1, -1), m)
            if max(map(k.count, k)) <= 2]
    zero = 0
    for k in rows:
        assert enumeration._lookup("sc", gap_word(k)) == count(k), k
        assert signed_count(k, TriangleClass.DMT, "sc") == count(k), k
        zero += k[0] - k[-1] == len(k) and (k[0] == k[1] or k[-2] == k[-1])
    assert (len(rows), zero) == (2682, 490)


def test_narrow_first_gap_counts_on_cold_memo():
    # a row of first gap 0 or 1 (DMT) or -1 (MT) is counted from the rows
    # above its rest, or its rest's rest, never from its own: every such DMT
    # row of 3..8 entries from 1..7 under each statistic and every such MT
    # row of 3..6 entries from 0..9, from an empty memo, through the public
    # entry and by _count at the row's own word, against the oracle that
    # streams whole rows.  They include 3-entry keys and rows with k2 = k3
    dmt = [k for m in range(3, 9) for k in combinations_with_replacement(range(7, 0, -1), m)
           if max(map(k.count, k)) <= 2 and k[0] - k[1] < 2]
    mt = [k[::-1] for m in range(3, 7) for k in combinations_with_replacement(range(9, -1, -1), m)
          if len(set(k)) == m and k[-2] - k[-1] == 1]
    assert (len(dmt), len(mt)) == (1290, 372)
    assert sum(len(k) == 3 for k in dmt + mt) == 78
    assert sum(k[1] == k[2] for k in dmt) == 252
    kernels = {"plain": "plain", "sc": "sc", "dd_with_prefactor": "pair", "dd_bar": "pair"}
    passes = [(TriangleClass.DMT, statistic, dmt) for statistic in STATISTICS]
    passes += [(TriangleClass.MT, statistic, mt) for statistic in ("plain", "sc")]
    try:
        for cls, statistic, rows in passes:
            kernel = kernels[statistic]
            count = stream_dp(cls, kernel)
            enumeration.clear_caches()
            for k in rows:
                want = count(k)
                assert enumeration._count(kernel, gap_word(k)) == want, (k, statistic)
                if statistic == "dd_with_prefactor" and (
                        math.comb(len(k), 2) + sum(a == b for a, b in zip(k, k[1:]))) % 2:
                    want = -want
                assert signed_count(k, cls, statistic) == want, (k, statistic)
    finally:
        enumeration.clear_caches()


def test_short_alpha_words_are_closed_forms(monkeypatch):
    # a word of 3 or 4 entries that counts alpha, every MT word and every DMT
    # word under sc, is answered by alpha's closed form before any key is
    # chosen.  Each form is a polynomial of total degree 3 or 6 in the gaps,
    # and seven values per entry exceed either degree, so every integer row
    # k + (0,) with k from -3..3, mixed signs and triples included, fixes
    # both against the operator recursion.  Words that are not MT count alpha
    # only under sc
    def refused(*key):
        raise AssertionError(key)

    monkeypatch.setattr(enumeration, "_key", refused)
    monkeypatch.setattr(enumeration, "_count", refused)
    rows = [k + (0,) for m in (2, 3) for k in product(range(-3, 4), repeat=m)]
    assert len(rows) == 392
    lookup = enumeration._lookup.__wrapped__
    for k in rows:
        gaps, want = gap_word(k), alpha(k, AlphaMethod.OPERATOR_RECURSION)
        for kernel in ("sc", "plain", "pair") if gaps[0] < 0 else ("sc",):
            assert lookup(kernel, gaps) == want, (k, kernel)


def lagrange_at(points, x):
    """The value at ``x`` of the polynomial through ``points``, exactly."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("k1, rest", [
    (300, (3, 3, 2, 2, 1, 1)),
    (40, (5, 5, 4, 4, 3, 3, 2, 2, 1, 1)),
    (200, (4, 3, 3, 1)),
    (5000, (2, 1)),
    (997, (3, 3, 2, 2, 1, 1)),  # the W-row for n = 4, i = 994
    (-300, (0, 1, 3, 6)),
    (-5000, (0, 1)),
    (-10**6, (0, 2, 3, 4, 6)),
    (-1000, (0, 1, 2, 20)),  # the back gap is wider than the row too
])
def test_wide_first_gap_matches_polynomial(monkeypatch, k1, rest):
    # every kernel's count has degree <= n - 1 in k1 (Fischer 2006 for sc),
    # so its values at the n narrowest first gaps, by the oracle, fix it at
    # any k1; a gap in the thousands must not deepen the recursion.  A first
    # entry below the rest makes an MT row, on which every kernel counts.
    # The DP extrapolates a key of first gap w > n; a row of 3 or 4 entries
    # that counts alpha is a closed form and makes no key at all
    n = len(rest) + 1
    cls, step = (TriangleClass.DMT, 1) if k1 > rest[0] else (TriangleClass.MT, -1)
    keys = counting_states(monkeypatch)
    try:
        for kernel, statistic in (("sc", "sc"), ("plain", "plain"), ("pair", "dd_bar")):
            count = stream_dp(cls, kernel)
            points = [(a, count((a,) + rest))
                      for a in range(rest[0] + step, rest[0] + step * (n + 1), step)]
            want = lagrange_at(points, k1)
            enumeration.clear_caches()
            keys.clear()
            assert signed_count((k1,) + rest, cls, statistic) == want, kernel
            closed = n < 5 and (kernel == "sc" or cls is TriangleClass.MT)
            wide = any(abs(gaps[0]) > len(gaps) + 1 for _, gaps in keys)
            assert (not keys) if closed else wide, kernel
            if kernel == "sc":
                assert alpha((k1,) + rest) == want
    finally:
        enumeration.clear_caches()


SRC = Path(__file__).resolve().parents[1] / "src"


def test_recursion_depth_is_bounded_by_row_length():
    # the DP recurses a few frames per entry of the row, whatever its
    # gaps: each row is counted in a fresh interpreter under a recursion
    # limit of 100, against the polynomial through the narrowest first gaps
    # or a table value (the doubled staircase n = 6 counts the 6 x 6 ASMs)
    rest = (3, 3, 2, 2, 1, 1)
    count = stream_dp(TriangleClass.DMT, "sc")
    points = [(a, count((a,) + rest)) for a in range(4, 11)]
    wide = [(k1,) + rest for k1 in (1023, 10**15)]
    mt_rest = (0, 2, 3, 5)
    mt_count = stream_dp(TriangleClass.MT, "plain")
    mt_points = [(a, mt_count((a,) + mt_rest)) for a in range(-1, -6, -1)]
    cases = [(k, lagrange_at(points, k[0])) for k in wide] + [
        (mirror(wide[1]), lagrange_at(points, 10**15)),
        ((10**15, 1), 2 - 10**15),
        ((0, 1, 10**15), 10**30 + 2 * 10**15 - 1),  # N^2 + 2N - 1 MTs over (0, 1, N)
        ((-10**15,) + mt_rest, lagrange_at(mt_points, -10**15)),
        (tuple(range(11, 0, -1)), STAIRCASE_TABLE[11]),
        ((6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1), ASM_COUNTS[5]),
    ]
    script = ("import sys\nimport monotri\nsys.setrecursionlimit(100)\n"
              f"for row in {[k for k, _ in cases]!r}:\n    print(monotri.alpha(row))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert [int(line) for line in out.stdout.split()] == [want for _, want in cases]


def test_enum_matrices_counts():
    assert [sum(1 for _ in enum_matrices("asm", n)) for n in (1, 2, 3, 4)] == list(
        ASM_COUNTS[:4]
    )
    assert list(enum_matrices("asm", 1)) == [SignMatrix(((1,),))]


def test_enum_matrices_against_brute_force():
    classes = [(kind, n, None) for kind in ("asm", "2asm") for n in (1, 2, 3)]
    classes += [("wni", n, i) for n in (1, 2, 3) for i in range(1, 2 * n)]
    for kind, n, i in classes:
        members, non_members = brute_matrices(kind, n, i)
        # the one 1 x 0 matrix is the W-object for (1, 1)
        assert non_members or (kind, n) == ("wni", 1), (kind, n, i)
        if kind == "wni":
            objects = list(enum_wni_objects(n, i))
            assert [o.matrix for o in objects] == members, (n, i)
            assert all(is_valid_wni(o) for o in objects)
            assert not any(is_valid_wni(WniObject(n, i, m)) for m in non_members), (n, i)
            continue
        bkind = BijectionKind.MT_ASM if kind == "asm" else BijectionKind.DMT_2ASM
        assert list(enum_matrices(kind, n)) == members, (kind, n)
        for m in members:
            matrix_to_triangle(m, bkind)
        for m in non_members:
            with pytest.raises(InvalidInputError):
                matrix_to_triangle(m, bkind)


def test_every_machine_reads_some_matrix_class():
    # a machine that no class reads would be kept for the tests alone
    read = set()
    for n in (1, 2, 3):
        for kind, i in [("asm", None), ("2asm", None)] + [("wni", i) for i in range(1, 2 * n)]:
            row_machines, column_machine, _ = enumeration._matrix_class(kind, n, i)
            read.update(row_machines, [column_machine])
    assert read == set(MACHINES)


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


def test_wni_sign_matches_parse_steps():
    # the sign counts steps along the membership walks; recount them from the
    # public step decomposition of every column
    for n in range(1, 5):
        for i in range(1, 2 * n):
            for o in enum_wni_objects(n, i):
                traces = [parse_steps(TWO_ASM_COLUMN, col) for col in o.matrix.columns()]
                edges = sum(len(t.steps) - t.sigma0_zero_loops for t in traces)
                assert wni_object_sign(o) == (-1) ** (n + i + edges), (n, i, o)


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
    lambda: enum_triangles((1.5, 3), TriangleClass.MT),
    lambda: enum_triangles(("3", "3", "1", "1"), TriangleClass.DMT),
    lambda: predecessors((1.5, 3), TriangleClass.MT),
    lambda: signed_count((1.5, 3), TriangleClass.MT, "plain"),
    lambda: signed_count((3.0, 3.0, 1.0, 1.0), TriangleClass.DMT, "sc"),
    # a class that is not a TriangleClass, not even its value
    lambda: enum_triangles((1, 2, 4), "mt"),
    lambda: enum_triangles((1, 2, 4), None),
    lambda: predecessors((1, 2, 4), "mt"),
    lambda: predecessors((1, 2, 4), None),
    lambda: signed_count((1, 2, 3), "mt", "plain"),
    lambda: signed_count((1, 2, 3), None, "plain"),
], ids=["mt-row", "empty-row", "asm-size", "kind", "wni-index",
        "predecessors-mt-row", "predecessors-triple", "predecessors-short",
        "float-row", "str-row", "predecessors-float-row", "count-float-row",
        "count-integral-float-row", "class-str", "class-none", "predecessors-class-str",
        "predecessors-class-none", "count-class-str", "count-class-none"])
def test_enum_rejects_bad_arguments_at_the_call(call):
    # the stream is never pulled
    with pytest.raises(InvalidInputError):
        call()
