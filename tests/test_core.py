from collections import Counter
from itertools import product

import pytest

from monotri import (
    ExactMatrix,
    InvalidInputError,
    RowSeqClass,
    SignMatrix,
    StatRecord,
    TriangleClass,
    TriangularArray,
    W_number,
    X_number,
    binomial,
    build_matrix,
    classify_row_sequence,
    enum_matrices,
    enum_triangles,
    enum_wni_objects,
    forward_difference_power,
    generate,
    refined_asm,
    transition_stats,
    triangle_stats,
    validate_dmt,
    validate_monotone,
)
from monotri.machines import ASM_WORD, reach_table

from golden import DMT_8, DMTS_63321, DMTS_63321_DD, MT5_ROWS, dmt_bottom


def test_triangle_shape_enforced():
    # any integer is a triangle entry, 2 and -2 included
    assert TriangularArray(((2,), (-2, 2))).rows == ((2,), (-2, 2))
    with pytest.raises(InvalidInputError):
        TriangularArray(((1,), (2, 2, 3)))
    with pytest.raises(InvalidInputError):
        TriangularArray(())


def test_sign_matrix_entries_enforced():
    with pytest.raises(InvalidInputError):
        SignMatrix(((0, 2),))
    with pytest.raises(InvalidInputError):
        SignMatrix(((0, 1), (1,)))
    with pytest.raises(InvalidInputError):
        SignMatrix(())


_SIGN_FAULT = "row {} column {}: {} not in {{-1,0,1}}"


@pytest.mark.parametrize("rows, message", [
    # each refused value in the last row and column
    (((0, 1), (1, 2)), _SIGN_FAULT.format(2, 2, "2")),
    (((0, 1), (1, -2)), _SIGN_FAULT.format(2, 2, "-2")),
    (((0, 1), (1, True)), _SIGN_FAULT.format(2, 2, "True")),
    (((0, 1), (1, 1.0)), _SIGN_FAULT.format(2, 2, "1.0")),
    # a later row of the wrong width, shorter or longer
    (((1, 0), (0, 1), (1,)), "row 3 has 1 entries, expected 2"),
    (((1,), (0,), (0, 1)), "row 3 has 2 entries, expected 1"),
    # the first fault wins, in row order, and a row's width before its entries
    (((1, 2), (0,)), _SIGN_FAULT.format(1, 2, "2")),
    (((1, 0), (0,), (1, 5)), "row 2 has 1 entries, expected 2"),
    (((0, 1), (2, 5, 0)), "row 2 has 3 entries, expected 2"),
    # within a row, the first refused entry, after equal accepted ones
    (((1, 1, True, 1.0),), _SIGN_FAULT.format(1, 3, "True")),
    (((0, 1.0, 1.0),), _SIGN_FAULT.format(1, 2, "1.0")),
    (((-1, 2, 2),), _SIGN_FAULT.format(1, 2, "2")),
])
def test_sign_matrix_refusal_names_the_first_fault(rows, message):
    with pytest.raises(InvalidInputError) as e:
        SignMatrix(rows)
    assert str(e.value) == message


@pytest.mark.parametrize("rows, message", [
    (((1,), (1, 2), (1, 2, True)), "row 3 has a non-integer entry True"),
    (((1,), (1, 2), (1, 2, 1.0)), "row 3 has a non-integer entry 1.0"),
    (((1,), (1, 2), (1, 2)), "row 3 has 2 entries, expected 3"),
    (((1,), (1, 2), (1, 2, 3, 4)), "row 3 has 4 entries, expected 3"),
    (((1,), (1, 2.0), (1, 2)), "row 2 has a non-integer entry 2.0"),
    (((1,), (1, 2, 3), (True,)), "row 2 has 3 entries, expected 2"),
])
def test_triangle_refusal_names_the_first_fault(rows, message):
    with pytest.raises(InvalidInputError) as e:
        TriangularArray(rows)
    assert str(e.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: SignMatrix(((1,), 5)), "row 2: 5 is not a sequence of entries"),
    (lambda: TriangularArray(((1,), 5)), "row 2: 5 is not a sequence of entries"),
    (lambda: TriangularArray(iter([(1,), None])), "row 2: None is not a sequence of entries"),
    (lambda: TriangularArray(None), "row 1: None is not a sequence of entries"),
    (lambda: SignMatrix(0), "row 1: 0 is not a sequence of entries"),
], ids=["matrix-int-row", "triangle-int-row", "triangle-generator", "triangle-none",
        "matrix-int"])
def test_carriers_refuse_rows_that_are_not_sequences(build, message):
    with pytest.raises(InvalidInputError) as e:
        build()
    assert str(e.value) == message


@pytest.mark.parametrize("build", [
    lambda: SignMatrix(((0, 1.0),)),
    lambda: SignMatrix(((True,),)),
    lambda: TriangularArray(((True,),)),
    lambda: ExactMatrix(((0.5,),)),
    lambda: ExactMatrix((("3",),)),
    lambda: transition_stats((2.5, 0.5), (1.0,)),
    lambda: transition_stats((3, 1), (True,)),
], ids=["sign-matrix-float", "sign-matrix-bool", "triangle-bool", "exact-matrix-float",
        "exact-matrix-str", "transition-stats-float", "transition-stats-bool"])
def test_carriers_refuse_non_integers(build):
    # type(x) is int, nothing else: never truncated, never read as 0/1
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("call", [
    lambda: enum_matrices("asm", 2.5),
    lambda: enum_wni_objects(2.0, 1),
    lambda: W_number(2.0, 1),
    lambda: X_number(2.5, 1),
    lambda: refined_asm(2.5, 1),
    lambda: build_matrix("behrend", 2.5),
    lambda: list(generate(ASM_WORD, 2.5)),
    lambda: reach_table(ASM_WORD, 2.5),
    lambda: reach_table(ASM_WORD, -1),
    lambda: forward_difference_power(lambda x: x, 1.5, 0),
    lambda: binomial(2.5, 1),
    lambda: W_number(True, 1),
], ids=["asm-size", "wni-size", "w-size", "x-size", "refined-size", "behrend-size",
        "generate-length", "reach-length", "reach-negative-length", "difference-order",
        "binomial-upper", "w-bool-size"])
def test_sizes_and_indices_follow_the_integer_rule(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "row,expected",
    [
        ((2, 4, 5, 8, 9), RowSeqClass.STRICTLY_INCREASING),
        ((6, 3, 3, 2, 1), RowSeqClass.WEAKLY_DECREASING_MULT2),
        ((2, 2, 2), RowSeqClass.HAS_TRIPLE),
        ((1, 3, 2), RowSeqClass.OTHER),
        ((7,), RowSeqClass.STRICTLY_INCREASING),
    ],
)
def test_classify_row_sequence(row, expected):
    assert classify_row_sequence(row) is expected


def test_classify_rejects_empty():
    with pytest.raises(InvalidInputError):
        classify_row_sequence(())


def test_validate_monotone():
    assert validate_monotone(TriangularArray(MT5_ROWS))
    assert validate_monotone(TriangularArray(((4,),)))
    assert not validate_monotone(TriangularArray(((1,), (2, 2))))


def test_validate_dmt():
    for rows in DMTS_63321:
        assert validate_dmt(TriangularArray(rows))
    assert validate_dmt(TriangularArray(((7,),)))
    assert validate_dmt(TriangularArray(DMT_8))
    # rows 2 and 3 both contain the value 2 exactly once
    assert not validate_dmt(TriangularArray(((3,), (3, 2), (3, 3, 2))))
    # valid diagonals, but row 3 holds the value 2 three times
    assert not validate_dmt(TriangularArray(((2,), (2, 2), (2, 2, 2))))


def _monotone_oracle(rows) -> bool:
    """Entry by entry: rows strictly increase, and each entry lies between
    its two neighbours in the row below."""
    for row in rows:
        for j in range(len(row) - 1):
            if not row[j] < row[j + 1]:
                return False
    for i in range(len(rows) - 1):
        for j, x in enumerate(rows[i]):
            if not rows[i + 1][j] <= x <= rows[i + 1][j + 1]:
                return False
    return True


def _dmt_oracle(rows) -> bool:
    """Entry by entry: each entry lies between its two neighbours in the row
    below, read right to left; no row holds a value three times; no value
    occurs exactly once in each of two consecutive rows."""
    for i in range(len(rows) - 1):
        for j, x in enumerate(rows[i]):
            if not rows[i + 1][j] >= x >= rows[i + 1][j + 1]:
                return False
    if any(row.count(v) > 2 for row in rows for v in row):
        return False
    return not any(upper.count(v) == 1 and lower.count(v) == 1
                   for upper, lower in zip(rows, rows[1:]) for v in upper)


def _triangles(n, values=range(1, 5)):
    """Every triangle of ``n`` rows with entries in ``values``."""
    cells = list(product(values, repeat=n * (n + 1) // 2))
    return [tuple(c[i * (i + 1) // 2:(i + 1) * (i + 2) // 2] for i in range(n)) for c in cells]


def _validator_cases():
    """Every triangle of up to 3 rows on entries 1..4, and every 4-row one
    whose top three rows either oracle accepts, with any bottom row."""
    small = [t for n in (1, 2, 3) for t in _triangles(n)]
    tops = [t for t in small if len(t) == 3 and (_monotone_oracle(t) or _dmt_oracle(t))]
    return small + [t + (k,) for t in tops for k in product(range(1, 5), repeat=4)]


def _counter_tally_stats(rows) -> StatRecord:
    """``StatRecord``'s count-step tally with one ``Counter`` per row, so a
    value missing from the row below counts 0 there."""
    counts = [Counter(row) for row in rows]
    steps = Counter((c, lower[v]) for upper, lower in zip(counts, counts[1:])
                    for v, c in upper.items())
    pairs = tuple(sum(c == 2 for c in cnt.values()) for cnt in counts)
    return StatRecord(pairs, steps[1, 0], steps[1, 2], steps[2, 1] + pairs[-1],
                      steps[2, 2] + pairs[-1], steps[2, 2], steps[1, 0] + sum(pairs[:-1]))


def test_validators_match_entry_oracles_exhaustively():
    seen = {"mt": 0, "dmt": 0, "dmt with newcomers": 0}
    for rows in _validator_cases():
        t = TriangularArray(rows)
        mt, dmt = _monotone_oracle(rows), _dmt_oracle(rows)
        assert validate_monotone(t) == mt, rows
        assert validate_dmt(t) == dmt, rows
        # the statistics read the DMT check's pass, so they refuse the same
        try:
            st = triangle_stats(t)
        except InvalidInputError as e:
            assert str(e) == "not a decreasing monotone triangle" and not dmt, rows
        else:
            assert dmt and st == _counter_tally_stats(rows), rows
            seen["dmt with newcomers"] += st.newcomers > 0
        seen["mt"] += mt
        seen["dmt"] += dmt
    # the tallies pin the case set, and both classes are well represented;
    # a newcomer is a value missing from the row below
    assert seen == {"mt": 104, "dmt": 60, "dmt with newcomers": 16}


@pytest.mark.parametrize("rows, mt, dmt", [
    # diagonal equality on either side, and one step past it
    (((2,), (2, 3)), True, False),
    (((3,), (2, 3)), True, False),
    (((1,), (2, 3)), False, False),
    (((4,), (2, 3)), False, False),
    (((3,), (3, 1)), False, False),  # 3 once in both rows: a single descendant
    (((1,), (3, 1)), False, False),
    (((2,), (3, 1)), False, True),
    (((3,), (3, 3)), False, True),  # equal neighbours below: a pair, not a single
    (((0,), (3, 1)), False, False),
    (((2,), (3, 3)), False, False),
    # a value three times in a row
    (((2,), (2, 2), (2, 2, 2)), False, False),
    (((3,), (3, 3), (4, 3, 3)), False, True),
    # a single descendant two rows down
    (((3,), (4, 2), (4, 3, 2)), False, False),
    (((3,), (4, 2), (5, 3, 1)), False, True),
])
def test_validator_boundaries(rows, mt, dmt):
    t = TriangularArray(rows)
    assert (validate_monotone(t), validate_dmt(t)) == (mt, dmt)
    assert (_monotone_oracle(rows), _dmt_oracle(rows)) == (mt, dmt)


def condition3_equivalent(t: TriangularArray) -> bool:
    """Literal evaluation of the local reformulation of the NSD condition.

    An entry equal to its SE-neighbour and smaller than its SW-neighbour must
    equal its right neighbour; symmetrically, an entry equal to its
    SW-neighbour and greater than its SE-neighbour must equal its left
    neighbour.  Only valid on triangles already satisfying the diagonal and
    multiplicity conditions.
    """
    rows = t.rows
    if not all(_local_ok(rows[:i]) for i in range(1, len(rows) + 1)):
        raise InvalidInputError("diagonal or multiplicity condition violated")
    for upper, lower in zip(rows, rows[1:]):
        for j, x in enumerate(upper):
            sw, se = lower[j], lower[j + 1]
            if x == se and x < sw:
                if j + 1 >= len(upper) or upper[j + 1] != x:
                    return False
            if x == sw and x > se:
                if j == 0 or upper[j - 1] != x:
                    return False
    return True


def test_condition3_matches_figures():
    for rows in DMTS_63321:
        assert condition3_equivalent(TriangularArray(rows))
    assert condition3_equivalent(TriangularArray(((7,),)))
    assert not condition3_equivalent(TriangularArray(((3,), (3, 2), (3, 3, 2))))


def test_condition3_precondition():
    with pytest.raises(InvalidInputError):
        condition3_equivalent(TriangularArray(((1,), (2, 2))))


def _all_diagonal_mult2_triangles(n, lo, hi):
    """Every triangle over [lo, hi] satisfying the diagonal and multiplicity
    conditions, built by direct filtering (independent of the library)."""
    shapes = [()]
    for i in range(1, n + 1):
        shapes = [
            t + (row,)
            for t in shapes
            for row in product(range(hi, lo - 1, -1), repeat=i)
        ]
        shapes = [t for t in shapes if _local_ok(t)]
    return shapes


def _local_ok(rows):
    row = rows[-1]
    if any(row.count(v) > 2 for v in row):
        return False
    if len(rows) == 1:
        return True
    upper, lower = rows[-2], rows[-1]
    return all(lower[j] >= upper[j] >= lower[j + 1] for j in range(len(upper)))


def _nsd(rows):
    for upper, lower in zip(rows, rows[1:]):
        for v in set(upper):
            if upper.count(v) == 1 and lower.count(v) == 1:
                return False
    return True


def test_condition3_equivalent_to_nsd():
    # on triangles with valid diagonals and multiplicities, the local
    # reformulation agrees with the two-row condition everywhere
    for n in (2, 3, 4):
        for rows in _all_diagonal_mult2_triangles(n, 1, 3):
            t = TriangularArray(rows)
            assert condition3_equivalent(t) == _nsd(rows), rows


def test_transition_stats_examples():
    assert transition_stats((6, 3, 3, 2, 1), (3, 3, 2, 2)) == (2, 0)
    assert transition_stats((5, 2), (4,)) == (0, 1)
    assert transition_stats((5, 5), (5,)) == (0, 0)
    with pytest.raises(InvalidInputError):
        transition_stats((5, 5), (5, 5))


def test_triangle_stats_figures():
    dds = [triangle_stats(TriangularArray(rows)).dd for rows in DMTS_63321]
    assert dds == list(DMTS_63321_DD)
    first = triangle_stats(TriangularArray(DMTS_63321[0]))
    assert first.sc == 4
    assert (-1) ** first.sc == (-1) ** (10 + first.dd)


def test_triangle_stats_rejects_non_dmt():
    # wrong diagonals, a triple, and a value once in two consecutive rows
    for rows in (MT5_ROWS, ((2,), (2, 2), (2, 2, 2)), ((3,), (3, 2), (3, 3, 2))):
        with pytest.raises(InvalidInputError, match="^not a decreasing monotone triangle$"):
            triangle_stats(TriangularArray(rows))


def test_triangle_stats_degenerate():
    st = triangle_stats(TriangularArray(((4,),)))
    assert st.dd == st.sc == st.dd_bar == st.newcomers == 0
    assert st.pairs_per_row == (0,)


def _dmts_brute(bottom, lo, hi):
    """All DMTs with the given bottom row, by direct filtering."""
    n = len(bottom)
    partial = [(bottom,)]
    for i in range(n - 1, 0, -1):
        nxt = []
        for t in partial:
            for row in product(range(hi, lo - 1, -1), repeat=i):
                cand = (row,) + t
                if _local_ok_top(cand):
                    nxt.append(cand)
        partial = nxt
    return [rows for rows in partial if _nsd(rows)]


def _local_ok_top(rows):
    upper, lower = rows[0], rows[1]
    if any(upper.count(v) > 2 for v in upper):
        return False
    return all(lower[j] >= upper[j] >= lower[j + 1] for j in range(len(upper)))


def _grid_dmts():
    """Every DMT with a weakly decreasing bottom row in [1,4], n <= 4."""
    for m in range(1, 5):
        for bottom in product(range(4, 0, -1), repeat=m):
            if any(a < b for a, b in zip(bottom, bottom[1:])):
                continue
            if any(bottom.count(v) > 2 for v in bottom):
                continue
            yield from _dmts_brute(bottom, 1, 4)


def test_stat_invariants_exhaustive():
    for rows in _grid_dmts():
        st = triangle_stats(TriangularArray(rows))
        n = len(rows)
        assert st.sc == st.newcomers + sum(st.pairs_per_row[:-1])
        assert st.peaks == st.base_pairs
        assert (-1) ** st.sc == (-1) ** (n * (n - 1) // 2 + st.dd)
        assert st.dd == st.dd_bar + st.pairs_per_row[-1]


def _stats_oracle(rows) -> StatRecord:
    """Every statistic read by position, the oracle for the count-step tally
    of ``triangle_stats``: pairs as adjacent equal entries, ``sc`` and
    newcomers from ``transition_stats`` on each pair of rows, and dd_bar,
    base pairs and peaks by comparing value counts row against row."""
    counts = [Counter(row) for row in rows]
    pairs_per_row = tuple(sum(1 for a, b in zip(row, row[1:]) if a == b) for row in rows)
    newcomers = 0
    sc = 0
    dd_bar = 0
    peaks = 0
    base_pairs = pairs_per_row[-1]
    for i in range(len(rows) - 1):
        p, nc = transition_stats(rows[i + 1], rows[i])
        sc += p + nc
        newcomers += nc
        below = counts[i + 1]
        for v, c in counts[i].items():
            if c == 2:
                dd_bar += below[v] == 2
                base_pairs += below[v] == 1
            elif below[v] == 2:
                peaks += 1
    dd = dd_bar + pairs_per_row[-1]
    return StatRecord(pairs_per_row, newcomers, peaks, base_pairs, dd, dd_bar, sc)


def test_triangle_stats_match_positional_oracle():
    # every DMT of the exhaustive grid, and every one on the doubled
    # staircases (n, n, ..., 1, 1) for n <= 4, the 2-ASMs read as DMTs
    dmts = list(_grid_dmts())
    dmts += [t.rows for n in range(1, 5) for t in enum_triangles(dmt_bottom(n), TriangleClass.DMT)]
    seen = Counter()
    for rows in dmts:
        st = triangle_stats(TriangularArray(rows))
        assert st == _stats_oracle(rows), rows
        seen["peaks"] += st.peaks > 0
        seen["dd_bar"] += st.dd_bar > 0
        seen["newcomers"] += st.newcomers > 0
        seen["bottom pairs"] += st.pairs_per_row[-1] > 0
    # the tallies pin the case set: each step key is met, and so are pairs
    # in the bottom row
    assert len(dmts) == 60 + 68
    assert seen == {"peaks": 120, "dd_bar": 105, "newcomers": 47, "bottom pairs": 116}


def test_bottom_pair_parity():
    # bottom rows (n, n, ..., 1, 1) have exactly n pairs, so the dd and
    # dd_bar signs agree up to (-1)^C(2n,2)
    for n in (1, 2, 3):
        bottom = tuple(v for x in range(n, 0, -1) for v in (x, x))
        for rows in _dmts_brute(bottom, 1, n):
            st = triangle_stats(TriangularArray(rows))
            assert st.pairs_per_row[-1] == n
            c2n2 = (2 * n) * (2 * n - 1) // 2
            assert (-1) ** (c2n2 + st.dd) == (-1) ** st.dd_bar
