import functools
import math
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri import (
    AlphaMethod,
    InvalidInputError,
    ResourceLimitError,
    W_number,
    X_number,
    alpha,
    binomial,
    enumeration,
    evaluate,
    forward_difference_power,
    refined_asm,
    sum_operator,
)

from golden import ASM_COUNTS, REFINED, STAIRCASE_TABLE, dmt_bottom, mt_bottom


# independent oracles -------------------------------------------------------

def brute_monotone_count(bottom):
    """Count monotone triangles by filtering all integer fillings."""
    lo, hi = min(bottom), max(bottom)
    towers = [(bottom,)]
    for i in range(len(bottom) - 1, 0, -1):
        nxt = []
        for t in towers:
            for row in product(range(lo, hi + 1), repeat=i):
                if all(a < b for a, b in zip(row, row[1:])) and all(
                    t[0][j] <= row[j] <= t[0][j + 1] for j in range(i)
                ):
                    nxt.append((row,) + t)
        towers = nxt
    return len(towers)


def brute_asms(n):
    """All size-n ASMs from the prose definition (row-by-row with partial
    column sums in {0,1}, final column sums 1)."""

    def row_ok(w):
        nz = [x for x in w if x]
        return bool(nz) and nz[0] == nz[-1] == 1 and sum(w) == 1 and all(
            a != b for a, b in zip(nz, nz[1:])
        )

    words = [w for w in product((-1, 0, 1), repeat=n) if row_ok(w)]
    out = []

    def rec(rows, colsums):
        if len(rows) == n:
            if all(s == 1 for s in colsums):
                out.append(tuple(rows))
            return
        for w in words:
            ns = [a + b for a, b in zip(colsums, w)]
            if all(0 <= s <= 1 for s in ns):
                rows.append(w)
                rec(rows, ns)
                rows.pop()

    rec([], [0] * n)
    return out


def literal_ext_sum(f, a, b):
    """Sum of f over [a, b] with the extended-range rule written out."""
    if b >= a:
        return sum(f(i) for i in range(a, b + 1))
    if b == a - 1:
        return 0
    return -sum(f(i) for i in range(b + 1, a))


def literal_sum_operator(func, k, variant):
    """The summation operator expanded literally, one closure per peeled
    bound, as the paper's recursions 5, 8 and 9 state it; every path calls
    ``func``.  Recursions 8, a closed sum and a correction, and 9, which
    peels the first bound, are written only here: the package builds its
    one table by 5."""
    n = len(k)
    if n == 1:
        return func()
    if variant == 9:
        def outer(*l):
            return literal_ext_sum(lambda t: func(t, *l), k[0], k[1] - 1)

        def pinned(*l):
            return func(k[1], *l)

        return (literal_sum_operator(outer, k[1:], 9)
                + literal_sum_operator(pinned, (k[1] + 1,) + k[2:], 9))
    if variant == 8 and n >= 3:
        def outer(*l):
            return literal_ext_sum(lambda t: func(*l, t), k[-2], k[-1])

        def doubled(*l):
            return func(*l, k[-2], k[-2])

        return literal_sum_operator(outer, k[:-1], 8) - literal_sum_operator(doubled, k[:-2], 8)

    def outer(*l):  # variant 5; also the two-bound base of variant 8
        return literal_ext_sum(lambda t: func(*l, t), k[-2] + 1, k[-1])

    def pinned(*l):
        return func(*l, k[-2])

    return (literal_sum_operator(outer, k[:-1], variant)
            + literal_sum_operator(pinned, k[:-2] + (k[-2] - 1,), variant))


class Points(Counter):
    """A formal signed sum of points.  Unlike Counter's, its sums keep
    negative coefficients, drop zero ones and read the integer 0 as empty,
    so a literal expansion applied to ``lambda *p: Points({p: 1})`` returns
    the operator's table."""

    def __add__(self, other):
        total = Counter(self)
        total.update(other or {})
        return Points({p: c for p, c in total.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Points({p: -c for p, c in self.items()})

    def __sub__(self, other):
        return self + -other


def literal_table(k, variant):
    return dict(Points() + literal_sum_operator(lambda *p: Points({p: 1}), k, variant))


# binomial / extended sum ----------------------------------------------------

def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(-1, 2) == 1
    assert binomial(3, 5) == 0
    assert binomial(2, 3) == 0  # C(a-1, a) = 0 at a = 3
    assert binomial(4, -1) == 0


def test_binomial_matches_falling_factorial():
    # a(a-1)...(a-b+1)/b!, read for every integer a, and 0 for b < 0
    for a in range(-60, 61):
        for b in range(-3, 61):
            want = math.prod(range(a - b + 1, a + 1)) // math.factorial(b) if b >= 0 else 0
            assert binomial(a, b) == want, (a, b)


@given(st.integers(-30, 30), st.integers(0, 12))
def test_binomial_negation_identity(a, b):
    assert binomial(a, b) == (-1) ** b * binomial(b - a - 1, b)


def test_ext_sum_cases():
    one = lambda i: 1
    assert sum_operator(one, (1, 4)) == 4
    assert sum_operator(one, (5, 4)) == 0
    assert sum_operator(one, (4, 1)) == -2


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_ext_sum_additive(a, b, c):
    f = lambda i: i * i - 3 * i + 1
    assert sum_operator(f, (a, b)) + sum_operator(f, (b + 1, c)) == sum_operator(f, (a, c))


def test_two_bound_operator_is_the_extended_sum():
    # both recursions at two bounds: f(a) plus the extended sum over [a+1, b]
    # (5), or the extended sum over [a, b-1] plus f(b) (9)
    f = lambda i: i ** 3 - 4 * i * i + 2 * i - 7
    for variant in (5, 9):
        for a in range(-6, 7):
            for b in range(-8, 9):
                want = literal_ext_sum(f, a, b)
                assert sum_operator(f, (a, b), variant) == want, (variant, a, b)


# sum operator ---------------------------------------------------------------

def test_sum_operator_base_case():
    assert sum_operator(lambda l: 1, (1, 4)) == 4
    assert sum_operator(lambda: 17, (3,)) == 17


def test_sum_operator_counts_triangles():
    alpha2 = lambda a, b: b - a + 1
    expected = brute_monotone_count((2, 4, 5))
    assert expected == 14
    assert sum_operator(alpha2, (2, 4, 5)) == expected


def test_sum_operator_variants_agree():
    f = lambda a, b, c: a + b * c
    k = (3, 1, 4, 1)
    v5 = sum_operator(f, k, 5)
    assert literal_sum_operator(f, k, 8) == v5
    assert sum_operator(f, k, 9) == v5


def test_sum_operator_variant_agreement_randomized():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 5)
        k = tuple(rng.randint(-3, 6) for _ in range(n))
        coeffs = [(rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(n - 1)))
                  for _ in range(3)]

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
            assert literal_sum_operator(f, k, 8) == v5, k
        if n >= 2:
            assert sum_operator(f, k, 9) == v5, k


@st.composite
def operator_cases(draw):
    """A variant, a bound vector of any shape it accepts and a polynomial
    in one argument fewer."""
    variant = draw(st.sampled_from((5, 8, 9)))
    n = draw(st.integers({5: 1, 8: 3, 9: 2}[variant], 4))
    k = tuple(draw(st.lists(st.integers(-3, 6), min_size=n, max_size=n)))
    terms = draw(st.lists(st.tuples(st.integers(-3, 3),
                                     st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)),
                          min_size=1, max_size=3))
    return variant, k, lambda *x: sum(c * math.prod(map(pow, x, e)) for c, e in terms)


@settings(max_examples=300, deadline=None)
@given(operator_cases())
def test_sum_operator_against_literal_expansion(case):
    # the package has no recursion 8; its literal expansion is held to 5
    variant, k, func = case
    expanded = sum_operator(func, k, 5 if variant == 8 else variant)
    assert expanded == literal_sum_operator(func, k, variant)


def test_op_terms_tables_are_merged_and_cleared():
    try:
        evaluate.clear_caches()
        for k in product(range(-1, 3), repeat=4):
            for variant in (5, 9):
                sum_operator(lambda *x: 0, k, variant)
        alpha((2, 0, 3, 1), AlphaMethod.OPERATOR_RECURSION)
        # one table per bound vector, whichever variant asked for it
        assert evaluate._op_terms.cache_info().currsize > 4**4
        # the tables are private to the cache; read them back by calling it
        for k in product(range(-1, 3), repeat=4):
            table = evaluate._op_terms(k)
            points = [point for point, _ in table]
            assert len(set(points)) == len(points), k
            assert all(c != 0 and len(point) == 3 for point, c in table), k
        evaluate.clear_caches()
        assert evaluate._op_terms.cache_info().currsize == 0
    finally:
        evaluate.clear_caches()


def test_both_recursions_build_one_table():
    # the package's table, built by recursion 5, is the table of the literal
    # recursion 9, point for point, which is stronger than agreeing on the
    # functions applied to them
    rng = random.Random(9)
    grid = [k for n in (2, 3, 4) for k in product(range(-2, 4), repeat=n)]
    grid += list(product(range(-1, 3), repeat=5))
    grid += [tuple(rng.randint(-2, 3) for _ in range(6)) for _ in range(40)]
    try:
        evaluate.clear_caches()
        for k in grid:
            assert dict(evaluate._op_terms(k)) == literal_table(k, 9), k
    finally:
        evaluate.clear_caches()


def test_operator_recursion_reads_tables_that_start_at_0(monkeypatch):
    # its keys start at 0 and recursion 5 keeps the first bound, so tables
    # reached from different keys are shared rather than stored per translate
    keys = []
    build = evaluate._op_terms.__wrapped__

    def recording(k):
        keys.append(k)
        return build(k)

    monkeypatch.setattr(evaluate, "_op_terms", functools.lru_cache(maxsize=None)(recording))
    try:
        evaluate.clear_caches()
        assert alpha((9, 13, 7, 11, 8), AlphaMethod.OPERATOR_RECURSION) == 633
        assert keys and all(k[0] == 0 for k in keys if len(k) > 1)
    finally:
        evaluate.clear_caches()


def test_sum_operator_arity_errors():
    with pytest.raises(InvalidInputError):
        sum_operator(lambda: 1, (1,), 9)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda: 1, (), 5)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda a: a, (1, 2), 7)
    # recursion 8 is written only in the tests; a float variant is refused
    # by the integer rule even where it equals 9
    with pytest.raises(InvalidInputError):
        sum_operator(lambda a, b: a, (1, 2, 3), 8)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda a: a, (1, 3), 9.0)


@pytest.mark.parametrize("call", [
    lambda: alpha((0.5, 2.9)),
    lambda: alpha(("1", "3")),
    lambda: alpha((2.0, 3.0), AlphaMethod.OPERATOR_RECURSION),
    lambda: alpha((3, 1.5), AlphaMethod.SIGNED_DMT_DP),
    lambda: sum_operator(lambda a: 1, (0.5, 2)),
    lambda: sum_operator(lambda a: 1, ("0", "2")),
    lambda: alpha((True, 3)),
    lambda: sum_operator(lambda a: 1, (False, 2)),
    lambda: alpha((1, 3, 2), "op", op_max_n="6"),
    lambda: alpha((1, 3, 2), "op", op_max_n=6.5),
    lambda: alpha((1, 3, 2), "op", op_max_n=True),
    lambda: alpha((1, 3, 2), "op", op_max_spread="12"),
    lambda: alpha((1, 3, 2), "op", op_max_spread=12.5),
    lambda: alpha((1, 3, 2), "op", op_max_spread=True),
], ids=["alpha-float", "alpha-str", "alpha-integral-float", "alpha-dmt-float",
        "sum-operator-float", "sum-operator-str", "alpha-bool", "sum-operator-bool",
        "op-max-n-str", "op-max-n-float", "op-max-n-bool",
        "op-max-spread-str", "op-max-spread-float", "op-max-spread-bool"])
def test_non_integer_entries_rejected(call):
    # not truncated to integers, and not a bare TypeError from deep inside
    with pytest.raises(InvalidInputError):
        call()


# alpha ----------------------------------------------------------------------

def test_alpha_goldens():
    assert alpha((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP) == 16939
    assert alpha((2, 4, 5, 8, 9), AlphaMethod.OPERATOR_RECURSION) == 16939
    assert alpha((6, 3, 3, 2, 1)) == 3
    assert alpha((1, 4)) == 4
    assert alpha((4, 4, 1, 1)) == 2
    assert alpha((2, 2, 2)) == 0
    for k1 in (-3, 0, 11):
        assert alpha((k1,)) == 1


def test_alpha_counts_match_brute_force():
    for bottom in ((1, 2), (1, 2, 3), (2, 4, 5), (1, 3, 4)):
        assert alpha(bottom, AlphaMethod.MONOTONE_DP) == brute_monotone_count(bottom)


def test_alpha_method_compatibility():
    with pytest.raises(InvalidInputError):
        alpha((1, 2, 3), AlphaMethod.SIGNED_DMT_DP)
    with pytest.raises(InvalidInputError):
        alpha((3, 2, 1), AlphaMethod.MONOTONE_DP)
    with pytest.raises(InvalidInputError):
        alpha(())
    # a method is an AlphaMethod or the value of one; nothing else falls
    # through to the operator recursion, which would refuse a long row
    for method in ("bogus", "MT", 5, None, 1.5, ["mt"]):
        for row in ((1, 2), (1, 2, 3), tuple(range(8))):
            with pytest.raises(InvalidInputError, match="unknown alpha method"):
                alpha(row, method)
    # a single entry is in both monotone classes
    assert alpha((5,), AlphaMethod.MONOTONE_DP) == 1
    assert alpha((5,), AlphaMethod.SIGNED_DMT_DP) == 1


def test_alpha_operator_guard():
    with pytest.raises(ResourceLimitError):
        alpha((0, 20), AlphaMethod.OPERATOR_RECURSION)
    with pytest.raises(ResourceLimitError):
        alpha((1, 2, 3, 4, 5, 6, 7), AlphaMethod.OPERATOR_RECURSION)
    assert alpha((0, 20), AlphaMethod.OPERATOR_RECURSION, op_max_spread=20) == 21


def test_alpha_methods_agree_increasing():
    # the shifted copies make the DP read translated keys from a warm memo
    for n in range(1, 5):
        for k in product(range(1, 6), repeat=n):
            if all(a < b for a, b in zip(k, k[1:])):
                for c in (0, -7, 9):
                    row = tuple(x + c for x in k)
                    assert alpha(row, AlphaMethod.MONOTONE_DP) == alpha(
                        row, AlphaMethod.OPERATOR_RECURSION
                    ), row


def test_alpha_methods_agree_decreasing():
    for n in range(1, 5):
        for k in product(range(1, 5), repeat=n):
            if all(a >= b for a, b in zip(k, k[1:])) and all(k.count(v) <= 2 for v in k):
                for c in (0, -7, 9):
                    row = tuple(x + c for x in k)
                    assert alpha(row, AlphaMethod.SIGNED_DMT_DP) == alpha(
                        row, AlphaMethod.OPERATOR_RECURSION
                    ), row


@st.composite
def shaped_rows(draw):
    values = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    shape = draw(st.sampled_from(("increasing", "decreasing", "as drawn")))
    if shape == "increasing":
        return tuple(sorted(set(values)))
    if shape == "decreasing":
        return tuple(sorted(values, reverse=True))
    return tuple(values)


@settings(max_examples=80, deadline=None)
@given(shaped_rows(), st.integers(-40, 40))
def test_strategies_agree_on_shifts_and_reflections(row, c):
    # the memo stays warm across examples, so a row is often answered from
    # entries stored under a shifted or reflected copy by another strategy
    reflected = tuple(-x for x in reversed(row))
    values = set()
    for k in (row, tuple(x + c for x in row), reflected, tuple(x + c for x in reflected)):
        values.add(alpha(k, AlphaMethod.OPERATOR_RECURSION))
        if all(a < b for a, b in zip(k, k[1:])):
            values.add(alpha(k, AlphaMethod.MONOTONE_DP))
        if all(a >= b for a, b in zip(k, k[1:])):
            values.add(alpha(k, AlphaMethod.SIGNED_DMT_DP))
    assert len(values) == 1, (row, c, values)


def test_operator_recursion_never_reads_dp_entries(monkeypatch):
    try:
        for row, dp in (((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP),
                        ((6, 3, 3, 2, 1), AlphaMethod.SIGNED_DMT_DP)):
            evaluate.clear_caches()
            want = alpha(row, AlphaMethod.OPERATOR_RECURSION)
            evaluate.clear_caches()
            alpha(row, dp)
            warm = enumeration._lookup
            # every DP entry now reads one too many
            monkeypatch.setattr(enumeration, "_lookup",
                                functools.lru_cache(maxsize=None)(lambda *a: warm(*a) + 1))
            assert alpha(row, dp) == want + 1
            assert alpha(row, AlphaMethod.OPERATOR_RECURSION) == want
            monkeypatch.undo()
    finally:
        evaluate.clear_caches()


def test_warm_alpha_classifies_its_row_once(monkeypatch):
    rows = [((7,) + dmt_bottom(6), "dmt"), ((1, 3, 4, 7, 9), "mt"), ((3, 3, 3, 1), "dmt")]
    want = [alpha(k, method) for k, method in rows]  # warms the memo
    seen = []
    classify = enumeration.classify_row_sequence

    def counting(k):
        seen.append(tuple(k))
        return classify(k)

    monkeypatch.setattr(evaluate, "classify_row_sequence", counting)
    monkeypatch.setattr(enumeration, "classify_row_sequence", counting)
    for (k, method), value in zip(rows, want):
        seen.clear()
        assert alpha(k, method) == value
        assert seen == [k], (k, method)
    assert want[2] == 0


def test_alpha_vanishes_on_triples():
    for n in (3, 4):
        for k in product(range(3, 0, -1), repeat=n):
            if all(a >= b for a, b in zip(k, k[1:])) and any(k.count(v) >= 3 for v in k):
                assert alpha(k, AlphaMethod.OPERATOR_RECURSION) == 0, k


def test_alpha_shift_invariance_uncached():
    def op(k):
        return 1 if len(k) == 1 else sum_operator(lambda *l: op(l), k, 5)

    for n in range(1, 4):
        for k in product(range(0, 4), repeat=n):
            base = op(k)
            for c in (-2, -1, 1, 2):
                shifted = tuple(x + c for x in k)
                assert op(shifted) == base
                assert alpha(shifted, AlphaMethod.OPERATOR_RECURSION) == base


def test_alpha_reflection():
    for n in range(1, 5):
        for k in product(range(0, 5), repeat=n):
            reflected = tuple(-x for x in reversed(k))
            assert alpha(k, AlphaMethod.OPERATOR_RECURSION) == alpha(
                reflected, AlphaMethod.OPERATOR_RECURSION
            ), k


def test_alpha_rotation():
    for n in range(1, 5):
        sign = 1 if (n - 1) % 2 == 0 else -1
        for k in product(range(0, 6), repeat=n):
            rotated = k[1:] + (k[0] - n,)
            assert alpha(k, AlphaMethod.OPERATOR_RECURSION) == sign * alpha(
                rotated, AlphaMethod.OPERATOR_RECURSION
            ), k


def test_rotation_identity_by_operator_recursion():
    # Fischer's cyclic shift, on which the DP's sc keys rest, checked where
    # the DP takes no part: the operator recursion on both sides, at random
    # integer rows up to n = 5, one entry more than test_alpha_rotation
    rng = random.Random(2007)
    evaluate.clear_caches()
    for _ in range(300):
        n = rng.randint(2, 5)
        k = tuple(rng.randint(0, 6) for _ in range(n))
        shifted = alpha(k[1:] + (k[0] - n,), AlphaMethod.OPERATOR_RECURSION)
        assert alpha(k, AlphaMethod.OPERATOR_RECURSION) == (-1) ** (n - 1) * shifted, k


def test_staircase_values():
    for n in (3, 5, 7, 9, 11, 13):
        assert alpha(tuple(range(n, 0, -1))) == STAIRCASE_TABLE[n]
    for n in (4, 6):
        assert alpha(tuple(range(n, 0, -1))) == 0


def counting_states(monkeypatch):
    """The keys ``_count`` counts, in order, once ``_count`` is patched to
    record them: one per DP state, as ``_lookup`` holds each count."""
    states, count = [], enumeration._count

    def counting(*key):
        states.append(key)
        return count(*key)

    monkeypatch.setattr(enumeration, "_count", counting)
    return states


def test_dp_state_counts(monkeypatch):
    # pins the DP's state space: one count per distinct row up to
    # translation and mirroring, and under sc (the staircase) up to rotation
    # too, but none for a row of 3 to 5 entries, which is a closed form.  The
    # transitions are the rows a state sums, all above its rest or the rest
    # of that, read from the rows-above memo.  The rows streamed are those
    # predecessors made to fill it, and the kernel makes no other row
    streamed, summed, made = [], [], []
    checked, kernel, above = enumeration.predecessors, enumeration._rows_above, enumeration._above
    states = counting_states(monkeypatch)

    def streaming(k, cls):
        for item in checked(k, cls):
            streamed.append(item)
            yield item

    def making(k, cls):
        for item in kernel(k, cls):
            made.append(item)
            yield item

    def reading(*key):
        rows = above(*key)
        summed.extend(rows)
        return rows

    reading.cache_clear = above.cache_clear
    monkeypatch.setattr(enumeration, "predecessors", streaming)
    monkeypatch.setattr(enumeration, "_rows_above", making)
    monkeypatch.setattr(enumeration, "_above", reading)
    try:
        for row, keys, transitions, rows_streamed in (
                (tuple(range(11, 0, -1)), 126, 478, 306),
                ((0, 3, 5, 8, 10, 13), 5, 365, 237)):
            evaluate.clear_caches()
            for seen in (states, streamed, summed, made):
                seen.clear()
            alpha(row)
            assert len(states) == len(set(states)) == keys, row
            assert (len(summed), len(streamed)) == (transitions, rows_streamed), row
            assert made == streamed, row
    finally:
        evaluate.clear_caches()


def test_no_state_streams_its_own_rows_above(monkeypatch):
    # a state sums rows above its rest, or above its rest's rest, never its
    # own rows above: each would be read once, as the memo holds the state
    counting, count, above = [], enumeration._count, enumeration._above

    def stacking(kernel, gaps):
        counting.append(gaps)
        try:
            return count(kernel, gaps)
        finally:
            counting.pop()

    def reading(kernel, gaps):
        assert gaps != counting[-1], gaps
        return above(kernel, gaps)

    reading.cache_clear = above.cache_clear
    monkeypatch.setattr(enumeration, "_count", stacking)
    monkeypatch.setattr(enumeration, "_above", reading)
    try:
        for row in ((0, 3, 5, 8, 10, 13), mt_bottom(6)):
            evaluate.clear_caches()
            alpha(row)
        for row in (tuple(range(11, 0, -1)), dmt_bottom(5), (7, 4, 4, 3, 3, 2, 2, 1, 1)):
            for statistic in ("plain", "sc", "dd_bar"):
                evaluate.clear_caches()
                enumeration.signed_count(row, enumeration.TriangleClass.DMT, statistic)
    finally:
        evaluate.clear_caches()


def test_w_rows_past_the_last_difference_make_no_state(monkeypatch):
    # the W row (2n, n-1, n-1, ..., 1, 1) has spread 2n - 1, its length, and
    # a pair at its end, so the rotation's zero rule answers 0 at the public
    # entry before the DP makes a state
    states = counting_states(monkeypatch)
    try:
        for n in range(3, 8):
            evaluate.clear_caches()
            assert alpha((2 * n,) + dmt_bottom(n - 1)) == 0, n
            assert not states, n
    finally:
        evaluate.clear_caches()


def test_wide_first_gap_states_do_not_grow_with_the_gap(monkeypatch):
    # a first gap wider than the row is extrapolated from the n narrowest
    # gaps over the same rest, so the states are those of the narrow rows
    states = counting_states(monkeypatch)
    try:
        for row in ((5000, 3, 3, 2, 2, 1, 1), (-5000, 0, 1, 2, 3)):
            evaluate.clear_caches()
            states.clear()
            alpha(row)
            assert len(states) <= 100, row
    finally:
        evaluate.clear_caches()


def test_clear_caches_empties_every_cache():
    evaluate.clear_caches()
    alpha((0, 3, 5, 8, 10, 13))
    alpha((6, 3, 3, 2, 1))
    alpha((2, 0, 3), AlphaMethod.OPERATOR_RECURSION)
    # every cache of the two modules is found, so a new one must be cleared
    caches = {module: [f for f in vars(module).values() if hasattr(f, "cache_info")]
              for module in (enumeration, evaluate)}
    dp, found = caches[enumeration], caches[enumeration] + caches[evaluate]
    assert dp and caches[evaluate]
    assert all(cache.cache_info().currsize for cache in found)
    enumeration.clear_caches()
    assert not any(cache.cache_info().currsize for cache in dp)
    evaluate.clear_caches()
    assert not any(cache.cache_info().currsize for cache in found)


def test_mt_dp_against_row_stream():
    # the DP steps along a first gap and extrapolates one wider than the row;
    # the oracle sums over whole rows from predecessors, memoised on the
    # exact row.  The last rows have an end gap, or both, wider than the row
    MT = enumeration.TriangleClass.MT

    @functools.cache
    def stream(k):
        return 1 if len(k) == 1 else sum(stream(l) for l, _ in enumeration.predecessors(k, MT))

    rng = random.Random(7)
    rows = [tuple(sorted(rng.sample(range(-8, 8), rng.randint(2, 6)))) for _ in range(40)]
    rows += [(0, 1, 2, 14), (-12, 0, 1, 3, 4), (-9, 0, 1, 2, 12), (0, 9, 10, 11, 13), (0, 7)]
    evaluate.clear_caches()
    for k in rows:
        assert alpha(k, AlphaMethod.MONOTONE_DP) == stream(k), k


def test_wide_increasing_rows():
    assert alpha(tuple(range(2, 17, 2))) == 8878734657276
    assert alpha((1, 5, 9, 14, 20, 30)) == 1279985542406


def test_wide_four_entry_row_is_a_closed_form():
    # a 4-entry monotone row is alpha's closed form at any width: no DP
    # state sums the 100000 rows above its rest
    evaluate.clear_caches()
    start = time.perf_counter()
    assert alpha((0, 1, 100000, 100001)) == 33336000046666400002
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("row, value", [
    ((0, 1, 2, 100000, 100001), 97233889223606777618335400002),
    ((0, 1, 100000, 100001, 100003), 194483613834793889289580925028),
])
def test_wide_five_entry_row_is_a_closed_form(row, value):
    # a 5-entry monotone row is alpha's closed form at any width too: the DP
    # summed the rows above (2, 100000, 100001) for the first row, in about
    # 3 s and 216 MB, and did not finish the second
    evaluate.clear_caches()
    start = time.perf_counter()
    assert alpha(row) == value
    assert time.perf_counter() - start < 1


def test_dp_just_above_the_closed_forms():
    # every 6-entry row of a small box, counted by the DP, whose rests are
    # 5-entry closed forms, against the operator recursion: the strictly
    # increasing rows from 0..8 and the weakly decreasing triple-free rows
    # from 6..1
    mt = list(combinations(range(9), 6))
    dmt = [k[::-1] for k in combinations_with_replacement(range(1, 7), 6)
           if max(Counter(k).values()) < 3]
    assert (len(mt), len(dmt)) == (84, 141)
    evaluate.clear_caches()
    for rows, method in ((mt, AlphaMethod.MONOTONE_DP), (dmt, AlphaMethod.SIGNED_DMT_DP)):
        for k in rows:
            assert alpha(k, method) == alpha(k, AlphaMethod.OPERATOR_RECURSION), k


@pytest.mark.long
def test_staircase_15():
    # equals (-1)^7 alpha(7; 2, 4, ..., 14), the conjecture at m = 7
    assert alpha(tuple(range(15, 0, -1))) == -5382618660


@pytest.mark.long
def test_conjecture_at_m_8():
    # alpha(2m+1; 2m+1, ..., 1) = (-1)^m alpha(m; 2, 4, ..., 2m) at m = 8,
    # past the cap of the conjecture identity: the rotated DMT DP on the
    # left, the monotone DP on the right
    left = alpha(tuple(range(17, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
    assert left == alpha(tuple(range(2, 17, 2)), AlphaMethod.MONOTONE_DP) == STAIRCASE_TABLE[17]


@pytest.mark.long
def test_strategies_agree_on_a_seeded_grid():
    # on monotone and decreasing rows, n = 3..6: the DP against the operator
    # recursion, the rotation and the mirror with the operator recursion on
    # both sides, and the recursion applied to the DP one size down
    rng = random.Random(2011)
    op = functools.partial(alpha, method=AlphaMethod.OPERATOR_RECURSION, op_max_spread=16)
    rows = []
    for n in range(3, 7):
        for _ in range(75):
            rows.append(tuple(sorted(rng.sample(range(11), n))))
            rows.append(tuple(sorted((rng.randint(0, 10) for _ in range(n)), reverse=True)))
    try:
        evaluate.clear_caches()
        for k in rows:
            n, value = len(k), alpha(k)
            assert op(k) == value, k
            assert (-1) ** (n - 1) * op(k[1:] + (k[0] - n,)) == value, k
            assert op(tuple(-x for x in reversed(k))) == value, k
            assert sum_operator(lambda *l: alpha(l), k) == value, k
    finally:
        evaluate.clear_caches()


def test_cache_limit_keeps_results_correct(monkeypatch):
    tiny_lookup = functools.lru_cache(maxsize=2)(enumeration._lookup.__wrapped__)
    tiny_op = functools.lru_cache(maxsize=2)(evaluate._alpha_op.__wrapped__)
    tiny_terms = functools.lru_cache(maxsize=2)(evaluate._op_terms.__wrapped__)
    tiny_above = functools.lru_cache(maxsize=2)(enumeration._above.__wrapped__)
    monkeypatch.setattr(enumeration, "_lookup", tiny_lookup)
    monkeypatch.setattr(enumeration, "_above", tiny_above)
    monkeypatch.setattr(evaluate, "_alpha_op", tiny_op)
    monkeypatch.setattr(evaluate, "_op_terms", tiny_terms)
    assert alpha((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP) == 16939
    assert alpha((6, 3, 3, 2, 1), AlphaMethod.SIGNED_DMT_DP) == 3
    assert alpha((2, 4, 5, 8, 9), AlphaMethod.OPERATOR_RECURSION) == 16939
    # a W-row steps along its first gap over rests read from the rows-above memo
    assert alpha((7, 4, 4, 3, 3, 2, 2, 1, 1)) == refined_asm(5, 3) == 135
    assert 0 < tiny_above.cache_info().currsize <= 2
    assert 0 < tiny_lookup.cache_info().currsize <= 2
    assert tiny_op.cache_info().currsize <= 2
    assert 0 < tiny_terms.cache_info().currsize <= 2


# difference operators -------------------------------------------------------

def test_difference_operator_basics():
    assert forward_difference_power(lambda x: 7, 1, 3) == 0
    assert forward_difference_power(lambda x: x * x, 2, 0) == 2
    assert forward_difference_power(lambda x: x * x, 0, 5) == 25


# refined ASM numbers ---------------------------------------------------------

def test_refined_asm_rows():
    for n, row in REFINED.items():
        assert tuple(refined_asm(n, i) for i in range(1, n + 1)) == row
    assert sum(refined_asm(4, i) for i in range(1, 5)) == 42


def test_refined_asm_against_brute_force():
    for n in (1, 2, 3, 4):
        hist = [0] * n
        for rows in brute_asms(n):
            hist[rows[0].index(1)] += 1
        assert tuple(hist) == REFINED[n]


def test_refined_asm_range_errors():
    with pytest.raises(InvalidInputError):
        refined_asm(3, 0)
    with pytest.raises(InvalidInputError):
        refined_asm(3, 4)


# W and X numbers -------------------------------------------------------------

def test_w_x_goldens():
    assert W_number(1, 1) == 1
    assert W_number(2, 2) == 0
    assert W_number(4, 3) == 7
    assert X_number(1, 1) == 1
    assert X_number(2, 1) == -1
    assert X_number(4, 3) == -7 + 2 * 14 - 14


def test_w_equals_x():
    for n in range(1, 5):
        for i in range(1, 2 * n):
            assert W_number(n, i) == X_number(n, i), (n, i)


def test_w_symmetry():
    for n in range(1, 5):
        sign = 1 if (n - 1) % 2 == 0 else -1
        for i in range(1, 2 * n):
            assert W_number(n, i) == sign * W_number(n, 2 * n - i)


def test_w_recursion():
    for n in range(2, 6):
        rhs = -sum(binomial(n - 1, i) * W_number(n - 1, i) for i in range(1, n))
        assert W_number(n, 1) == rhs


def test_w_x_range_errors():
    with pytest.raises(InvalidInputError):
        W_number(2, 4)
    with pytest.raises(InvalidInputError):
        X_number(2, 0)


def test_theorem_refined_connection():
    # alpha(2n-1; n-1+i, n-1, n-1, ..., 1, 1) = (-1)^(n-1) A(n, i)
    for n in range(1, 5):
        tail = tuple(v for x in range(n - 1, 0, -1) for v in (x, x))
        sign = 1 if (n - 1) % 2 == 0 else -1
        for i in range(1, 2 * n):
            expected = sign * (refined_asm(n, i) if i <= n else 0)
            assert alpha((n - 1 + i,) + tail, AlphaMethod.SIGNED_DMT_DP) == expected


def test_reciprocity_chain():
    for n in range(1, 5):
        a = alpha(dmt_bottom(n), AlphaMethod.SIGNED_DMT_DP)
        b = alpha(mt_bottom(n), AlphaMethod.MONOTONE_DP)
        assert a == b == ASM_COUNTS[n - 1]


def test_conjectured_staircase_connection():
    for m in range(1, 5):
        left = alpha(tuple(range(2 * m + 1, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
        right = alpha(tuple(range(2, 2 * m + 1, 2)), AlphaMethod.MONOTONE_DP)
        assert left == (-1) ** m * right
    assert alpha(tuple(range(9, 0, -1))) == 646
