import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monotri import (
    AlphaMethod,
    InvalidInputError,
    ResourceLimitError,
    W_number,
    X_number,
    alpha,
    binomial,
    ext_sum,
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


# binomial / ext_sum --------------------------------------------------------

def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(-1, 2) == 1
    assert binomial(3, 5) == 0
    assert binomial(2, 3) == 0  # C(a-1, a) = 0 at a = 3
    assert binomial(4, -1) == 0


@given(st.integers(-30, 30), st.integers(0, 12))
def test_binomial_negation_identity(a, b):
    assert binomial(a, b) == (-1) ** b * binomial(b - a - 1, b)


def test_ext_sum_cases():
    one = lambda i: 1
    assert ext_sum(one, 1, 4) == 4
    assert ext_sum(one, 5, 4) == 0
    assert ext_sum(one, 4, 1) == -2


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
def test_ext_sum_additive(a, b, c):
    f = lambda i: i * i - 3 * i + 1
    assert ext_sum(f, a, b) + ext_sum(f, b + 1, c) == ext_sum(f, a, c)


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
    assert sum_operator(f, k, 8) == v5
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
            assert sum_operator(f, k, 8) == v5, k
        if n >= 2:
            assert sum_operator(f, k, 9) == v5, k


def test_sum_operator_arity_errors():
    with pytest.raises(InvalidInputError):
        sum_operator(lambda a: a, (1, 2), 8)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda: 1, (1,), 9)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda: 1, (), 5)
    with pytest.raises(InvalidInputError):
        sum_operator(lambda a: a, (1, 2), 7)


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


def test_operator_recursion_never_reads_dp_entries():
    from monotri import _util

    try:
        for row, dp in (((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP),
                        ((6, 3, 3, 2, 1), AlphaMethod.SIGNED_DMT_DP)):
            _util.clear_caches()
            want = alpha(row, AlphaMethod.OPERATOR_RECURSION)
            _util.clear_caches()
            alpha(row, dp)
            for key in list(_util.MEMO):
                _util.MEMO[key] += 1  # every DP entry is now wrong
            assert alpha(row, dp) == want + 1
            assert alpha(row, AlphaMethod.OPERATOR_RECURSION) == want
    finally:
        _util.clear_caches()


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


def test_staircase_values():
    for n in (3, 5, 7, 9, 11, 13):
        assert alpha(tuple(range(n, 0, -1))) == STAIRCASE_TABLE[n]
    for n in (4, 6):
        assert alpha(tuple(range(n, 0, -1))) == 0


def test_dp_state_counts():
    # pins the DP's state space: one memo entry per distinct row up to translation
    from monotri import _util

    try:
        for row, states in ((tuple(range(11, 0, -1)), 2460), ((0, 3, 5, 8, 10, 13), 592)):
            _util.clear_caches()
            alpha(row)
            assert len(_util.MEMO) == states, row
    finally:
        _util.clear_caches()


def test_cache_limit_keeps_results_correct():
    from monotri import _util

    old = _util.cache_limit()
    try:
        _util.set_cache_limit(2)
        _util.clear_caches()
        assert alpha((2, 4, 5, 8, 9), AlphaMethod.MONOTONE_DP) == 16939
        assert alpha((6, 3, 3, 2, 1), AlphaMethod.SIGNED_DMT_DP) == 3
        assert alpha((2, 4, 5, 8, 9), AlphaMethod.OPERATOR_RECURSION) == 16939
        assert len(_util.MEMO) <= 2
    finally:
        _util.set_cache_limit(old)
        _util.clear_caches()


# difference operators -------------------------------------------------------

def test_difference_operator_basics():
    assert forward_difference_power(lambda x: 7, 1, 3) == 0
    assert forward_difference_power(lambda x: x * x, 2, 0) == 2
    assert forward_difference_power(lambda x: x * x, 0, 5) == 25


def test_backward_forward_relation():
    g = lambda y: y**3
    for i in (0, 1, 2, 3):
        for x in (-2, 0, 1, 4):
            lhs = forward_difference_power(lambda t: g(-t), i, x, backward=True)
            rhs = (-1) ** i * forward_difference_power(g, i, -x)
            assert lhs == rhs


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
