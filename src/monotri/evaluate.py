"""Evaluation of the triangle-counting polynomial alpha(n; k1..kn) and the
derived quantities: extended sums, the summation operator, difference
operators, refined ASM numbers, and the W/X difference numbers.

alpha at strictly increasing arguments counts monotone triangles with that
bottom row; at weakly decreasing arguments it equals the signed enumeration
of decreasing monotone triangles.  It is evaluated by the operator
recursion and by one predecessor-row DP run on two row classes, which the
recursion checks independently wherever their domains overlap:

* ``OPERATOR_RECURSION`` applies the summation operator to alpha one size
  down (valid for any integer vector, exponential in size, guarded),
* ``MONOTONE_DP`` runs the DP over monotone triangle rows,
* ``SIGNED_DMT_DP`` runs it, sign-weighted, over decreasing monotone
  triangle rows.

Both DP methods are the one DP of ``enumeration.signed_count``, described
there, entered through a private form that takes the row shape ``alpha``
has already classified.
The summation operator at a bound vector is a cached table of signed
points, built by the chosen recursion from the tables of shorter vectors;
applying it calls the function once per point.
The operator recursion caches its values apart, keyed by rows shifted to
start at 0, so it never reads the DP's entries and stays an independent
check.  Row and bound entries, sizes and indices must be integers by
``core``'s rule.

All arithmetic is exact and in integers.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from enum import Enum

from . import enumeration
from .core import (
    RowSeqClass,
    _check_size,
    _check_wni,
    _dmt_bottom,
    _int_entries,
    _is_int,
    classify_row_sequence,
)
from .enumeration import _MEMO_ENTRIES, TriangleClass, _signed_count
from .errors import InternalError, InvalidInputError, ResourceLimitError

DEFAULT_OP_MAX_N = 6
DEFAULT_OP_MAX_SPREAD = 12


def binomial(a: int, b: int) -> int:
    """Generalized binomial: arbitrary integer upper argument, 0 for b < 0."""
    a, b = _int_entries((a, b))
    if b < 0:
        return 0
    return math.comb(a, b) if a >= 0 else (-1) ** b * math.comb(b - a - 1, b)


def _ext_range(a: int, b: int):
    """The points of the sum over [a, b] and their sign, for any integer
    bounds: empty when b = a - 1, negated and flipped when b <= a - 2."""
    if b >= a:
        return range(a, b + 1), 1
    return range(b + 1, a), -1


def ext_sum(f, a: int, b: int) -> int:
    """Sum of f over [a, b], extended to all integer bounds as ``_ext_range``."""
    points, sign = _ext_range(*_int_entries((a, b)))
    return sign * sum(f(i) for i in points)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _op_terms(k, variant):
    """The summation operator at ``k`` as a table of signed points: applied to
    ``func`` it is the sum of ``c * func(*point)`` over the ``(point, c)``
    pairs.  Equal points are merged and zero coefficients dropped.  The tuple
    is made from a list: made from a generator it is resized, and cleared
    tables would pile up in the free lists of small tuples."""
    if len(k) == 1:
        return (((), 1),)
    table = Counter()
    if variant == 9:
        points, sign = _ext_range(k[0], k[1] - 1)
        for l, c in _op_terms(k[1:], 9):
            for t in points:
                table[(t,) + l] += sign * c
        for l, c in _op_terms((k[1] + 1,) + k[2:], 9):
            table[(k[1],) + l] += c
    else:  # variant 5
        points, sign = _ext_range(k[-2] + 1, k[-1])
        for l, c in _op_terms(k[:-1], 5):
            for t in points:
                table[l + (t,)] += sign * c
        for l, c in _op_terms(k[:-2] + (k[-2] - 1,), 5):
            table[l + (k[-2],)] += c
    return tuple([(point, c) for point, c in table.items() if c])


def sum_operator(func, k, variant: int = 5) -> int:
    """Apply the summation operator with bound vector ``k`` to ``func``, a
    callable in len(k) - 1 integer arguments: expand it by the chosen
    recursion (5 peels the last bound, 9 the first), call ``func`` once per
    point.  ``variant`` is 5 or 9, an integer by ``core``'s rule."""
    k = _int_entries(k)
    n = len(k)
    if n < 1:
        raise InvalidInputError("bound vector must be non-empty")
    if not (_is_int(variant) and variant in (5, 9)):
        raise InvalidInputError(f"unknown variant {variant!r}")
    if variant == 9 and n < 2:
        raise InvalidInputError("variant 9 needs at least two bounds")
    return sum(c * func(*point) for point, c in _op_terms(k, variant))


class AlphaMethod(Enum):
    AUTO = "auto"
    OPERATOR_RECURSION = "op"
    MONOTONE_DP = "mt"
    SIGNED_DMT_DP = "dmt"


_AUTO_METHOD = {
    RowSeqClass.STRICTLY_INCREASING: AlphaMethod.MONOTONE_DP,
    RowSeqClass.WEAKLY_DECREASING_MULT2: AlphaMethod.SIGNED_DMT_DP,
    RowSeqClass.HAS_TRIPLE: AlphaMethod.SIGNED_DMT_DP,
    RowSeqClass.OTHER: AlphaMethod.OPERATOR_RECURSION,
}


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _alpha_op(k):
    """The operator recursion at ``k``, which has at least two entries and
    starts at 0.  Its table is read once, so it is built uncached, from cached
    tables that start at 0 as well (recursion 5 keeps the first bound)."""
    return sum(c * _alpha_op_at(*point) for point, c in _op_terms.__wrapped__(k, 5))


def _alpha_op_at(*k):
    """alpha at ``k`` by the operator recursion, looked up with ``k`` shifted."""
    if len(k) == 1:
        return 1
    first = k[0]
    return _alpha_op(tuple([x - first for x in k]))


def clear_caches() -> None:
    """Empty the operator's tables, the operator recursion's memo and the DP's."""
    _op_terms.cache_clear()
    _alpha_op.cache_clear()
    enumeration.clear_caches()


def alpha(
    k,
    method: AlphaMethod | str = AlphaMethod.AUTO,
    *,
    op_max_n: int = DEFAULT_OP_MAX_N,
    op_max_spread: int = DEFAULT_OP_MAX_SPREAD,
) -> int:
    """Evaluate alpha(n; k) exactly.

    The operator recursion refuses vectors beyond (op_max_n, op_max_spread).
    """
    k = tuple(k)
    shape = classify_row_sequence(k)
    if not isinstance(method, AlphaMethod):
        try:
            method = AlphaMethod(method)
        except ValueError:
            raise InvalidInputError(f"unknown alpha method {method!r}") from None
    if method is AlphaMethod.AUTO:
        method = _AUTO_METHOD[shape]

    if method is AlphaMethod.MONOTONE_DP:
        return _signed_count(k, TriangleClass.MT, "plain", shape)
    if method is AlphaMethod.SIGNED_DMT_DP:
        if shape is RowSeqClass.HAS_TRIPLE:
            return 0
        return _signed_count(k, TriangleClass.DMT, "sc", shape)

    n = len(k)
    spread = max(k) - min(k)
    if n > op_max_n or spread > op_max_spread:
        raise ResourceLimitError(
            f"operator recursion refused: n={n} (max {op_max_n}), "
            f"spread={spread} (max {op_max_spread})"
        )
    return _alpha_op_at(*k)


def forward_difference_power(g, i: int, x: int) -> int:
    """i-th forward difference of g at x via the binomial expansion."""
    _check_size(i, "i")
    return sum(binomial(i, j) * (-1) ** (i - j) * g(x + j) for j in range(i + 1))


def refined_asm(n: int, i: int) -> int:
    """Number of size-n ASMs whose first row has its unique 1 in column i,
    by the closed product formula: one integer division, which must be exact."""
    _check_size(n, "n", 1)
    _check_size(i, "i", 1, n)
    num = binomial(n + i - 2, n - 1) * math.factorial(2 * n - i - 1)
    den = math.factorial(n - i)
    for j in range(n - 1):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    value, remainder = divmod(num, den)
    if remainder:
        raise InternalError(f"refined ASM count A({n},{i}) did not cancel: {num}/{den}")
    return value


def W_number(n: int, i: int) -> int:
    """(i-1)-st forward difference, at k1 = n, of alpha over bottom rows
    (k1, n-1, n-1, ..., 1, 1); every evaluated row is weakly decreasing."""
    _check_wni(n, i)
    tail = _dmt_bottom(n - 1)

    def g(x):
        return alpha((x,) + tail, AlphaMethod.SIGNED_DMT_DP)

    return forward_difference_power(g, i - 1, n)


def X_number(n: int, i: int) -> int:
    """Signed binomial combination of the refined ASM numbers; the closed
    form that the W numbers must match.  Terms beyond l = n are absent
    (the refined count vanishes there)."""
    _check_wni(n, i)
    total = 0
    for l in range(1, min(i, n) + 1):
        sign = -1 if (n + i + l - 1) % 2 else 1
        total += binomial(i - 1, l - 1) * sign * refined_asm(n, l)
    return total
