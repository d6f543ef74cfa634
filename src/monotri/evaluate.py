"""Evaluation of the triangle-counting polynomial alpha(n; k1..kn) and the
derived quantities: extended sums, the summation operator, difference
operators, refined ASM numbers, and the W/X difference numbers.

alpha at strictly increasing arguments counts monotone triangles with that
bottom row; at weakly decreasing arguments it equals the signed enumeration
of decreasing monotone triangles.  Three independent evaluation strategies
are provided and must agree wherever their domains overlap:

* ``OPERATOR_RECURSION`` expands the summation operator literally (valid for
  any integer vector, exponential in size, guarded),
* ``MONOTONE_DP`` counts monotone triangles by predecessor-row DP,
* ``SIGNED_DMT_DP`` runs the sign-weighted predecessor DP over decreasing
  monotone triangle rows.

Both DPs are the predecessor-row engine of ``enumeration`` (its ``plain``
and ``sc`` kernels).  All strategies memoise in the one table of ``_util``.

All arithmetic is exact; rationals appear only inside ``refined_asm`` and
must cancel.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from ._util import MEMO, cache_put, clear_caches, memo_key  # noqa: F401 (clear_caches re-exported)
from .core import _dmt_bottom, has_triple, is_strictly_increasing, is_weakly_decreasing
from .enumeration import TriangleClass, _count
from .errors import InternalError, InvalidInputError, ResourceLimitError

DEFAULT_OP_MAX_N = 6
DEFAULT_OP_MAX_SPREAD = 12


def binomial(a: int, b: int) -> int:
    """Generalized binomial: arbitrary integer upper argument, 0 for b < 0."""
    if b < 0:
        return 0
    num = 1
    for t in range(b):
        num *= a - t
    return num // math.factorial(b)


def ext_sum(f, a: int, b: int) -> int:
    """Sum of f over [a, b], extended to all integer bounds: empty range when
    b = a - 1, negated flipped range when b <= a - 2."""
    if b >= a:
        return sum(f(i) for i in range(a, b + 1))
    if b == a - 1:
        return 0
    return -sum(f(i) for i in range(b + 1, a))


def _op_apply(func, k, variant):
    n = len(k)
    if n == 1:
        return func()
    if variant == 9:
        def outer(*l):
            return ext_sum(lambda t: func(t, *l), k[0], k[1] - 1)

        def pinned(*l):
            return func(k[1], *l)

        return _op_apply(outer, k[1:], 9) + _op_apply(pinned, (k[1] + 1,) + k[2:], 9)
    if variant == 8 and n >= 3:
        def outer(*l):
            return ext_sum(lambda t: func(*l, t), k[-2], k[-1])

        def doubled(*l):
            return func(*l, k[-2], k[-2])

        return _op_apply(outer, k[:-1], 8) - _op_apply(doubled, k[:-2], 8)
    # base recursion; also the n = 2 base shared by variant 8

    def outer(*l):
        return ext_sum(lambda t: func(*l, t), k[-2] + 1, k[-1])

    def pinned(*l):
        return func(*l, k[-2])

    return _op_apply(outer, k[:-1], variant) + _op_apply(pinned, k[:-2] + (k[-2] - 1,), variant)


def sum_operator(func, k, variant: int = 5) -> int:
    """Apply the summation operator with bound vector ``k`` to ``func``,
    a callable in len(k) - 1 integer arguments, expanding strictly by the
    chosen recursion (5 peels the last bound with an open sum, 8 with a
    closed sum and a doubled correction, 9 peels the first bound)."""
    k = tuple(int(x) for x in k)
    n = len(k)
    if n < 1:
        raise InvalidInputError("bound vector must be non-empty")
    if variant not in (5, 8, 9):
        raise InvalidInputError(f"unknown variant {variant!r}")
    if variant == 8 and n < 3:
        raise InvalidInputError("variant 8 needs at least three bounds")
    if variant == 9 and n < 2:
        raise InvalidInputError("variant 9 needs at least two bounds")
    return _op_apply(func, k, variant)


class AlphaMethod(Enum):
    AUTO = "auto"
    OPERATOR_RECURSION = "op"
    MONOTONE_DP = "mt"
    SIGNED_DMT_DP = "dmt"


def _alpha_op(k):
    if len(k) == 1:
        return 1
    key = memo_key("op", k)
    cached = MEMO.get(key)
    if cached is not None:
        return cached
    value = _op_apply(lambda *l: _alpha_op(l), k, 5)
    cache_put(key, value)
    return value


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
    k = tuple(int(x) for x in k)
    if not k:
        raise InvalidInputError("alpha needs at least one argument")
    if isinstance(method, str):
        try:
            method = AlphaMethod(method)
        except ValueError:
            raise InvalidInputError(f"unknown alpha method {method!r}") from None

    increasing = is_strictly_increasing(k)
    decreasing = is_weakly_decreasing(k)
    if method is AlphaMethod.AUTO:
        if increasing:
            method = AlphaMethod.MONOTONE_DP
        elif decreasing:
            method = AlphaMethod.SIGNED_DMT_DP
        else:
            method = AlphaMethod.OPERATOR_RECURSION

    if method is AlphaMethod.MONOTONE_DP:
        if not increasing:
            raise InvalidInputError("MONOTONE_DP needs a strictly increasing row")
        return _count("plain", k, TriangleClass.MT)

    if method is AlphaMethod.SIGNED_DMT_DP:
        if not decreasing:
            raise InvalidInputError("SIGNED_DMT_DP needs a weakly decreasing row")
        if has_triple(k):
            return 0
        return _count("sc", k, TriangleClass.DMT)

    n = len(k)
    spread = max(k) - min(k)
    if n > op_max_n or spread > op_max_spread:
        raise ResourceLimitError(
            f"operator recursion refused: n={n} (max {op_max_n}), "
            f"spread={spread} (max {op_max_spread})"
        )
    return _alpha_op(k)


def forward_difference_power(g, i: int, x: int, backward: bool = False) -> int:
    """i-th forward difference of g at x via the binomial expansion; with
    ``backward`` the backward operator instead."""
    if i < 0:
        raise InvalidInputError("difference order must be non-negative")
    if backward:
        return sum(binomial(i, j) * (-1) ** j * g(x - j) for j in range(i + 1))
    return sum(binomial(i, j) * (-1) ** (i - j) * g(x + j) for j in range(i + 1))


def refined_asm(n: int, i: int) -> int:
    """Number of size-n ASMs whose first row has its unique 1 in column i,
    by the closed product formula (rational intermediates must cancel)."""
    if n < 1 or not 1 <= i <= n:
        raise InvalidInputError(f"need 1 <= i <= n, got n={n}, i={i}")
    value = Fraction(binomial(n + i - 2, n - 1))
    value *= Fraction(math.factorial(2 * n - i - 1), math.factorial(n - i))
    for j in range(n - 1):
        value *= Fraction(math.factorial(3 * j + 1), math.factorial(n + j))
    if value.denominator != 1:
        raise InternalError(f"refined ASM count A({n},{i}) did not cancel: {value}")
    return int(value)


def W_number(n: int, i: int) -> int:
    """(i-1)-st forward difference, at k1 = n, of alpha over bottom rows
    (k1, n-1, n-1, ..., 1, 1); every evaluated row is weakly decreasing."""
    if n < 1 or not 1 <= i <= 2 * n - 1:
        raise InvalidInputError(f"need 1 <= i <= 2n-1, got n={n}, i={i}")
    tail = _dmt_bottom(n - 1)

    def g(x):
        return alpha((x,) + tail, AlphaMethod.SIGNED_DMT_DP)

    return forward_difference_power(g, i - 1, n)


def X_number(n: int, i: int) -> int:
    """Signed binomial combination of the refined ASM numbers; the closed
    form that the W numbers must match.  Terms beyond l = n are absent
    (the refined count vanishes there)."""
    if n < 1 or not 1 <= i <= 2 * n - 1:
        raise InvalidInputError(f"need 1 <= i <= 2n-1, got n={n}, i={i}")
    total = 0
    for l in range(1, min(i, n) + 1):
        sign = -1 if (n + i + l - 1) % 2 else 1
        total += binomial(i - 1, l - 1) * sign * refined_asm(n, l)
    return total
