"""The package's one memo table and its limit.

``MEMO`` maps ``(kernel, row)`` to a count, the row shifted to end in 0:
alpha and the DP's signed counts only compare entries, so they are
invariant under translation.  The kernels are ``"plain"``, ``"sc"``,
``"pair"`` (predecessor DP) and ``"op"`` (operator recursion); none reads
another's entries, so the operator recursion stays an independent oracle.
The table is process-wide, so related evaluations reuse each other's rows,
and write-once, so concurrent writers are harmless under CPython's atomic
dict operations.  ``MONOTRI_CACHE_LIMIT`` (entries, default 2**20) caps
its growth; once it is full, new results are simply not stored.
"""

import os

from .errors import InvalidInputError

DEFAULT_CACHE_LIMIT = 1 << 20

MEMO: dict = {}


def _parse_limit(text: str) -> int:
    if not text.isdecimal():
        raise InvalidInputError(f"MONOTRI_CACHE_LIMIT must be a non-negative integer, got {text!r}")
    return int(text)


_limit = _parse_limit(os.environ.get("MONOTRI_CACHE_LIMIT", str(DEFAULT_CACHE_LIMIT)))


def cache_limit() -> int:
    return _limit


def set_cache_limit(n: int) -> None:
    global _limit
    _limit = int(n)


def memo_key(kernel: str, row: tuple) -> tuple:
    last = row[-1]
    return kernel, tuple([x - last for x in row]) if last else row


def cache_put(key, value) -> None:
    if len(MEMO) < _limit:
        MEMO[key] = value


def clear_caches() -> None:
    MEMO.clear()
