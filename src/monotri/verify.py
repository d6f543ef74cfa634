"""Cross-module identity verification.

Each identity id names one equality (or family of equalities) between
independently computed quantities; ``verify`` runs the checks at desk scale
and returns a report rather than asserting.  Each identity is one
``_Identity`` record: a runner that takes the parameters and yields the
detail rows, default and largest supported parameters, the parameter
``--n`` sets, and a note for reports whose primary parameter is below its
largest value, which leave opt-in checks out.  Parameters are integers by
``core``'s rule; one outside ``[0, largest]`` gives a Skipped report, and
so does a run that yields no detail rows.
``lemma2`` draws its samples from its ``seed`` parameter, all at once: the
bottom rows with one weighted ``random.choices`` call over every weakly
decreasing row of 2..max_len entries from 1..max_entry with no triple, at
the law of drawing m uniform in 2..max_len and m uniform entries, sorted,
and drawing again on a triple (``_lemma2_rows``); then, for each sample, a
polynomial in len(row) - 1 variables of 1, 2 or 3 terms, uniform, each with
a coefficient uniform in -3..3 read as 1 at 0 and exponents uniform in 0..2,
drawn in one call per kind.
"""

from __future__ import annotations

import functools
import math
import random
import time
from itertools import combinations_with_replacement, islice, product
from typing import Callable, Iterator, NamedTuple

from . import enumeration, exactla, transform
from .core import (
    SignMatrix,
    TriangularArray,
    _dmt_bottom,
    _is_int,
    _mt_bottom,
    has_triple,
    triangle_stats,
)
from .enumeration import TriangleClass, WniObject
from .errors import InvalidInputError
from .evaluate import AlphaMethod, W_number, X_number, alpha, binomial, refined_asm, sum_operator
from .report import FAILED, SKIPPED, VERIFIED, VerificationReport
from .serialize import deserialize, serialize

# size-5 reference pair: a 10 x 5 2-ASM and its triangle
SIZE5_2ASM = (
    (0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 1, -1, 1, 0),
    (1, -1, 1, 0, 0),
    (1, 0, -1, 0, 1),
    (0, 1, -1, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0),
)
SIZE5_DMT = (
    (3,),
    (3, 3),
    (4, 3, 3),
    (4, 4, 3, 2),
    (4, 4, 3, 3, 1),
    (5, 4, 4, 3, 1, 1),
    (5, 5, 4, 4, 2, 1, 1),
    (5, 5, 4, 4, 2, 2, 1, 1),
    (5, 5, 4, 4, 3, 2, 2, 1, 1),
    (5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
)
# one known object counted by the difference number W(4, 3), with sign +1
W43_SAMPLE = (
    (0, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, -1, 1),
    (1, -1, 0),
    (0, 1, 0),
    (0, 1, 0),
)

TABLE_VALUES = {3: -1, 5: 3, 7: -26, 9: 646, 11: -45885, 13: 9304650, 15: -5382618660,
                17: 8878734657276}


def _w_row(n, i):
    return (n - 1 + i,) + _dmt_bottom(n - 1)


def _asm_total(n):
    return sum(refined_asm(n, i) for i in range(1, n + 1))


def _run_theorem1(params):
    hi, max_len = params["max_entry"], params["max_len"]
    for m in range(1, max_len + 1):
        for k in combinations_with_replacement(range(hi, 0, -1), m):
            if has_triple(k):
                signed = 0
            else:
                signed = enumeration.signed_count(k, TriangleClass.DMT, "dd_with_prefactor")
            op = alpha(k, AlphaMethod.OPERATOR_RECURSION)
            yield (f"signed dd enumeration = alpha at {k}", op, signed)


def _run_theorem2(params):
    n_max = params["n_max"]
    for n in range(1, n_max + 1):
        sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            expected = sign * (refined_asm(n, i) if i <= n else 0)
            got = alpha(_w_row(n, i), AlphaMethod.SIGNED_DMT_DP)
            yield (f"alpha(2n-1; n-1+i, ...) n={n} i={i}", expected, got)
    for n in range(1, min(n_max, 4) + 1):
        hist = [0] * n
        for m in enumeration.enum_matrices("asm", n):
            hist[m.entries[0].index(1)] += 1
        for i in range(1, n + 1):
            yield (f"first-row refined count n={n} i={i}", refined_asm(n, i), hist[i - 1])


def _run_reciprocity(params):
    for n in range(1, params["n_max"] + 1):
        a = alpha(_dmt_bottom(n), AlphaMethod.SIGNED_DMT_DP)
        b = alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP)
        c = sum(1 for _ in enumeration.enum_matrices("asm", n))
        yield (f"alpha(2n; n,n,...,1,1) = alpha(n; 1..n) at n={n}", b, a)
        yield (f"alpha(n; 1..n) = ASM count at n={n}", c, b)


def _run_wni(params):
    for n in range(1, params["n_max"] + 1):
        for i in range(1, 2 * n):
            yield (f"W = X at n={n} i={i}", X_number(n, i), W_number(n, i))


def _run_symmetry(params):
    for n in range(1, params["n_max"] + 1):
        sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            yield (f"W(n,i) = (-1)^(n-1) W(n,2n-i) at n={n} i={i}",
                   sign * W_number(n, 2 * n - i), W_number(n, i))


def _run_eigenvector(vector_fn, label, params):
    for n in range(1, params["n_max"] + 1):
        m = exactla.build_matrix("eigenm", n)
        vec = tuple(vector_fn(n, i) for i in range(1, 2 * n))
        image = exactla.mat_vec(m, vec)
        for i, (want, got) in enumerate(zip(vec, image), start=1):
            yield (f"(M {label})_{i} = {label}_{i} at n={n}", want, got)


def _run_eigen(params):
    for n in range(1, params["n_max"] + 1):
        rank = exactla.rank_exact(exactla.build_matrix("s", n))
        yield (f"rank(S) = 2n-2 at n={n}", 2 * n - 2, rank)
    for n in range(2, params["n_max"] + 1):
        det = exactla.det_exact(exactla.build_matrix("sprime", n))
        sign = -1 if (n - 1) % 2 else 1
        yield (f"det(S') = (-1)^(n-1) A_(n-1) at n={n}", sign * _asm_total(n - 1), det)


def _run_recursion(params):
    for n in range(2, params["n_max"] + 1):
        rhs = -sum(binomial(n - 1, i) * W_number(n - 1, i) for i in range(1, n))
        yield (f"W(n,1) recursion at n={n}", W_number(n, 1), rhs)


def _run_vanishing(params):
    n, hi = params["n"], params["max_entry"]
    for k in combinations_with_replacement(range(hi, 0, -1), n):
        if has_triple(k):
            yield (f"alpha{k} = 0", 0, alpha(k, AlphaMethod.OPERATOR_RECURSION))


# a coefficient uniform in -3..3, with 0 read as 1
_LEMMA2_COEFS = (-3, -2, -1, 1, 1, 2, 3)


def _poly_value(terms, *args):
    return sum([c * math.prod(map(pow, args, exps)) for c, exps in terms])


def _lemma2_rows(max_len, hi):
    """Every weakly decreasing row of 2..max_len entries from 1..hi with no
    triple, and its weight under the rejection sampler that draws m uniform
    in 2..max_len and m uniform entries, sorts them and redraws on a triple:
    a row of m entries, v of them distinct, is m!/2^(m-v) of the hi^m draws
    of m entries, scaled by hi^(max_len-m) to a common denominator."""
    rows, weights = [], []
    for m in range(2, max_len + 1):
        scale = hi ** (max_len - m)
        for row in combinations_with_replacement(range(hi, 0, -1), m):
            if not has_triple(row):
                rows.append(row)
                weights.append((math.factorial(m) >> (m - len(set(row)))) * scale)
    return rows, weights


def _run_lemma2(params):
    samples, max_len = params["samples"], params["max_len"]
    rows, weights = _lemma2_rows(max_len, params["max_entry"])
    if not rows:
        return  # no row of two or more entries from 1..max_entry
    rng = random.Random(params["seed"])
    bottoms = rng.choices(rows, weights, k=samples)
    counts = rng.choices((1, 2, 3), k=samples)
    coefs = rng.choices(_LEMMA2_COEFS, k=sum(counts))
    # a uniform vector's digits are independent, so its cut to a row's arity is uniform
    exps = rng.choices(tuple(product(range(3), repeat=max_len - 1)), k=len(coefs))
    terms = zip(coefs, exps)
    signed_rows = {}
    for s, (k, count) in enumerate(zip(bottoms, counts)):
        arity = len(k) - 1
        poly = functools.partial(
            _poly_value, tuple([(c, e[:arity]) for c, e in islice(terms, count)]))
        if k not in signed_rows:
            signed_rows[k] = [(row, -1 if sc % 2 else 1)
                              for row, sc in enumeration.predecessors(k, TriangleClass.DMT)]
        op = sum_operator(poly, k, 5)
        signed = sum(sign * poly(*row) for row, sign in signed_rows[k])
        yield (f"operator = signed predecessor sum, sample {s} at {k}", op, signed)


def _run_stats_parity(params):
    hi, max_len = params["max_entry"], params["max_len"]
    for m in range(1, max_len + 1):
        for k in combinations_with_replacement(range(hi, 0, -1), m):
            if has_triple(k):
                continue
            total = good = 0
            for t in enumeration.enum_triangles(k, TriangleClass.DMT):
                total += 1
                st = triangle_stats(t)
                n = t.n
                parity_ok = (st.sc % 2) == ((n * (n - 1) // 2 + st.dd) % 2)
                if parity_ok and st.peaks == st.base_pairs:
                    good += 1
            yield (f"sc/dd parity and peak pairing over {k}", total, good)


def _run_conjbij(params):
    for n in range(1, params["n_max"] + 1):
        signed = enumeration.signed_count(_dmt_bottom(n), TriangleClass.DMT, "dd_bar")
        yield (f"dd_bar-signed sum = alpha(n; 1..n) at n={n}",
               alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP), signed)


def _run_table(params):
    for n in range(3, params["n_max"] + 1, 2):
        got = alpha(tuple(range(n, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
        yield (f"alpha(n; n,...,1) at n={n}", TABLE_VALUES[n], got)
    for n in (4, 6):
        if n <= params["n_max"]:
            got = alpha(tuple(range(n, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
            yield (f"alpha(n; n,...,1) at even n={n}", 0, got)


def _run_conjecture(params):
    for m in range(1, params["m_max"] + 1):
        left = alpha(tuple(range(2 * m + 1, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
        right = alpha(tuple(range(2, 2 * m + 1, 2)), AlphaMethod.MONOTONE_DP)
        if m % 2:
            right = -right
        yield (f"alpha(2m+1; ...) = (-1)^m alpha(m; 2,4,...,2m) at m={m}", right, left)


def _run_behrend(params):
    for n in range(1, params["n_max"] + 1):
        det = exactla.det_exact(exactla.build_matrix("behrend", n))
        yield (f"Behrend determinant = ASM count at n={n}", _asm_total(n), det)
    for n in range(1, min(params["n_max"], 3) + 1):
        count = sum(1 for _ in enumeration.enum_matrices("asm", n))
        yield (f"enumerated ASM count at n={n}", _asm_total(n), count)


def _run_bijection(params):
    for cls, label, kind, n_max in (
        ("asm", "ASM", transform.BijectionKind.MT_ASM, params["asm_n_max"]),
        ("2asm", "2-ASM", transform.BijectionKind.DMT_2ASM, params["twoasm_n_max"]),
    ):
        for n in range(1, n_max + 1):
            total = good = 0
            for m in enumeration.enum_matrices(cls, n):
                total += 1
                t = transform.matrix_to_triangle(m, kind)
                if transform.triangle_to_matrix(t, kind) == m:
                    good += 1
            yield (f"{label} <-> triangle roundtrip at n={n}", total, good)

    golden_m = SignMatrix(SIZE5_2ASM)
    golden_t = TriangularArray(SIZE5_DMT)
    fwd = transform.triangle_to_matrix(golden_t, transform.BijectionKind.DMT_2ASM)
    rev = transform.matrix_to_triangle(golden_m, transform.BijectionKind.DMT_2ASM)
    bytes_ok = serialize(fwd) == serialize(golden_m)
    roundtrip_ok = deserialize(serialize(rev), "triangle") == golden_t
    yield ("size-5 reference pair, triangle -> matrix bytes", 1, int(bytes_ok))
    yield ("size-5 reference pair, matrix -> triangle", 1, int(roundtrip_ok))

    for n in range(1, params["s1_n_max"] + 1):
        members = []
        dd_bar_even = 0
        for t in enumeration.enum_triangles(_dmt_bottom(n), TriangleClass.DMT):
            if transform.is_s1(t):
                members.append(t)
                if triangle_stats(t).dd_bar % 2 == 0:
                    dd_bar_even += 1
        yield (f"|S1| = alpha(n; 1..n) at n={n}",
               alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP), len(members))
        yield (f"dd_bar even on S1 at n={n}", len(members), dd_bar_even)
        good = sum(1 for t in members if transform.mt_to_s1(transform.s1_to_mt(t)) == t)
        yield (f"S1 <-> triangle roundtrip at n={n}", len(members), good)


def _run_wni_objects(params):
    # one pass per (n, i) reads each object's sign once for both checks; the
    # covariance rows wait until the reference rows are out
    covariance = []
    for n in range(1, params["n_max"] + 1):
        mirror_sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            signed = total = good = 0
            for o in enumeration.enum_wni_objects(n, i):
                sign = enumeration.wni_object_sign(o)
                mirrored = WniObject(n, 2 * n - i, transform.reflect_rows(o.matrix))
                signed += sign
                total += 1
                good += enumeration.wni_object_sign(mirrored) == mirror_sign * sign
            yield (f"signed W-object sum = W(n,i) at n={n} i={i}", W_number(n, i), signed)
            covariance.append((f"reflection sign covariance at n={n} i={i}", total, good))
    sample = WniObject(4, 3, SignMatrix(W43_SAMPLE))
    emitted = any(o == sample for o in enumeration.enum_wni_objects(4, 3))
    yield ("reference (4,3) object emitted", 1, int(emitted))
    yield ("reference (4,3) object sign", 1, enumeration.wni_object_sign(sample))
    yield from covariance


class _Identity(NamedTuple):
    runner: Callable[[dict], Iterator[tuple[str, int, int]]]
    defaults: dict
    limits: dict
    primary: str
    note: str | None = None

IDENTITIES = {
    "theorem1": _Identity(_run_theorem1, {"max_entry": 4, "max_len": 4},
                          {"max_entry": 6, "max_len": 5}, "max_len"),
    "theorem2": _Identity(_run_theorem2, {"n_max": 4}, {"n_max": 5}, "n_max"),
    "reciprocity": _Identity(_run_reciprocity, {"n_max": 4}, {"n_max": 5}, "n_max"),
    "wni": _Identity(_run_wni, {"n_max": 4}, {"n_max": 6}, "n_max"),
    "symmetry": _Identity(_run_symmetry, {"n_max": 4}, {"n_max": 6}, "n_max"),
    "les": _Identity(functools.partial(_run_eigenvector, W_number, "W"),
                     {"n_max": 5}, {"n_max": 6}, "n_max"),
    "eigen": _Identity(_run_eigen, {"n_max": 5}, {"n_max": 8}, "n_max"),
    "eigen_x": _Identity(functools.partial(_run_eigenvector, X_number, "X"),
                         {"n_max": 5}, {"n_max": 6}, "n_max"),
    "recursion": _Identity(_run_recursion, {"n_max": 5}, {"n_max": 6}, "n_max"),
    "vanishing": _Identity(_run_vanishing, {"n": 4, "max_entry": 3},
                           {"n": 5, "max_entry": 4}, "n"),
    "lemma2": _Identity(_run_lemma2, {"samples": 30, "seed": 0, "max_len": 4, "max_entry": 4},
                        {"samples": 10000, "seed": 2**63, "max_len": 5, "max_entry": 6},
                        "samples"),
    "stats_parity": _Identity(_run_stats_parity, {"max_entry": 4, "max_len": 4},
                              {"max_entry": 5, "max_len": 5}, "max_len"),
    "conjbij": _Identity(_run_conjbij, {"n_max": 3}, {"n_max": 4}, "n_max"),
    "table": _Identity(_run_table, {"n_max": 9}, {"n_max": 17}, "n_max",
                       "rows above n_max are opt-in long-running checks"),
    "conjecture": _Identity(_run_conjecture, {"m_max": 3}, {"m_max": 5}, "m_max",
                            "cases above m_max are opt-in long-running checks"),
    "behrend": _Identity(_run_behrend, {"n_max": 7}, {"n_max": 10}, "n_max"),
    "bijection": _Identity(_run_bijection,
                           {"asm_n_max": 4, "twoasm_n_max": 3, "s1_n_max": 3},
                           {"asm_n_max": 5, "twoasm_n_max": 3, "s1_n_max": 3}, "asm_n_max"),
    "wni_objects": _Identity(_run_wni_objects, {"n_max": 3}, {"n_max": 4}, "n_max"),
}


def verify(identity_id: str, params: dict | None = None) -> VerificationReport:
    """Run one identity's checks; returns a report, never asserts."""
    ident = IDENTITIES.get(identity_id)
    if ident is None:
        raise InvalidInputError(f"unknown identity {identity_id!r}")
    if params is not None and not isinstance(params, dict):
        raise InvalidInputError(f"params must be a dict, got {params!r}")
    merged = dict(ident.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise InvalidInputError(f"identity {identity_id!r} has no parameter {key!r}")
        if not _is_int(value):
            raise InvalidInputError(f"parameter {key!r} must be an integer, got {value!r}")
        merged[key] = value
    start = time.perf_counter()
    for key, cap in ident.limits.items():
        if merged[key] > cap or merged[key] < 0:
            return VerificationReport(
                identity_id, merged, SKIPPED, (),
                (time.perf_counter() - start) * 1000.0,
                reason=f"{key}={merged[key]} outside supported range [0, {cap}]",
            )
    details = tuple(ident.runner(merged))
    status = VERIFIED if all(e == a for _, e, a in details) else FAILED
    cap = ident.limits[ident.primary]
    reason = None
    if not details:
        status, reason = SKIPPED, "no checks at these parameters"
    elif ident.note and merged[ident.primary] < cap:
        reason = f"{ident.note} (largest supported: {cap})"
    return VerificationReport(
        identity_id, merged, status, details, (time.perf_counter() - start) * 1000.0,
        reason=reason,
    )
