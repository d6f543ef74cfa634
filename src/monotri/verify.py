"""Cross-module identity verification.

Each identity id names one equality (or family of equalities) between
independently computed quantities; ``verify`` runs the checks at desk scale
and returns a report rather than asserting.  Randomized identities take a
seed so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from itertools import product

from . import enumeration, exactla, transform
from .core import SignMatrix, TriangularArray, _dmt_bottom, _mt_bottom, has_triple, triangle_stats
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

TABLE_VALUES = {3: -1, 5: 3, 7: -26, 9: 646, 11: -45885, 13: 9304650}


def _w_row(n, i):
    return (n - 1 + i,) + _dmt_bottom(n - 1)


def _asm_total(n):
    if n == 0:
        return 1
    return sum(refined_asm(n, i) for i in range(1, n + 1))


def _wdec(length, lo, hi):
    for combo in product(range(hi, lo - 1, -1), repeat=length):
        if all(a >= b for a, b in zip(combo, combo[1:])):
            yield combo


def _run_theorem1(params, rng):
    hi, max_len = params["max_entry"], params["max_len"]
    rows = []
    for m in range(1, max_len + 1):
        for k in _wdec(m, 1, hi):
            if has_triple(k):
                signed = 0
            else:
                signed = enumeration.signed_count(k, TriangleClass.DMT, "dd_with_prefactor")
            op = alpha(k, AlphaMethod.OPERATOR_RECURSION)
            rows.append((f"signed dd enumeration = alpha at {k}", op, signed))
    return rows


def _run_theorem2(params, rng):
    n_max = params["n_max"]
    rows = []
    for n in range(1, n_max + 1):
        sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            expected = sign * (refined_asm(n, i) if i <= n else 0)
            got = alpha(_w_row(n, i), AlphaMethod.SIGNED_DMT_DP)
            rows.append((f"alpha(2n-1; n-1+i, ...) n={n} i={i}", expected, got))
    for n in range(1, min(n_max, 4) + 1):
        hist = [0] * n
        for m in enumeration.enum_matrices("asm", n):
            hist[m.entries[0].index(1)] += 1
        for i in range(1, n + 1):
            rows.append((f"first-row refined count n={n} i={i}", refined_asm(n, i), hist[i - 1]))
    return rows


def _run_reciprocity(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        a = alpha(_dmt_bottom(n), AlphaMethod.SIGNED_DMT_DP)
        b = alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP)
        c = sum(1 for _ in enumeration.enum_matrices("asm", n))
        rows.append((f"alpha(2n; n,n,...,1,1) = alpha(n; 1..n) at n={n}", b, a))
        rows.append((f"alpha(n; 1..n) = ASM count at n={n}", c, b))
    return rows


def _run_wni(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        for i in range(1, 2 * n):
            rows.append((f"W = X at n={n} i={i}", X_number(n, i), W_number(n, i)))
    return rows


def _run_symmetry(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            rows.append(
                (f"W(n,i) = (-1)^(n-1) W(n,2n-i) at n={n} i={i}",
                 sign * W_number(n, 2 * n - i), W_number(n, i))
            )
    return rows


def _eigen_rows(params, vector_fn, label):
    rows = []
    for n in range(1, params["n_max"] + 1):
        m = exactla.build_matrix("eigenm", n)
        vec = tuple(vector_fn(n, i) for i in range(1, 2 * n))
        image = exactla.mat_vec(m, vec)
        for i, (want, got) in enumerate(zip(vec, image), start=1):
            rows.append((f"(M {label})_{i} = {label}_{i} at n={n}", want, got))
    return rows


def _run_les(params, rng):
    return _eigen_rows(params, W_number, "W")


def _run_eigen_x(params, rng):
    return _eigen_rows(params, X_number, "X")


def _run_eigen(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        rank = exactla.rank_exact(exactla.build_matrix("s", n))
        rows.append((f"rank(S) = 2n-2 at n={n}", 2 * n - 2, rank))
    for n in range(2, params["n_max"] + 1):
        det = exactla.det_exact(exactla.build_matrix("sprime", n))
        sign = -1 if (n - 1) % 2 else 1
        rows.append((f"det(S') = (-1)^(n-1) A_(n-1) at n={n}", sign * _asm_total(n - 1), det))
    return rows


def _run_recursion(params, rng):
    rows = []
    for n in range(2, params["n_max"] + 1):
        rhs = -sum(binomial(n - 1, i) * W_number(n - 1, i) for i in range(1, n))
        rows.append((f"W(n,1) recursion at n={n}", W_number(n, 1), rhs))
    return rows


def _run_vanishing(params, rng):
    n, hi = params["n"], params["max_entry"]
    rows = []
    for k in _wdec(n, 1, hi):
        if has_triple(k):
            rows.append((f"alpha{k} = 0", 0, alpha(k, AlphaMethod.OPERATOR_RECURSION)))
    return rows


def _random_poly(rng, nvars):
    terms = []
    for _ in range(rng.randint(1, 3)):
        coef = rng.randint(-3, 3) or 1
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms.append((coef, exps))

    def poly(*args):
        return sum(c * _monomial(args, e) for c, e in terms)

    return poly


def _monomial(args, exps):
    v = 1
    for a, e in zip(args, exps):
        v *= a**e
    return v


def _random_wdec_row(rng, max_len, hi):
    while True:
        m = rng.randint(2, max_len)
        row = tuple(sorted((rng.randint(1, hi) for _ in range(m)), reverse=True))
        if not has_triple(row):
            return row


def _run_lemma2(params, rng):
    rows = []
    for s in range(params["samples"]):
        k = _random_wdec_row(rng, params["max_len"], params["max_entry"])
        poly = _random_poly(rng, len(k) - 1)
        op = sum_operator(poly, k, 5)
        signed = 0
        for row, sc in enumeration.predecessors(k, TriangleClass.DMT):
            signed += (-1 if sc % 2 else 1) * poly(*row)
        rows.append((f"operator = signed predecessor sum, sample {s} at {k}", op, signed))
    return rows


def _run_stats_parity(params, rng):
    hi, max_len = params["max_entry"], params["max_len"]
    rows = []
    for m in range(1, max_len + 1):
        for k in _wdec(m, 1, hi):
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
            rows.append((f"sc/dd parity and peak pairing over {k}", total, good))
    return rows


def _run_conjbij(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        signed = enumeration.signed_count(_dmt_bottom(n), TriangleClass.DMT, "dd_bar")
        rows.append(
            (f"dd_bar-signed sum = alpha(n; 1..n) at n={n}",
             alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP), signed)
        )
    return rows


def _run_table(params, rng):
    rows = []
    for n in range(3, params["n_max"] + 1, 2):
        got = alpha(tuple(range(n, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
        rows.append((f"alpha(n; n,...,1) at n={n}", TABLE_VALUES[n], got))
    for n in (4, 6):
        if n <= params["n_max"]:
            got = alpha(tuple(range(n, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
            rows.append((f"alpha(n; n,...,1) at even n={n}", 0, got))
    return rows


def _run_conjecture(params, rng):
    rows = []
    for m in range(1, params["m_max"] + 1):
        left = alpha(tuple(range(2 * m + 1, 0, -1)), AlphaMethod.SIGNED_DMT_DP)
        right = alpha(tuple(range(2, 2 * m + 1, 2)), AlphaMethod.MONOTONE_DP)
        if m % 2:
            right = -right
        rows.append((f"alpha(2m+1; ...) = (-1)^m alpha(m; 2,4,...,2m) at m={m}", right, left))
    return rows


def _run_behrend(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        det = exactla.det_exact(exactla.build_matrix("behrend", n))
        rows.append((f"Behrend determinant = ASM count at n={n}", _asm_total(n), det))
    for n in range(1, min(params["n_max"], 3) + 1):
        count = sum(1 for _ in enumeration.enum_matrices("asm", n))
        rows.append((f"enumerated ASM count at n={n}", _asm_total(n), count))
    return rows


def _run_bijection(params, rng):
    rows = []
    for n in range(1, params["asm_n_max"] + 1):
        total = good = 0
        for m in enumeration.enum_matrices("asm", n):
            total += 1
            t = transform.matrix_to_triangle(m, transform.BijectionKind.MT_ASM)
            if transform.triangle_to_matrix(t, transform.BijectionKind.MT_ASM) == m:
                good += 1
        rows.append((f"ASM <-> triangle roundtrip at n={n}", total, good))
    for n in range(1, params["twoasm_n_max"] + 1):
        total = good = 0
        for m in enumeration.enum_matrices("2asm", n):
            total += 1
            t = transform.matrix_to_triangle(m, transform.BijectionKind.DMT_2ASM)
            if transform.triangle_to_matrix(t, transform.BijectionKind.DMT_2ASM) == m:
                good += 1
        rows.append((f"2-ASM <-> triangle roundtrip at n={n}", total, good))

    golden_m = SignMatrix(SIZE5_2ASM)
    golden_t = TriangularArray(SIZE5_DMT)
    fwd = transform.triangle_to_matrix(golden_t, transform.BijectionKind.DMT_2ASM)
    rev = transform.matrix_to_triangle(golden_m, transform.BijectionKind.DMT_2ASM)
    bytes_ok = serialize(fwd) == serialize(golden_m)
    roundtrip_ok = deserialize(serialize(rev), "triangle") == golden_t
    rows.append(("size-5 reference pair, triangle -> matrix bytes", 1, int(bytes_ok)))
    rows.append(("size-5 reference pair, matrix -> triangle", 1, int(roundtrip_ok)))

    for n in range(1, params["s1_n_max"] + 1):
        members = []
        dd_bar_even = 0
        for t in enumeration.enum_triangles(_dmt_bottom(n), TriangleClass.DMT):
            if transform.is_s1(t):
                members.append(t)
                if triangle_stats(t).dd_bar % 2 == 0:
                    dd_bar_even += 1
        rows.append(
            (f"|S1| = alpha(n; 1..n) at n={n}",
             alpha(_mt_bottom(n), AlphaMethod.MONOTONE_DP), len(members))
        )
        rows.append((f"dd_bar even on S1 at n={n}", len(members), dd_bar_even))
        good = sum(1 for t in members if transform.mt_to_s1(transform.s1_to_mt(t)) == t)
        rows.append((f"S1 <-> triangle roundtrip at n={n}", len(members), good))
    return rows


def _run_wni_objects(params, rng):
    rows = []
    for n in range(1, params["n_max"] + 1):
        for i in range(1, 2 * n):
            signed = sum(
                enumeration.wni_object_sign(o) for o in enumeration.enum_wni_objects(n, i)
            )
            rows.append((f"signed W-object sum = W(n,i) at n={n} i={i}", W_number(n, i), signed))
    sample = WniObject(4, 3, SignMatrix(W43_SAMPLE))
    emitted = any(o == sample for o in enumeration.enum_wni_objects(4, 3))
    rows.append(("reference (4,3) object emitted", 1, int(emitted)))
    rows.append(("reference (4,3) object sign", 1, enumeration.wni_object_sign(sample)))
    for n in range(1, params["n_max"] + 1):
        sign = -1 if (n - 1) % 2 else 1
        for i in range(1, 2 * n):
            total = good = 0
            for o in enumeration.enum_wni_objects(n, i):
                total += 1
                mirrored = WniObject(n, 2 * n - i, transform.reflect_rows(o.matrix))
                if enumeration.wni_object_sign(mirrored) == sign * enumeration.wni_object_sign(o):
                    good += 1
            rows.append((f"reflection sign covariance at n={n} i={i}", total, good))
    return rows


class _Identity:
    def __init__(self, runner, defaults, limits, primary):
        self.runner = runner
        self.defaults = defaults
        self.limits = limits
        self.primary = primary


IDENTITIES = {
    "theorem1": _Identity(_run_theorem1, {"max_entry": 4, "max_len": 4},
                          {"max_entry": 6, "max_len": 5}, "max_len"),
    "theorem2": _Identity(_run_theorem2, {"n_max": 4}, {"n_max": 5}, "n_max"),
    "reciprocity": _Identity(_run_reciprocity, {"n_max": 4}, {"n_max": 5}, "n_max"),
    "wni": _Identity(_run_wni, {"n_max": 4}, {"n_max": 6}, "n_max"),
    "symmetry": _Identity(_run_symmetry, {"n_max": 4}, {"n_max": 6}, "n_max"),
    "les": _Identity(_run_les, {"n_max": 5}, {"n_max": 6}, "n_max"),
    "eigen": _Identity(_run_eigen, {"n_max": 5}, {"n_max": 8}, "n_max"),
    "eigen_x": _Identity(_run_eigen_x, {"n_max": 5}, {"n_max": 6}, "n_max"),
    "recursion": _Identity(_run_recursion, {"n_max": 5}, {"n_max": 6}, "n_max"),
    "vanishing": _Identity(_run_vanishing, {"n": 4, "max_entry": 3},
                           {"n": 5, "max_entry": 4}, "n"),
    "lemma2": _Identity(_run_lemma2, {"samples": 30, "seed": 0, "max_len": 4, "max_entry": 4},
                        {"samples": 10000, "seed": 2**63, "max_len": 5, "max_entry": 6},
                        "samples"),
    "stats_parity": _Identity(_run_stats_parity, {"max_entry": 4, "max_len": 4},
                              {"max_entry": 5, "max_len": 5}, "max_len"),
    "conjbij": _Identity(_run_conjbij, {"n_max": 3}, {"n_max": 4}, "n_max"),
    "table": _Identity(_run_table, {"n_max": 9}, {"n_max": 13}, "n_max"),
    "conjecture": _Identity(_run_conjecture, {"m_max": 3}, {"m_max": 5}, "m_max"),
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
    merged = dict(ident.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise InvalidInputError(f"identity {identity_id!r} has no parameter {key!r}")
        merged[key] = int(value)
    start = time.perf_counter()
    for key, cap in ident.limits.items():
        if merged[key] > cap or merged[key] < 0:
            return VerificationReport(
                identity_id, merged, SKIPPED, (),
                (time.perf_counter() - start) * 1000.0,
                reason=f"{key}={merged[key]} outside supported range [0, {cap}]",
            )
    rng = random.Random(merged.get("seed", 0))
    details = tuple(ident.runner(merged, rng))
    status = VERIFIED if all(e == a for _, e, a in details) else FAILED
    reason = None
    if identity_id == "table" and merged["n_max"] < 13:
        reason = "rows above n_max are opt-in long-running checks (largest supported: 13)"
    elif identity_id == "conjecture" and merged["m_max"] < 5:
        reason = "cases above m_max are opt-in long-running checks (largest supported: 5)"
    return VerificationReport(
        identity_id, merged, status, details, (time.perf_counter() - start) * 1000.0,
        reason=reason,
    )
