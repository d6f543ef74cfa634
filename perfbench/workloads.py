"""The three benchmark workloads: seeded inputs, the timed op, exact oracles.

Each workload class has

* ``ops``: the op descriptors, plain tuples built from the seed; their
  digest (``inputs_digest``) identifies the inputs a run measured;
* ``start_pass()`` / ``start_op(op)``: untimed work before a pass / an op;
* ``run(op)``: the timed op, returning a plain comparable result;
* ``expect(op)``: the exact expected result, computed after the timed phase
  by a route independent of the one ``run`` took, leaving the memo tables
  empty so that checking never warms a timed op;
* ``ok(result, expected)`` and ``checks(result)``: whether the result is
  right, and how many exact checks it carries.

Ops call the package through module attributes (``evaluate.alpha``), so the
traced run sees the same calls through its patched names.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random

from monotri import enumeration, evaluate, transform
from monotri.enumeration import TriangleClass
from monotri.transform import BijectionKind

# the package namespace rebinds these names to functions; take the modules
serialize_mod = importlib.import_module("monotri.serialize")
verify_mod = importlib.import_module("monotri.verify")

VERIFIED = "Verified"
# guards for the operator-recursion oracle: wider than the defaults so that
# the seeded MT rows (spread up to 13) are checked by it
ORACLE_OP_MAX_N = 6
ORACLE_OP_MAX_SPREAD = 16


def clear_memo() -> None:
    evaluate.clear_caches()
    enumeration.clear_caches()


def asm_count(n: int) -> int:
    return sum(evaluate.refined_asm(n, i) for i in range(1, n + 1))


def staircase(n):
    return tuple(range(n, 0, -1))


def doubled_staircase(n):
    return tuple(v for x in range(n, 0, -1) for v in (x, x))


def w_row(n, i):
    return (n - 1 + i,) + doubled_staircase(n - 1)


def _gapped_row(rng, n, gap_sum, max_gap=4):
    while True:
        gaps = [rng.randint(1, max_gap) for _ in range(n - 1)]
        if sum(gaps) == gap_sum:
            break
    row = [rng.randint(-9, 9)]
    for g in gaps:
        row.append(row[-1] + g)
    return tuple(row)


def _monotone(k) -> bool:
    return all(a < b for a, b in zip(k, k[1:])) or all(a >= b for a, b in zip(k, k[1:]))


def inputs_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


class AlphaCold:
    """Independent ``alpha`` evaluations, each on empty memo tables.

    65 ops: 43 fixed DMT-DP rows, 12 seeded MT-DP rows, 10 seeded
    non-monotone rows.  The seeded MT rows (20-40 ms) sit between the median
    op and the ops around the 90th percentile, the non-monotone rows (under
    4 ms) below all of them, so the seed moves neither percentile.
    """

    name = "alpha-cold"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ops = [("staircase", (n,), staircase(n)) for n in range(5, 11)]
        ops += [("doubled", (n,), doubled_staircase(n)) for n in range(3, 8)]
        ops += [("w", (n, i), w_row(n, i)) for n in range(3, 7) for i in range(1, 2 * n)]
        # gaps of 1..4 with a fixed sum keep each MT row's cost within +-30%
        ops += [("mt", (), _gapped_row(rng, 5, 13)) for _ in range(6)]
        ops += [("mt", (), _gapped_row(rng, 6, 11)) for _ in range(6)]
        for _ in range(10):
            while True:
                row = tuple(rng.randint(0, 8) for _ in range(4))
                if not _monotone(row):
                    break
            shift = rng.randint(-9, 9)
            ops.append(("nm", (), tuple(x + shift for x in row)))
        rng.shuffle(ops)
        self.ops = ops

    def start_pass(self):
        pass

    def start_op(self, op):
        clear_memo()

    def run(self, op):
        return evaluate.alpha(op[2])

    def expect(self, op):
        kind, params, row = op
        if kind == "staircase":
            (n,) = params
            return verify_mod.TABLE_VALUES[n] if n % 2 else 0
        if kind == "doubled":
            return asm_count(params[0])
        if kind == "w":
            n, i = params
            sign = -1 if (n - 1) % 2 else 1
            return sign * evaluate.refined_asm(n, i) if i <= n else 0
        if kind == "mt":
            value = evaluate.alpha(
                row, "op", op_max_n=ORACLE_OP_MAX_N, op_max_spread=ORACLE_OP_MAX_SPREAD
            )
        else:
            value = evaluate.sum_operator(lambda *l: evaluate.alpha(l), row, variant=9)
        clear_memo()
        return value

    def ok(self, result, expected):
        return result == expected

    def checks(self, result):
        return 1


class VerifySuite:
    """All 18 identities in ``IDENTITIES`` order at their supported upper
    parameters (``table`` at n = 11), memo tables cleared once per pass."""

    name = "verify-suite"

    def __init__(self, seed: int):
        ops = []
        for identity, spec in verify_mod.IDENTITIES.items():
            params = dict(spec.limits)
            if identity == "table":
                params["n_max"] = 11
            if "seed" in params:
                params["seed"] = seed % params["seed"]
            ops.append((identity, tuple(sorted(params.items()))))
        self.ops = ops

    def start_pass(self):
        clear_memo()

    def start_op(self, op):
        pass

    def run(self, op):
        report = verify_mod.verify(op[0], dict(op[1]))
        return report.status, report.details

    def expect(self, op):
        # the same identity on cold memo tables: warm reuse must not change a row
        clear_memo()
        report = verify_mod.verify(op[0], dict(op[1]))
        clear_memo()
        return VERIFIED, report.details

    def ok(self, result, expected):
        return result == expected and bool(result[1])

    def checks(self, result):
        return len(result[1])


def _roundtrip(obj, kind):
    return serialize_mod.deserialize(serialize_mod.serialize(obj), kind) == obj


def _mt_candidate(rng, gap_sum):
    row = _gapped_row(rng, 4, gap_sum)
    return row, evaluate.alpha(row)


def _dmt_candidate(rng):
    while True:
        row = tuple(sorted((rng.randint(1, 6) for _ in range(8)), reverse=True))
        if max(row.count(v) for v in row) <= 2:
            return row, enumeration.signed_count(row, TriangleClass.DMT, "plain")


def _windowed_rows(count, window, candidate, attempts=2000):
    # stream sizes within a window keep the seeded cases' cost steady; with a
    # correct package about one DMT candidate in eight is accepted
    rows = []
    for _ in range(attempts):
        row, size = candidate()
        if window[0] <= size <= window[1]:
            rows.append(row)
            if len(rows) == count:
                clear_memo()
                return rows
    raise RuntimeError(f"no {count} rows with stream sizes in {window} in {attempts} tries")


class Enumerate:
    """Exhaustive streams, each object serialized to JSON and read back, each
    matrix mapped to its triangle and back.

    45 cases: ASMs n <= 6, 2-ASMs n <= 5, W-objects n <= 5 for every i, and
    9 triangle streams at seeded rows whose sizes are held in windows: two
    large MT streams (above the ASMs of n = 5), three small MT and four DMT
    streams (between the ASMs of n = 4 and the 2-ASMs of n = 4).  The median
    and 90th-percentile cases are then fixed ones whatever the seed.
    """

    name = "enumerate"

    # (count, gap sum of the n = 4 rows, window on the number of triangles)
    MT_STREAMS = ((2, 9, (3100, 3600)), (3, 6, (540, 670)))
    DMT_STREAMS = (4, (80, 140))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ops = [("asm", (n,)) for n in range(1, 7)]
        ops += [("2asm", (n,)) for n in range(1, 6)]
        ops += [("wni", (n, i)) for n in range(1, 6) for i in range(1, 2 * n)]
        for count, gap_sum, window in self.MT_STREAMS:
            ops += [("mt", row) for row in _windowed_rows(
                count, window, lambda: _mt_candidate(rng, gap_sum))]
        count, window = self.DMT_STREAMS
        ops += [("dmt", row) for row in _windowed_rows(count, window, lambda: _dmt_candidate(rng))]
        self.ops = ops

    def start_pass(self):
        pass

    def start_op(self, op):
        pass

    def run(self, op):
        kind, params = op
        out = {"objects": 0, "roundtrip": 0}
        if kind in ("asm", "2asm"):
            bkind = BijectionKind.MT_ASM if kind == "asm" else BijectionKind.DMT_2ASM
            if kind == "2asm":
                out.update(s1=0, s1_roundtrip=0)
            for m in enumeration.enum_matrices(kind, params[0]):
                read = serialize_mod.deserialize(serialize_mod.serialize(m), "matrix")
                t = transform.matrix_to_triangle(read, bkind)
                out["objects"] += 1
                out["roundtrip"] += transform.triangle_to_matrix(t, bkind) == m
                if kind == "2asm" and transform.is_s1(t):
                    out["s1"] += 1
                    out["s1_roundtrip"] += transform.mt_to_s1(transform.s1_to_mt(t)) == t
        elif kind == "wni":
            out["sign_sum"] = 0
            for o in enumeration.enum_wni_objects(*params):
                out["objects"] += 1
                out["roundtrip"] += _roundtrip(o.matrix, "matrix")
                out["sign_sum"] += enumeration.wni_object_sign(o)
        else:
            cls = TriangleClass.MT if kind == "mt" else TriangleClass.DMT
            for t in enumeration.enum_triangles(params, cls):
                out["objects"] += 1
                out["roundtrip"] += _roundtrip(t, "triangle")
        return out

    def expect(self, op):
        kind, params = op
        if kind == "asm":
            return {"objects": asm_count(params[0])}
        if kind == "2asm":
            # 2-ASMs of size n are in bijection with the DMTs on (n,n,...,1,1);
            # the S1 subset is counted by alpha(n; 1..n), the ASM number
            n = params[0]
            value = {
                "objects": enumeration.signed_count(
                    doubled_staircase(n), TriangleClass.DMT, "plain"
                ),
                "s1": asm_count(n),
            }
        elif kind == "wni":
            return {"sign_sum": evaluate.X_number(*params)}
        elif kind == "mt":
            value = {"objects": evaluate.alpha(
                params, "op", op_max_n=ORACLE_OP_MAX_N, op_max_spread=ORACLE_OP_MAX_SPREAD
            )}
        else:
            value = {"objects": enumeration.signed_count(params, TriangleClass.DMT, "plain")}
        clear_memo()
        return value

    def ok(self, result, expected):
        if not isinstance(result, dict):
            return False
        if result["roundtrip"] != result["objects"]:
            return False
        if result.get("s1_roundtrip") != result.get("s1"):
            return False
        return all(result.get(key) == value for key, value in expected.items())

    def checks(self, result):
        return result["objects"]


WORKLOADS = {cls.name: cls for cls in (AlphaCold, VerifySuite, Enumerate)}
