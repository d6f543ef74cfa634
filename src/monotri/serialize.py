"""Serialization of triangles, sign matrices and verification reports.

JSON is the roundtrip format for all three kinds; CSV covers matrices and
report detail tables; text is a human-readable display format.  Integers
are written in decimal at full precision.  A parsed triangle or matrix is
checked once, by its carrier, which applies ``core``'s integer rule to every
entry; its refusal becomes a ``ParseError`` naming the row (and column).
Report fields are checked with the same rule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from .core import SignMatrix, TriangularArray, _is_int
from .errors import InvalidInputError, ParseError
from .report import FAILED, SKIPPED, VERIFIED, VerificationReport

KINDS = ("triangle", "matrix", "report")
FORMATS = ("json", "csv", "text")
_DECIMAL = re.compile("-?[0-9]+")  # a CSV matrix cell: digits, with an optional minus sign


def _report_payload(r: VerificationReport) -> dict:
    payload = {
        "type": "report",
        "identity_id": r.identity_id,
        "parameters": dict(r.parameters),
        "status": r.status,
        "details": [[d, e, a] for d, e, a in r.details],
        "elapsed_ms": r.elapsed_ms,
    }
    if r.reason is not None:
        payload["reason"] = r.reason
    return payload


def _triangle_text(t: TriangularArray) -> str:
    width = max(len(str(x)) for row in t.rows for x in row)
    lines = []
    for i, row in enumerate(t.rows):
        pad = " " * ((t.n - 1 - i) * (width + 1) // 2)
        lines.append(pad + " ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"


def _matrix_text(m: SignMatrix) -> str:
    if m.cols == 0:
        return "\n" * m.rows
    width = max(len(str(x)) for row in m.entries for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m.entries) + "\n"


def _report_text(r: VerificationReport) -> str:
    lines = [f"identity: {r.identity_id}"]
    if r.parameters:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
        lines.append(f"parameters: {params}")
    lines.append(f"status: {r.status}")
    if r.reason:
        lines.append(f"reason: {r.reason}")
    for desc, expected, actual in r.details:
        mark = "ok" if expected == actual else "MISMATCH"
        lines.append(f"  [{mark}] {desc}: expected {expected}, got {actual}")
    lines.append(f"elapsed_ms: {r.elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode()


def serialize(value, format: str = "json") -> bytes:
    if format not in FORMATS:
        raise InvalidInputError(f"unknown format {format!r}")
    if isinstance(value, TriangularArray):
        if format == "json":
            return json.dumps({"type": "triangle", "rows": value.rows}).encode()
        if format == "text":
            return _triangle_text(value).encode()
        raise InvalidInputError("csv is only defined for matrices and report tables")
    if isinstance(value, SignMatrix):
        if format == "json":
            return json.dumps({"type": "matrix", "entries": value.entries}).encode()
        if format == "text":
            return _matrix_text(value).encode()
        return _csv_bytes(value.entries)
    if isinstance(value, VerificationReport):
        if format == "json":
            return json.dumps(_report_payload(value)).encode()
        if format == "text":
            return _report_text(value).encode()
        return _csv_bytes([(d, str(e), str(a)) for d, e, a in value.details])
    raise InvalidInputError(f"cannot serialize {type(value).__name__}")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _rows_from_obj(obj, key, cls):
    """``cls`` built from the list of rows under ``obj[key]``; the carrier
    checks every entry, and its error names the row."""
    rows = obj.get(key)
    if not isinstance(rows, list):
        raise ParseError(f"missing {key!r} list")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"{key}[{i}] is not a list")
    try:
        return cls(rows)
    except InvalidInputError as e:
        raise ParseError(f"{key}: {e}") from None


# what each report field must hold; JSON object keys are always strings
_REPORT_FIELDS = {
    "identity_id": lambda v: isinstance(v, str),
    "parameters": lambda v: isinstance(v, dict) and all(map(_is_int, v.values())),
    "status": lambda v: v in (VERIFIED, FAILED, SKIPPED),
    "elapsed_ms": lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    "reason": lambda v: v is None or isinstance(v, str),
    "details": lambda v: isinstance(v, list) and all(
        isinstance(d, list) and len(d) == 3 and isinstance(d[0], str) and _is_int(d[1])
        and _is_int(d[2]) for d in v),
}


def _report_from_obj(obj):
    for name, ok in _REPORT_FIELDS.items():
        if not ok(obj.get(name)):
            raise ParseError(f"report field {name!r} missing or invalid: {obj.get(name)!r}")
    details = tuple(map(tuple, obj["details"]))
    return VerificationReport(obj["identity_id"], obj["parameters"], obj["status"], details,
                              float(obj["elapsed_ms"]), obj.get("reason"))


def _matrix_from_csv(text: str):
    lines = list(csv.reader(io.StringIO(text)))
    rows = []
    for i, line in enumerate(lines):
        if not line:
            continue
        row = []
        for j, cell in enumerate(line):
            try:
                if not _DECIMAL.fullmatch(cell):
                    raise ValueError(cell)
                row.append(int(cell))
            except ValueError:
                raise ParseError(f"row {i + 1} column {j + 1}: {cell!r} is not an integer") from None
        rows.append(tuple(row))
    if not lines:
        raise ParseError("empty csv matrix")
    if not rows:  # all lines blank: a matrix of no column, one row a line
        rows = [()] * len(lines)
    try:
        return SignMatrix(tuple(rows))
    except InvalidInputError as e:
        raise ParseError(str(e)) from None


def deserialize(data, kind: str):
    """Parse bytes or text into the expected kind of value.

    JSON is accepted for every kind; CSV (detected by the absence of a JSON
    object) only for matrices.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown kind {kind!r}")
    try:
        text = data.decode() if isinstance(data, (bytes, bytearray)) else str(data)
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8: {e}") from None
    stripped = text.strip()
    if not stripped.startswith("{"):
        if kind == "matrix":
            return _matrix_from_csv(text)
        raise ParseError(f"expected a JSON object for kind {kind!r}")
    obj = _parse_json(stripped)
    tag = obj.get("type")
    if tag != kind:
        raise ParseError(f"expected type {kind!r}, found {tag!r}")
    if kind == "triangle":
        return _rows_from_obj(obj, "rows", TriangularArray)
    if kind == "matrix":
        return _rows_from_obj(obj, "entries", SignMatrix)
    return _report_from_obj(obj)
