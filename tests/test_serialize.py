import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri import (
    InvalidInputError,
    ParseError,
    SignMatrix,
    TriangularArray,
    VerificationReport,
    deserialize,
    serialize,
)

from golden import TWOASM_5


def test_triangle_json_golden():
    t = TriangularArray(((4,),))
    assert serialize(t) == b'{"type": "triangle", "rows": [[4]]}'
    assert deserialize(serialize(t), "triangle") == t
    t = TriangularArray(((2,), (1, 3), (1, 2, 3)))
    assert serialize(t) == b'{"type": "triangle", "rows": [[2], [1, 3], [1, 2, 3]]}'
    assert deserialize(serialize(t), "triangle") == t


def test_matrix_json_roundtrip():
    m = SignMatrix(TWOASM_5)
    assert deserialize(serialize(m), "matrix") == m
    m = SignMatrix(((0, 1), (1, -1)))
    assert serialize(m) == b'{"type": "matrix", "entries": [[0, 1], [1, -1]]}'
    assert deserialize(serialize(m), "matrix") == m


def test_matrix_csv():
    m = SignMatrix(((0, 1), (1, -1)))
    assert serialize(m, "csv") == b"0,1\n1,-1\n"
    assert deserialize(b"0,1\n1,-1\n", "matrix") == m
    # a blank line is skipped
    assert deserialize(b"0,1\n\n1,-1\n", "matrix") == m


def test_matrix_text():
    m = SignMatrix(((0, 1), (1, -1)))
    assert serialize(m, "text") == b" 0  1\n 1 -1\n"
    # a zero-column matrix is one empty line per row
    assert serialize(SignMatrix(((),)), "text") == b"\n"


def test_triangle_text_shape():
    t = TriangularArray(((4,), (4, 5)))
    lines = serialize(t, "text").decode().splitlines()
    assert lines[-1].strip() == "4 5"
    assert lines[0].endswith("4")


def test_report_roundtrip():
    r = VerificationReport(
        identity_id="table",
        parameters={"n_max": 9},
        status="Verified",
        details=(("alpha at n=3", -1, -1), ("alpha at n=5", 3, 3)),
        elapsed_ms=1.25,
    )
    back = deserialize(serialize(r), "report")
    assert back == r
    skipped = VerificationReport("lemma2", {"max_len": 1}, "Skipped", (), 0.5, "nothing to check")
    assert deserialize(serialize(skipped), "report") == skipped
    csv_bytes = serialize(r, "csv")
    assert b"alpha at n=3,-1,-1" in csv_bytes
    text = serialize(r, "text").decode()
    assert "status: Verified" in text


def test_big_integers_survive():
    r = VerificationReport("x", {}, "Verified", (("big", 10**40, 10**40),), 0.0)
    back = deserialize(serialize(r), "report")
    assert back.details[0][1] == 10**40


def test_csv_rejected_for_triangles():
    with pytest.raises(InvalidInputError):
        serialize(TriangularArray(((1,),)), "csv")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="line 1"):
        deserialize(b"{not json", "triangle")
    with pytest.raises(ParseError, match="rows"):
        deserialize(b'{"type": "triangle"}', "triangle")
    with pytest.raises(ParseError, match="row 2 column 2"):
        deserialize(b"0,1\n1,x\n", "matrix")
    with pytest.raises(ParseError, match="expected type"):
        deserialize(b'{"type": "matrix", "entries": [[1]]}', "triangle")
    with pytest.raises(ParseError):
        deserialize(b'{"type": "triangle", "rows": [[1], [2]]}', "triangle")


@pytest.mark.parametrize("cell", ["0_1", " 1", "+1", "1 ", "\u0661"])
def test_csv_cells_are_plain_decimals(cell):
    # an optional minus sign and ASCII digits, nothing that int() would also take
    assert deserialize(b"0,1\n1,-0\n", "matrix") == SignMatrix(((0, 1), (1, 0)))
    with pytest.raises(ParseError, match="row 1 column 2"):
        deserialize(f"0,{cell}\n1,0\n".encode(), "matrix")


@pytest.mark.parametrize("entry", ["true", "1.0", '"1"'])
@pytest.mark.parametrize("kind, key, where", [
    ("triangle", "rows", "row 2"),
    ("matrix", "entries", "row 2 column 1"),
])
def test_non_integer_json_entries_name_their_place(entry, kind, key, where):
    # the carrier checks every entry once; its refusal becomes the ParseError
    rows = "[[0, 1], [%s, 0]]" if kind == "matrix" else "[[0], [%s, 0]]"
    data = '{"type": "%s", "%s": %s}' % (kind, key, rows % entry)
    with pytest.raises(ParseError, match=where):
        deserialize(data, kind)


_REPORT = (b'{"type": "report", "identity_id": "x", "parameters": %s, "status": "Verified",'
           b' "details": [], "elapsed_ms": %s}')


@pytest.mark.parametrize("data, kind", [
    pytest.param(b"\xff{", "triangle", id="undecodable-json"),
    pytest.param(b"\xff\xfe0,1\n", "matrix", id="undecodable-csv"),
    pytest.param(_REPORT % (b"{}", b'"abc"'), "report", id="elapsed-not-a-number"),
    pytest.param(_REPORT % (b'"ab"', b"1.0"), "report", id="parameters-not-a-mapping"),
    pytest.param(b'{"type": "triangle", "rows": [1]}', "triangle", id="row-not-a-list"),
    pytest.param(b"", "matrix", id="empty-csv"),
    pytest.param(b"0,1\n1,2\n", "matrix", id="csv-cell-out-of-range"),
    pytest.param(b"9" * 5000 + b"\n", "matrix", id="csv-cell-past-the-digit-limit"),
    pytest.param(b"1\n", "triangle", id="csv-as-triangle"),
    pytest.param(b'{"type": "triangle", "rows": ' + b"[" * 100000 + b"]" * 100000 + b"}",
                 "triangle", id="nested-too-deeply"),
])
def test_bad_bytes_raise_parse_error(data, kind):
    with pytest.raises(ParseError):
        deserialize(data, kind)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter limits integer digits from 3.10.7")
@pytest.mark.parametrize("kind, data", [
    ("triangle", '{"type": "triangle", "rows": [[%s]]}'),
    ("matrix", '{"type": "matrix", "entries": [[%s]]}'),
    ("report", '{"type": "report", "identity_id": "x", "parameters": {}, "status": "Verified",'
               ' "details": [["d", %s, 1]], "elapsed_ms": 1.0}'),
])
def test_json_integer_past_the_digit_limit_is_a_parse_error(kind, data):
    # json.loads refuses it with a plain ValueError, not a JSONDecodeError
    with pytest.raises(ParseError, match="digits"):
        deserialize(data % ("9" * 5000), kind)


_GOOD_REPORT = {"type": "report", "identity_id": "x", "parameters": {"n": 3},
                "status": "Verified", "details": [["d", 1, 1]], "elapsed_ms": 1.5}


@pytest.mark.parametrize("field, value", [
    pytest.param("parameters", ["ab"], id="parameters-a-list"),
    pytest.param("parameters", {"n": "3"}, id="parameter-a-string"),
    pytest.param("parameters", {"n": True}, id="parameter-a-bool"),
    pytest.param("identity_id", 7, id="identity-a-number"),
    pytest.param("status", "Bogus", id="status-unknown"),
    pytest.param("elapsed_ms", "nan", id="elapsed-a-string"),
    pytest.param("elapsed_ms", True, id="elapsed-a-bool"),
    pytest.param("elapsed_ms", float("nan"), id="elapsed-nan"),
    pytest.param("elapsed_ms", float("inf"), id="elapsed-infinite"),
    pytest.param("reason", 5, id="reason-a-number"),
    pytest.param("details", [[5, 1, 1]], id="description-a-number"),
    pytest.param("details", [["d", 1, 1, 1]], id="detail-of-four-entries"),
])
def test_report_fields_checked(field, value):
    assert deserialize(json.dumps(_GOOD_REPORT), "report").details == (("d", 1, 1),)
    with pytest.raises(ParseError):
        deserialize(json.dumps({**_GOOD_REPORT, field: value}), "report")


def test_unknown_kind_and_format():
    with pytest.raises(InvalidInputError):
        deserialize(b"{}", "widget")
    with pytest.raises(InvalidInputError):
        serialize(TriangularArray(((1,),)), "yaml")
    with pytest.raises(InvalidInputError, match="cannot serialize int"):
        serialize(42)


@st.composite
def triangles(draw):
    n = draw(st.integers(1, 6))
    rows = tuple(
        tuple(draw(st.integers(-99, 99)) for _ in range(i)) for i in range(1, n + 1)
    )
    return TriangularArray(rows)


@st.composite
def matrices(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(0, 5))
    entries = tuple(
        tuple(draw(st.sampled_from((-1, 0, 1))) for _ in range(c)) for _ in range(r)
    )
    return SignMatrix(entries)


@st.composite
def reports(draw):
    details = tuple(
        (draw(st.text(max_size=12)), draw(st.integers()), draw(st.integers()))
        for _ in range(draw(st.integers(0, 4)))
    )
    return VerificationReport(
        identity_id=draw(st.text(min_size=1, max_size=8)),
        parameters={"n": draw(st.integers(0, 99))},
        status=draw(st.sampled_from(("Verified", "Failed", "Skipped"))),
        details=details,
        elapsed_ms=draw(st.floats(0, 1e6, allow_nan=False)),
    )


@settings(max_examples=50)
@given(triangles())
def test_triangle_roundtrip_random(t):
    assert deserialize(serialize(t), "triangle") == t


@settings(max_examples=50)
@given(matrices())
def test_matrix_roundtrip_random(m):
    assert deserialize(serialize(m), "matrix") == m
    assert deserialize(serialize(m, "csv"), "matrix") == m


@pytest.mark.parametrize("height", [1, 3])
def test_zero_column_matrix_csv_roundtrip(height):
    # a zero-column matrix is written as blank lines, one per row
    m = SignMatrix(((),) * height)
    assert serialize(m, "csv") == b"\n" * height
    assert deserialize(serialize(m, "csv"), "matrix") == m


# entries a carrier might be handed: ints, and what must not pass for them
_ANY_ENTRY = st.one_of(st.integers(-1, 1), st.booleans(), st.floats(-1, 1), st.text(max_size=1))


def _ints_that_roundtrip(value, kind):
    cells = value.rows if kind == "triangle" else value.entries
    return (all(type(x) is int for row in cells for x in row)
            and deserialize(serialize(value), kind) == value)


@settings(max_examples=100)
@given(st.lists(st.lists(_ANY_ENTRY, min_size=2, max_size=2), min_size=1, max_size=3))
def test_accepted_matrix_roundtrips(rows):
    # whatever a carrier accepts is all ints, and its own JSON reader gives it back
    try:
        m = SignMatrix(rows)
    except InvalidInputError:
        return
    assert _ints_that_roundtrip(m, "matrix")


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(st.lists(_ANY_ENTRY, min_size=i, max_size=i) for i in range(1, n + 1)))))
def test_accepted_triangle_roundtrips(rows):
    try:
        t = TriangularArray(rows)
    except InvalidInputError:
        return
    assert _ints_that_roundtrip(t, "triangle")


@settings(max_examples=50)
@given(reports())
def test_report_roundtrip_random(r):
    assert deserialize(serialize(r), "report") == r


def test_json_is_plain_decimal():
    m = SignMatrix(((1, -1, 0), (0, 1, 0), (0, 0, 1)))
    payload = json.loads(serialize(m))
    assert payload == {"type": "matrix", "entries": [[1, -1, 0], [0, 1, 0], [0, 0, 1]]}
