import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monotri import cli
from monotri.cli import run_cli
from monotri.serialize import deserialize, serialize
from monotri.verify import IDENTITIES
from monotri import AlphaMethod, SignMatrix, TriangularArray

from golden import DMT_10, TWOASM_5


def run(capsys, *argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_golden(capsys):
    code, out, err = run(capsys, "alpha", "--row", "2,4,5,8,9")
    assert code == 0 and out.strip() == "16939"


def test_alpha_methods(capsys):
    # --method offers every AlphaMethod by its value
    for method in AlphaMethod:
        row = "6,3,3,2,1" if method is AlphaMethod.SIGNED_DMT_DP else "2,4,5,8,9"
        code, out, _ = run(capsys, "alpha", "--row", row, "--method", method.value)
        assert code == 0 and out.strip() == ("3" if row == "6,3,3,2,1" else "16939"), method


def test_alpha_invalid_method_combo(capsys):
    code, out, err = run(capsys, "alpha", "--row", "1,2,3", "--method", "dmt")
    assert code == 2 and out == "" and err


def test_alpha_resource_limit(capsys):
    code, _, err = run(capsys, "alpha", "--row", "0,20", "--method", "op")
    assert code == 3 and "resource" in err.lower()


def test_alpha_out_of_memory(capsys, monkeypatch):
    def exhausting(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "alpha", exhausting)
    code, out, err = run(capsys, "alpha", "--row", "0,1,2")
    assert (code, out, err) == (3, "", "resource limit: out of memory\n")


@pytest.mark.parametrize("row", ["100000000000000,99999999999995,4,3,3,1", "0,1,2000,2001,4000,4001"])
def test_alpha_wide_inner_gap_stops_at_budget(capsys, row):
    # a wide inner gap of a row of 6 or more entries is not extrapolated: the
    # rows above a row with gaps g, at most the product of |g| + 1, are
    # bounded before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, "alpha", "--row", row)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "rows above" in err


def test_alpha_long_row_stops_with_a_short_message(capsys):
    # the budget stop names the row's size, not its gap word
    code, out, err = run(capsys, "alpha", "--row", ",".join(map(str, range(1, 401))))
    assert code == 3 and out == "" and "rows above" in err
    assert err.count("\n") == 1 and len(err) < 200, err


def test_alpha_wide_monotone_gap(capsys):
    # N^2 + 2N - 1 monotone triangles over (0, 1, N), extrapolated from narrow gaps
    code, out, _ = run(capsys, "alpha", "--row", "0,1,1000000000")
    assert code == 0 and out.strip() == "1000000001999999999"


def test_enum_count_only(capsys):
    code, out, _ = run(capsys, "enum", "--class", "dmt", "--row", "6,3,3,2,1", "--count-only")
    assert code == 0 and out.strip() == "5"


def test_enum_deep_triangle_row(capsys):
    # 1200 rows are walked over a stack, not by a call per row
    row = ",".join(map(str, range(1, 1201)))
    code, out, _ = run(capsys, "enum", "--class", "mt", "--row", row, "--limit", "1",
                       "--count-only")
    assert code == 0 and out.strip() == "1"


def test_enum_json_stream(capsys):
    code, out, _ = run(capsys, "enum", "--class", "asm", "--n", "2", "--format", "json")
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(objs) == 2
    assert all(o["type"] == "matrix" for o in objs)


def test_enum_limit(capsys):
    code, out, _ = run(capsys, "enum", "--class", "asm", "--n", "3", "--format",
                       "json", "--limit", "4")
    assert code == 0 and len(out.strip().splitlines()) == 4


def test_enum_limit_zero(capsys):
    code, out, _ = run(capsys, "enum", "--class", "asm", "--n", "3", "--format",
                       "json", "--limit", "0")
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "enum", "--class", "asm", "--n", "3", "--limit", "0",
                       "--count-only")
    assert code == 0 and out.strip() == "0"
    code, out, err = run(capsys, "enum", "--class", "mt", "--row", "3,2", "--limit", "0")
    assert code == 2 and out == "" and err


@pytest.mark.parametrize("cls, row", [("mt", "1,2,3"), ("dmt", "3,3,2,1")])
def test_enum_triangles_refuse_csv_whatever_the_limit(capsys, cls, row):
    # triangles have no csv form: refused before any is made, printed or not
    for limit in ([], ["--limit", "0"], ["--limit", "1"]):
        code, out, err = run(capsys, "enum", "--class", cls, "--row", row, "--format", "csv",
                             *limit)
        assert (code, out) == (2, "") and "csv" in err, limit
    code, out, _ = run(capsys, "enum", "--class", cls, "--row", row, "--format", "csv",
                       "--count-only")
    assert code == 0 and int(out) > 0


def test_enum_wni_refuses_csv_for_zero_columns(capsys):
    # the 1 x 0 W-object for (1, 1) is one blank csv line, as is the separator
    # after it, so a stream of them cannot be read back: refused before any is
    # made, printed or not.  Its count and its json stay
    wni = ["enum", "--class", "wni", "--n", "1", "--i", "1"]
    for limit in ([], ["--limit", "0"], ["--limit", "1"]):
        code, out, err = run(capsys, *wni, "--format", "csv", *limit)
        assert (code, out) == (2, "") and "csv" in err, limit
    assert run(capsys, *wni, "--format", "csv", "--count-only")[:2] == (0, "1\n")
    code, out, _ = run(capsys, *wni, "--format", "json")
    assert code == 0 and deserialize(out.encode(), "matrix") == SignMatrix(((),))
    code, out, _ = run(capsys, "enum", "--class", "wni", "--n", "2", "--i", "1", "--format", "csv")
    assert code == 0 and out == "1\n1\n0\n\n"  # one column: the one 3 x 1 W-object


def test_enum_negative_limit(capsys):
    code, out, err = run(capsys, "enum", "--class", "asm", "--n", "3", "--limit", "-1")
    assert code == 2 and out == "" and "--limit" in err


def test_enum_limit_past_maxsize(capsys):
    # itertools.islice takes no count past sys.maxsize
    code, out, err = run(capsys, "enum", "--class", "mt", "--row", "1,2", "--limit",
                         "99999999999999999999")
    assert code == 2 and out == "" and err.startswith("error: --limit")


def test_enum_missing_args(capsys):
    code, _, err = run(capsys, "enum", "--class", "dmt")
    assert code == 2 and err
    code, _, err = run(capsys, "enum", "--class", "wni", "--n", "2")
    assert code == 2 and err
    for cls in ("asm", "2asm"):
        code, out, err = run(capsys, "enum", "--class", cls)
        assert code == 2 and out == "" and "needs --n" in err, cls


def test_enum_wni(capsys):
    code, out, _ = run(capsys, "enum", "--class", "wni", "--n", "2", "--i", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out.strip()) == {"type": "matrix", "entries": [[1], [1], [0]]}


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "table", "--n", "9")
    assert code == 0 and "Verified" in out
    code, _, err = run(capsys, "verify", "--id", "table", "--n", "19")
    assert code == 2 and "skipped" in err
    code, out, err = run(capsys, "verify", "--id", "table", "--n", "0")
    assert code == 2 and "Skipped" in out and "no checks" in err
    code, _, err = run(capsys, "verify", "--id", "nonsense")
    assert code == 2 and err


def test_verify_failed_exits_1(capsys, monkeypatch):
    # a check whose actual value differs from the expected one fails the report
    table = IDENTITIES["table"]
    monkeypatch.setitem(IDENTITIES, "table",
                        table._replace(runner=lambda params: iter([("a wrong row", 1, 0)])))
    code, out, _ = run(capsys, "verify", "--id", "table")
    assert code == 1 and "Failed" in out


def test_verify_seed_ignored_with_note(capsys):
    code, out, err = run(capsys, "verify", "--id", "table", "--seed", "3")
    assert code == 0 and "Verified" in out
    assert "note: identity 'table' ignores --seed" in err


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--id", "reciprocity", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "report" and payload["status"] == "Verified"


def test_verify_seed(capsys):
    code, out1, _ = run(capsys, "verify", "--id", "lemma2", "--seed", "5", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--id", "lemma2", "--seed", "5", "--format", "json")
    d1 = json.loads(out1)["details"]
    d2 = json.loads(out2)["details"]
    assert d1 == d2


def test_det(capsys):
    code, out, _ = run(capsys, "det", "--kind", "behrend", "--n", "7")
    assert code == 0 and out.strip() == "218348"
    code, out, _ = run(capsys, "det", "--kind", "sprime", "--n", "5")
    assert code == 0 and out.strip() == "42"


def test_stats(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_bytes(serialize(TriangularArray(DMT_10)))
    code, out, _ = run(capsys, "stats", "--input", str(path))
    assert code == 0
    st = json.loads(out)
    assert st["peaks"] == st["base_pairs"]
    assert st["dd"] == st["dd_bar"] + st["pairs_per_row"][-1]


def test_stats_missing_file(capsys):
    code, _, err = run(capsys, "stats", "--input", "/nonexistent/x.json")
    assert code == 2 and err


@pytest.mark.parametrize("command", [
    ("stats",),
    ("biject", "--kind", "mt-asm", "--direction", "fwd"),
])
def test_unreadable_input_exit_2(tmp_path, capsys, monkeypatch, command):
    # a directory, an unreadable file and undecodable bytes are input errors,
    # not failed verifications and not tracebacks
    code, out, err = run(capsys, *command, "--input", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: ")
    path = tmp_path / "t.json"
    path.write_bytes(b"\xff{")
    code, out, err = run(capsys, *command, "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("monotri.cli.open", denied, raising=False)
    code, out, err = run(capsys, *command, "--input", str(path))
    assert code == 2 and out == "" and "Permission denied" in err


def test_biject_roundtrip(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_bytes(serialize(TriangularArray(DMT_10)))
    code, out, _ = run(capsys, "biject", "--kind", "dmt-2asm", "--direction", "fwd",
                       "--input", str(path))
    assert code == 0
    assert json.loads(out)["entries"] == [list(r) for r in TWOASM_5]

    path2 = tmp_path / "m.json"
    path2.write_bytes(serialize(SignMatrix(TWOASM_5)))
    code, out, _ = run(capsys, "biject", "--kind", "dmt-2asm", "--direction", "rev",
                       "--input", str(path2))
    assert code == 0
    assert json.loads(out)["rows"] == [list(r) for r in DMT_10]


def test_biject_s1(tmp_path, capsys):
    path = tmp_path / "mt.json"
    path.write_bytes(serialize(TriangularArray(((2,), (1, 3), (1, 2, 3)))))
    code, out, _ = run(capsys, "biject", "--kind", "s1-mt", "--direction", "rev",
                       "--input", str(path))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1] == [2, 2] and rows[5] == [3, 3, 2, 2, 1, 1]


def test_bad_flags_exit_2(capsys):
    code, out, err = run(capsys, "alpha", "--row", "1,2", "--frobnicate")
    assert code == 2 and out == "" and "usage" in err


def test_bad_row_text(capsys):
    # int() would read underscores, a plus sign and spaces
    for text in ("1,two,3", "1_0,2", "+1,2", "1, 2", "1_0, +12,13"):
        code, out, err = run(capsys, "alpha", "--row", text)
        assert code == 2 and err and out == "", text


def test_row_opening_with_minus_sign(capsys):
    # a row is bound to --row whether written with a space or with "="
    for argv in (("alpha", "--row", "-3,-1,2"), ("alpha", "--row=-3,-1,2")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.strip() == "41" and err == "", argv
    code, spaced, _ = run(capsys, "enum", "--class", "dmt", "--row", "-1,-1,-2")
    assert code == 0 and spaced
    code, joined, _ = run(capsys, "enum", "--class", "dmt", "--row=-1,-1,-2")
    assert code == 0 and spaced == joined
    code, out, err = run(capsys, "alpha", "--row", "-3,x")
    assert code == 2 and out == "" and "expected one argument" in err


def test_results_only_on_stdout(capsys):
    code, out, err = run(capsys, "enum", "--class", "asm", "--n", "3", "--count-only")
    assert code == 0 and out.strip() == "7" and err == ""


def _drawn_argv(rng, files):
    """One argv list for ``test_exit_contract``, any subcommand, valid or not."""
    def row(sizes):
        # sorted up or down two times in three, to reach the DP methods and
        # the triangle streams, not only their refusals
        entries = [rng.randint(-12, 12) for _ in range(rng.choice(sizes))]
        order = rng.choice([None, False, True])
        return ",".join(map(str, entries if order is None else sorted(entries, reverse=order)))

    command = rng.choice(["alpha", "enum", "verify", "det", "stats", "biject"])
    if command == "alpha":
        method = rng.choice([m.value for m in AlphaMethod] + ["nonsense"])
        # the operator route has no work budget, and a 6-entry row inside its
        # guard, like 0,10,0,10,0,10, runs for many seconds; 7 entries are
        # past the guard
        sizes = range(8) if method in ("mt", "dmt", "nonsense") else (0, 1, 2, 3, 4, 5, 7)
        return ["alpha", "--row", row(sizes), "--method", method]
    if command == "enum":
        cls = rng.choice(["mt", "dmt", "asm", "2asm", "wni"])
        limit = rng.choice([-1, 0, 1, 7, 40, 40, 40, 2**64])
        argv = ["enum", "--class", cls, "--limit", str(limit)]
        if cls in ("mt", "dmt") or rng.random() < 0.1:
            argv += ["--row", row(range(8))]
        if cls in ("asm", "2asm", "wni") or rng.random() < 0.1:
            argv += ["--n", str(rng.randint(-1, 6))]
        if cls == "wni" or rng.random() < 0.1:
            argv += ["--i", str(rng.randint(-1, 13))]
        if rng.random() < 0.3:
            argv.append("--count-only")
        return argv + ["--format", rng.choice(["text", "json", "json", "csv", "xml"])]
    if command == "verify":
        argv = ["verify", "--id", rng.choice([*IDENTITIES, "nonsense"]),
                "--n", str(rng.randint(-1, 8))]
        if rng.random() < 0.5:
            argv += ["--seed", str(rng.randint(0, 99))]
        return argv
    if command == "det":
        return ["det", "--kind", rng.choice(["behrend", "sprime"]), "--n", str(rng.randint(-1, 9))]
    argv = [command, "--input", rng.choice(files)]
    if command == "biject":
        argv += ["--kind", rng.choice(["mt-asm", "dmt-2asm", "s1-mt"]),
                 "--direction", rng.choice(["fwd", "rev"])]
    return argv


def test_exit_contract(tmp_path, capsys):
    # every input ends in an answer, a failed check, a refusal or a budget
    # stop: exit 0, 1, 2 or 3, with no traceback, and soon
    files = [str(tmp_path / "missing.json")]
    for name, obj in (("dmt", TriangularArray(DMT_10)),
                      ("mt", TriangularArray(((2,), (1, 3), (1, 2, 3)))),
                      ("matrix", SignMatrix(TWOASM_5))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize(obj))
        files.append(str(path))
    big = tmp_path / "big.json"
    big.write_text('{"type": "triangle", "rows": [[%s]]}' % ("9" * 5000))
    x = 10**800
    # named inputs that random draws miss, with the exit each must give where
    # the interpreter limits the digits of an integer's decimal string
    # (from 3.10.7); the five-entry closed form answers the row at once, and
    # its value has more digits than the limit
    named = [
        ("json entry past the digit limit", ["stats", "--input", str(big)], 2),
        ("alpha past the digit limit", ["alpha", "--row", f"0,1,2,{x},{x + 1}"], 3),
    ]
    limited = hasattr(sys, "get_int_max_str_digits")
    rng = random.Random(20111)
    drawn = [(None, _drawn_argv(rng, files), None) for _ in range(200)]
    for name, argv, want in named + drawn:
        start = time.perf_counter()
        code = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), name or argv
        assert "Traceback" not in err, name or argv
        assert elapsed < 2, (name or argv, elapsed)
        if want is not None and limited:
            prefix = "error: " if want == 2 else "resource limit: "
            assert code == want and err.startswith(prefix), (name, code, err[:200])


SRC = Path(__file__).resolve().parents[1] / "src"


def python_m_monotri(*argv):
    return subprocess.run(
        [sys.executable, "-m", "monotri", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )


def test_python_m_runs_cli():
    out = python_m_monotri("alpha", "--row", "2,4,5,8,9")
    assert out.returncode == 0 and out.stdout.strip() == "16939"


def test_alpha_wide_gap_finishes():
    # a gap of 10^14 is extrapolated, not walked; the timeout catches a hang
    out = python_m_monotri("alpha", "--row", "99999999999999,1")
    assert out.returncode == 0 and out.stdout.strip() == "-99999999999997"


def test_closed_pipe_is_not_an_error():
    # the stream is far larger than a pipe buffer, so the writer is still
    # running when the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "monotri", "enum", "--class", "asm", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
