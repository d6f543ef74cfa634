import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monotri.cli import run_cli
from monotri.serialize import serialize
from monotri import SignMatrix, TriangularArray

from golden import DMT_10, TWOASM_5


def run(capsys, *argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_golden(capsys):
    code, out, err = run(capsys, "alpha", "--row", "2,4,5,8,9")
    assert code == 0 and out.strip() == "16939"


def test_alpha_methods(capsys):
    for method in ("auto", "op", "mt"):
        code, out, _ = run(capsys, "alpha", "--row", "2,4,5,8,9", "--method", method)
        assert code == 0 and out.strip() == "16939"
    code, out, _ = run(capsys, "alpha", "--row", "6,3,3,2,1", "--method", "dmt")
    assert code == 0 and out.strip() == "3"


def test_alpha_invalid_method_combo(capsys):
    code, out, err = run(capsys, "alpha", "--row", "1,2,3", "--method", "dmt")
    assert code == 2 and out == "" and err


def test_alpha_resource_limit(capsys):
    code, _, err = run(capsys, "alpha", "--row", "0,20", "--method", "op")
    assert code == 3 and "resource" in err.lower()


def test_enum_count_only(capsys):
    code, out, _ = run(capsys, "enum", "--class", "dmt", "--row", "6,3,3,2,1", "--count-only")
    assert code == 0 and out.strip() == "5"


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


def test_enum_negative_limit(capsys):
    code, out, err = run(capsys, "enum", "--class", "asm", "--n", "3", "--limit", "-1")
    assert code == 2 and out == "" and "--limit" in err


def test_enum_missing_args(capsys):
    code, _, err = run(capsys, "enum", "--class", "dmt")
    assert code == 2 and err
    code, _, err = run(capsys, "enum", "--class", "wni", "--n", "2")
    assert code == 2 and err


def test_enum_wni(capsys):
    code, out, _ = run(capsys, "enum", "--class", "wni", "--n", "2", "--i", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out.strip()) == {"type": "matrix", "entries": [[1], [1], [0]]}


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--id", "table", "--n", "9")
    assert code == 0 and "Verified" in out
    code, _, err = run(capsys, "verify", "--id", "table", "--n", "15")
    assert code == 2 and "skipped" in err
    code, _, err = run(capsys, "verify", "--id", "nonsense")
    assert code == 2 and err


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
    code, _, err = run(capsys, "alpha", "--row", "1,two,3")
    assert code == 2 and err


def test_results_only_on_stdout(capsys):
    code, out, err = run(capsys, "enum", "--class", "asm", "--n", "3", "--count-only")
    assert code == 0 and out.strip() == "7" and err == ""


SRC = Path(__file__).resolve().parents[1] / "src"


def python_m_monotri(*argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "monotri", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=60,
    )


def test_python_m_runs_cli():
    out = python_m_monotri("alpha", "--row", "2,4,5,8,9")
    assert out.returncode == 0 and out.stdout.strip() == "16939"


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_bad_cache_limit_rejected(value):
    # det never touches the memo table; the CLI still rejects the setting
    for argv in (("alpha", "--row", "1,2"), ("det", "--kind", "behrend", "--n", "2")):
        out = python_m_monotri(*argv, MONOTRI_CACHE_LIMIT=value)
        assert out.returncode == 2 and out.stdout == "", argv
        assert out.stderr.startswith("error: MONOTRI_CACHE_LIMIT"), out.stderr
        assert "Traceback" not in out.stderr
