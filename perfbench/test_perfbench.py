"""Tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/test_perfbench.py

The work counters of a traced pass (calls, yielded objects, accepted words,
serialized bytes) are the steadiest numbers the benchmark gives, so they
must repeat exactly for one seed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("alpha-cold", "verify-suite", "enumerate")
COUNTERS = (".calls", ".yielded", ".accepted", ".bytes")


def bench(*args, cwd=ROOT, env=None, python=(sys.executable,)):
    return subprocess.run(
        [*python, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def traced(workload, seed):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = traced(workload, 5), traced(workload, 5)
    counts = {k: v for k, v in first.items() if k.endswith(COUNTERS)}
    assert counts and counts == {k: second[k] for k in counts}
    calls = {k: v for k, v in counts.items() if k.endswith(".calls")}
    if workload == "alpha-cold":
        for module in ("machines.", "transform.", "exactla."):
            assert not any(v for k, v in calls.items() if k.startswith(module))
        assert first["evaluate.self_share"] + first["enumeration.self_share"] > 0.5
    if workload == "enumerate":
        assert not any(v for k, v in calls.items() if k.startswith("exactla."))
    assert first["enumeration.predecessors.calls"] > 0


def digest(workload, seed):
    out = bench("--workload", workload, "--seed", str(seed), "--setup-only")
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("workload", ("alpha-cold", "enumerate", "verify-suite"))
def test_seed_fixes_inputs(workload):
    assert digest(workload, 1) == digest(workload, 1)
    assert digest(workload, 1) != digest(workload, 2)


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "alpha-cold", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("how", ("optimize", "cache-limit"))
def test_refuses_changed_checks(how):
    env = dict(os.environ)
    python = (sys.executable,)
    if how == "optimize":
        python = (sys.executable, "-O")
    else:
        env["MONOTRI_CACHE_LIMIT"] = "100"
    out = bench("--workload", "alpha-cold", "--seconds", "1", env=env, python=python)
    assert out.returncode == 2 and out.stdout == ""
