"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monotri"


def test_no_assert_statements():
    # an assert vanishes under `python -O`; invariants raise InternalError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_environment_reads():
    # the package has no environment configuration; a new knob must change this test
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "environb", "getenv") for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# the integer rule, however it is spelled
_INTEGER_RULE = re.compile(
    r"isinstance\(.+, .*\b(int|bool)\b.*\)|operator\.index\(.+\)|type\(.+\) is (not )?int")


def test_integer_rule_only_in_core():
    # core owns the one rule for what an integer is; elsewhere, call core
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Call, ast.Compare)) and _INTEGER_RULE.fullmatch(
                    ast.unparse(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_memo_is_bounded():
    # each lru_cache in the DP and evaluation modules is a module-level
    # function with a finite maxsize, so no memo grows without a bound
    for name in ("enumeration", "evaluate"):
        module = importlib.import_module(f"monotri.{name}")
        path = SRC / f"{name}.py"
        written = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")]
        caches = {attr: f.cache_info().maxsize for attr, f in vars(module).items()
                  if hasattr(f, "cache_info") and f.__module__ == module.__name__}
        assert caches and len(caches) == len(written), (name, caches, written)
        assert all(isinstance(size, int) for size in caches.values()), (name, caches)


PERFBENCH = SRC.parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_names_resolve(monkeypatch):
    # the benchmark traces and drives the package by name; a renamed or
    # deleted public function must fail here, not only in the benchmark suite
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load_perfbench("spans")
    for module, func, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"monotri.{module}"), func, None)), (
            f"monotri.{module}.{func}"
        )
    workloads = _load_perfbench("workloads")
    for name, cls in workloads.WORKLOADS.items():
        assert cls(0).ops, name
