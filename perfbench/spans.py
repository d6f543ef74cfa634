"""Span recorder for the traced run.

The package is timed from outside: each public function named in
``TARGETS`` is replaced, for the length of one traced pass, by a wrapper
that records a span (name, start, end, parent) around the call.  The
wrapper is bound under every name that holds the original in any
``monotri`` module (``evaluate.predecessors``, ``enumeration.transition_stats``,
``transform.validate_dmt``, ...), so calls between modules are seen too.
Generators are timed per ``next()``.  Spans stay in compact arrays in memory;
self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function, is a generator, extra counter)
TARGETS = (
    ("evaluate", "alpha", False, None),
    ("evaluate", "W_number", False, None),
    ("evaluate", "sum_operator", False, None),
    ("enumeration", "predecessors", True, None),
    ("enumeration", "signed_count", False, None),
    ("enumeration", "enum_triangles", True, None),
    ("enumeration", "enum_matrices", True, None),
    ("enumeration", "enum_wni_objects", True, None),
    ("enumeration", "wni_object_sign", False, None),
    ("machines", "generate", True, None),
    ("machines", "reach_table", False, None),
    ("machines", "accepts", False, "accepted"),
    ("machines", "parse_steps", False, None),
    ("transform", "matrix_to_triangle", False, None),
    ("transform", "triangle_to_matrix", False, None),
    ("transform", "is_s1", False, None),
    ("transform", "s1_to_mt", False, None),
    ("transform", "mt_to_s1", False, None),
    ("core", "validate_monotone", False, None),
    ("core", "validate_dmt", False, None),
    ("core", "transition_stats", False, None),
    ("core", "triangle_stats", False, None),
    ("exactla", "build_matrix", False, None),
    ("exactla", "det_exact", False, None),
    ("exactla", "rank_exact", False, None),
    ("serialize", "serialize", False, "bytes"),
    ("serialize", "deserialize", False, None),
    ("verify", "verify", False, None),
)

MODULES = tuple(dict.fromkeys(module for module, *_ in TARGETS))

# extra counters: what each one adds for a call's result
_EXTRA = {
    "accepted": lambda result: 1 if result else 0,
    "bytes": len,
}


class Recorder:
    """Spans of one traced pass plus per-function counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # function name -> [calls, yielded, extra]
        self.counts: dict[str, list[int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = [0, 0, 0]
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less its direct children."""
        child = [0.0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for d, p in zip(durations, self.parent):
            if p >= 0:
                child[p] += d
        totals = [0.0] * len(self.names)
        for nid, d, c in zip(self.name, durations, child):
            totals[nid] += d - c
        return dict(zip(self.names, totals))

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _wrap_call(rec: Recorder, name: str, fn, extra):
    nid = rec.name_id(name)
    counts = rec.counts[name]
    add = _EXTRA[extra] if extra else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[0] += 1
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if add is not None:
            counts[2] += add(result)
        return result

    return wrapper


def _traced_next(rec: Recorder, nid: int, counts, gen):
    try:
        while True:
            idx = rec.open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            counts[1] += 1
            yield item
    finally:
        gen.close()


def _wrap_gen(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    counts = rec.counts[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[0] += 1
        return _traced_next(rec, nid, counts, fn(*args, **kwargs))

    return wrapper


class Tracer:
    """Installs the wrappers of one ``Recorder`` and takes them out again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "monotri" or n.startswith("monotri.")]
        for module, func, is_gen, extra in TARGETS:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"monotri.{module}"], func)
            if is_gen:
                wrapper = _wrap_gen(self.rec, name, original)
            else:
                wrapper = _wrap_call(self.rec, name, original, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self.saved.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self.rec

    def __exit__(self, *exc):
        for m, attr, original in reversed(self.saved):
            setattr(m, attr, original)
        self.saved.clear()
        return False


UNITS = {"self_s": "s", "wall_s": "s", "bytes": "bytes", "accept_ratio": "ratio",
         "yield_per_call": "ratio", "self_share": "ratio", "overhead_ratio": "ratio"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name part."""
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-function counters and self time, and each module's share of the
    traced time, from one pass's recorder."""
    self_s = rec.self_times()
    total = sum(self_s.values())
    out: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for module, func, is_gen, extra in TARGETS:
        name = f"{module}.{func}"
        calls, yielded, extra_count = rec.counts.get(name, (0, 0, 0))
        seconds = self_s.get(name, 0.0)
        module_self[module] += seconds
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = seconds
        if is_gen:
            out[f"{name}.yielded"] = yielded
        if extra:
            out[f"{name}.{extra}"] = extra_count
        if extra == "accepted":
            out[f"{name}.accept_ratio"] = extra_count / calls if calls else 0.0
    pred = "enumeration.predecessors"
    calls = out[f"{pred}.calls"]
    out[f"{pred}.yield_per_call"] = out[f"{pred}.yielded"] / calls if calls else 0.0
    for module, seconds in module_self.items():
        out[f"{module}.self_share"] = seconds / total if total else 0.0
    return out
