"""monotri benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload alpha-cold --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Workloads (see ``workloads.py``):

* ``alpha-cold``   independent ``alpha`` evaluations on empty memo tables;
* ``verify-suite`` all 18 identities at their upper parameters, memo tables
                   warm across identities within a pass;
* ``enumerate``    exhaustive object streams, serialized and converted.

The workload runs whole passes over its ops, in this one process and
thread, until ``--seconds`` have passed and each op has run often enough
that the ops beyond the 90th percentile carry at least 10 samples.  Every
op result is then checked exactly.  The last stdout line is the JSON
result; the line before it records the run (Python version, nproc, seed,
digest of the generated inputs).

``--trace 0`` reports the end-to-end metrics.  Each op's wall time is
scaled to a nominal machine speed: a fixed reference loop is timed between
consecutive ops, and the op's time is multiplied by the loop's nominal time
(``REFERENCE_S``) over the mean of the loop times just before and after it.
Other tenants of a shared host change its speed by up to half for seconds
at a time; unscaled, runs of one workload spread by 10-30%.  An op's
latency is the lower quartile of its scaled passes; ``op_p50_ms`` and
``op_p90_ms`` are percentiles over the ops, ``ops_per_s`` and
``checks_per_s`` divide by the sum of op latencies.  ``setup_s`` is the
median over seven fresh processes of the unscaled time from spawn to inputs
generated; ``peak_rss_mb`` is read before the checks run.

``--trace 1`` alternates untraced and traced passes and reports per-layer
counters and self time per traced pass (see ``spans.py``), the untraced
per-identity wall time of verify-suite, and ``trace.overhead_ratio``.  The
spans of the last traced pass are written to ``.perfbench/``.  The exactla
functions take under 1% of a verify-suite pass, so no exactla change can
show an end-to-end gain on these workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Recorder, Tracer, layer_metrics, unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_TAIL_SAMPLES = 10
# the reference loop: 17,000 integer steps, 1.0 ms on a quiet 2-vCPU Linux
# VM with Python 3.11 -- the nominal speed that op latencies are scaled to
REFERENCE_STEPS = 17_000
REFERENCE_S = 0.001


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_seconds(workload: str, seed: int, digest: str) -> float:
    """Median spawn-to-ready time of fresh set-up processes."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != digest:
            raise RuntimeError(f"set-up process gave {line.strip()!r} {rest!r}, exit {code}")
    return statistics.median(times)


def reference_probe() -> float:
    """Best of two runs of the reference loop, in seconds."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_STEPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class OpError(str):
    """The result of an op that raised."""


class Run:
    """Op latencies and result checks of one workload instance."""

    def __init__(self, wl, normalize: bool = False):
        self.wl = wl
        self.normalize = normalize
        self.latencies: list[float] = []
        self.first: list = [None] * len(wl.ops)
        self.mismatched = [0] * len(wl.ops)
        self.passes = 0
        self.checks = 0

    def one_pass(self, rec=None) -> float:
        """Run every op once and return the pass wall time.  With a recorder
        the pass is traced and its op latencies are not kept.  With
        ``normalize`` each latency is scaled by REFERENCE_S over the mean of
        the reference probes taken just before and just after the op."""
        wl = self.wl
        t_pass = time.perf_counter()
        probe = reference_probe() if self.normalize else None
        with Tracer(rec) if rec is not None else contextlib.nullcontext():
            wl.start_pass()
            for i, op in enumerate(wl.ops):
                wl.start_op(op)
                if rec is None:
                    t0 = time.perf_counter()
                    result = self._call(op)
                    latency = time.perf_counter() - t0
                    if self.normalize:
                        before, probe = probe, reference_probe()
                        latency *= 2 * REFERENCE_S / (before + probe)
                    self.latencies.append(latency)
                else:
                    idx = rec.open(rec.name_id("bench.op"))
                    try:
                        result = self._call(op)
                    finally:
                        rec.close(idx)
                if self.passes == 0:
                    self.first[i] = result
                elif result != self.first[i]:
                    self.mismatched[i] += 1
                if not isinstance(result, OpError):
                    self.checks += wl.checks(result)
        self.passes += 1
        return time.perf_counter() - t_pass

    def _call(self, op):
        try:
            return self.wl.run(op)
        except Exception as e:  # an op that raises is a failed op, not a crash
            return OpError(repr(e))

    def verdict(self) -> tuple[int, int]:
        """(attempted, failed) after checking each op's first result."""
        failed = 0
        for i, op in enumerate(self.wl.ops):
            try:
                expected = self.wl.expect(op)
                good = self.wl.ok(self.first[i], expected)
            except Exception as e:
                print(f"perfbench: oracle for {op!r} raised {e!r}", file=sys.stderr)
                good = False
            if not good:
                print(f"perfbench: wrong result for {op!r}: {self.first[i]!r}", file=sys.stderr)
            failed += self.passes if not good else self.mismatched[i]
        return self.passes * len(self.wl.ops), failed


def percentile_ms(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] * 1000.0


def measure(wl, seconds: float, seed: int, digest: str) -> tuple[Run, dict]:
    setup_s = setup_seconds(wl.name, seed, digest)
    run = Run(wl, normalize=True)
    ops = len(wl.ops)
    # enough passes that 10% of the ops times the passes is at least 10 samples
    min_passes = max(2, math.ceil(MIN_TAIL_SAMPLES / (0.1 * ops)))
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or run.passes < min_passes:
        run.one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each op's latency is the lower quartile of its normalized passes: the
    # probes remove most of the host's changes of speed, the quartile drops
    # the passes where load came and went within the op
    per_op = [statistics.quantiles(run.latencies[i::ops], n=4, method="inclusive")[0]
              for i in range(ops)]
    busy = sum(per_op)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / busy, "1/s"),
        "op_p50_ms": (percentile_ms(per_op, 50), "ms"),
        "op_p90_ms": (percentile_ms(per_op, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "checks_per_s": (run.checks / run.passes / busy, "1/s"),
    }
    return run, metrics


def trace(wl, seconds: float, seed: int) -> tuple[Run, dict]:
    from workloads import verify_mod

    run = Run(wl)
    untraced, traced, sums = [], [], {}
    walls: dict[str, list[float]] = {identity: [] for identity in verify_mod.IDENTITIES}
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        untraced.append(run.one_pass())
        if wl.name == "verify-suite":
            for (identity, _), latency in zip(wl.ops, run.latencies[-len(wl.ops):]):
                walls[identity].append(latency)
        rec = Recorder()
        traced.append(run.one_pass(rec))
        for key, value in layer_metrics(rec).items():
            sums[key] = sums.get(key, 0) + value
    # counters are per traced pass; every pass does the same work
    values = {key: value / len(traced) for key, value in sums.items()}
    for identity, latencies in walls.items():
        values[f"verify.{identity}.wall_s"] = statistics.median(latencies) if latencies else 0.0
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"spans-{wl.name}-seed{seed}.bin")
    return run, {key: (value, unit(key)) for key, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs, print their digest and exit")
    args = parser.parse_args()

    # -O would drop the package's own assert self-checks; a cache limit
    # would change the memo behaviour the workloads measure
    if sys.flags.optimize:
        return fail("refusing to run under python -O")
    if "MONOTRI_CACHE_LIMIT" in os.environ:
        return fail("refusing to run with MONOTRI_CACHE_LIMIT set")
    if not (SRC / "monotri" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'monotri'}; run from a monotri checkout")
    sys.path.insert(0, str(SRC))
    import monotri

    if Path(monotri.__file__).resolve().parent != SRC / "monotri":
        return fail(f"imported monotri from {monotri.__file__}, not from {SRC}")
    from workloads import WORKLOADS, inputs_digest

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    digest = inputs_digest(wl.ops)
    if args.setup_only:
        print(digest, flush=True)
        return 0

    if args.trace:
        run, metrics = trace(wl, args.seconds, args.seed)
    else:
        run, metrics = measure(wl, args.seconds, args.seed, digest)
    attempted, failed = run.verdict()
    if not args.trace:
        metrics["success_ratio"] = (1.0 - failed / attempted, "ratio")
    info = {
        "workload": wl.name, "seed": args.seed, "inputs_sha256": digest,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "trace": args.trace, "passes": run.passes, "ops_per_pass": len(wl.ops),
        "samples": len(run.latencies),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
