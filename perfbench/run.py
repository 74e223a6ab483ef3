"""Benchmark runner for plknn.

    python3 perfbench/run.py --workload fig1a-kt --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. One run sets the workload up, runs its
operations for about ``--seconds`` seconds in a closed loop with one client,
and times each one; a "query" is one operation (a knn-partial query, a fig1a
sweep, an alt-split trial), and ``wall_s`` is the mean time of one. It checks
every output against the stored reference digest for the seed (or,
for a seed with no reference, against invariants that hold for any seed),
and prints each metric with its unit and sample count. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.

A traced run spends the first half of its time untraced and the second half
with every call into the library wrapped (see tracing.py); the difference of
the two halves' ``wall_s`` is the tracing overhead. The full result, with the
run manifest, and the trace are written under ``.bench_out/``.

``--record-references`` stores the output digests of the given seed instead
of measuring; ``--scale tiny`` and ``--references`` exist for smoke.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"

# Set-up is measured this many times per run (once in this process, the rest
# in fresh interpreters, since a second import in one process is free).
SETUP_REPEATS = 3
# BLAS runs on one thread, so no workload uses more threads than its n_jobs.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Only these are gated. On a shared 2-core host the speed of identical work
# swings by up to 2x, in bursts of a second and in phases of minutes. In two
# sets of ten seeds per workload and a third on fig1a-global (25-s runs), the
# median operation time of a run spread at most 0.15 of its median, the p90 up
# to 0.24: a burst over a tenth of a run moves the p90 but hardly the median.
# The informational ones are printed with their sample counts.
END_TO_END = (
    ("query_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
INFORMATIONAL = (
    ("wall_s", "s"),
    ("query_p90_ms", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(args, tracer=None):
    """Import the library and set the workload up; returns the workload and
    the seconds from before ``import plknn`` to the end of set-up."""
    start = time.perf_counter()
    import workloads  # imports numpy and plknn

    import plknn

    if Path(plknn.__file__).resolve().parent != SRC / "plknn":
        raise SystemExit(f"error: imported plknn from {plknn.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if tracer is None:
        wl = workloads.make(args.workload, args.scale, args.seed, OUT)
        return wl, time.perf_counter() - start, 0
    tracer.install()
    with tracer.phase("bench.setup") as root:
        wl = workloads.make(args.workload, args.scale, args.seed, OUT)
    return wl, time.perf_counter() - start, root


def setup_probe_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def load_references(args) -> dict:
    if not args.references.is_file():
        return {}
    table = json.loads(args.references.read_text(encoding="utf-8"))
    return table.get(args.scale, {}).get(args.workload, {}).get(str(args.seed), {})


def check(wl, key: str, output, references: dict) -> list[str]:
    problems = wl.problems(output)
    expected = references.get(key)
    if expected is not None:
        digest = wl.digest(output)
        if digest != expected:
            problems.append(f"digest {digest[:16]} differs from reference {expected[:16]}")
    return problems


class Loop:
    """Operations run back to back; each is timed, then checked untimed."""

    def __init__(self, wl, references: dict):
        self.wl = wl
        self.references = references
        self.next_op = 0
        self.durations: list[float] = []  # every operation, in order
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None) -> tuple[list[float], list[int]]:
        """Run operations until starting another would end past ``seconds``
        (at least one); returns their durations and, when traced, the span
        ids of the operations."""
        durations, roots = [], []
        deadline = time.perf_counter() + seconds
        while True:
            i = self.next_op
            self.next_op += 1
            inputs = self.wl.prepare(i)
            start = time.perf_counter()
            try:
                if tracer is None:
                    key, output = self.wl.run(inputs)
                else:
                    with tracer.phase("bench.op") as root:
                        roots.append(root)
                        key, output = self.wl.run(inputs)
                durations.append(time.perf_counter() - start)
                problems = check(self.wl, key, output, self.references)
            except Exception as exc:  # a failed operation is counted; the run goes on
                durations.append(time.perf_counter() - start)
                key, problems = "?", [f"raised {exc!r}"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.extend(f"op {i} ({key}): {p}" for p in problems)
            self.durations.append(durations[-1])
            if time.perf_counter() + durations[-1] > deadline:
                return durations, roots


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "plknn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workloads.config_of(args.workload, args.scale),
        "config_hash": workloads.config_hash(args.workload, args.scale),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "n_jobs": workloads.n_jobs_of(args.workload, args.scale),
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


def end_to_end(args, references: dict) -> tuple[dict, list[str], Loop]:
    wl, setup_s, _ = timed_setup(args)
    loop = Loop(wl, references)
    try:
        durations, _ = loop.run(args.seconds)
    finally:
        wl.close()
    setups = [setup_s] + [setup_probe_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    n = len(durations)
    p50, _ = percentile(durations, 50)
    p90, beyond = percentile(durations, 90)
    values = {
        "wall_s": (sum(durations) / n, f"mean of {n} operations"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of the measuring process"),
        "query_p50_ms": (p50 * 1e3, f"n={n}"),
        "query_p90_ms": (p90 * 1e3, f"n={n}, {beyond} beyond"
                         + ("" if beyond >= 10 else ", fewer than 10")),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    lines = [f"  {name:<16} {values[name][0]:>14.6g} {unit:<6} ({values[name][1]})"
             for name, unit in END_TO_END + INFORMATIONAL]
    return metrics, lines, loop


def per_layer(args, references: dict) -> tuple[dict, list[str], Loop, object]:
    import tracing

    tracer = tracing.Tracer()
    wl, _, setup_root = timed_setup(args, tracer)
    loop = Loop(wl, references)
    try:
        tracer.uninstall()
        untraced, _ = loop.run(args.seconds / 2)
        tracer.install()
        try:
            traced, op_roots = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    finally:
        wl.close()
    overhead = sum(traced) / len(traced) - sum(untraced) / len(untraced)
    values = tracer.layer_metrics(setup_root, op_roots)
    metrics, lines = {}, []
    for name, unit, _better, _how, _span, moves in tracing.LAYER_METRICS:
        value = values[name]
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<36} {shown:>12} {unit:<6} moves {moves}")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"  {'trace.overhead_s':<36} {overhead:>12.6g} s      traced minus untraced "
                 f"wall_s ({len(traced)} vs {len(untraced)} operations)")
    if tracer.absent:
        lines.append(f"  absent names: {', '.join(tracer.absent)}")
    lines.append("  self time per span (s, per run):")
    for row in tracer.summary():
        lines.append(f"    {row['name']:<34} calls {row['calls']:>7}  total {row['s']:>9.4f}  "
                     f"self {row['self_s']:>9.4f}  cpu {row['cpu_s']:>9.4f}  "
                     f"rss+ {row['rss_growth_kb'] / 1024:>7.1f} MB")
    return metrics, lines, loop, tracer


def record_references(args) -> int:
    wl, _, _ = timed_setup(args)
    references = {}
    try:
        for i in range(wl.distinct_ops):
            key, output = wl.run(wl.prepare(i))
            problems = wl.problems(output)
            if problems:
                print(f"error: op {i} ({key}) fails its checks: {problems}", file=sys.stderr)
                return 1
            references[key] = wl.digest(output)
    finally:
        wl.close()
    table = (json.loads(args.references.read_text(encoding="utf-8"))
             if args.references.is_file() else {})
    table.setdefault(args.scale, {}).setdefault(args.workload, {})[str(args.seed)] = references
    args.references.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"recorded {len(references)} digests for {args.workload} seed {args.seed}")
    return 0


def main(argv=None) -> int:
    # On SIGTERM unwind normally, so that a running set-up probe is killed and
    # waited for by subprocess.run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "plknn" / "__init__.py").is_file():
        print(f"error: no plknn sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        wl, setup_s, _ = timed_setup(args)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_references:
        return record_references(args)

    references = load_references(args)
    tracer = None
    if args.trace:
        metrics, lines, loop, tracer = per_layer(args, references)
    else:
        metrics, lines, loop = end_to_end(args, references)
    info = manifest(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"manifest": info, "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures[:50], "metrics": metrics,
              "durations_s": loop.durations}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n",
                                            encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.json", info)

    print(f"plknn benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, scale {args.scale}")
    print("\n".join(lines))
    print(f"  {'error_rate':<16} {loop.failed / loop.attempted:>14.6g} ratio  "
          f"({loop.failed} of {loop.attempted} operations failed)")
    for failure in loop.failures[:10]:
        print(f"  FAILED {failure}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
