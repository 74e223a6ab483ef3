"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it records tiny-scale reference digests
into a scratch file, then runs the benchmark with tracing off and on and
asserts that the printed metric names and units are those BENCHMARK.json
declares and that no operation failed. Last, it corrupts one workload's
stored digests and asserts that the run then reports failed operations.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = ROOT / ".bench_out" / "smoke-references.json"
SECONDS = "2"


def bench(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
           "--references", str(REFERENCES), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{label}: metrics {got} != declared {want}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    REFERENCES.unlink(missing_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        base = ("--workload", name, "--seed", "0")
        subprocess.run([sys.executable, str(HERE / "run.py"), "--scale", "tiny",
                        "--references", str(REFERENCES), "--record-references", *base],
                       cwd=ROOT, check=True, capture_output=True, timeout=300)
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = bench(*base, "--seconds", SECONDS, "--trace", trace)
            expect_metrics(result, declared, f"{name} trace {trace}")
            assert result["correct"] and result["failed"] == 0, f"{name} trace {trace}: {result}"
        print(f"ok {name}")

    table = json.loads(REFERENCES.read_text(encoding="utf-8"))
    victim = names[0]
    digests = table["tiny"][victim]["0"]
    for key in digests:
        digests[key] = "0" * 64
    REFERENCES.write_text(json.dumps(table), encoding="utf-8")
    result = bench("--workload", victim, "--seed", "0", "--seconds", SECONDS, "--trace", "0")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0, result
    print(f"ok corrupted reference for {victim} gives error_rate "
          f"{result['failed'] / result['attempted']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
