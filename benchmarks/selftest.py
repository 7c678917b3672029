"""Self-test of the benchmark at tiny size.

Run from the repository root:

    python3 benchmarks/selftest.py

For every workload in BENCHMARK.json it runs one untraced and two traced
runs of one second on tiny inputs, and checks that each prints a final JSON
line with exactly the keys correct/attempted/failed/metrics, that every
operation passed its gate, that every metric BENCHMARK.json names is there
with its unit, and that the two traced runs report identical call counts.
It then checks that the benchmark fails, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180


def run(cwd: Path, spec: dict, workload: str, trace: int, seed: int = 1):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"gates failed: {proc.stderr[-2000:]}")
    return result


def check_metrics(result: dict, wanted: list[dict], nonzero: bool) -> None:
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        raise AssertionError(
            f"missing {sorted(names - set(got))}, unexpected {sorted(set(got) - names)}"
        )
    for m in wanted:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"]:
            raise AssertionError(f"{m['name']}: unit {entry['unit']}, want {m['unit']}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{m['name']}: value {value!r}")
        if nonzero and value <= 0:
            raise AssertionError(f"{m['name']}: value {value} is not positive")


def check_counts_repeat(a: dict, b: dict) -> None:
    for name, entry in a["metrics"].items():
        if entry["unit"] in ("count", "bytes") and entry["value"] != b["metrics"][name]["value"]:
            raise AssertionError(
                f"{name}: {entry['value']} vs {b['metrics'][name]['value']} on the same seed"
            )


def check_bare_directory(spec: dict) -> None:
    work = ROOT / ".bench_runs"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0:
            raise AssertionError("exit code 0 without the program's source")
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{") and '"metrics"' in lines[-1]:
            raise AssertionError("printed a result without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = []
    for w in spec["workloads"]:
        name = w["name"]
        checks.append((f"{name} untraced", lambda n=name: check_metrics(
            result_of(run(ROOT, spec, n, 0)), spec["end_to_end"], nonzero=True)))

        def traced(n=name):
            a = result_of(run(ROOT, spec, n, 1, seed=7))
            b = result_of(run(ROOT, spec, n, 1, seed=7))
            check_metrics(a, spec["per_layer"], nonzero=False)
            check_counts_repeat(a, b)

        checks.append((f"{name} traced twice", traced))
    checks.append(("fails without the program", lambda: check_bare_directory(spec)))
    for label, check in checks:
        try:
            check()
            print(f"ok    {label}")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures += 1
            print(f"FAIL  {label}: {exc}")
    print(f"{len(checks) - failures} of {len(checks)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
