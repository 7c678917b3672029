"""minkruled benchmark: one seeded workload, closed loop, one thread.

Run from the repository root:

    python3 benchmarks/run.py --workload mesh-helix --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): mesh-helix, report-synth, verify-helix,
developable-synth. One client in this one process runs one operation at a
time; the next starts when the previous one has finished and been checked.
BLAS/OpenMP pools are pinned to one thread. The program under test is
imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the run times operations for ``--seconds``, with set-up
time probed in fresh interpreters in between, and prints the end-to-end
metrics. Operation times are reported as multiples of a fixed reference
routine timed just before each operation (see ``reference_s``); the raw
seconds are in the detail line. With
``--trace 1`` it measures import time per package (``-X importtime``), times
a quarter of the run untraced and the rest with every public layer function
wrapped in spans (spans.py), and prints the per-layer metrics. Counts are
per operation over the first traced operations, which every traced run with
the same seed repeats exactly; times are per operation over all traced
operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, sample count, tail percentile, failure
ratio). Scenes and meshes live in a temporary directory under
``.bench_runs/`` that is removed at the end; traces are kept in
``.bench_runs/traces/``.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("MINKRULED_SEED", None)  # would override the verify seed

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("mesh-helix", "report-synth", "verify-helix", "developable-synth")

SETUP_PROBES = 5
IMPORT_PROBES = 3
COUNT_OPS = 4  # traced operations whose calls and counters are reported
UNTRACED_SHARE = 0.25  # of a traced run, timed without spans
MIN_UNTRACED_OPS = 3
MAX_ERRORS_SHOWN = 5
REFERENCE_ITERATIONS = 400

# spans reported as "<span>.calls" and as "<span>.self_s"
CALLS = (
    "curves.frenet_apparatus",
    "involute.involute_frame",
    "involute.involute_point",
    "surfaces.surface_point",
    "surfaces.ruling_vector",
    "lorentz",
    "curves.darboux_data",
    "numdiff.derivative",
    "surfaces.drall_closed",
    "surfaces.drall_numeric",
    "surfaces.striction_point",
    "surfaces.ruling_derivative",
    "curves.curve_from_curvature",
    "curves.curve_eval",
)
SELF_S = (
    "curves.frenet_apparatus",
    "involute.involute_frame",
    "surfaces.surface_point",
    "lorentz",
    "curves.darboux_data",
    "numdiff.derivative",
    "surfaces.drall_closed",
    "surfaces.drall_numeric",
    "surfaces.striction_point",
    "curves.curve_from_curvature",
    "curves.curve_eval",
    "surfaces.classify_developability",
    "surfaces.prescribed",
    "mesh.sample_grid",
    "mesh.export",
    "verify.run_trials",
    "report.run_report",
    "config.load_config",
    "config.build_curve",
    "cli",
)
COUNTERS = {
    "numdiff.fevals": "count",
    "curves.synthesis_steps": "count",
    "surfaces.dnorm_evals": "count",
    "surfaces.prescribed_evals": "count",
    "mesh.export.bytes": "bytes",
    "mesh.vertices": "count",
}
MODULES = (
    "cli", "config", "report", "verify", "mesh", "surfaces",
    "involute", "curves", "numdiff", "lorentz",
)

PROBE = r"""
import sys, time
scene = sys.argv[1]
sys.stderr.write("@@begin\n")
t0 = time.perf_counter()
if scene:
    import minkruled.cli
    from minkruled.config import load_config
    load_config(scene)
else:
    import minkruled
t1 = time.perf_counter()
sys.stderr.write("@@end\n")
print(repr(t1 - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every operation, for the self-test",
    )
    return p.parse_args(argv)


def import_program():
    """Import minkruled from this checkout's src/, or exit with an error."""
    if not (SRC / "minkruled" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'minkruled'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import minkruled

    if Path(minkruled.__file__).resolve().parent != SRC / "minkruled":
        sys.exit(f"benchmark: imported minkruled from {minkruled.__file__}, not {SRC}")
    return minkruled


# --- set-up probes in fresh interpreters ------------------------------------------


def probe(scene: str | None, importtime: bool) -> tuple[float, str]:
    """Seconds to import the program (and load the scene) in a fresh
    interpreter, and the interpreter's stderr."""
    cmd = [sys.executable, "-s"]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", PROBE, scene or ""]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1]), proc.stderr


def import_seconds(stderr: str) -> Counter:
    """Self import seconds by top-level package, plus 'total', between the
    probe's markers of -X importtime output."""
    body = stderr.split("@@begin\n", 1)[1].split("@@end\n", 1)[0]
    out: Counter = Counter()
    for line in body.splitlines():
        if not line.startswith("import time:"):
            continue
        cols = line[len("import time:"):].split("|")
        try:
            self_us = int(cols[0])
        except ValueError:
            continue  # the column header
        top = cols[2].strip().split(".")[0]
        out[top] += self_us / 1e6
        out["total"] += self_us / 1e6
    return out


# --- timed operations ------------------------------------------------------------


class Tally:
    def __init__(self):
        self.samples: list[float] = []  # operation seconds
        self.ratios: list[float] = []  # operation seconds / reference seconds
        self.items = 0
        self.attempted = 0
        self.failed = 0


def op_rng(seed: int, phase: int, index: int):
    return np.random.default_rng([seed % 2 ** 63, phase, index])


def reference_s() -> float:
    """Seconds for a fixed routine of small numpy and math calls on
    3-vectors: the same kind of work as the program's kernel, but none of its
    code. The host this benchmark was built on switches between speeds up to
    75% apart for seconds to minutes; an operation's time over the reference
    times measured around it cancels most of that."""
    u = np.array([1.0, 0.3, 0.2])
    w = np.array([0.1, 1.0, 0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        v = np.asarray(u * 1.0001, dtype=float)
        c = np.cross(v, w)
        acc += bool(np.all(np.isfinite(v))) + float(-v[0] * w[0] + v[1] * w[1] + v[2] * w[2])
        acc += math.sqrt(float(c @ c))
    return time.perf_counter() - t0


def run_ops(wl, size, seed, phase, tally, *, start, min_ops, deadline, tracer=None):
    """Run operations start, start+1, ... until both min_ops ran and the
    deadline passed. Returns the next index.

    Each operation is bracketed by reference timings, one just before and
    one just after it, and its ratio is taken over their mean.
    """
    index = start
    ref_before = reference_s()
    while index - start < min_ops or time.perf_counter() < deadline:
        op = wl.build(op_rng(seed, phase, index), size, tracer)
        tally.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception as exc:
            error = exc
        seconds = time.perf_counter() - t0
        ref_after = reference_s()
        tally.samples.append(seconds)
        tally.ratios.append(2.0 * seconds / (ref_before + ref_after))
        ref_before = ref_after
        try:
            if error is not None:
                raise error
            tally.items += op.check(result)
        except Exception:
            if tally.failed < MAX_ERRORS_SHOWN:
                print(f"operation {phase}/{index} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            tally.failed += 1
        index += 1
    return index


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value;
    the maximum (percentile 100) when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# --- the two kinds of run --------------------------------------------------------


def untraced_run(args, wl, size, scene, tally):
    # The set-up probes are spread over the run, between operations, so that
    # their median does not hinge on one stretch of machine speed.
    setup = []
    start = time.perf_counter()
    index = 0
    for k in range(SETUP_PROBES):
        setup.append(probe(scene, importtime=False)[0])
        index = run_ops(
            wl, size, args.seed, 1, tally, start=index, min_ops=1 if k == 0 else 0,
            deadline=start + args.seconds * (k + 1) / SETUP_PROBES,
        )
    pct, tail_ref = tail(tally.ratios)
    _, tail_s = tail(tally.samples)
    p50_ref = statistics.median(tally.ratios)
    p50_s = statistics.median(tally.samples)
    items_per_op = tally.items / max(1, tally.attempted - tally.failed)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_ref": metric(p50_ref, "ref"),
        "op_tail_ref": metric(tail_ref, "ref"),
        "items_per_ref": metric(items_per_op / p50_ref, "items/ref"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    detail = {
        "setup_probes_s": setup,
        "op_tail_percentile": pct,
        "op_s_p50": p50_s,
        "op_s_tail": tail_s,
        f"{wl.items}_per_s": items_per_op / p50_s,
        "items_per_op": items_per_op,
        "reference_s_p50": statistics.median(
            t / r for t, r in zip(tally.samples, tally.ratios)
        ),  # mean of each operation's two reference timings
        "op_samples_s": tally.samples,
    }
    return metrics, detail


def traced_run(args, wl, size, scene, tally, minkruled):
    from spans import OP_SPAN, Tracer

    imports = [import_seconds(probe(scene, importtime=True)[1]) for _ in range(IMPORT_PROBES)]

    start = time.perf_counter()
    plain = Tally()
    run_ops(
        wl, size, args.seed, 1, plain, start=0, min_ops=MIN_UNTRACED_OPS,
        deadline=start + UNTRACED_SHARE * args.seconds,
    )
    tracer = Tracer()
    tracer.install(minkruled)
    try:
        counted = Tally()
        nxt = run_ops(wl, size, args.seed, 2, counted, start=0, min_ops=COUNT_OPS, deadline=0.0, tracer=tracer)
        cut = tracer.span_count()
        counts = Counter(tracer.counters)
        rest = Tally()
        run_ops(
            wl, size, args.seed, 2, rest, start=nxt, min_ops=0,
            deadline=start + args.seconds, tracer=tracer,
        )
    finally:
        tracer.uninstall()
    for part in (plain, counted, rest):
        tally.samples += part.samples
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.items += part.items

    summary = tracer.summarize(cut, COUNT_OPS)
    calls, self_s, share = summary["calls_per_op"], summary["self_s_per_op"], summary["self_share"]
    items_per_op = counted.items / COUNT_OPS
    metrics = {}
    for key in ("total", "scipy", "numpy"):
        metrics[f"import.{key}_s"] = metric(statistics.median(i[key] for i in imports), "s")
    metrics["import.minkruled_self_s"] = metric(
        statistics.median(i["minkruled"] for i in imports), "s"
    )
    for span in CALLS:
        metrics[f"{span}.calls"] = metric(calls.get(span, 0.0), "count")
    for span in SELF_S:
        metrics[f"{span}.self_s"] = metric(self_s.get(span, 0.0), "s")
    per_op = {name: counts[name] / COUNT_OPS for name in COUNTERS}
    for name, unit in COUNTERS.items():
        metrics[name] = metric(per_op[name], unit)
    frames = calls.get("curves.frenet_apparatus", 0.0)
    metrics["curves.frames_per_output"] = metric(frames / items_per_op if items_per_op else 0.0, "ratio")
    steps = per_op["curves.synthesis_steps"]
    metrics["surfaces.dnorm_evals_per_step"] = metric(
        per_op["surfaces.dnorm_evals"] / steps if steps else 0.0, "ratio"
    )
    attempts = calls.get("verify.random_direction", 0.0)
    metrics["verify.attempts"] = metric(attempts, "count")
    metrics["verify.accept_ratio"] = metric(items_per_op / attempts if attempts else 0.0, "ratio")
    metrics["report.rows"] = metric(items_per_op if wl.items == "rows" else 0.0, "count")
    for module in MODULES:
        metrics[f"{module}.self_share"] = metric(
            sum(v for k, v in share.items() if k.split(".")[0] == module), "ratio"
        )
    metrics["bench.self_share"] = metric(share.get(OP_SPAN, 0.0), "ratio")
    traced_p50 = statistics.median(counted.ratios + rest.ratios)
    plain_p50 = statistics.median(plain.ratios)
    metrics["trace.op_p50_ref"] = metric(traced_p50, "ref")
    metrics["trace.untraced_op_p50_ref"] = metric(plain_p50, "ref")
    metrics["trace.overhead_ref"] = metric(traced_p50 - plain_p50, "ref")

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.npz"
    tracer.write(str(trace_path), COUNT_OPS)
    detail = {
        "traced_ops": summary["ops"],
        "untraced_ops": len(plain.samples),
        "spans": tracer.span_count(),
        "self_sum_gap_s": summary["self_sum_gap_s"],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "import_probes": [dict(i) for i in imports],
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    minkruled = import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    WORK.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK)
    os.chdir(run_dir)
    tally = Tally()
    try:
        # warm-up operation: untimed, but gated and counted
        warm = Tally()
        run_ops(wl, size, args.seed, 0, warm, start=0, min_ops=1, deadline=0.0)
        scene = os.path.join(run_dir, wl.scene) if wl.scene else None
        if args.trace:
            metrics, detail = traced_run(args, wl, size, scene, tally, minkruled)
        else:
            metrics, detail = untraced_run(args, wl, size, scene, tally)
        tally.attempted += warm.attempted
        tally.failed += warm.failed
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "timed_ops": len(tally.samples),
        "fail_ratio": tally.failed / tally.attempted,
        "env": environment(),
        **detail,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
