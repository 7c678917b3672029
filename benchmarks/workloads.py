"""The four benchmark workloads: seeded inputs, the timed operation, its gate.

Every operation gets its own input, drawn from ``(seed, phase, index)``, so
no operation repeats an earlier one. A workload builds an ``Op`` outside the
timed interval (scene generation, file writing), times only ``Op.run``, and
then calls ``Op.check`` on the result, again outside the timed interval.
``check`` raises ``GateFailure`` when an output is wrong and otherwise
returns the number of output items (vertices, rows, trials or surfaces).

The gates avoid the function under test: they compare against the
benchmark's own closed forms and polynomials, against a second output
format, or against an independent oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import minkruled as mk
import minkruled.cli as mk_cli
from minkruled.surfaces import TAU_DEV, ProfileKind

from spans import PRESCRIBED_SPAN

# Builtin helix of the scene format: curvature 2/3, torsion 1/3.
HELIX_KAPPA = 2.0 / 3.0
HELIX_TAU = 1.0 / 3.0
CUSP_MARGIN = 0.01
AXES = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# Output sizes per workload: the full benchmark and the self-test.
SIZES = {
    "full": {
        "mesh_grid": [16, 7],
        "verify_trials": 60,
        "report_samples": 8,
        "dev_span": 0.22,
        "dev_samples": 6,
    },
    "tiny": {
        "mesh_grid": [4, 3],
        "verify_trials": 5,
        "report_samples": 4,
        "dev_span": 0.06,
        "dev_samples": 3,
    },
}


class GateFailure(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], int]


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise GateFailure(why)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mk_cli.main(argv)
    return rc, buf.getvalue()


def _write_scene(path: str, scene: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)


def _poly(coeffs, s):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _general_direction(rng: np.random.Generator) -> list[float]:
    """Ruling coefficients well away from null and from singular dralls."""
    for _ in range(10_000):
        x1, x2, x3 = (float(v) for v in rng.uniform(-1.2, 1.2, size=3))
        if (
            abs(x1 * x1 - x2 * x2 + x3 * x3) >= 0.3
            and abs(x1 * x1 - x2 * x2) >= 0.3
            and abs(x3 * x3 - x2 * x2) >= 0.3
        ):
            return [x1, x2, x3]
    raise RuntimeError("no well-conditioned direction drawn")


# --- helix scenes: mesh-helix and verify-helix -------------------------------


def helix_scene(rng: np.random.Generator, size: dict) -> dict:
    """Builtin helix over [0, 2] with the cusp at c = 1 (two segments)."""
    return {
        "curve": {"builtin": "timelike-helix"},
        "c": 1.0,
        "directions": AXES + [_general_direction(rng)],
        "s_range": [0.0, 2.0],
        "v_range": [-2.0, 2.0],
        "grid": list(size["mesh_grid"]),
        "outputs": [
            {"format": "obj", "path": "out/mesh.obj"},
            {"format": "csv", "path": "out/mesh.csv"},
        ],
        "samples": 9,
        "cusp_margin": CUSP_MARGIN,
    }


def _helix_involute(s: np.ndarray, c: float) -> np.ndarray:
    """gamma(s) = r(s) + (c - s) t(s) for the builtin helix, in closed form."""
    w = math.sqrt(HELIX_KAPPA ** 2 - HELIX_TAU ** 2)
    beta = HELIX_KAPPA / (w * w)
    alpha = HELIX_TAU / w
    r = np.stack([beta * np.sinh(w * s), beta * np.cosh(w * s), alpha * s], axis=-1)
    t = np.stack(
        [beta * w * np.cosh(w * s), beta * w * np.sinh(w * s), np.full_like(s, alpha)],
        axis=-1,
    )
    return r + (c - s)[:, None] * t


def _segments(s_range, c, margin):
    lo, hi = s_range
    return [(lo, c - margin), (c + margin, hi)]


def _read_lines(path: str) -> list[str]:
    _require(os.path.isfile(path), f"missing output {path}")
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _check_mesh_pair(obj_path, csv_path, ns, nv, seg, c) -> int:
    obj = _read_lines(obj_path)
    verts = [ln[2:] for ln in obj if ln.startswith("v ")]
    faces = [ln for ln in obj if ln.startswith("f ")]
    _require(len(verts) == ns * nv, f"{obj_path}: {len(verts)} vertices, want {ns * nv}")
    _require(
        len(faces) == (ns - 1) * (nv - 1),
        f"{obj_path}: {len(faces)} faces, want {(ns - 1) * (nv - 1)}",
    )
    rows = _read_lines(csv_path)
    _require(rows[0] == "s,v,x,y,z,drall", f"{csv_path}: bad header")
    rows = [r.split(",") for r in rows[1:]]
    _require(len(rows) == ns * nv, f"{csv_path}: {len(rows)} rows, want {ns * nv}")
    for k, (vert, row) in enumerate(zip(verts, rows)):
        _require(vert == " ".join(row[2:5]), f"OBJ and CSV differ at vertex {k}")
    table = np.array(rows, dtype=float).reshape(ns, nv, 6)
    s_vals = table[:, 0, 0]
    v_vals = table[0, :, 1]
    _require(
        np.allclose(s_vals, np.linspace(seg[0], seg[1], ns), rtol=0, atol=1e-8),
        f"{csv_path}: s column is not the grid over {seg}",
    )
    _require(np.all(np.isfinite(table[:, :, 5])), f"{csv_path}: non-finite drall")
    pts = table[:, :, 2:5]
    scale = max(1.0, float(np.max(np.abs(pts))))
    # v = 0 is the involute itself
    mid = nv // 2
    _require(v_vals[mid] == 0.0, f"{csv_path}: no v = 0 column")
    gap = np.max(np.abs(pts[:, mid, :] - _helix_involute(s_vals, c)))
    _require(gap <= 1e-6 * scale, f"{csv_path}: v = 0 row is off the involute by {gap}")
    # every ruling is a straight line in v
    frac = (v_vals - v_vals[0]) / (v_vals[-1] - v_vals[0])
    line = pts[:, :1, :] + frac[None, :, None] * (pts[:, -1:, :] - pts[:, :1, :])
    bend = float(np.max(np.abs(pts - line)))
    _require(bend <= 1e-6 * scale, f"{csv_path}: ruling bends by {bend}")
    return ns * nv


def mesh_op(rng: np.random.Generator, size: dict) -> Op:
    scene = helix_scene(rng, size)
    os.makedirs("out", exist_ok=True)
    for name in os.listdir("out"):
        os.remove(os.path.join("out", name))
    _write_scene("mesh.json", scene)
    ns, nv = scene["grid"]
    segs = _segments(scene["s_range"], scene["c"], scene["cusp_margin"])

    def check(result) -> int:
        rc, text = result
        _require(rc == 0, f"mesh exited with {rc}")
        _require("splitting into 2 segments" in text, "cusp split not reported")
        wrote = [ln for ln in text.splitlines() if ln.startswith("wrote ")]
        _require(len(wrote) == 2 * 4 * len(segs), f"{len(wrote)} files reported")
        vertices = 0
        for d in range(len(scene["directions"])):
            for k, seg in enumerate(segs):
                obj = f"out/mesh_d{d}_s{k}.obj"
                csv = f"out/mesh_d{d}_s{k}.csv"
                for path in (obj, csv):
                    _require(
                        f"wrote {path}: {ns * nv} vertices, {(ns - 1) * (nv - 1)} faces"
                        in wrote,
                        f"no report line for {path}",
                    )
                vertices += _check_mesh_pair(obj, csv, ns, nv, seg, scene["c"])
        return vertices

    return Op(run=lambda: _run_cli(["mesh", "mesh.json"]), check=check)


def verify_op(rng: np.random.Generator, size: dict) -> Op:
    scene = helix_scene(rng, size)
    scene["outputs"] = []
    _write_scene("verify.json", scene)
    trials = size["verify_trials"]
    seed = int(rng.integers(0, 2 ** 31 - 1))
    argv = ["verify", "verify.json", "--trials", str(trials), "--seed", str(seed)]

    def check(result) -> int:
        rc, text = result
        _require(rc == 0, f"verify exited with {rc}")
        lines = text.splitlines()
        _require(lines[-1] == "verdict: PASS", f"verdict line {lines[-1]!r}")
        _require(
            lines[0].startswith(f"trials: {trials}  seed: {seed}  "),
            f"header line {lines[0]!r}",
        )
        return trials

    return Op(run=lambda: _run_cli(argv), check=check)


# --- report-synth ---------------------------------------------------------------


def synth_polys(rng: np.random.Generator, s_range) -> tuple[list[float], list[float]]:
    """kappa quadratic and tau = ratio * kappa with build_case1_curve's ranges.

    |tau/kappa| <= 0.85 and kappa >= 0.3 hold on the range widened by 0.1 at
    each end, so the rotation vector stays spacelike over the whole domain.
    """
    grid = np.linspace(s_range[0] - 0.1, s_range[1] + 0.1, 65)
    for _ in range(10_000):
        kappa = [
            rng.uniform(0.7, 1.6), rng.uniform(-0.12, 0.12), rng.uniform(-0.05, 0.05)
        ]
        ratio = [rng.uniform(-0.55, 0.55), rng.uniform(-0.12, 0.12)]
        if max(abs(_poly(ratio, s)) for s in grid) > 0.85:
            continue
        if min(_poly(kappa, s) for s in grid) < 0.3:
            continue
        tau = np.polynomial.polynomial.polymul(ratio, kappa)
        return [float(v) for v in kappa], [float(v) for v in tau]
    raise RuntimeError("no admissible curvature/torsion pair drawn")


def _blocks(text: str) -> dict[str, list[str]]:
    out = {}
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if lines:
            out[lines[0]] = lines[1:]
    return out


def _table_rows(lines: list[str]) -> list[list[str]]:
    rows = []
    for ln in lines:
        cols = ln.split()
        if len(cols) != 5:
            continue
        try:
            float(cols[0])
        except ValueError:
            continue
        rows.append(cols)
    return rows


def report_op(rng: np.random.Generator, size: dict) -> Op:
    s_range = [0.0, 0.8]
    kappa, tau = synth_polys(rng, s_range)
    scene = {
        "curve": {"kappa": {"poly": kappa}, "tau": {"poly": tau}},
        "c": 0.4,
        "directions": AXES + [_general_direction(rng)],
        "s_range": s_range,
        "v_range": [-1.0, 1.0],
        "grid": [4, 3],
        "samples": size["report_samples"],
        "cusp_margin": CUSP_MARGIN,
    }
    _write_scene("report.json", scene)

    def check(result) -> int:
        rc, text = result
        _require(rc == 0, f"report exited with {rc}")
        blocks = _blocks(text)
        _require(blocks.get("= warnings =") == ["(none)"], "report has warnings")
        base = _table_rows(blocks.get("= base curve =", []))
        # at least two samples on each side of the cusp
        _require(len(base) >= 4, f"{len(base)} base-curve rows")
        for cols in base:
            s, k, t = (float(v) for v in cols[:3])
            for name, got, want in (("kappa", k, _poly(kappa, s)), ("tau", t, _poly(tau, s))):
                _require(
                    abs(got - want) <= 1e-6 * max(1.0, abs(want)),
                    f"{name} at s = {s}: report {got}, prescribed {want}",
                )
        rows = 0
        for d in range(len(scene["directions"])):
            title = next((k for k in blocks if k.startswith(f"= direction {d}:")), None)
            _require(title is not None, f"direction {d} missing")
            table = _table_rows(blocks[title])
            _require(len(table) == len(base), f"direction {d}: {len(table)} rows")
            for cols in table:
                _require("error" not in cols, f"direction {d}: error at s = {cols[0]}")
                _require(cols[3] != "singular", f"direction {d}: singular at s = {cols[0]}")
            _require(
                any(ln.startswith("developable: ") for ln in blocks[title]),
                f"direction {d}: no verdict",
            )
            rows += len(table)
        return rows

    return Op(run=lambda: _run_cli(["report", "report.json"]), check=check)


# --- developable-synth ---------------------------------------------------------


def developable_inputs(rng: np.random.Generator) -> list[tuple]:
    """(kind, coefficients, lam, dnorm slope) for a general and a rectifying
    ruling; the general one is drawn as in acceptance criterion 5.

    On the developable profile <X', X'> = ||d||^2 x2^2 <X, X> / (x3^2 - x2^2),
    so a general ruling with x2 near 0 gives a nearly cylindrical surface
    whose drall is a ratio of two roundoff-sized numbers (x2 = 0 is the
    rectifying case, drawn separately). The draw keeps |x2| >= 0.15.
    """
    for _ in range(10_000):
        x = [float(v) for v in rng.uniform(-1.2, 1.2, size=3)]
        gap = x[2] ** 2 - x[1] ** 2
        if (
            abs(gap) >= 0.25
            and abs(x[1]) >= 0.15
            and abs(x[0] * x[2] / gap) <= 1.2
            and abs(x[0] ** 2 - x[1] ** 2 + x[2] ** 2) >= 0.2
        ):
            break
    else:
        raise RuntimeError("no admissible general direction drawn")
    x3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    x1 = float(rng.uniform(-1.2, 1.2) * abs(x3))
    lams = [float(v) for v in rng.uniform(-0.3, 0.3, size=2)]
    slopes = [float(v) for v in rng.uniform(0.0, 0.2, size=2)]
    return [
        (ProfileKind.GENERAL, tuple(x), lams[0], slopes[0]),
        (ProfileKind.RECTIFYING, (x1, 0.0, x3), lams[1], slopes[1]),
    ]


def developable_op(rng: np.random.Generator, size: dict, tracer=None) -> Op:
    """developable_prescription -> curve_from_curvature -> classify_developability.

    With a tracer (traced runs only), the benchmark's own dnorm_fn counts its
    evaluations, and the prescribed kappa/tau closures count theirs and get
    a span of their own.
    """
    inputs = developable_inputs(rng)
    span = size["dev_span"]
    c_const = 2.0
    window = (0.05 * span, 0.95 * span)
    samples = [float(s) for s in np.linspace(window[0], window[1], size["dev_samples"])]

    def make_dnorm(slope):
        if tracer is None:
            return lambda s: 0.5 + slope * s
        counters = tracer.counters

        def dnorm(s):
            if tracer.active:
                counters["surfaces.dnorm_evals"] += 1
            return 0.5 + slope * s

        return dnorm

    def counted(fn):
        if tracer is None:
            return fn
        counters = tracer.counters

        def prescribed(s):
            counters["surfaces.prescribed_evals"] += 1
            return fn(s)

        return tracer.span(PRESCRIBED_SPAN, fn, traced_fn=prescribed)

    def run():
        built = []
        for kind, coeffs, lam, slope in inputs:
            direction = mk.make_direction(*coeffs)
            kf, tf = mk.developable_prescription(direction, make_dnorm(slope), lam, kind=kind)
            curve = mk.curve_from_curvature(counted(kf), counted(tf), domain=(0.0, span))
            inv = mk.InvoluteCurve(curve, c_const, domain=window)
            surf = mk.TrajectoryRuledSurface(inv=inv, direction=direction)
            built.append((surf, mk.classify_developability(surf, samples)))
        return built

    def check(built) -> int:
        for surf, verdict in built:
            _require(verdict.developable, f"not developable: {verdict.reason}")
            _require(
                verdict.max_abs_drall <= TAU_DEV,
                f"max |drall| {verdict.max_abs_drall} above {TAU_DEV}",
            )
            # independent oracle: the determinant drall
            for s in samples:
                value = mk.drall_numeric(surf, s).value
                _require(abs(value) <= TAU_DEV, f"determinant drall {value} at s = {s}")
        return len(built)

    return Op(run=run, check=check)


@dataclass(frozen=True)
class Workload:
    build: Callable[..., Op]  # (rng, size, tracer) -> Op
    items: str  # what one output item is, for the throughput
    scene: str | None  # scene file the set-up probe loads


WORKLOADS = {
    "mesh-helix": Workload(lambda rng, size, tracer: mesh_op(rng, size), "vertices", "mesh.json"),
    "report-synth": Workload(lambda rng, size, tracer: report_op(rng, size), "rows", "report.json"),
    "verify-helix": Workload(lambda rng, size, tracer: verify_op(rng, size), "trials", "verify.json"),
    "developable-synth": Workload(developable_op, "surfaces", None),
}
