"""Deterministic plain-text analysis reports for a configured scene.

Every number in the report comes from a library operation; the report layer
only formats. Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SceneConfig, build_curve, split_range
from .curves import _Code, _darboux, _error, _general_helix, _samples, orthonormality_residuals
from .involute import InvoluteCurve
from .lorentz import coordinate_cross, cross
from .surfaces import (
    Degeneracy,
    _coefficients,
    _drall_closed,
    _drall_numeric,
    _striction,
    _verdict,
    general_surface,
)

__all__ = ["ReportResult", "run_report"]

MISMATCH_TOL = 1e-3


@dataclass(frozen=True)
class ReportResult:
    text: str
    exit_code: int
    warnings: tuple[str, ...]


def _fmt(x: float) -> str:
    # 9 significant digits; +0.0 normalizes negative zero
    return f"{float(x) + 0.0:.9g}"


def _sample_points(segments: list[tuple[float, float]], samples: int) -> list[list[float]]:
    """Sample points of each segment, about samples in all."""
    total_len = sum(b - a for a, b in segments)
    return [
        [float(s) for s in np.linspace(a, b, max(2, round(samples * (b - a) / total_len)))]
        for a, b in segments
    ]


def _frame_residuals(t, n, b) -> tuple[float, float, float]:
    ortho = max(abs(v) for v in orthonormality_residuals(t, n, b).values())
    printed = [
        (coordinate_cross(t, n), -b),
        (coordinate_cross(n, b), t),
        (coordinate_cross(b, t), -n),
    ]
    coord = max(float(np.max(np.abs(got - want))) for got, want in printed)
    flipped = [
        (cross(t, n), b),
        (cross(n, b), -t),
        (cross(b, t), n),
    ]
    dual = max(float(np.max(np.abs(got - want))) for got, want in flipped)
    return ortho, coord, dual


def run_report(cfg: SceneConfig) -> ReportResult:
    """Analyze the scene and render the report.

    Exit code 0 on a clean run, 3 when numerical degeneracies were demoted
    to warnings (singular dralls, closed/numeric disagreements, striction
    inconsistencies). Configuration errors are raised before this point and
    map to exit code 2 in the command-line front end.

    The base curve is evaluated once for its table and once per segment; a
    segment's evaluation serves every direction, and each row and verdict
    comes from array results whose per-sample codes mark error cells.
    """
    warnings: list[str] = []
    lines: list[str] = []
    curve = build_curve(cfg)
    segments = split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
    seg_samples = _sample_points(segments, cfg.samples)
    samples = [s for points in seg_samples for s in points]

    lines.append("= scene =")
    kind = cfg.curve.builtin if cfg.curve.builtin else "prescribed curvature/torsion"
    lines.append(f"curve: {kind}")
    lines.append(f"c: {_fmt(cfg.c_const)}")
    lines.append(
        "s-range: [" + _fmt(cfg.s_range[0]) + ", " + _fmt(cfg.s_range[1]) + "]"
    )
    lines.append(
        "v-range: [" + _fmt(cfg.v_range[0]) + ", " + _fmt(cfg.v_range[1]) + "]"
    )
    if len(segments) > 1:
        lines.append(
            "note: s-range crosses the involute cusp at s = c; "
            "analysis splits into "
            + " and ".join(f"[{_fmt(a)}, {_fmt(b)}]" for a, b in segments)
        )

    lines.append("")
    lines.append("= base curve =")
    header = f"{'s':>14} {'kappa':>14} {'tau':>14} {'theta':>14} {'theta_dot':>14}"
    lines.append(header)
    ev = _darboux(curve, _samples(samples))
    fa, dd = ev.fa, ev.dd
    runs: list[list] = []  # [causal class, first s, last s] per run of samples
    for *row, cls in zip(samples, fa.kappa, fa.tau, dd.theta, dd.theta_dot, map(str, dd.d_class)):
        lines.append(" ".join(f"{_fmt(x):>14}" for x in row))
        if runs and runs[-1][0] == cls:
            runs[-1][2] = row[0]
        else:
            runs.append([cls, row[0], row[0]])
    if len(runs) == 1:
        lines.append(f"rotation vector: {runs[0][0]}")
    else:
        lines.append(
            "rotation vector: "
            + ", ".join(f"{cls} on [{_fmt(a)}, {_fmt(b)}]" for cls, a, b in runs)
        )
        for (before, _, last), (after, first, _) in zip(runs, runs[1:]):
            warnings.append(
                f"rotation vector turns from {before} to {after} between "
                f"s = {_fmt(last)} and s = {_fmt(first)}; theta and theta_dot "
                "change branch there"
            )
    helix, deviation = _general_helix(fa)
    lines.append(
        f"general helix: {'yes' if helix else 'no'} "
        f"(ratio deviation {_fmt(deviation)})"
    )
    ortho, coord_res, dual_res = _frame_residuals(fa.t[0], fa.n[0], fa.b[0])
    lines.append(f"frame orthonormality residual: {_fmt(ortho)}")
    lines.append(
        "frame product residuals: coordinate rule "
        + _fmt(coord_res)
        + ", determinant rule (global sign -1) "
        + _fmt(dual_res)
    )

    seg_evals = [_darboux(curve, _samples(points)) for points in seg_samples]
    seg_invs = [InvoluteCurve(curve, cfg.c_const, domain=seg) for seg in segments]
    for d_idx, coeffs in enumerate(cfg.directions):
        seg_surfaces = [general_surface(inv, *coeffs) for inv in seg_invs]
        d = seg_surfaces[0].direction
        lines += [
            "",
            f"= direction {d_idx}: [{_fmt(coeffs[0])}, {_fmt(coeffs[1])}, {_fmt(coeffs[2])}] =",
            f"normalized: [{_fmt(d.x1)}, {_fmt(d.x2)}, {_fmt(d.x3)}] ({d.causal})",
            f"{'s':>14} {'drall closed':>14} {'drall numeric':>14} "
            f"{'degeneracy':>12} {'striction':>14}",
        ]
        verdicts = []
        for surf, points, seg_ev in zip(seg_surfaces, seg_samples, seg_evals):
            normalized = _coefficients(surf)
            closed = _drall_closed(surf.inv, normalized, seg_ev)
            numeric, numeric_codes, drift = _drall_numeric(surf.inv, normalized, seg_ev)
            strict, strict_codes = _striction(surf.inv, normalized, seg_ev)
            verdicts.append(_verdict(surf, seg_ev, closed))
            for i, s in enumerate(points):
                value, degeneracy, num = closed.value[i], closed.degeneracy[i], numeric.value[i]
                if numeric_codes[i] != _Code.OK:
                    numeric_txt = "error"
                    error = _error(numeric_codes[i], s=s, drift=drift[i])
                    warnings.append(f"direction {d_idx}: {error}")
                else:
                    numeric_txt = _fmt(num)
                    regular = degeneracy is numeric.degeneracy[i] is Degeneracy.REGULAR
                    if regular and abs(value - num) > MISMATCH_TOL * max(1.0, abs(num)):
                        warnings.append(
                            f"direction {d_idx}: closed/numeric drall disagree "
                            f"at s = {_fmt(s)} ({_fmt(value)} vs {_fmt(num)})"
                        )
                if degeneracy is Degeneracy.SINGULAR:
                    warnings.append(
                        f"direction {d_idx}: singular drall denominator at s = {_fmt(s)}"
                    )
                offset, offset_closed = strict.offset[i], strict.offset_closed[i]
                if strict_codes[i] == _Code.CYLINDRICAL:
                    strict_txt = "cylindrical"
                elif strict_codes[i] != _Code.OK:
                    strict_txt = "error"
                    error = _error(strict_codes[i], s=s, offset=offset, offset_closed=offset_closed)
                    warnings.append(f"direction {d_idx}: {error}")
                else:
                    strict_txt = _fmt(offset)
                lines.append(
                    f"{_fmt(s):>14} {_fmt(value):>14} {numeric_txt:>14} "
                    f"{degeneracy.value:>12} {strict_txt:>14}"
                )
        developable = all(v.developable for v in verdicts)
        lines.append(f"developable: {'yes' if developable else 'no'} ({verdicts[0].reason})")

    lines += ["", "= warnings =", *([f"! {w}" for w in warnings] or ["(none)"])]

    text = "\n".join(lines) + "\n"
    return ReportResult(
        text=text, exit_code=3 if warnings else 0, warnings=tuple(warnings)
    )
