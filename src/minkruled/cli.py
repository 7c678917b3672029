"""Command-line front end: analysis reports, mesh export, oracle checks.

Exit codes: 0 success, 2 configuration error, 3 numerical degeneracies
demoted to warnings. The MINKRULED_SEED environment variable overrides the
--seed option of the verify command.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import build_curve, load_config, split_range
from .errors import ConfigError, GeometryError
from .involute import InvoluteCurve
from .mesh import _coordinates, _export, _sampler
from .report import run_report
from .surfaces import make_direction
from .verify import run_trials

__all__ = ["main"]


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    result = run_report(cfg)
    sys.stdout.write(result.text)
    return result.exit_code


def _segment_path(path: str, direction_index: int, segment_index: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_d{direction_index}_s{segment_index}{ext}"


def _cmd_mesh(args) -> int:
    cfg = load_config(args.config)
    curve = build_curve(cfg)
    segments = split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
    if len(segments) > 1:
        print(
            f"warning: s-range crosses the involute cusp at s = {cfg.c_const}; "
            f"splitting into {len(segments)} segments"
        )
    warned = False
    samplers = {}  # segment index -> its grid, evaluated for the first direction
    for d_idx, direction in enumerate(make_direction(*coeffs) for coeffs in cfg.directions):
        for seg_idx, seg in enumerate(segments):
            if seg_idx not in samplers:
                inv = InvoluteCurve(curve, cfg.c_const, domain=seg)
                samplers[seg_idx] = _sampler(inv, seg, cfg.v_range, *cfg.grid)
            mesh = samplers[seg_idx](direction)
            if not np.all(np.isfinite(mesh.drall)):
                warned = True
                print(f"warning: singular drall in direction {d_idx} segment {seg_idx}")
            coords = _coordinates(mesh) if cfg.outputs else []
            for out in cfg.outputs:
                path = _segment_path(out.path, d_idx, seg_idx)
                try:
                    _export(mesh, out.fmt, path, coords)
                except OSError as exc:
                    raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
                print(f"wrote {path}: {mesh.vertex_count} vertices, {mesh.face_count} faces")
    return 3 if warned else 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed
    env_seed = os.environ.get("MINKRULED_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"error: MINKRULED_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
        if seed < 0:
            print(
                f"error: MINKRULED_SEED must be a non-negative integer, got {env_seed!r}",
                file=sys.stderr,
            )
            return 2
    curve = build_curve(cfg)
    segments = split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
    window = max(segments, key=lambda p: p[1] - p[0])
    rng = np.random.default_rng(seed)
    try:
        trials = run_trials(curve, cfg.c_const, window, rng, args.trials)
    except RuntimeError as exc:  # too few well-conditioned draws: a degenerate scene
        print(f"error: {exc}", file=sys.stderr)
        return 3
    worst = max(t.rel_err for t in trials)
    failures = [t for t in trials if not t.agree]
    print(f"trials: {len(trials)}  seed: {seed}  window: [{window[0]:.9g}, {window[1]:.9g}]")
    print(f"max relative deviation (closed vs numeric): {worst:.9g}")
    by_class: dict[str, int] = {}
    for t in trials:
        key = t.closed.degeneracy.value
        by_class[key] = by_class.get(key, 0) + 1
    for key in sorted(by_class):
        print(f"  {key}: {by_class[key]}")
    if failures:
        for t in failures:
            print(
                f"FAIL s={t.s:.9g} x=({t.direction.x1:.9g}, {t.direction.x2:.9g}, "
                f"{t.direction.x3:.9g}) closed={t.closed.value:.9g} "
                f"numeric={t.numeric.value:.9g}"
            )
        print("verdict: FAIL")
        return 3
    print("verdict: PASS")
    return 0


def _int_at_least(minimum: int, what: str):
    """argparse type: an integer of at least minimum, else a usage error naming what."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
        return value

    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="minkruled",
        description=(
            "Involute trajectory timelike ruled surfaces in Minkowski 3-space: "
            "frame analysis, distribution parameters, developability, meshes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print the analysis report for a scene")
    p_report.add_argument("config", help="path to a JSON scene file")
    p_report.set_defaults(func=_cmd_report)

    p_mesh = sub.add_parser("mesh", help="sample the scene surfaces and export meshes")
    p_mesh.add_argument("config", help="path to a JSON scene file")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_verify = sub.add_parser(
        "verify", help="randomized closed-form vs determinant drall cross-check"
    )
    p_verify.add_argument("config", help="path to a JSON scene file")
    p_verify.add_argument("--trials", type=_int_at_least(1, "positive"), default=50)
    p_verify.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=0)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
