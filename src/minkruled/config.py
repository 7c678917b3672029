"""Scene configuration: JSON schema, validation, and curve building.

A scene names a curve (the builtin helix or a prescribed curvature/torsion
pair), the involute constant c, ruling directions, sampling ranges, a grid,
and output files. Prescribed functions are polynomial coefficient lists or
sample tables with linear interpolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curves import Curve, curve_from_curvature, helix_curve
from .errors import ConfigError, NullDirectionError
from .involute import EPS_CUSP, split_range
from .surfaces import make_direction

__all__ = [
    "CurveSpec",
    "OutputSpec",
    "SceneConfig",
    "build_curve",
    "load_config",
    "parse_config",
    "split_range",
]

BUILTIN_HELIX = "timelike-helix"
DOMAIN_PAD = 0.05


@dataclass(frozen=True)
class OutputSpec:
    fmt: str
    path: str


@dataclass(frozen=True)
class CurveSpec:
    builtin: str | None = None
    kappa: Callable[[float], float] | None = None
    tau: Callable[[float], float] | None = None
    domain: tuple[float, float] | None = None
    initial_point: tuple[float, float, float] | None = None
    initial_frame: tuple | None = None


@dataclass(frozen=True)
class SceneConfig:
    curve: CurveSpec
    c_const: float
    directions: list[tuple[float, float, float]]
    s_range: tuple[float, float]
    v_range: tuple[float, float]
    grid: tuple[int, int]
    outputs: list[OutputSpec] = field(default_factory=list)
    samples: int = 9
    cusp_margin: float = 0.01


def _fail(path: str, why: str) -> ConfigError:
    return ConfigError(f"{path}: {why}")


def _number(raw, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise _fail(path, "expected a number")
    val = float(raw)
    if not math.isfinite(val):
        raise _fail(path, "must be finite")
    return val


def _pair(raw, path: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise _fail(path, "expected a [lo, hi] pair")
    lo = _number(raw[0], f"{path}[0]")
    hi = _number(raw[1], f"{path}[1]")
    if lo >= hi:
        raise _fail(path, "must satisfy lo < hi")
    return (lo, hi)


def polynomial(coeffs: Sequence[float]) -> Callable[[float], float]:
    """Horner evaluation of sum(c_k s^k), coefficients constant term first."""
    cs = list(coeffs)

    def poly(s: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * s + c
        return acc

    return poly


def _function(raw, path: str) -> Callable[[float], float]:
    if not isinstance(raw, dict):
        raise _fail(path, "expected an object with 'poly' or 'table'")
    if "poly" in raw:
        coeffs = raw["poly"]
        if not isinstance(coeffs, list) or not coeffs:
            raise _fail(f"{path}.poly", "expected a non-empty coefficient list")
        return polynomial([_number(c, f"{path}.poly[{i}]") for i, c in enumerate(coeffs)])
    if "table" in raw:
        tab = raw["table"]
        if not isinstance(tab, dict) or "s" not in tab or "values" not in tab:
            raise _fail(f"{path}.table", "expected keys 's' and 'values'")
        ss = [_number(v, f"{path}.table.s[{i}]") for i, v in enumerate(tab["s"])]
        vals = [
            _number(v, f"{path}.table.values[{i}]") for i, v in enumerate(tab["values"])
        ]
        if len(ss) != len(vals) or len(ss) < 2:
            raise _fail(f"{path}.table", "'s' and 'values' need equal length >= 2")
        if any(b <= a for a, b in zip(ss, ss[1:])):
            raise _fail(f"{path}.table.s", "must be strictly increasing")
        s_arr = np.array(ss)
        v_arr = np.array(vals)

        def table(s: float) -> float:
            return float(np.interp(s, s_arr, v_arr))

        return table
    raise _fail(path, "expected 'poly' or 'table'")


def _curve_spec(raw, path: str) -> CurveSpec:
    if not isinstance(raw, dict):
        raise _fail(path, "expected an object")
    if "builtin" in raw:
        name = raw["builtin"]
        if name != BUILTIN_HELIX:
            raise _fail(f"{path}.builtin", f"unknown builtin {name!r}")
        return CurveSpec(builtin=name)
    if "kappa" not in raw or "tau" not in raw:
        raise _fail(path, "needs either 'builtin' or both 'kappa' and 'tau'")
    kappa = _function(raw["kappa"], f"{path}.kappa")
    tau = _function(raw["tau"], f"{path}.tau")
    domain = _pair(raw["domain"], f"{path}.domain") if "domain" in raw else None
    point = None
    if "initial_point" in raw:
        arr = raw["initial_point"]
        if not isinstance(arr, list) or len(arr) != 3:
            raise _fail(f"{path}.initial_point", "expected three numbers")
        point = tuple(_number(v, f"{path}.initial_point[{i}]") for i, v in enumerate(arr))
    frame = None
    if "initial_frame" in raw:
        fr = raw["initial_frame"]
        if not isinstance(fr, dict) or any(k not in fr for k in ("t", "n", "b")):
            raise _fail(f"{path}.initial_frame", "expected keys 't', 'n', 'b'")
        frame = tuple(
            tuple(_number(v, f"{path}.initial_frame.{k}[{i}]") for i, v in enumerate(fr[k]))
            for k in ("t", "n", "b")
        )
    return CurveSpec(
        kappa=kappa, tau=tau, domain=domain, initial_point=point, initial_frame=frame
    )


def parse_config(raw: dict) -> SceneConfig:
    """Validate a decoded JSON object into a SceneConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")
    for key in ("curve", "c", "directions", "s_range", "v_range", "grid"):
        if key not in raw:
            raise _fail(key, "missing required field")
    curve = _curve_spec(raw["curve"], "curve")
    c_const = _number(raw["c"], "c")
    dirs_raw = raw["directions"]
    if not isinstance(dirs_raw, list) or not dirs_raw:
        raise _fail("directions", "expected a non-empty list")
    directions = []
    for i, d in enumerate(dirs_raw):
        if not isinstance(d, list) or len(d) != 3:
            raise _fail(f"directions[{i}]", "expected three numbers")
        direction = tuple(_number(v, f"directions[{i}][{j}]") for j, v in enumerate(d))
        try:
            make_direction(*direction)
        except NullDirectionError as exc:
            raise _fail(f"directions[{i}]", str(exc)) from None
        directions.append(direction)
    s_range = _pair(raw["s_range"], "s_range")
    v_range = _pair(raw["v_range"], "v_range")
    grid_raw = raw["grid"]
    if (
        not isinstance(grid_raw, list)
        or len(grid_raw) != 2
        or any(isinstance(g, bool) or not isinstance(g, int) for g in grid_raw)
    ):
        raise _fail("grid", "expected two integers")
    if grid_raw[0] < 2 or grid_raw[1] < 2:
        raise _fail("grid", "both grid counts must be >= 2")
    outputs = []
    for i, out in enumerate(raw.get("outputs", [])):
        if not isinstance(out, dict) or "format" not in out or "path" not in out:
            raise _fail(f"outputs[{i}]", "expected keys 'format' and 'path'")
        fmt = str(out["format"]).lower()
        if fmt not in ("obj", "csv"):
            raise _fail(f"outputs[{i}].format", f"unsupported format {out['format']!r}")
        outputs.append(OutputSpec(fmt=fmt, path=str(out["path"])))
    samples = raw.get("samples", 9)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 2:
        raise _fail("samples", "expected an integer >= 2")
    cusp_margin = _number(raw.get("cusp_margin", 0.01), "cusp_margin")
    if cusp_margin < EPS_CUSP:
        raise _fail("cusp_margin", f"must be at least {EPS_CUSP}")
    cfg = SceneConfig(
        curve=curve,
        c_const=c_const,
        directions=directions,
        s_range=s_range,
        v_range=v_range,
        grid=(grid_raw[0], grid_raw[1]),
        outputs=outputs,
        samples=samples,
        cusp_margin=cusp_margin,
    )
    if curve.domain is not None:
        lo, hi = curve.domain
        if s_range[0] < lo or s_range[1] > hi:
            raise _fail("s_range", "must lie inside curve.domain")
    if not split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin):
        raise _fail("s_range", "entirely inside the cusp exclusion window")
    return cfg


def load_config(path: str) -> SceneConfig:
    """Read and validate a JSON scene file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)


def build_curve(cfg: SceneConfig) -> Curve:
    """Materialize the configured curve, padded past s_range for stencils."""
    lo, hi = cfg.s_range
    if cfg.curve.builtin == BUILTIN_HELIX:
        return helix_curve(2.0 / 3.0, 1.0 / 3.0, domain=(lo - DOMAIN_PAD, hi + DOMAIN_PAD))
    domain = cfg.curve.domain if cfg.curve.domain is not None else cfg.s_range
    return curve_from_curvature(
        cfg.curve.kappa,
        cfg.curve.tau,
        initial_frame=cfg.curve.initial_frame,
        initial_point=cfg.curve.initial_point,
        domain=(domain[0] - DOMAIN_PAD, domain[1] + DOMAIN_PAD),
    )
