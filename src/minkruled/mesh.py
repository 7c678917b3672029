"""Grid sampling of ruled surfaces and deterministic OBJ/CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import _darboux
from .involute import InvoluteCurve, involute_point
from .report import _fmt
from .surfaces import RulingDirection, TrajectoryRuledSurface, _drall_closed, _ruling

__all__ = ["SurfaceMesh", "export_mesh", "sample_grid", "write_csv", "write_obj"]


@dataclass(frozen=True)
class SurfaceMesh:
    """Row-major (ns x nv) vertex grid with a per-row drall attribute."""

    s_values: np.ndarray
    v_values: np.ndarray
    vertices: np.ndarray  # (ns, nv, 3)
    drall: np.ndarray  # (ns,)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0] * self.vertices.shape[1]

    @property
    def face_count(self) -> int:
        return (self.vertices.shape[0] - 1) * (self.vertices.shape[1] - 1)


def sample_grid(
    surf: TrajectoryRuledSurface,
    s_range: tuple[float, float],
    v_range: tuple[float, float],
    ns: int,
    nv: int,
) -> SurfaceMesh:
    """Sample phi(s, v) on a finite regular grid; drall per s-row (0 if cylindrical).
    The one-direction case of _sampler, which evaluates the base frame once per grid."""
    return _sampler(surf.inv, s_range, v_range, ns, nv)(surf.direction)


def _sampler(inv: InvoluteCurve, s_range, v_range, ns: int, nv: int):
    """sample_grid over inv as a function of the RulingDirection; evaluates the grid once."""
    if ns < 2 or nv < 2:
        raise ValueError("grid needs ns >= 2 and nv >= 2")
    for name, bounds in (("s_range", s_range), ("v_range", v_range)):
        if not np.all(np.isfinite(bounds)):
            raise ValueError(f"{name} {tuple(bounds)} must be finite")
    svals = np.linspace(float(s_range[0]), float(s_range[1]), ns)
    vvals = np.linspace(float(v_range[0]), float(v_range[1]), nv)
    gamma = involute_point(inv, svals)
    ev = _darboux(inv.base, svals)

    def mesh(direction: RulingDirection) -> SurfaceMesh:
        coeffs = np.array(direction.coefficients())
        vertices = gamma[:, None, :] + vvals[None, :, None] * _ruling(coeffs, ev.frame)[:ns, None]
        return SurfaceMesh(svals, vvals, vertices, _drall_closed(inv, coeffs, ev).value)

    return mesh


def _coordinates(mesh: SurfaceMesh) -> list[list[str]]:
    """The x, y, z of each vertex, row-major, formatted once for every output (_export)."""
    return [[_fmt(x) for x in xyz] for xyz in mesh.vertices.reshape(-1, 3).tolist()]


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    """Wavefront OBJ: one v-line per vertex (row-major), 1-based quad faces."""
    _export(mesh, "obj", path, _coordinates(mesh))


def _obj_lines(mesh: SurfaceMesh, coords: list[list[str]]) -> list[str]:
    ns, nv, _ = mesh.vertices.shape
    corners = (i * nv + j + 1 for i in range(ns - 1) for j in range(nv - 1))
    faces = (f"f {a} {a + nv} {a + nv + 1} {a + 1}" for a in corners)
    return ["# ruled surface mesh", *("v " + " ".join(xyz) for xyz in coords), *faces]


def write_csv(mesh: SurfaceMesh, path: str) -> None:
    """CSV with header s,v,x,y,z,drall, one row per vertex (row-major)."""
    _export(mesh, "csv", path, _coordinates(mesh))


def _csv_lines(mesh: SurfaceMesh, coords: list[list[str]]) -> list[str]:
    xyz = iter(coords)
    v_fmt = [_fmt(v) for v in mesh.v_values.tolist()]
    rows = zip(map(_fmt, mesh.s_values.tolist()), map(_fmt, mesh.drall.tolist()))
    return ["s,v,x,y,z,drall", *(",".join((s, v, *next(xyz), d)) for s, d in rows for v in v_fmt)]


_LINES = {"obj": _obj_lines, "csv": _csv_lines}


def _export(mesh: SurfaceMesh, fmt: str, path: str, coords: list[list[str]]) -> None:
    text = "\n".join(_LINES[fmt](mesh, coords)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def export_mesh(mesh: SurfaceMesh, fmt: str, path: str) -> None:
    """Write the mesh in the requested format ('obj' or 'csv')."""
    key = fmt.strip().lower()
    if key not in _LINES:
        raise ValueError(f"unsupported mesh format {fmt!r}")
    _export(mesh, key, path, _coordinates(mesh))
