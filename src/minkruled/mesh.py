"""Grid sampling of ruled surfaces and deterministic OBJ/CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import _darboux
from .involute import _frame, involute_point
from .report import _fmt
from .surfaces import TrajectoryRuledSurface, _coefficients, _drall_closed, _ruling

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
    """Sample phi(s, v) on a finite regular grid; drall per s-row (0 if cylindrical)."""
    if ns < 2 or nv < 2:
        raise ValueError("grid needs ns >= 2 and nv >= 2")
    for name, bounds in (("s_range", s_range), ("v_range", v_range)):
        if not np.all(np.isfinite(bounds)):
            raise ValueError(f"{name} {tuple(bounds)} must be finite")
    svals = np.linspace(float(s_range[0]), float(s_range[1]), ns)
    vvals = np.linspace(float(v_range[0]), float(v_range[1]), nv)
    gamma = involute_point(surf.inv, svals)
    ev = _darboux(surf.inv.base, svals)
    ruling = _ruling(_coefficients(surf), _frame(ev.rotation))[:ns]
    vertices = gamma[:, None, :] + vvals[None, :, None] * ruling[:, None, :]
    drall = _drall_closed(surf.inv, _coefficients(surf), ev).value
    return SurfaceMesh(s_values=svals, v_values=vvals, vertices=vertices, drall=drall)


def _coordinates(mesh: SurfaceMesh) -> list[list[str]]:
    """The formatted x, y, z of each vertex, row-major; one _fmt per number."""
    return [[_fmt(x) for x in xyz] for xyz in mesh.vertices.reshape(-1, 3).tolist()]


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    """Wavefront OBJ: one v-line per vertex (row-major), 1-based quad faces."""
    ns, nv, _ = mesh.vertices.shape
    lines = ["# ruled surface mesh", *("v " + " ".join(xyz) for xyz in _coordinates(mesh))]
    for i in range(ns - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            lines.append(f"f {a} {a + nv} {a + nv + 1} {a + 1}")
    _write(path, lines)


def write_csv(mesh: SurfaceMesh, path: str) -> None:
    """CSV with header s,v,x,y,z,drall, one row per vertex (row-major)."""
    coords = iter(_coordinates(mesh))
    v_tokens = [_fmt(v) for v in mesh.v_values.tolist()]
    lines = ["s,v,x,y,z,drall"]
    for s, drall in zip(map(_fmt, mesh.s_values.tolist()), map(_fmt, mesh.drall.tolist())):
        lines += [",".join((s, v, *next(coords), drall)) for v in v_tokens]
    _write(path, lines)


def export_mesh(mesh: SurfaceMesh, fmt: str, path: str) -> None:
    """Write the mesh in the requested format ('obj' or 'csv')."""
    key = fmt.strip().lower()
    if key == "obj":
        write_obj(mesh, path)
    elif key == "csv":
        write_csv(mesh, path)
    else:
        raise ValueError(f"unsupported mesh format {fmt!r}")
