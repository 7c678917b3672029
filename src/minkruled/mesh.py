"""Grid sampling of ruled surfaces and deterministic OBJ/CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .involute import involute_point
from .report import _fmt
from .surfaces import TrajectoryRuledSurface, drall_closed, ruling_vector

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
    """Sample phi(s, v) on a regular grid; drall per s-row (0 if cylindrical)."""
    if ns < 2 or nv < 2:
        raise ValueError("grid needs ns >= 2 and nv >= 2")
    svals = np.linspace(float(s_range[0]), float(s_range[1]), ns)
    vvals = np.linspace(float(v_range[0]), float(v_range[1]), nv)
    gamma = involute_point(surf.inv, svals)
    ruling = ruling_vector(surf, svals)
    vertices = gamma[:, None, :] + vvals[None, :, None] * ruling[:, None, :]
    drall = drall_closed(surf, svals).value
    return SurfaceMesh(s_values=svals, v_values=vvals, vertices=vertices, drall=drall)


def write_obj(mesh: SurfaceMesh, path: str) -> None:
    """Wavefront OBJ: one v-line per vertex (row-major), 1-based quad faces."""
    ns, nv, _ = mesh.vertices.shape
    lines = ["# ruled surface mesh"]
    for i in range(ns):
        for j in range(nv):
            x, y, z = mesh.vertices[i, j]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for i in range(ns - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            c = (i + 1) * nv + j + 2
            d = i * nv + j + 2
            lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(mesh: SurfaceMesh, path: str) -> None:
    """CSV with header s,v,x,y,z,drall, one row per vertex (row-major)."""
    ns, nv, _ = mesh.vertices.shape
    lines = ["s,v,x,y,z,drall"]
    for i in range(ns):
        for j in range(nv):
            x, y, z = mesh.vertices[i, j]
            lines.append(
                ",".join(
                    _fmt(val)
                    for val in (mesh.s_values[i], mesh.v_values[j], x, y, z, mesh.drall[i])
                )
            )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_mesh(mesh: SurfaceMesh, fmt: str, path: str) -> None:
    """Write the mesh in the requested format ('obj' or 'csv')."""
    key = fmt.strip().lower()
    if key == "obj":
        write_obj(mesh, path)
    elif key == "csv":
        write_csv(mesh, path)
    else:
        raise ValueError(f"unsupported mesh format {fmt!r}")
