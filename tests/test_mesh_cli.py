import argparse
import errno
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import minkruled as mk
from minkruled import cli

from test_golden import GOLDEN

RT3 = math.sqrt(3.0)


def parse_obj(path):
    vertices = []
    faces = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) for x in parts[1:]])
    return np.array(vertices), faces


class TestSampleGrid:
    def test_two_by_two_matches_direct_evaluation(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 2, 2)
        assert mesh.vertex_count == 4
        assert mesh.face_count == 1
        for i, s in enumerate((0.0, 0.9)):
            for j, v in enumerate((-2.0, 2.0)):
                assert np.allclose(
                    mesh.vertices[i, j], mk.surface_point(surf, s, v), atol=0.0
                )

    def test_grid_too_small_rejected(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        with pytest.raises(ValueError):
            mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 1, 2)

    @pytest.mark.parametrize(
        "s_range, v_range, name",
        [
            ((math.nan, 0.9), (-1.0, 1.0), "s_range"),
            ((0.0, math.inf), (-1.0, 1.0), "s_range"),
            ((0.0, 0.9), (math.nan, 1.0), "v_range"),
            ((0.0, 0.9), (-1.0, math.inf), "v_range"),
        ],
    )
    def test_non_finite_range_rejected(self, helix_involute, s_range, v_range, name):
        surf = mk.normal_surface(helix_involute)
        with pytest.raises(ValueError, match=f"{name} .* must be finite"):
            mk.sample_grid(surf, s_range, v_range, 3, 2)

    def test_drall_attribute_per_row(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 3, 2)
        assert np.allclose(mesh.drall, 0.0)  # cylindrical rows export zero


class TestObjExport:
    def test_line_structure(self, helix_involute, tmp_path):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 2, 2)
        path = tmp_path / "mesh.obj"
        mk.write_obj(mesh, str(path))
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 1

    def test_round_trip(self, helix_involute, tmp_path):
        surf = mk.tangent_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 5, 4)
        path = tmp_path / "mesh.obj"
        mk.write_obj(mesh, str(path))
        verts, faces = parse_obj(str(path))
        flat = mesh.vertices.reshape(-1, 3)
        assert verts.shape == flat.shape
        assert np.max(np.abs(verts - flat)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(flat)))
        )
        assert len(faces) == mesh.face_count
        assert all(len(f) == 4 for f in faces)
        assert min(min(f) for f in faces) == 1
        assert max(max(f) for f in faces) == mesh.vertex_count

    def test_byte_identical_across_runs(self, helix_involute, tmp_path):
        surf = mk.normal_surface(helix_involute)
        a = tmp_path / "a.obj"
        b = tmp_path / "b.obj"
        mk.write_obj(mk.sample_grid(surf, (0.0, 0.9), (-1.0, 1.0), 4, 3), str(a))
        mk.write_obj(mk.sample_grid(surf, (0.0, 0.9), (-1.0, 1.0), 4, 3), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_path_raises(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 2, 2)
        with pytest.raises(OSError):
            mk.write_obj(mesh, "")


class TestCsvExport:
    def test_header_and_rows(self, helix_involute, tmp_path):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 3, 2)
        path = tmp_path / "mesh.csv"
        mk.write_csv(mesh, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "s,v,x,y,z,drall"
        assert len(lines) == 1 + mesh.vertex_count

    def test_unknown_format_rejected(self, helix_involute, tmp_path):
        surf = mk.binormal_surface(helix_involute)
        mesh = mk.sample_grid(surf, (0.0, 0.9), (-2.0, 2.0), 2, 2)
        with pytest.raises(ValueError):
            mk.export_mesh(mesh, "stl", str(tmp_path / "x.stl"))


def test_writers_format_every_number_to_nine_digits(tmp_path):
    # a hand-built 2 x 4 grid: signed zero, a subnormal, exponent switches, and
    # values whose 9-digit rounding needs an exponent
    values = [-0.0, 5e-324, 1e-5, 1e-4, 0.1, 123456789.5, 1e16, -1e16]
    mesh = mk.SurfaceMesh(
        s_values=np.array([-0.0, 0.1]),
        v_values=np.array(values[1:5]),
        vertices=np.array(values * 3).reshape(2, 4, 3),
        drall=np.array([-1e16, np.inf]),
    )

    def fmt(x):
        return f"{float(x) + 0.0:.9g}"

    obj = ["# ruled surface mesh"]
    obj += ["v " + " ".join(map(fmt, xyz)) for xyz in mesh.vertices.reshape(-1, 3)]
    obj += [f"f {a} {a + 4} {a + 5} {a + 1}" for a in (1, 2, 3)]
    csv = ["s,v,x,y,z,drall"]
    for i in range(2):
        for j in range(4):
            row = [mesh.s_values[i], mesh.v_values[j], *mesh.vertices[i, j], mesh.drall[i]]
            csv.append(",".join(map(fmt, row)))
    assert obj[1] == "v 0 4.94065646e-324 1e-05"
    assert csv[8] == "0.1,0.1,123456790,1e+16,-1e+16,inf"
    for fmt_name, write, want in (("obj", mk.write_obj, obj), ("csv", mk.write_csv, csv)):
        want_bytes = ("\n".join(want) + "\n").encode("ascii")
        write(mesh, str(tmp_path / f"direct.{fmt_name}"))
        mk.export_mesh(mesh, fmt_name, str(tmp_path / f"export.{fmt_name}"))
        assert (tmp_path / f"direct.{fmt_name}").read_bytes() == want_bytes
        assert (tmp_path / f"export.{fmt_name}").read_bytes() == want_bytes


def helix_config(tmp_path, **overrides):
    cfg = {
        "curve": {"builtin": "timelike-helix"},
        "c": 1.0,
        "directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "s_range": [0.0, math.pi],
        "v_range": [-2.0, 2.0],
        "grid": [8, 5],
        "outputs": [{"format": "obj", "path": str(tmp_path / "helix.obj")}],
        "samples": 8,
    }
    cfg.update(overrides)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_loads_builtin_scene(self, tmp_path):
        cfg = mk.load_config(helix_config(tmp_path))
        assert cfg.curve.builtin == mk.BUILTIN_HELIX
        assert cfg.grid == (8, 5)
        curve = mk.build_curve(cfg)
        assert mk.frenet_apparatus(curve, 1.0).kappa == pytest.approx(2 / 3)

    def test_prescribed_polynomials(self, tmp_path):
        path = helix_config(
            tmp_path,
            curve={
                "kappa": {"poly": [1.0]},
                "tau": {"poly": [0.0, 0.25]},
            },
            c=3.0,
            s_range=[0.1, 0.9],
        )
        cfg = mk.load_config(path)
        curve = mk.build_curve(cfg)
        fa = mk.frenet_apparatus(curve, 0.5)
        assert fa.tau == pytest.approx(0.125, abs=1e-6)

    def test_prescribed_table(self, tmp_path):
        path = helix_config(
            tmp_path,
            curve={
                "kappa": {"table": {"s": [-1.0, 3.0], "values": [1.0, 1.0]}},
                "tau": {"table": {"s": [-1.0, 3.0], "values": [0.2, 0.2]}},
            },
            c=3.0,
            s_range=[0.1, 0.9],
        )
        curve = mk.build_curve(mk.load_config(path))
        assert mk.frenet_apparatus(curve, 0.5).tau == pytest.approx(0.2, abs=1e-6)

    def test_field_path_in_errors(self, tmp_path):
        path = helix_config(tmp_path, grid=[1, 5])
        with pytest.raises(mk.ConfigError, match="grid"):
            mk.load_config(path)
        path = helix_config(tmp_path, s_range=[2.0, 1.0])
        with pytest.raises(mk.ConfigError, match="s_range"):
            mk.load_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  bad\n}")
        with pytest.raises(mk.ConfigError, match="line 2"):
            mk.load_config(str(path))

    def test_null_direction_is_a_config_error(self, tmp_path, capsys):
        path = helix_config(tmp_path, directions=[[1, 0, 0], [1, 1, 0]])
        with pytest.raises(mk.ConfigError, match=r"^directions\[1\]: .*vanishing frame square"):
            mk.load_config(path)
        for command in ("report", "mesh", "verify"):
            assert cli.main([command, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: directions[1]: ")

    def test_split_range(self):
        pieces = mk.split_range((0.0, math.pi), 1.0, 0.01)
        assert pieces[0] == (0.0, 0.99)
        assert pieces[1][0] == pytest.approx(1.01)


class TestReport:
    def test_helix_report_contents_and_determinism(self, tmp_path):
        cfg = mk.load_config(helix_config(tmp_path))
        res1 = mk.run_report(cfg)
        res2 = mk.run_report(cfg)
        assert res1.text == res2.text
        assert res1.exit_code == 0
        assert "0.666666667" in res1.text
        assert "0.333333333" in res1.text
        assert "general helix: yes" in res1.text
        assert res1.text.count("developable: yes") == 3
        assert "cylindrical" in res1.text
        assert "(none)" in res1.text

    def test_non_helix_normal_ruling_flagged(self, tmp_path):
        path = helix_config(
            tmp_path,
            curve={"kappa": {"poly": [1.0]}, "tau": {"poly": [0.0, 0.25]}},
            c=3.0,
            s_range=[0.3, 1.6],
            directions=[[0, 1, 0]],
        )
        res = mk.run_report(mk.load_config(path))
        assert "developable: no" in res.text

    def test_causal_class_change_reported_per_run(self, tmp_path):
        # tau = 0.5 + s crosses kappa = 1 at s = 0.5, between two samples
        path = helix_config(
            tmp_path,
            curve={"kappa": {"poly": [1.0]}, "tau": {"poly": [0.5, 1.0]}},
            c=3.0,
            s_range=[0.0, 1.0],
            directions=[[0, 1, 0]],
            samples=8,
        )
        res = mk.run_report(mk.load_config(path))
        assert res.exit_code == 3
        assert (
            "rotation vector: spacelike on [0, 0.428571429], "
            "timelike (positive) on [0.571428571, 1]\n"
        ) in res.text
        assert res.warnings == (
            "rotation vector turns from spacelike to timelike (positive) between "
            "s = 0.428571429 and s = 0.571428571; theta and theta_dot change "
            "branch there",
        )
        rows = [ln.split() for ln in res.text.split("= direction 0")[1].splitlines()[3:11]]
        assert all(len(row) == 5 for row in rows)


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        code = cli.main(["report", helix_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "= base curve =" in out

    def test_mesh_command_writes_files(self, tmp_path, capsys):
        code = cli.main(["mesh", helix_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        # cusp at s = 1 splits [0, pi]: two segments per direction
        expected = [
            tmp_path / f"helix_d{d}_s{seg}.obj" for d in range(3) for seg in range(2)
        ]
        for p in expected:
            assert p.exists(), p
        assert "splitting into 2 segments" in out

    def test_verify_command_passes_on_helix(self, tmp_path, capsys):
        code = cli.main(
            ["verify", helix_config(tmp_path), "--trials", "8", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert "seed: 3" in out

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MINKRULED_SEED", "11")
        code = cli.main(
            ["verify", helix_config(tmp_path), "--trials", "4", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed: 11" in out

    def test_env_seed_not_an_integer_goes_to_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MINKRULED_SEED", "eleven")
        code = cli.main(["verify", helix_config(tmp_path), "--trials", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "MINKRULED_SEED must be an integer, got 'eleven'" in captured.err

    def test_mesh_into_a_missing_directory_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the golden scene writes to out/, which this working directory lacks
        monkeypatch.chdir(tmp_path)
        code = cli.main(["mesh", str(GOLDEN / "helix_scene.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "config error: cannot write out/helix_cli_d0_s0.obj: No such file or directory\n"
        )
        assert "wrote" not in captured.out
        (tmp_path / "out").mkdir()
        assert cli.main(["mesh", str(GOLDEN / "helix_scene.json")]) == 0
        assert (tmp_path / "out" / "helix_cli_d2_s1.obj").exists()

    def test_mesh_stops_at_the_first_unwritable_output(self, tmp_path, capsys, monkeypatch):
        # direction 1's first file is a directory: direction 0 is written in
        # full, then the run stops before evaluating or writing anything more
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / "helix_cli_d1_s0.obj").mkdir(parents=True)
        code = cli.main(["mesh", str(GOLDEN / "helix_scene.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"config error: cannot write out/helix_cli_d1_s0.obj: {os.strerror(errno.EISDIR)}\n"
        )
        assert captured.out == (
            "warning: s-range crosses the involute cusp at s = 1.0; splitting into 2 segments\n"
            "wrote out/helix_cli_d0_s0.obj: 360 vertices, 312 faces\n"
            "wrote out/helix_cli_d0_s1.obj: 360 vertices, 312 faces\n"
        )
        written = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_file())
        assert written == ["helix_cli_d0_s0.obj", "helix_cli_d0_s1.obj"]

    def test_mesh_evaluates_a_segment_when_first_reached(self, tmp_path, capsys):
        # tau = s meets kappa = 1 at s = 1, a point of segment 1's grid: that
        # segment's frame error comes after direction 0 has written segment 0
        path = helix_config(
            tmp_path,
            curve={"kappa": {"poly": [1.0]}, "tau": {"poly": [0.0, 1.0]}},
            c=0.5,
            cusp_margin=0.05,
            s_range=[0.0, 2.0],
            grid=[30, 3],
            directions=[[0.7, 0.2, -0.4], [0, 0, 1]],
        )
        assert cli.main(["mesh", path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rotation vector lightlike at s = 1.0 (")
        assert captured.out.splitlines()[1:] == [
            f"wrote {tmp_path / 'helix_d0_s0.obj'}: 90 vertices, 58 faces"
        ]
        assert sorted(p.name for p in tmp_path.glob("helix_*")) == ["helix_d0_s0.obj"]

    @pytest.mark.parametrize(
        "path, segment_path",
        [
            ("out/mesh.obj", "out/mesh_d0_s1.obj"),
            ("./mesh", "./mesh_d0_s1"),
            ("out.d/mesh", "out.d/mesh_d0_s1"),
            (".hidden", ".hidden_d0_s1"),
        ],
    )
    def test_segment_suffix_goes_before_the_file_extension(self, path, segment_path):
        assert cli._segment_path(path, 0, 1) == segment_path

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = helix_config(tmp_path, grid=[1, 2])
        assert cli.main(["report", path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "mesh", "verify"])
    def test_stiff_prescription_is_an_integration_error(self, tmp_path, capsys, command):
        # kappa = 100: the RK4 step turns the normal lightlike and Gram-Schmidt
        # cannot renormalize it
        path = helix_config(
            tmp_path,
            curve={"kappa": {"poly": [100.0]}, "tau": {"poly": [30.0]}},
            c=0.4,
            s_range=[0.0, 0.8],
            samples=4,
        )
        assert cli.main([command, path]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \w+ is no longer spacelike near s = \S+\n", err)
        assert "Traceback" not in err

    def test_degenerate_scene_exit_code(self, tmp_path, capsys):
        # near-helix with a binormal ruling: the drall denominator is
        # numerically zero while the numerator survives, a singular setup
        path = helix_config(
            tmp_path,
            curve={"kappa": {"poly": [1.0]}, "tau": {"poly": [0.25, 1e-6]}},
            c=3.0,
            s_range=[0.1, 0.9],
            directions=[[0, 0, 1]],
            samples=4,
        )
        code = cli.main(["report", path])
        out = capsys.readouterr().out
        assert code == 3
        assert "singular" in out


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    path = helix_config(tmp_path)
    assert cli.main(["report", path]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["report", path]) == 0
    with pytest.raises(SystemExit) as usage:
        cli.main(["verify", path, "--trials", "0"])
    assert usage.value.code == 2
    assert "must be a positive integer, got 0" in capsys.readouterr().err
    assert built == []


# A fresh interpreter: a module imported by an earlier test would show up.
NO_SCIPY = """
import sys
import minkruled.cli
from minkruled.config import build_curve, load_config
from minkruled.report import run_report

cfg = load_config(sys.argv[1])
build_curve(cfg)
run_report(cfg)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_path_imports_no_scipy():
    src = pathlib.Path(mk.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(GOLDEN / "prescribed_scene.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
