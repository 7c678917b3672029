"""Cross-version goldens: the demo helix report and normal-ruling mesh, and
a general-ruling mesh over a prescribed-curvature curve.

The files under tests/golden/ were written by an earlier version of the
package. Byte equality across machines and library versions is not
expected: several printed values (theta_dot, the n*-drall, striction
offsets on the tangent ruling) are finite-difference noise near 1e-12. So
every number is compared at |a - b| <= 1e-9 max(1, |b|) and every other
token exactly.
"""

import contextlib
import io
import math
import pathlib
import re

import minkruled as mk
from minkruled import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCENE = str(GOLDEN / "helix_scene.json")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
REL = 1e-9


def assert_text_close(got: str, want: str) -> None:
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    assert len(got_lines) == len(want_lines)
    for k, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_tokens = re.split(r"[\s,]+", g_line.strip())
        w_tokens = re.split(r"[\s,]+", w_line.strip())
        assert len(g_tokens) == len(w_tokens), f"line {k}: {g_line!r} vs {w_line!r}"
        for g, w in zip(g_tokens, w_tokens):
            assert NUMBER.sub("#", g) == NUMBER.sub("#", w), f"line {k}: {g!r} vs {w!r}"
            for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
                a, b = float(a), float(b)
                assert abs(a - b) <= REL * max(1.0, abs(b)), f"line {k}: {a} vs {b}"


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_comparison_rejects_a_changed_number_and_word():
    assert_text_close("drall 1.0 regular", "drall 1.0000000001 regular")
    for bad in ("drall 1.001 regular", "drall 1.0 singular"):
        try:
            assert_text_close(bad, "drall 1.0 regular")
        except AssertionError:
            continue
        raise AssertionError(f"{bad!r} passed")


def test_report_matches_golden():
    code, out = cli_stdout(["report", SCENE])
    assert code == 0
    assert_text_close(out, (GOLDEN / "helix_report.txt").read_text())


def test_normal_mesh_matches_golden(tmp_path):
    helix = mk.helix_curve(2 / 3, 1 / 3, domain=(-0.2, math.pi + 0.2))
    seg = mk.split_range((0.0, math.pi), 1.0, 0.01)[0]
    inv = mk.InvoluteCurve(helix, 1.0, domain=seg)
    mesh = mk.sample_grid(mk.normal_surface(inv), seg, (-2.0, 2.0), 40, 9)
    for name, write in (("helix_normal_0.obj", mk.write_obj), ("helix_normal_0.csv", mk.write_csv)):
        path = tmp_path / name
        write(mesh, str(path))
        assert_text_close(path.read_text(), (GOLDEN / name).read_text())


def test_prescribed_general_mesh_matches_golden(tmp_path, monkeypatch):
    # both cusp segments of a general ruling, OBJ and CSV, through the CLI
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    code, out = cli_stdout(["mesh", str(GOLDEN / "prescribed_scene.json")])
    assert code == 0
    assert_text_close(out, (GOLDEN / "prescribed_mesh.txt").read_text())
    for seg in (0, 1):
        for ext in ("obj", "csv"):
            name = f"prescribed_d0_s{seg}.{ext}"
            assert_text_close((tmp_path / "out" / name).read_text(), (GOLDEN / name).read_text())
