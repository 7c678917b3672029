"""One rotation evaluation per sample set.

Every quantity at an array of s reads one evaluation of the base frame on
the five-point stencil points of s (curves._darboux). The oracles return a
per-sample code array (curves._Code) in place of raising, and the report
builds its rows from those arrays. These tests pin the results against one
public scalar call per sample, the error order of array calls, the sample
a frame error names, and the number of frame evaluations per operation.
"""

import collections
import contextlib
import io
import json
import math

import numpy as np
import pytest

import minkruled as mk
from minkruled import cli, curves, report, surfaces, verify
from minkruled.curves import _darboux

from test_golden import GOLDEN, SCENE


def write_scene(tmp_path, name, scene):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scene))
    return str(path)


CROSSING_SCENE = {
    # tau = 0.5 + s crosses kappa = 1 at s = 0.5, between two samples
    "curve": {"kappa": {"poly": [1.0]}, "tau": {"poly": [0.5, 1.0]}},
    "c": 3.0,
    "directions": [[0, 1, 0], [0.3, 0.8, 1.1], [0, 0, 1]],
    "s_range": [0.0, 1.0],
    "v_range": [-1.0, 1.0],
    "grid": [4, 3],
    "samples": 8,
}
DISAGREEING_SCENE = {
    # a general helix up to s = 0.42, where tau starts to rise: the binormal
    # ruling is cylindrical on the first segment and not developable on the second
    "curve": {
        "kappa": {"poly": [1.0]},
        "tau": {"table": {"s": [-0.1, 0.42, 3.0], "values": [0.3, 0.3, 0.558]}},
    },
    "c": 0.4,
    "directions": [[0, 0, 1]],
    "s_range": [0.0, 0.8],
    "v_range": [-1.0, 1.0],
    "grid": [4, 3],
    "samples": 8,
}
PRESCRIBED_SCENE = {
    "curve": {"kappa": {"poly": [1.1, 0.05, -0.02]}, "tau": {"poly": [0.3, -0.1]}},
    "c": 0.4,
    "directions": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.7, 0.2, -0.4]],
    "s_range": [0.0, 0.8],
    "v_range": [-1.0, 1.0],
    "grid": [4, 3],
    "samples": 8,
    "cusp_margin": 0.05,
}


def reference_directions(cfg):
    """The direction blocks of the report and their warnings, built from one
    public scalar drall_numeric and striction_point call per row, each in a
    try/except that turns its GeometryError into an error cell."""
    fmt = report._fmt
    curve = mk.build_curve(cfg)
    segments = mk.split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
    seg_samples = report._sample_points(segments, cfg.samples)
    lines, warnings = [], []
    for d_idx, coeffs in enumerate(cfg.directions):
        surfs = [
            mk.general_surface(mk.InvoluteCurve(curve, cfg.c_const, domain=seg), *coeffs)
            for seg in segments
        ]
        d = surfs[0].direction
        lines += [
            "",
            f"= direction {d_idx}: [{fmt(coeffs[0])}, {fmt(coeffs[1])}, {fmt(coeffs[2])}] =",
            f"normalized: [{fmt(d.x1)}, {fmt(d.x2)}, {fmt(d.x3)}] ({d.causal})",
            f"{'s':>14} {'drall closed':>14} {'drall numeric':>14} "
            f"{'degeneracy':>12} {'striction':>14}",
        ]
        for surf, points in zip(surfs, seg_samples):
            dralls = mk.drall_closed(surf, points)
            for s, value, degeneracy in zip(points, dralls.value, dralls.degeneracy):
                try:
                    numeric = mk.drall_numeric(surf, s)
                    numeric_txt = fmt(numeric.value)
                    if (
                        degeneracy is mk.Degeneracy.REGULAR
                        and numeric.degeneracy is mk.Degeneracy.REGULAR
                        and abs(value - numeric.value)
                        > report.MISMATCH_TOL * max(1.0, abs(numeric.value))
                    ):
                        warnings.append(
                            f"direction {d_idx}: closed/numeric drall disagree "
                            f"at s = {fmt(s)} ({fmt(value)} vs {fmt(numeric.value)})"
                        )
                except mk.GeometryError as exc:
                    numeric_txt = "error"
                    warnings.append(f"direction {d_idx}: {exc}")
                if degeneracy is mk.Degeneracy.SINGULAR:
                    warnings.append(
                        f"direction {d_idx}: singular drall denominator at s = {fmt(s)}"
                    )
                try:
                    strict = fmt(mk.striction_point(surf, s).offset)
                except mk.CylindricalRulingError:
                    strict = "cylindrical"
                except mk.GeometryError as exc:
                    strict = "error"
                    warnings.append(f"direction {d_idx}: {exc}")
                lines.append(
                    f"{fmt(s):>14} {fmt(value):>14} {numeric_txt:>14} "
                    f"{degeneracy.value:>12} {strict:>14}"
                )
        verdicts = [mk.classify_developability(surf, p) for surf, p in zip(surfs, seg_samples)]
        developable = all(v.developable for v in verdicts)
        reason = next(v.reason for v in verdicts if v.developable == developable)
        lines.append(f"developable: {'yes' if developable else 'no'} ({reason})")
    return lines, warnings


def assert_report_matches_reference(path):
    cfg = mk.load_config(path)
    res = mk.run_report(cfg)
    lines, warnings = reference_directions(cfg)
    before_warnings = res.text.split("\n\n= warnings =")[0]
    assert before_warnings.endswith("\n".join(lines))
    assert before_warnings.count("= direction") == len(cfg.directions)
    head = len(res.warnings) - len(warnings)
    assert res.warnings[head:] == tuple(warnings)
    assert all(w.startswith("rotation vector turns") for w in res.warnings[:head])
    return res


def test_golden_report_equals_per_row_reference():
    res = assert_report_matches_reference(SCENE)
    assert "cylindrical    cylindrical" in res.text


def test_crossing_report_equals_per_row_reference(tmp_path):
    res = assert_report_matches_reference(write_scene(tmp_path, "crossing", CROSSING_SCENE))
    assert res.warnings[0].startswith("rotation vector turns")


def test_verdict_line_gives_the_reason_of_a_segment_with_that_verdict(tmp_path):
    res = assert_report_matches_reference(write_scene(tmp_path, "split", DISAGREEING_SCENE))
    assert res.exit_code == 0
    assert "developable: no (drall exceeds tolerance at 3 of 4 samples)" in res.text.splitlines()


@pytest.mark.parametrize("scene", ["golden", "prescribed"])
def test_report_error_cells_equal_per_row_reference(tmp_path, monkeypatch, scene):
    # a striction tolerance below the finite-difference noise turns some
    # offsets into disagreements, which the report prints as error cells
    monkeypatch.setattr(surfaces, "TAU_STRICT", 1e-11)
    path = SCENE if scene == "golden" else write_scene(tmp_path, scene, PRESCRIBED_SCENE)
    res = assert_report_matches_reference(path)
    assert " error" in res.text and res.exit_code == 3
    assert any("striction offsets disagree" in w for w in res.warnings)


def drifting(curve, scale=1e-3):
    """The curve with its position moved by scale (s - 0.5)^2 along x; the
    derivative evaluators are kept, so r' and the position disagree."""
    def position(s):
        return curve.point(s) + np.array([scale * (s - 0.5) ** 2, 0.0, 0.0])

    derivatives = [lambda s, k=k: curve.derivative(s, k) for k in (1, 2, 3)]
    return mk.Curve(position, derivatives=derivatives, domain=curve.domain)


def assert_status_matches_scalar_calls(codes, values, call, s_list):
    """codes: the int8 code per sample; values: the per-sample arrays its
    messages read (curves._error)."""
    assert codes.dtype == np.int8 and codes.shape == (len(s_list),)
    for i, s in enumerate(s_list):
        try:
            call(s)
        except mk.GeometryError as exc:
            assert codes[i] != curves._Code.OK, s
            error = curves._error(codes[i], s=s, **{k: v[i] for k, v in values.items()})
            assert type(error) is type(exc) and str(error) == str(exc), s
        else:
            assert codes[i] == curves._Code.OK, s


@pytest.mark.parametrize("coeffs", [(0.8, 0.25, 0.7), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)])
def test_status_arrays_equal_scalar_calls(coeffs):
    helix = mk.helix_curve(2 / 3, 1 / 3, domain=(-0.2, 2.0))
    s_list = [float(s) for s in np.linspace(0.0, 1.0, 9)]
    s_arr = np.array(s_list)
    for curve in (helix, drifting(helix)):
        inv = mk.InvoluteCurve(curve, 4.0, domain=curve.domain)
        surf = mk.general_surface(inv, *coeffs)
        x = surfaces._coefficients(surf)
        ev = _darboux(curve, s_arr)
        _, numeric_codes, drift, strict, strict_codes = surfaces._oracle(inv, x, ev)
        offsets = {"offset": strict.offset, "offset_closed": strict.offset_closed}
        oracles = (
            (numeric_codes, {"drift": drift}, mk.drall_numeric),
            (strict_codes, offsets, mk.striction_point),
        )
        for codes, values, call in oracles:
            assert_status_matches_scalar_calls(codes, values, lambda s: call(surf, s), s_list)
    # the drifting curve fails the velocity check at some samples only, and
    # the binormal ruling on the helix is cylindrical everywhere
    drift_failures = np.count_nonzero(numeric_codes)
    assert 0 < drift_failures < len(s_list)
    if coeffs == (0.0, 0.0, 1.0):
        assert np.all(strict_codes == curves._Code.CYLINDRICAL)


def stated_domain(message):
    lo, hi = message.split("usable domain [")[1].rstrip("]").split(", ")
    return float(lo), float(hi)


# (curve, s, the sample the error names): on [0, 1] the five-point stencil
# about 1e-4 and 0.9999 leaves the domain although the samples are inside it
STENCIL_EDGES = [
    ("analytic", 1e-4, 1e-4),
    ("analytic", [0.5, 0.9999], 0.9999),
    ("finite-difference", 0.0003, 0.0003),
]


@pytest.mark.parametrize("curve_kind, s, named", STENCIL_EDGES)
@pytest.mark.parametrize(
    "call",
    ["darboux_data", "drall_closed", "drall_numeric", "striction_point", "classify_developability"],
)
def test_domain_errors_name_the_callers_sample(curve_kind, s, named, call):
    if curve_kind == "analytic":
        curve = mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, 1.0))
    else:
        curve = mk.Curve(mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, 2.0)).point, domain=(0.0, 2.0))
    surf = mk.general_surface(mk.InvoluteCurve(curve, 3.0, domain=curve.domain), 0.8, 0.25, 0.7)
    calls = {
        "darboux_data": lambda: mk.darboux_data(curve, s),
        "drall_closed": lambda: mk.drall_closed(surf, s),
        "drall_numeric": lambda: mk.drall_numeric(surf, s),
        "striction_point": lambda: mk.striction_point(surf, s),
        "classify_developability": lambda: mk.classify_developability(surf, np.atleast_1d(s)),
    }
    with pytest.raises(mk.OutOfDomainError, match=rf"^s = {named} outside") as info:
        calls[call]()
    lo, hi = stated_domain(str(info.value))
    assert not lo <= named <= hi


def broken_beyond(helix, order, change):
    """The helix with r^(order)(s) replaced by change(s, r^(order)(s)) for s > 0.5."""
    def evaluator(k):
        def r(s):
            value = helix.derivative(s, k)
            return change(s, value) if k == order and s > 0.5 else value
        return r

    return mk.Curve(helix.point, [evaluator(k) for k in (1, 2, 3)], helix.domain, validate=False)


def lightlike(helix):
    # tau = -<r''', b>/kappa rises from 1/3 to 2/3 = kappa
    return lambda s, d3: d3 - (2 / 9) * mk.frenet_apparatus(helix, s).b


@pytest.mark.parametrize(
    "order, change, error",
    [
        (1, lambda helix: lambda s, d1: 1.01 * d1, mk.NotUnitSpeedError),
        (2, lambda helix: lambda s, d2: 0.0 * d2, mk.DegenerateFrameError),
        (3, lightlike, mk.NullDarbouxError),
    ],
    ids=["unit-speed", "curvature", "lightlike"],
)
def test_frame_errors_fold_stencil_rows_to_the_callers_sample(order, change, error):
    helix = mk.helix_curve(2 / 3, 1 / 3, domain=(-0.2, 1.2))
    curve = broken_beyond(helix, order, change(helix))
    # 0.4999 is intact but its stencil row 0.5001 is not; 0.8 fails itself
    s = np.array([0.2, 0.4999, 0.8])
    with pytest.raises(error, match=r"s = 0\.4999\b"):
        mk.darboux_data(curve, s)
    with pytest.raises(error, match=r"s = 0\.8\b"):
        mk.darboux_data(curve, s[[0, 2]])
    if order < 3:  # the frame alone is evaluated on the samples only
        with pytest.raises(error, match=r"s = 0\.8\b"):
            mk.frenet_apparatus(curve, s)


@pytest.fixture(scope="module")
def half_helix_binormal():
    """Binormal ruling over a curve that is a general helix for s < 0.5 and
    not beyond, with a drifting position: cylindrical samples below 0.5 and
    disagreeing striction offsets above."""
    base = mk.curve_from_curvature(
        lambda s: 1.0, lambda s: 0.3 + max(0.0, s - 0.5) ** 3, domain=(-0.05, 1.05)
    )
    curve = drifting(base)
    return mk.binormal_surface(mk.InvoluteCurve(curve, 3.0, domain=(0.0, 1.0)))


def test_array_striction_raises_for_the_first_bad_sample(half_helix_binormal):
    surf = half_helix_binormal
    with pytest.raises(mk.CylindricalRulingError, match="at s = 0.2:"):
        mk.striction_point(surf, 0.2)
    with pytest.raises(mk.GeometryError, match="offsets disagree at s = 0.8:") as scalar:
        mk.striction_point(surf, 0.8)
    with pytest.raises(mk.GeometryError) as first:
        mk.striction_point(surf, np.array([0.8, 0.2]))
    assert type(first.value) is mk.GeometryError
    assert str(first.value) == str(scalar.value)
    with pytest.raises(mk.CylindricalRulingError, match="at s = 0.2:"):
        mk.striction_point(surf, np.array([0.2, 0.8]))


def base_is_striction_reference(surf, samples):
    """base_is_striction from one public scalar striction_point call per
    sample, skipping cylindrical samples by their error."""
    for s in samples:
        try:
            sp = mk.striction_point(surf, float(s))
        except mk.CylindricalRulingError:
            continue
        if abs(sp.offset) > surfaces.TAU_STRICT:
            return False
    return True


def outcome(call, *args):
    try:
        return call(*args)
    except mk.GeometryError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def striction_curves():
    helix = mk.helix_curve(2 / 3, 1 / 3, domain=(-0.2, 2.0))
    synth = mk.curve_from_curvature(
        lambda s: 1.1 + 0.05 * s, lambda s: 0.3 - 0.1 * s * s, domain=(-0.05, 1.05)
    )
    return helix, synth


@pytest.mark.parametrize(
    "coeffs",
    [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.8, 0.25, 0.7)],
)
def test_base_is_striction_equals_per_sample_reference(striction_curves, coeffs):
    # (0, 0, 1) on the helix is cylindrical at every sample
    for curve in striction_curves:
        surf = mk.general_surface(mk.InvoluteCurve(curve, 3.0, domain=(0.0, 1.0)), *coeffs)
        samples = [0.1, 0.35, 0.6, 0.85]
        for s_set in (samples, samples[::-1], samples[:1]):
            want = outcome(base_is_striction_reference, surf, s_set)
            assert outcome(mk.base_is_striction, surf, s_set) == want
        # a sample out of domain after the others: one evaluation covers all
        # samples, so its error is raised even where the walk would have
        # returned False before reaching it
        beyond = samples + [5.0]
        got = outcome(mk.base_is_striction, surf, beyond)
        assert got[0] is mk.OutOfDomainError and "s = 5.0" in got[1]
        want = False if coeffs[1] else got  # x2 != 0: an offset is beyond TAU_STRICT
        assert outcome(base_is_striction_reference, surf, beyond) == want


def test_base_is_striction_statuses_equal_per_sample_reference(half_helix_binormal):
    # cylindrical samples below s = 0.5, disagreeing offsets above
    surf = half_helix_binormal
    for s_set in ([0.2, 0.3], [0.2, 0.8], [0.8, 0.2], [0.3, 0.7, 0.9]):
        want = outcome(base_is_striction_reference, surf, s_set)
        assert outcome(mk.base_is_striction, surf, s_set) == want
    assert mk.base_is_striction(surf, [0.2, 0.3])
    with pytest.raises(mk.GeometryError, match="offsets disagree at s = 0.8:"):
        mk.base_is_striction(surf, [0.2, 0.8])


@pytest.fixture
def frame_calls(monkeypatch):
    # every frame evaluation, public (frenet_apparatus) or of a _darboux
    # stencil, is one curves._frenet call
    calls = {"frenet": 0}
    original = curves._frenet

    def counted(*args, **kwargs):
        calls["frenet"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(curves, "_frenet", counted)
    return calls


@pytest.fixture
def order_calls(monkeypatch):
    # Curve._evaluate calls by derivative order; every evaluation of r or a
    # derivative of it, public or of a _darboux stencil, is one such call
    calls = collections.Counter()
    original = curves.Curve._evaluate

    def counted(self, s, order):
        calls[order] += 1
        return original(self, s, order)

    monkeypatch.setattr(curves.Curve, "_evaluate", counted)
    return calls


def test_report_evaluates_once_per_segment(frame_calls, order_calls, tmp_path):
    # both oracles of every direction take the involute r + (c - s) t from the
    # segment's one evaluation; the one further r' is the unit-speed check of
    # the new curve
    for path in (SCENE, write_scene(tmp_path, "prescribed", PRESCRIBED_SCENE)):
        cfg = mk.load_config(path)
        segments = mk.split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
        assert len(segments) == 2
        frame_calls["frenet"] = 0
        order_calls.clear()
        mk.run_report(cfg)
        assert frame_calls["frenet"] == len(segments)
        assert order_calls[0] == len(segments) and order_calls[1] == len(segments) + 1


def test_mesh_evaluates_once_per_segment(frame_calls, order_calls, tmp_path, monkeypatch):
    # every direction's mesh of a segment reads that segment's one evaluation,
    # the involute included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for path in (SCENE, str(GOLDEN / "prescribed_scene.json")):
        cfg = mk.load_config(path)
        segments = mk.split_range(cfg.s_range, cfg.c_const, cfg.cusp_margin)
        assert len(segments) == 2
        frame_calls["frenet"] = 0
        order_calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["mesh", path]) == 0
        assert frame_calls["frenet"] == len(segments)
        assert order_calls[1] == len(segments) + 1


def test_one_evaluation_per_public_call(frame_calls):
    curve = mk.helix_curve(2 / 3, 1 / 3, domain=(-0.2, math.pi + 0.2))
    surf = mk.general_surface(mk.InvoluteCurve(curve, 4.0, domain=(0.0, math.pi)), 0.8, 0.25, 0.7)
    s_arr = np.linspace(0.1, 3.0, 7)
    for call in (
        lambda: mk.drall_closed(surf, s_arr),
        lambda: mk.drall_numeric(surf, s_arr),
        lambda: mk.drall_numeric(surf, 0.4),
        lambda: mk.striction_point(surf, s_arr),
        lambda: mk.classify_developability(surf, s_arr.tolist()),
        lambda: mk.sample_grid(surf, (0.1, 3.0), (-1.0, 1.0), 7, 3),
        # x2 = 0: the involute is the striction curve, so every sample is read
        lambda: mk.base_is_striction(mk.general_surface(surf.inv, 0.8, 0.0, 0.7), s_arr),
    ):
        frame_calls["frenet"] = 0
        call()
        assert frame_calls["frenet"] == 1


def test_run_trials_evaluates_once_per_round(frame_calls, monkeypatch):
    # the closed and determinant dralls of a round read one evaluation
    calls = {"rounds": 0, "darboux": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "_drall_closed", counted("rounds", verify._drall_closed))
    monkeypatch.setattr(verify, "_darboux", counted("darboux", verify._darboux))
    curve = mk.helix_curve(2 / 3, 1 / 3, domain=(0.0, math.pi))
    verify.run_trials(curve, 1.0, (1.01, math.pi), np.random.default_rng(3), 30, 0.6)
    assert calls["rounds"] > 1
    assert frame_calls["frenet"] == calls["darboux"] == calls["rounds"]
