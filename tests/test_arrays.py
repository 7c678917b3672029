"""One call on an array of s equals the stacked scalar calls.

Covers the frame kernel and the determinant and striction oracles on both
helix causal cases and on a synthesized curve whose rotation vector turns
from spacelike to timelike at s = 0.5 (kappa = 1, tau = 0.5 + s), where the
causal branch must be chosen per sample.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minkruled as mk
from minkruled import curves, surfaces
from minkruled.config import build_curve, load_config
from minkruled.curves import _darboux
from minkruled.lorentz import CausalClass
from minkruled.mesh import sample_grid
from minkruled.report import run_report
from minkruled.verify import run_trials

TOL = 1e-12

helix_s = st.floats(min_value=0.0, max_value=3.0)
# either side of the crossing at s = 0.5, away from the null rotation vector
crossing_s = st.one_of(st.floats(0.05, 0.45), st.floats(0.55, 0.95))


@pytest.fixture(scope="module")
def cases():
    helix_domain = (-0.2, math.pi + 0.2)
    return {
        "spacelike-helix": (mk.helix_curve(2 / 3, 1 / 3, domain=helix_domain), []),
        "timelike-helix": (mk.helix_curve(1 / 3, 2 / 3, domain=helix_domain), []),
        # both sides of the crossing in every example
        "crossing": (
            mk.curve_from_curvature(lambda s: 1.0, lambda s: 0.5 + s, domain=(-0.05, 1.05)),
            [0.3, 0.7],
        ),
    }


def kernel_calls(curve):
    inv = mk.InvoluteCurve(curve, 4.0, domain=(curve.domain[0], curve.domain[1]))
    surf = mk.general_surface(inv, 0.8, 0.25, 0.7)
    return {
        "point": curve.point,
        "derivative-1": lambda s: curve.derivative(s, 1),
        "derivative-2": lambda s: curve.derivative(s, 2),
        "derivative-3": lambda s: curve.derivative(s, 3),
        "frenet_apparatus": lambda s: mk.frenet_apparatus(curve, s),
        "darboux_data": lambda s: mk.darboux_data(curve, s),
        "involute_point": lambda s: mk.involute_point(inv, s),
        "involute_velocity": lambda s: mk.involute_velocity(inv, s),
        "involute_frame": lambda s: mk.involute_frame(inv, s),
        "ruling_vector": lambda s: mk.ruling_vector(surf, s),
        "ruling_derivative": lambda s: mk.ruling_derivative(surf, s),
        "drall_closed": lambda s: mk.drall_closed(surf, s),
        "surface_point": lambda s: mk.surface_point(surf, s, -1.5),
    }


def assert_stacked(name, stacked, scalars):
    first = scalars[0]
    if isinstance(first, (CausalClass, mk.Degeneracy, bool)):
        # the scalar types of today's API, one per sample in array results
        assert list(stacked) == scalars, name
    elif dataclasses.is_dataclass(first):
        for f in dataclasses.fields(first):
            assert_stacked(
                f"{name}.{f.name}", getattr(stacked, f.name), [getattr(r, f.name) for r in scalars]
            )
    elif isinstance(first, np.ndarray):
        assert first.shape == (3,), name
        np.testing.assert_allclose(stacked, np.stack(scalars), rtol=TOL, atol=TOL, err_msg=name)
    elif isinstance(first, float):
        assert all(type(r) is float for r in scalars), name
        np.testing.assert_allclose(stacked, scalars, rtol=TOL, atol=TOL, err_msg=name)
    else:
        raise AssertionError(f"{name}: unexpected scalar type {type(first)}")


def check(curve, s_list):
    s_arr = np.array(s_list)
    for name, call in kernel_calls(curve).items():
        assert_stacked(name, call(s_arr), [call(float(s)) for s in s_list])


@settings(max_examples=30, deadline=None)
@given(s_list=st.lists(helix_s, min_size=1, max_size=5))
@pytest.mark.parametrize("case", ["spacelike-helix", "timelike-helix"])
def test_helix_array_matches_scalar_calls(cases, case, s_list):
    curve, fixed = cases[case]
    check(curve, fixed + s_list)


@settings(max_examples=20, deadline=None)
@given(s_list=st.lists(crossing_s, min_size=0, max_size=4))
def test_crossing_array_matches_scalar_calls(cases, s_list):
    curve, fixed = cases["crossing"]
    s_all = fixed + s_list
    classes = {str(c) for c in mk.darboux_data(curve, np.array(s_all)).d_class}
    assert classes == {"spacelike", "timelike (positive)"}
    check(curve, s_all)


def test_array_error_names_the_offending_sample(cases):
    curve, _ = cases["crossing"]
    with pytest.raises(mk.NullDarbouxError, match="s = 0.5 "):
        mk.darboux_data(curve, np.array([0.2, 0.5, 0.8]))
    with pytest.raises(mk.OutOfDomainError, match="s = 7.0 "):
        curve.point(np.array([0.1, 7.0]))


def test_two_dimensional_s_rejected(cases):
    curve, _ = cases["spacelike-helix"]
    with pytest.raises(ValueError):
        mk.frenet_apparatus(curve, np.zeros((2, 2)))


def test_evaluator_results_validated_once_at_the_boundary():
    def position(s):
        return np.array([s, 0.0, math.nan if s > 0.5 else 0.0])

    curve = mk.Curve(position, derivatives=(lambda s: np.array([1.0, 0.0, 0.0]),), validate=False)
    with pytest.raises(ValueError, match="finite"):
        curve.point(np.array([0.1, 0.9]))
    flat = mk.Curve(lambda s: (s, 0.0), validate=False)
    with pytest.raises(ValueError, match="3-vectors"):
        flat.point(0.3)


def test_non_finite_inputs_rejected_at_the_boundary(cases):
    with pytest.raises(ValueError):
        mk.make_direction(math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        mk.InvoluteCurve(cases["spacelike-helix"][0], math.inf)


def oracle_calls(curve):
    inv = mk.InvoluteCurve(curve, 4.0, domain=(curve.domain[0], curve.domain[1]))
    surf = mk.general_surface(inv, 0.8, 0.25, 0.7)
    return {
        "drall_numeric": lambda s: mk.drall_numeric(surf, s),
        "striction_point": lambda s: mk.striction_point(surf, s),
    }


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", ["spacelike-helix", "timelike-helix", "crossing"])
def test_oracles_array_matches_scalar_calls(cases, case, data):
    curve, fixed = cases[case]
    s_strategy = crossing_s if case == "crossing" else helix_s
    s_list = fixed + data.draw(st.lists(s_strategy, min_size=1, max_size=4))
    s_arr = np.array(s_list)
    for name, call in oracle_calls(curve).items():
        assert_stacked(name, call(s_arr), [call(float(s)) for s in s_list])


directions = st.tuples(*[st.floats(-1.5, 1.5)] * 3).filter(
    lambda x: abs(x[0] * x[0] - x[1] * x[1] + x[2] * x[2]) >= 0.2
)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", ["spacelike-helix", "timelike-helix", "crossing"])
def test_per_row_coefficient_kernels_match_per_surface_calls(cases, case, data):
    curve, _ = cases[case]
    s_strategy = crossing_s if case == "crossing" else helix_s
    rows = data.draw(st.lists(st.tuples(directions, s_strategy), min_size=1, max_size=5))
    inv = mk.InvoluteCurve(curve, 4.0, domain=(curve.domain[0], curve.domain[1]))
    dirs = [mk.make_direction(*x) for x, _ in rows]
    coeffs = np.array([d.coefficients() for d in dirs])
    s_arr = np.array([s for _, s in rows])
    surfs = [mk.TrajectoryRuledSurface(inv=inv, direction=d) for d in dirs]
    assert_stacked(
        "drall_closed",
        surfaces._drall_closed(inv, coeffs, _darboux(curve, s_arr)),
        [mk.drall_closed(surf, s) for surf, s in zip(surfs, s_arr.tolist())],
    )
    assert_stacked(
        "drall_numeric",
        surfaces._drall_numeric(inv, coeffs, _darboux(curve, s_arr))[0],
        [mk.drall_numeric(surf, s) for surf, s in zip(surfs, s_arr.tolist())],
    )


# scene, darboux samples, involute grid range, trial range: each off the cusp at s = c
@pytest.mark.parametrize(
    "scene, s_span, grid_range, trial_range",
    [
        ("helix_scene.json", (0.1, 3.0), (0.0, 0.98), (1.01, math.pi)),
        ("prescribed_scene.json", (0.05, 0.75), (0.0, 0.38), (0.42, 0.8)),
    ],
    ids=["helix", "synthesized"],
)
def test_helix_and_synthesized_curves_never_enter_the_per_sample_loop(
    monkeypatch, scene, s_span, grid_range, trial_range
):
    def refuse(fn, s):
        raise AssertionError("per-sample loop entered")

    monkeypatch.setattr(curves, "_per_sample", refuse)
    # a curve from one-float evaluators goes through the loop
    with pytest.raises(AssertionError, match="per-sample"):
        mk.Curve(lambda s: np.array([s, 0.0, 0.0]), (lambda s: np.array([1.0, 0.0, 0.0]),))
    cfg = load_config(str(pathlib.Path(__file__).parent / "golden" / scene))
    curve = build_curve(cfg)
    mk.darboux_data(curve, np.linspace(*s_span, 7))
    inv = mk.InvoluteCurve(curve, cfg.c_const, domain=grid_range)
    sample_grid(mk.general_surface(inv, 0.8, 0.25, 0.7), grid_range, (-2.0, 2.0), 6, 3)
    assert len(run_trials(curve, cfg.c_const, trial_range, np.random.default_rng(4), 20)) == 20
    assert run_report(cfg).exit_code == 0
