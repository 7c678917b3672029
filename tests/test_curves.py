import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minkruled as mk
from minkruled import Causality, curves, numdiff
from minkruled.config import build_curve, load_config
from minkruled.lorentz import _inner

from test_golden import GOLDEN

RT3 = math.sqrt(3.0)


def helix_position(s):
    return np.array([2 * math.sinh(s / RT3), 2 * math.cosh(s / RT3), s / RT3])


def helix_tangent(s):
    u = s / RT3
    return np.array([2 / RT3 * math.cosh(u), 2 / RT3 * math.sinh(u), 1 / RT3])


def timelike_line(domain=(-1.0, 1.0)):
    return mk.Curve(
        position=lambda s: np.array([s, 0.0, 0.0]),
        derivatives=(
            lambda s: np.array([1.0, 0.0, 0.0]),
            lambda s: np.zeros(3),
            lambda s: np.zeros(3),
        ),
        domain=domain,
    )


def written_out_helix(kappa, tau, s):
    """Position and derivatives 1-3 of the helix family at the float s, from math.*,
    grouped as beta, beta w, beta w w and beta w^3 times the profile functions."""
    gap = kappa * kappa - tau * tau
    w = math.sqrt(abs(gap))
    beta = kappa / (w * w)
    if gap > 0.0:
        ch, sh, a = math.cosh(w * s), math.sinh(w * s), tau / w
        return [
            [beta * sh, beta * ch, a * s],
            [beta * w * ch, beta * w * sh, a],
            [beta * w * w * sh, beta * w * w * ch, 0.0],
            [beta * w ** 3 * ch, beta * w ** 3 * sh, 0.0],
        ]
    c, n, a = math.cos(w * s), math.sin(w * s), -tau / w
    return [
        [a * s, beta * c, beta * n],
        [a, -beta * w * n, beta * w * c],
        [0.0, -beta * w * w * c, -beta * w * w * n],
        [0.0, beta * w ** 3 * n, -beta * w ** 3 * c],
    ]


class TestDerivatives:
    def test_helix_first_derivative(self, helix):
        got = helix.derivative(0.0, 1)
        assert np.allclose(got, [2 / RT3, 0.0, 1 / RT3], atol=1e-15)

    def test_straight_line_second_derivative(self):
        line = timelike_line()
        assert np.allclose(line.derivative(0.3, 2), 0.0)

    def test_finite_difference_matches_analytic(self, helix):
        fd_curve = mk.Curve(
            position=helix_position, domain=(-0.2, math.pi + 0.2)
        )
        d2_fd = fd_curve.derivative(1.0, 2)
        d2_exact = helix.derivative(1.0, 2)
        assert np.max(np.abs(d2_fd - d2_exact)) <= 1e-6

    def test_out_of_domain(self, helix):
        with pytest.raises(mk.OutOfDomainError):
            helix.point(10.0)

    def test_fd_margin_enforced(self):
        fd_curve = mk.Curve(position=helix_position, domain=(0.0, 1.0))
        with pytest.raises(mk.OutOfDomainError):
            fd_curve.derivative(1.0 - 1e-5, 1)

    def test_missing_analytic_order(self):
        partial = mk.Curve(
            position=helix_position,
            derivatives=(helix_tangent,),
            domain=(0.0, 1.0),
        )
        with pytest.raises(mk.MissingDerivativeError):
            partial.derivative(0.5, 3)

    def test_not_unit_speed_rejected(self):
        with pytest.raises(mk.NotUnitSpeedError):
            mk.Curve(
                position=lambda s: np.array([2 * s, 0.0, 0.0]),
                derivatives=(lambda s: np.array([2.0, 0.0, 0.0]),),
                domain=(0.0, 1.0),
            )


class TestFrenet:
    def test_helix_frame_at_zero(self, helix):
        fa = mk.frenet_apparatus(helix, 0.0)
        assert np.allclose(fa.t, [2 / RT3, 0, 1 / RT3], atol=1e-12)
        assert np.allclose(fa.n, [0, 1, 0], atol=1e-12)
        assert np.allclose(fa.b, [1 / RT3, 0, 2 / RT3], atol=1e-12)
        assert fa.kappa == pytest.approx(2 / 3, abs=1e-12)
        assert fa.tau == pytest.approx(1 / 3, abs=1e-12)

    def test_helix_invariants_are_constant(self, helix):
        fa = mk.frenet_apparatus(helix, 1.0)
        assert fa.kappa == pytest.approx(2 / 3, abs=1e-12)
        assert fa.tau == pytest.approx(1 / 3, abs=1e-12)

    def test_prescribed_curve_frame_residuals(self, ramp_torsion_curve):
        # oracle: the prescription itself, recovered through the apparatus
        s = 0.5
        fa = mk.frenet_apparatus(ramp_torsion_curve, s)
        assert fa.kappa == pytest.approx(1.0, abs=1e-6)
        assert fa.tau == pytest.approx(s / 4, abs=1e-6)
        tdot = numdiff.derivative(
            lambda u: mk.frenet_apparatus(ramp_torsion_curve, u).t, s, order=1
        )
        assert np.max(np.abs(tdot - fa.kappa * fa.n)) <= 1e-6

    def test_degenerate_frame_on_straight_line(self):
        with pytest.raises(mk.DegenerateFrameError):
            mk.frenet_apparatus(timelike_line(), 0.0)

    def test_finite_difference_frame_matches_analytic(self, helix):
        fd_curve = mk.Curve(position=helix_position, domain=(-0.2, math.pi + 0.2))
        s = 0.8
        fd = mk.frenet_apparatus(fd_curve, s)
        exact = mk.frenet_apparatus(helix, s)
        assert abs(fd.kappa - exact.kappa) <= 1e-4
        assert abs(fd.tau - exact.tau) <= 1e-4
        for got, want in ((fd.t, exact.t), (fd.n, exact.n), (fd.b, exact.b)):
            assert np.max(np.abs(got - want)) <= 1e-4

    def test_frame_orthonormality(self, helix):
        for s in np.linspace(0.0, math.pi, 9):
            fa = mk.frenet_apparatus(helix, float(s))
            assert abs(mk.inner(fa.t, fa.t) + 1) <= 1e-8
            assert abs(mk.inner(fa.n, fa.n) - 1) <= 1e-8
            assert abs(mk.inner(fa.b, fa.b) - 1) <= 1e-8
            assert abs(mk.inner(fa.t, fa.n)) <= 1e-8
            assert abs(mk.inner(fa.n, fa.b)) <= 1e-8
            assert abs(mk.inner(fa.b, fa.t)) <= 1e-8
            assert mk.triple(fa.t, fa.n, fa.b) == pytest.approx(1.0, abs=1e-10)


class TestDarboux:
    def test_helix_rotation_vector(self, helix):
        dd = mk.darboux_data(helix, 0.0)
        assert np.allclose(dd.d, [0.0, 0.0, -1 / RT3], atol=1e-12)
        assert dd.d_class.kind is Causality.SPACELIKE
        assert math.cosh(dd.theta) == pytest.approx(2 * RT3 / 3, abs=1e-12)
        assert math.sinh(dd.theta) == pytest.approx(RT3 / 3, abs=1e-12)
        assert abs(dd.theta_dot) <= 1e-9
        assert np.allclose(dd.c_unit, [0.0, 0.0, -1.0], atol=1e-12)

    def test_mirror_helix_timelike_case(self):
        mirror = mk.curve_from_curvature(
            lambda s: 1 / 3, lambda s: 2 / 3, domain=(-0.05, 2.05)
        )
        dd = mk.darboux_data(mirror, 0.7)
        assert dd.d_class.kind is Causality.TIMELIKE
        assert dd.d_norm == pytest.approx(1 / RT3, abs=1e-9)
        assert dd.theta == pytest.approx(math.atanh(0.5), abs=1e-9)
        # hyperbolic split consistency
        assert dd.d_norm ** 2 == pytest.approx((2 / 3) ** 2 - (1 / 3) ** 2, abs=1e-9)

    def test_planar_curve_angle_vanishes(self):
        planar = mk.curve_from_curvature(
            lambda s: 1.0, lambda s: 0.0, domain=(-0.05, 1.05)
        )
        dd = mk.darboux_data(planar, 0.5)
        fa = mk.frenet_apparatus(planar, 0.5)
        assert dd.theta == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(dd.c_unit + fa.b)) <= 1e-8

    def test_angle_rate_matches_closed_form(self, ramp_torsion_curve):
        # d(theta)/ds = (tau' kappa - tau kappa') / (kappa^2 - tau^2)
        s = 0.8
        dd = mk.darboux_data(ramp_torsion_curve, s)
        closed = (1 / 4) / (1.0 - (s / 4) ** 2)
        assert dd.theta_dot == pytest.approx(closed, abs=1e-4)

    def test_null_rotation_vector_rejected(self):
        border = mk.curve_from_curvature(
            lambda s: 1.0, lambda s: 1.0, domain=(-0.05, 1.05)
        )
        with pytest.raises(mk.NullDarbouxError):
            mk.darboux_data(border, 0.5)

    def test_rotation_identity_single_global_sign(self, helix, ramp_torsion_curve):
        # Y' = sigma * cross(d, Y) for one sigma shared by t, n, b
        for curve, s in ((helix, 0.9), (ramp_torsion_curve, 0.7)):
            fa = mk.frenet_apparatus(curve, s)
            dd = mk.darboux_data(curve, s)
            rates = {
                "t": fa.kappa * fa.n,
                "n": fa.kappa * fa.t - fa.tau * fa.b,
                "b": fa.tau * fa.n,
            }
            vectors = {"t": fa.t, "n": fa.n, "b": fa.b}
            signs = set()
            for key in rates:
                spun = mk.cross(dd.d, vectors[key])
                if np.max(np.abs(rates[key] - spun)) <= 1e-8:
                    signs.add(1)
                elif np.max(np.abs(rates[key] + spun)) <= 1e-8:
                    signs.add(-1)
                else:
                    pytest.fail(f"rotation identity fails for {key}")
            assert len(signs) == 1


class TestHelixDetection:
    def test_helix_is_general_helix(self, helix):
        verdict, deviation = mk.is_general_helix(
            helix, np.linspace(0.0, math.pi, 50)
        )
        assert verdict
        assert deviation <= 1e-9

    def test_ramp_torsion_is_not(self, ramp_torsion_curve):
        verdict, _ = mk.is_general_helix(
            ramp_torsion_curve, np.linspace(0.1, 0.9, 9)
        )
        assert not verdict

    def test_planar_curve_is_helix(self):
        planar = mk.curve_from_curvature(
            lambda s: 1.0 + 0.2 * s, lambda s: 0.0, domain=(-0.05, 1.05)
        )
        verdict, _ = mk.is_general_helix(planar, np.linspace(0.1, 0.9, 9))
        assert verdict


class TestCurveSynthesis:
    def test_constant_invariants_round_trip(self):
        c = mk.curve_from_curvature(
            lambda s: 2 / 3, lambda s: 1 / 3, domain=(0.0, math.pi)
        )
        for s in np.linspace(0.2, math.pi - 0.2, 7):
            fa = mk.frenet_apparatus(c, float(s))
            assert fa.kappa == pytest.approx(2 / 3, abs=1e-6)
            assert fa.tau == pytest.approx(1 / 3, abs=1e-6)

    def test_three_kappa_and_three_tau_calls_per_step(self):
        calls = {"kappa": 0, "tau": 0}

        def kappa(s):
            calls["kappa"] += 1
            return 1.0 + 0.1 * s

        def tau(s):
            calls["tau"] += 1
            return 0.3 * s

        domain = (0.0, 0.5)
        mk.curve_from_curvature(kappa, tau, domain=domain)
        steps = math.ceil((domain[1] - domain[0]) / curves.ODE_STEP)
        # node, midpoint and end of each step; the last node is checked too
        assert calls["kappa"] <= 3 * steps + 1
        assert calls["tau"] <= 3 * steps

    def test_planar_prescription(self):
        c = mk.curve_from_curvature(lambda s: 1.0, lambda s: 0.0, domain=(0.0, 1.0))
        for s in (0.2, 0.5, 0.8):
            assert abs(mk.frenet_apparatus(c, s).tau) <= 1e-6

    def test_varying_ratio_round_trip(self):
        c = mk.curve_from_curvature(
            lambda s: 1.0, lambda s: math.tanh(s) / 2, domain=(0.0, 1.5)
        )
        for s in (0.3, 0.7, 1.2):
            fa = mk.frenet_apparatus(c, s)
            assert fa.tau / fa.kappa == pytest.approx(math.tanh(s) / 2, abs=1e-6)

    def test_interpolant_and_kappa_rate_accuracy(self):
        # <r''', n> = kappa' reads the kappa' source: a second-order difference
        # is off by ~6e-7 here, a fourth-order one by rounding
        c = mk.curve_from_curvature(
            lambda s: 1.0 + 0.2 * s + 0.1 * s * s - 0.3 * s ** 3,
            lambda s: 0.3 - 0.1 * s,
            domain=(0.0, 0.8),
        )
        s = np.linspace(0.0, 0.8, 401)
        fa = mk.frenet_apparatus(c, s)
        kappa_dot = 0.2 + 0.2 * s - 0.9 * s * s
        assert np.max(np.abs(_inner(c.derivative(s, 3), fa.n) - kappa_dot)) <= 1e-10
        assert np.max(np.abs(fa.tau - (0.3 - 0.1 * s))) <= 1e-12
        # between the integration nodes the frame keeps unit speed and the
        # prescription to rounding
        cfg = load_config(str(GOLDEN / "prescribed_scene.json"))
        golden = build_curve(cfg)
        s = np.linspace(*golden.domain, 2003)
        fa = mk.frenet_apparatus(golden, s)
        d1 = golden.derivative(s, 1)
        assert np.max(np.abs(_inner(d1, d1) + 1.0)) <= 1e-13
        assert np.max(np.abs(fa.kappa - [cfg.curve.kappa(u) for u in s])) <= 1e-13
        assert np.max(np.abs(fa.tau - [cfg.curve.tau(u) for u in s])) <= 1e-13

    def test_fewer_than_five_nodes(self):
        # three steps: kappa' comes from np.gradient, exact for a linear kappa
        c = mk.curve_from_curvature(lambda s: 1.0 + 0.2 * s, lambda s: 0.3, domain=(0.0, 0.003))
        s = np.linspace(0.0, 0.003, 7)
        fa = mk.frenet_apparatus(c, s)
        assert np.max(np.abs(_inner(c.derivative(s, 3), fa.n) - 0.2)) <= 1e-10
        assert np.max(np.abs(fa.tau - 0.3)) <= 1e-12

    def test_matches_closed_form_helix(self, helix):
        # independent integrator check against the closed-form curve with the
        # same initial data
        fa0 = mk.frenet_apparatus(helix, 0.0)
        c = mk.curve_from_curvature(
            lambda s: 2 / 3,
            lambda s: 1 / 3,
            initial_frame=fa0,
            initial_point=helix.point(0.0),
            domain=(0.0, 2.0),
        )
        for s in (0.5, 1.0, 1.9):
            assert np.max(np.abs(c.point(s) - helix.point(s))) <= 1e-8

    def test_rejects_bad_initial_frame(self):
        with pytest.raises(mk.InvalidFrameError):
            mk.curve_from_curvature(
                lambda s: 1.0,
                lambda s: 0.0,
                initial_frame=(
                    np.array([1.0, 0.2, 0.0]),
                    np.array([0.0, 1.0, 0.0]),
                    np.array([0.0, 0.0, 1.0]),
                ),
                domain=(0.0, 1.0),
            )

    def test_rejects_vanishing_curvature(self):
        with pytest.raises(mk.DegenerateFrameError):
            mk.curve_from_curvature(
                lambda s: 1e-12, lambda s: 0.0, domain=(0.0, 1.0)
            )

    # a plain ValueError naming the argument, raised before any integration
    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"step": 0.0}, "step"),
            ({"step": math.nan}, "step"),
            ({"step": -1.0}, "step"),
            ({"domain": (math.nan, 1.0)}, "domain"),
            ({"domain": (0.0, math.inf)}, "domain"),
        ],
        ids=["step-zero", "step-nan", "step-negative", "domain-nan", "domain-inf"],
    )
    def test_rejects_bad_step_and_domain(self, kwargs, name):
        kwargs = {"domain": (0.0, 1.0), **kwargs}
        with pytest.raises(ValueError, match=name) as info:
            mk.curve_from_curvature(lambda s: 1.0, lambda s: 0.0, **kwargs)
        assert type(info.value) is ValueError


class TestHelixConstructor:
    @pytest.mark.parametrize(
        "kappa,tau",
        [(2 / 3, 1 / 3), (2 / 3, -1 / 3), (1.2, 0.5), (1 / 3, 2 / 3), (0.4, 1.1), (0.4, -1.1)],
    )
    def test_recovers_requested_invariants(self, kappa, tau):
        h = mk.helix_curve(kappa, tau, domain=(-0.2, 1.2))
        fa = mk.frenet_apparatus(h, 0.6)
        assert fa.kappa == pytest.approx(kappa, abs=1e-10)
        assert fa.tau == pytest.approx(tau, abs=1e-10)

    def test_standard_generator_matches(self, helix):
        s = 1.234
        assert np.allclose(helix.point(s), helix_position(s), atol=1e-12)

    def test_lightlike_rotation_vector_rejected(self):
        with pytest.raises(mk.NullDarbouxError):
            mk.helix_curve(1.0, 1.0)

    @pytest.mark.parametrize(
        "kappa,tau", [(1.2, 0.5), (2 / 3, -1 / 3), (0.4, 1.1), (1 / 3, -2 / 3)]
    )
    def test_jet_equals_the_written_out_families(self, kappa, tau):
        # exact at these points
        h = mk.helix_curve(kappa, tau, domain=(-1.0, 2.0))
        for s in (-0.7, 0.0, 0.3, 1.9):
            want = written_out_helix(kappa, tau, s)
            got = [h.point(s)] + [h.derivative(s, k) for k in (1, 2, 3)]
            for k in range(4):
                assert got[k].tolist() == want[k], (s, k)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(0.2, 2.0),
    # |tau|/kappa below 1 (spacelike rotation vector) or above it (timelike)
    ratio=st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 3.0)),
    sign=st.sampled_from([1.0, -1.0]),
    s_list=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
)
def test_array_jets_match_the_math_families(kappa, ratio, sign, s_list):
    # numpy and math sinh/cosh/sin/cos differ by at most a few 1e-16 relative
    tau = sign * ratio * kappa
    h = mk.helix_curve(kappa, tau, domain=(-3.0, 3.0))
    s = np.array(s_list)
    got = [h.point(s)] + [h.derivative(s, k) for k in (1, 2, 3)]
    want = np.array([written_out_helix(kappa, tau, u) for u in s_list])
    for k in range(4):
        bound = 2e-15 * np.maximum(1.0, np.abs(want[:, k]))
        assert np.all(np.abs(got[k] - want[:, k]) <= bound), k


@pytest.mark.parametrize("analytic", [True, False])
def test_one_domain_check_per_darboux_evaluation(helix, monkeypatch, analytic):
    curve = helix if analytic else mk.Curve(position=helix_position, domain=helix.domain)
    calls = []
    require = mk.Curve._require

    def counted(self, *args, **kwargs):
        calls.append(args)
        return require(self, *args, **kwargs)

    monkeypatch.setattr(mk.Curve, "_require", counted)
    mk.darboux_data(curve, np.array([0.3, 1.0, 2.5]))
    assert len(calls) == 1
    with pytest.raises(mk.OutOfDomainError):
        mk.darboux_data(curve, np.array([0.3, 10.0]))
    assert len(calls) == 2
