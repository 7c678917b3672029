import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minkruled as mk
from minkruled import Causality, Degeneracy, ProfileKind, numdiff, surfaces
from minkruled.curves import ODE_STEP
from conftest import POOL_C, POOL_WINDOW

RT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def ramp_involute(ramp_torsion_curve):
    return mk.InvoluteCurve(ramp_torsion_curve, 2.0, domain=(0.1, 1.9))


def frame_quantities(curve, s):
    """Independent bundle of (kappa, dnorm, theta_dot, c - s is external)."""
    fa = mk.frenet_apparatus(curve, s)
    dd = mk.darboux_data(curve, s)
    return fa, dd


class TestMakeDirection:
    def test_pure_normal_is_timelike(self):
        d = mk.make_direction(0.0, 2.0, 0.0)
        assert (d.x1, d.x2, d.x3) == (0.0, 1.0, 0.0)
        assert d.causal.kind is Causality.TIMELIKE

    def test_rectifying_direction_is_spacelike(self):
        d = mk.make_direction(1.0, 0.0, 1.0)
        assert d.x1 == pytest.approx(1 / math.sqrt(2))
        assert d.x3 == pytest.approx(1 / math.sqrt(2))
        assert d.causal.kind is Causality.SPACELIKE

    def test_null_direction_rejected(self):
        with pytest.raises(mk.NullDirectionError):
            mk.make_direction(1.0, 1.0, 0.0)


class TestSurfacePoint:
    def test_binormal_ruling_offset(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        got = mk.surface_point(surf, 0.0, 2.0)
        assert np.allclose(got, [2 / RT3, 2.0, 1 / RT3 + 2.0], atol=1e-12)

    def test_tangent_ruling_offset(self, helix_involute):
        surf = mk.tangent_surface(helix_involute)
        got = mk.surface_point(surf, 0.0, 1.0)
        assert np.allclose(got, [2 / RT3, 3.0, 1 / RT3], atol=1e-12)

    def test_zero_ruling_parameter_is_base(self, helix_involute):
        surf = mk.general_surface(helix_involute, 0.4, 0.3, 0.9)
        for s in (0.2, 0.7):
            assert np.allclose(
                mk.surface_point(surf, s, 0.0),
                mk.involute_point(helix_involute, s),
                atol=1e-14,
            )


class TestRulingDerivative:
    def test_constant_binormal_ruling(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        for s in (0.1, 0.5, 0.9):
            assert np.max(np.abs(mk.ruling_derivative(surf, s))) <= 1e-9

    def test_normal_ruling_golden(self, helix_involute):
        surf = mk.normal_surface(helix_involute)
        got = mk.ruling_derivative(surf, 0.0)
        assert np.allclose(got, [0.0, -1 / RT3, 0.0], atol=1e-9)

    def test_matches_finite_differences(self, ramp_involute):
        surf = mk.general_surface(ramp_involute, 1.0, 0.0, 1.0)
        s = 0.5
        closed = mk.ruling_derivative(surf, s)
        fd = numdiff.derivative(lambda u: mk.ruling_vector(surf, u), s, order=1)
        assert np.max(np.abs(closed - fd)) <= 1e-4

    def test_matches_finite_differences_timelike_case(self, case2_pool):
        curve = case2_pool[0].curve
        inv = mk.InvoluteCurve(curve, POOL_C, domain=POOL_WINDOW)
        surf = mk.general_surface(inv, 0.5, 0.4, 1.1)
        s = 0.8
        closed = mk.ruling_derivative(surf, s)
        fd = numdiff.derivative(lambda u: mk.ruling_vector(surf, u), s, order=1)
        assert np.max(np.abs(closed - fd)) <= 1e-4


class TestDrall:
    def test_tangent_ruling_is_flat(self, helix_involute, ramp_involute):
        for inv in (helix_involute, ramp_involute):
            surf = mk.tangent_surface(inv)
            for s in (0.3, 0.8):
                closed = mk.drall_closed(surf, s)
                assert closed.value == 0.0
                assert closed.developable
                numeric = mk.drall_numeric(surf, s)
                assert abs(numeric.value) <= 1e-6

    def test_helix_normal_ruling_flat(self, helix_involute):
        surf = mk.normal_surface(helix_involute)
        res = mk.drall_closed(surf, 0.5)
        assert res.degeneracy is Degeneracy.REGULAR
        assert abs(res.value) <= 1e-9

    def test_helix_binormal_ruling_cylindrical(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        assert mk.drall_closed(surf, 0.5).degeneracy is Degeneracy.CYLINDRICAL
        assert mk.drall_numeric(surf, 0.5).degeneracy is Degeneracy.CYLINDRICAL

    def test_mirror_helix_normal_ruling_flat(self):
        mirror = mk.curve_from_curvature(
            lambda s: 1 / 3, lambda s: 2 / 3, domain=(-0.05, 2.05)
        )
        inv = mk.InvoluteCurve(mirror, 2.5, domain=(0.1, 1.9))
        surf = mk.normal_surface(inv)
        assert abs(mk.drall_numeric(surf, 1.0).value) <= 1e-6

    def test_oracle_stencils_are_one_array_call_each(self, ramp_involute, monkeypatch):
        calls = {"ruling_vector": 0, "involute_point": 0}

        def counted(name):
            fn = getattr(surfaces, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(surfaces, name, counted(name))
        surf = mk.normal_surface(ramp_involute)
        mk.drall_numeric(surf, 0.5)
        assert calls["ruling_vector"] <= 2 and calls["involute_point"] <= 1
        calls.update(ruling_vector=0, involute_point=0)
        mk.striction_point(surf, 0.5)
        assert calls["ruling_vector"] <= 2 and calls["involute_point"] <= 2

    def test_closed_matches_numeric_generic(self, ramp_involute):
        surf = mk.general_surface(ramp_involute, 1.0, 0.0, 1.0)
        closed = mk.drall_closed(surf, 0.5)
        numeric = mk.drall_numeric(surf, 0.5)
        assert closed.value == pytest.approx(
            numeric.value, rel=1e-4, abs=1e-4
        )

    def test_uncorrected_numerator_fails_by_curvature_factor(self, case1_pool):
        # regression pinning the curvature factor in the closed numerator:
        # dropping it disagrees with the determinant oracle by exactly kappa
        checked = 0
        for entry in case1_pool[:6]:
            curve = entry.curve
            inv = mk.InvoluteCurve(curve, POOL_C, domain=POOL_WINDOW)
            surf = mk.general_surface(inv, 0.8, 0.25, 0.7)
            s = 1.1
            fa = mk.frenet_apparatus(curve, s)
            if abs(fa.kappa - 1.0) < 0.1:
                continue
            closed = mk.drall_closed(surf, s)
            numeric = mk.drall_numeric(surf, s)
            if closed.degeneracy is not Degeneracy.REGULAR or abs(numeric.value) < 1e-3:
                continue
            uncorrected = closed.value / fa.kappa
            assert abs(uncorrected - numeric.value) > 1e-4 * max(1.0, abs(numeric.value))
            assert uncorrected * fa.kappa == pytest.approx(
                numeric.value, rel=1e-4
            )
            checked += 1
        assert checked >= 3


@pytest.fixture(scope="module")
def scene(ramp_torsion_curve):
    inv = mk.InvoluteCurve(ramp_torsion_curve, 2.0, domain=(0.1, 1.9))
    s = 0.7
    fa, dd = frame_quantities(ramp_torsion_curve, s)
    return inv, s, fa, dd


class TestSpecialCaseCollapse:
    """The general closed form must reproduce the per-plane reductions."""

    def general(self, inv, coeffs, s):
        return mk.drall_closed(
            mk.general_surface(inv, *coeffs), s
        )

    def test_tangent_reduction(self, scene):
        inv, s, fa, dd = scene
        assert self.general(inv, (1.0, 0.0, 0.0), s).value == 0.0

    def test_normal_reduction(self, scene):
        inv, s, fa, dd = scene
        got = self.general(inv, (0.0, 1.0, 0.0), s).value
        cs = inv.c_const - s
        want = cs * fa.kappa * dd.theta_dot / (dd.d_norm ** 2 + dd.theta_dot ** 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_binormal_reduction(self, scene):
        inv, s, fa, dd = scene
        got = self.general(inv, (0.0, 0.0, 1.0), s).value
        cs = inv.c_const - s
        want = cs * fa.kappa / abs(dd.theta_dot)
        assert abs(got) == pytest.approx(want, rel=1e-12)

    def test_normal_plane_reduction(self, scene):
        # x1 = 0 with x3^2 - x2^2 = 1
        inv, s, fa, dd = scene
        x2 = 0.6
        x3 = math.sqrt(1.0 + x2 * x2)
        got = self.general(inv, (0.0, x2, x3), s).value
        cs = inv.c_const - s
        want = -cs * fa.kappa * dd.theta_dot / abs(
            x2 * x2 * dd.d_norm ** 2 - dd.theta_dot ** 2
        )
        assert abs(got) == pytest.approx(abs(want), rel=1e-12)

    def test_osculating_plane_reduction(self, scene):
        # x3 = 0 with x1^2 - x2^2 = 1
        inv, s, fa, dd = scene
        x2 = 0.5
        x1 = math.sqrt(1.0 + x2 * x2)
        got = self.general(inv, (x1, x2, 0.0), s).value
        cs = inv.c_const - s
        want = cs * fa.kappa * dd.theta_dot * x2 * x2 / abs(
            -dd.d_norm ** 2 + x2 * x2 * dd.theta_dot ** 2
        )
        assert abs(got) == pytest.approx(abs(want), rel=1e-12)

    def test_rectifying_plane_reduction(self, scene):
        # x2 = 0 with x1^2 + x3^2 = 1
        inv, s, fa, dd = scene
        x1, x3 = 0.6, 0.8
        got = self.general(inv, (x1, 0.0, x3), s).value
        cs = inv.c_const - s
        num = cs * fa.kappa * (x1 * x3 * dd.d_norm - dd.theta_dot * x3 * x3)
        den = (
            -(x1 ** 2) * dd.d_norm ** 2
            - x3 ** 2 * dd.theta_dot ** 2
            + 2 * x1 * x3 * dd.theta_dot * dd.d_norm
        )
        assert abs(got) == pytest.approx(abs(num / abs(den)), rel=1e-12)


class TestRatioIdentity:
    def test_normal_to_binormal_ratio(self, ramp_involute, ramp_torsion_curve):
        for s in (0.4, 0.9, 1.4):
            dn = mk.drall_closed(mk.normal_surface(ramp_involute), s)
            db = mk.drall_closed(mk.binormal_surface(ramp_involute), s)
            assert dn.degeneracy is Degeneracy.REGULAR
            assert db.degeneracy is Degeneracy.REGULAR
            got = abs(dn.value / db.value)
            want = mk.normal_binormal_drall_ratio(ramp_involute, s)
            assert got == pytest.approx(want, rel=1e-10)

    def test_ratio_vanishes_exactly_for_helices(self, helix_involute):
        for s in (0.3, 0.8):
            ratio = mk.normal_binormal_drall_ratio(helix_involute, s)
            assert ratio <= 1e-18

    def test_helix_iff_zero_ratio(self, helix_involute, ramp_involute):
        samples = list(np.linspace(0.2, 0.9, 7))
        helix_flag, _ = mk.is_general_helix(helix_involute.base, samples)
        ramp_flag, _ = mk.is_general_helix(ramp_involute.base, samples)
        assert helix_flag and not ramp_flag
        helix_ratios = [
            mk.normal_binormal_drall_ratio(helix_involute, s) for s in samples
        ]
        ramp_ratios = [
            mk.normal_binormal_drall_ratio(ramp_involute, s) for s in samples
        ]
        bound = 1e-12 / min(
            mk.darboux_data(helix_involute.base, s).d_norm ** 2 for s in samples
        )
        assert max(helix_ratios) <= bound
        assert min(ramp_ratios) > bound


def oscillating_dnorm(s):
    return 0.5 + 0.1 * s + 0.2 * math.sin(3.0 * s)


def oscillating_antiderivative(s):
    """integral_0^s oscillating_dnorm."""
    return 0.5 * s + 0.05 * s * s + (0.2 / 3.0) * (1.0 - math.cos(3.0 * s))


@settings(max_examples=100, deadline=None)
@given(
    s=st.one_of(
        st.sampled_from([0.0, 0.002, -0.002, 0.004, -0.004]),
        st.floats(-2.0, 2.0),
    ),
    kind=st.sampled_from([ProfileKind.GENERAL, ProfileKind.RECTIFYING]),
    lam=st.floats(-0.3, 0.3),
)
def test_theta_profile_matches_closed_form_antiderivative(s, kind, lam):
    # the oracle integrates dnorm in closed form; it shares no quadrature
    # and no table with theta_profile
    x1, x2, x3 = (0.7, 0.3, 1.0) if kind is ProfileKind.GENERAL else (0.6, 0.0, 0.8)
    d = mk.make_direction(x1, x2, x3)
    theta = mk.theta_profile(kind, d, oscillating_dnorm, lam)
    coeff = d.x1 * d.x3 / (d.x3**2 - d.x2**2)
    want = coeff * oscillating_antiderivative(s) + lam
    assert abs(theta(s) - want) <= 1e-12


class TestThetaProfile:
    def test_zero_coefficient_gives_constant(self):
        d = mk.make_direction(0.0, 0.4, 1.2)  # x1 = 0 so the slope vanishes
        theta = mk.theta_profile(ProfileKind.GENERAL, d, lambda s: 0.7, 0.3)
        for s in (0.0, 0.5, 2.0):
            assert theta(s) == pytest.approx(0.3, abs=1e-12)

    def test_rectifying_constant_magnitude(self):
        d = mk.make_direction(1.0, 0.0, 1.0)
        theta = mk.theta_profile(
            ProfileKind.RECTIFYING, d, lambda s: 1 / RT3, 0.0
        )
        for s in (0.5, 1.0, 2.0):
            assert theta(s) == pytest.approx(s / RT3, rel=1e-9)

    def test_rejects_degenerate_coefficients(self):
        square = mk.make_direction(1.0, 0.7, 0.7)
        with pytest.raises(mk.DegenerateCoefficientError):
            mk.theta_profile(ProfileKind.GENERAL, square, lambda s: 1.0, 0.0)
        with pytest.raises(mk.DegenerateCoefficientError):
            mk.theta_profile(
                ProfileKind.RECTIFYING,
                mk.make_direction(0.3, 0.4, 1.0),
                lambda s: 1.0,
                0.0,
            )

    def test_values_do_not_depend_on_call_order(self):
        d = mk.make_direction(0.7, 0.3, 1.0)
        grid = [-1.3, -0.004, -0.002, -1e-3, 0.0, 1e-3, 0.002, 0.004, 0.37, 1.9]
        warmed = mk.theta_profile(ProfileKind.GENERAL, d, oscillating_dnorm, 0.2)
        backward = [warmed(s) for s in reversed(grid)][::-1]
        for s, value in zip(grid, backward):
            fresh = mk.theta_profile(ProfileKind.GENERAL, d, oscillating_dnorm, 0.2)
            assert fresh(s) == value

    def test_evaluation_count_is_linear(self):
        calls = 0

        def dnorm(s):
            nonlocal calls
            calls += 1
            return oscillating_dnorm(s)

        theta = mk.theta_profile(
            ProfileKind.GENERAL, mk.make_direction(0.7, 0.3, 1.0), dnorm, 0.0
        )
        for s in np.linspace(0.0, 1.0, 1000):
            theta(float(s))
        # a bounded number per call plus a bounded number per 0.002 cell
        assert calls <= 6000 + 5 * 500

    def test_rejects_non_finite_s(self):
        theta = mk.theta_profile(
            ProfileKind.GENERAL, mk.make_direction(0.7, 0.3, 1.0), lambda s: 1.0, 0.0
        )
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                theta(s)

    def test_synthesis_makes_bounded_dnorm_calls_per_step(self):
        # guard against a return of the O(N^2) re-quadrature from 0, which
        # made thousands of dnorm calls per step on this domain
        calls = 0

        def dnorm(s):
            nonlocal calls
            calls += 1
            return 0.5 + 0.1 * s

        domain = (-0.05, 1.55)
        d = mk.make_direction(0.7, 0.3, 1.0)
        kf, tf = mk.developable_prescription(d, dnorm, 0.15)
        mk.curve_from_curvature(kf, tf, domain=domain)
        steps = math.ceil((domain[1] - domain[0]) / ODE_STEP)
        assert calls < 100 * steps

    def test_general_construction_is_developable(self):
        d = mk.make_direction(0.7, 0.3, 1.0)
        kf, tf = mk.developable_prescription(d, lambda s: 0.6 + 0.1 * s, 0.15)
        curve = mk.curve_from_curvature(kf, tf, domain=(-0.05, 1.55))
        inv = mk.InvoluteCurve(curve, 2.0, domain=(0.05, 1.45))
        surf = mk.TrajectoryRuledSurface(inv=inv, direction=d)
        for s in np.linspace(0.1, 1.4, 8):
            assert abs(mk.drall_numeric(surf, float(s)).value) <= 1e-5

    def test_rectifying_construction_is_developable(self):
        d = mk.make_direction(0.6, 0.0, 0.8)
        kf, tf = mk.developable_prescription(
            d, lambda s: 0.7, 0.1, kind=ProfileKind.RECTIFYING
        )
        curve = mk.curve_from_curvature(kf, tf, domain=(-0.05, 1.55))
        inv = mk.InvoluteCurve(curve, 2.0, domain=(0.05, 1.45))
        surf = mk.TrajectoryRuledSurface(inv=inv, direction=d)
        for s in np.linspace(0.1, 1.4, 8):
            res = mk.drall_numeric(surf, float(s))
            assert abs(res.value) <= 1e-5


class TestDevelopability:
    def test_helix_verdicts(self, helix_involute):
        samples = list(np.linspace(0.1, 0.9, 7))
        rep_t = mk.classify_developability(mk.tangent_surface(helix_involute), samples)
        rep_n = mk.classify_developability(mk.normal_surface(helix_involute), samples)
        rep_b = mk.classify_developability(mk.binormal_surface(helix_involute), samples)
        assert rep_t.developable and rep_n.developable and rep_b.developable
        assert rep_t.reason == "ruling along the involute tangent"
        assert "helix" in rep_n.reason
        assert rep_b.degeneracy_counts[Degeneracy.CYLINDRICAL] == len(samples)
        for rep in (rep_t, rep_n, rep_b):
            assert rep.max_normal_angle <= 1e-3

    def test_ramp_normal_ruling_not_developable(self, ramp_involute):
        samples = list(np.linspace(0.3, 1.5, 7))
        rep = mk.classify_developability(mk.normal_surface(ramp_involute), samples)
        assert not rep.developable
        assert rep.max_abs_drall > 1e-4


class TestStriction:
    def test_rectifying_ruling_stays_on_base(self, ramp_involute):
        surf = mk.general_surface(ramp_involute, 1.0, 0.0, 1.0)
        for s in (0.4, 1.0):
            sp = mk.striction_point(surf, s)
            assert abs(sp.offset) <= 1e-8
            assert np.allclose(
                sp.point, mk.involute_point(ramp_involute, s), atol=1e-7
            )

    def test_helix_binormal_has_no_striction(self, helix_involute):
        surf = mk.binormal_surface(helix_involute)
        with pytest.raises(mk.CylindricalRulingError):
            mk.striction_point(surf, 0.5)

    def test_normal_ruling_offset_against_determinant_form(self, ramp_involute):
        # oracle: direct evaluation of the central-point formula with
        # finite-difference ingredients, done locally in the test
        surf = mk.normal_surface(ramp_involute)
        s = 0.5
        sp = mk.striction_point(surf, s)
        gdot = numdiff.derivative(
            lambda u: mk.involute_point(ramp_involute, u), s, order=1
        )
        xdot = numdiff.derivative(lambda u: mk.ruling_vector(surf, u), s, order=1)
        want = -mk.inner(gdot, xdot) / mk.inner(xdot, xdot)
        assert sp.offset == pytest.approx(want, rel=1e-10)
        assert sp.offset_closed == pytest.approx(want, rel=1e-4)
        assert abs(sp.offset) > 1e-3  # genuinely off the base curve

    def test_central_point_orthogonality(self, ramp_involute):
        surf = mk.normal_surface(ramp_involute)
        s = 0.8
        c_curve = lambda u: mk.striction_point(surf, u).point
        c_dot = numdiff.derivative(c_curve, s, order=1)
        xdot = numdiff.derivative(lambda u: mk.ruling_vector(surf, u), s, order=1)
        assert abs(mk.inner(c_dot, xdot)) <= 1e-4

    def test_base_is_striction_iff_no_normal_component(self, ramp_involute):
        samples = [0.4, 0.8, 1.2]
        assert mk.base_is_striction(mk.tangent_surface(ramp_involute), samples)
        assert mk.base_is_striction(
            mk.general_surface(ramp_involute, 1.0, 0.0, 1.0), samples
        )
        assert not mk.base_is_striction(mk.normal_surface(ramp_involute), samples)
