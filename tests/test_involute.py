import math

import numpy as np
import pytest

import minkruled as mk
from minkruled import Causality, numdiff

RT3 = math.sqrt(3.0)


def closed_form_involute(s, c):
    # signed-offset evaluation of the parent curve plus (c - s) tangent
    u = s / RT3
    return np.array(
        [
            2 * math.sinh(u) + (c - s) * 2 / RT3 * math.cosh(u),
            2 * math.cosh(u) + (c - s) * 2 / RT3 * math.sinh(u),
            c / RT3,
        ]
    )


class TestInvolutePoint:
    def test_golden_at_zero(self, helix_involute):
        got = mk.involute_point(helix_involute, 0.0)
        assert np.allclose(got, [2 / RT3, 2.0, 1 / RT3], atol=1e-12)

    def test_offset_vanishes_at_cusp(self, helix, helix_involute):
        got = mk.involute_point(helix_involute, 1.0)
        assert np.allclose(got, helix.point(1.0), atol=1e-15)

    def test_matches_closed_form_midway(self, helix):
        inv = mk.InvoluteCurve(helix, 1.0, domain=(1.02, math.pi))
        s = math.pi / 2
        assert np.allclose(
            mk.involute_point(inv, s), closed_form_involute(s, 1.0), atol=1e-12
        )

    def test_third_component_is_constant(self, helix_involute):
        for s in (0.1, 0.5, 0.9):
            assert mk.involute_point(helix_involute, s)[2] == pytest.approx(
                1 / RT3, abs=1e-12
            )


class TestInvoluteVelocity:
    def test_golden_at_zero(self, helix_involute):
        got = mk.involute_velocity(helix_involute, 0.0)
        assert np.allclose(got, [0.0, 2 / 3, 0.0], atol=1e-12)

    def test_cusp_velocity_is_zero(self, helix_involute):
        assert np.allclose(mk.involute_velocity(helix_involute, 1.0), 0.0)

    def test_orthogonal_to_base_tangent(self, helix, helix_involute):
        for s in (0.15, 0.55, 0.95):
            vel = mk.involute_velocity(helix_involute, s)
            assert abs(mk.inner(vel, helix.derivative(s, 1))) <= 1e-10

    def test_matches_finite_differences(self, helix_involute):
        s = 0.6
        vel = mk.involute_velocity(helix_involute, s)
        vel_fd = numdiff.derivative(
            lambda u: mk.involute_point(helix_involute, u), s, order=1
        )
        assert np.max(np.abs(vel - vel_fd)) <= 1e-4

    def test_spacelike_away_from_cusp(self, helix_involute):
        vel = mk.involute_velocity(helix_involute, 0.4)
        assert mk.classify(vel).kind is Causality.SPACELIKE


class TestInvoluteFrame:
    def test_golden_at_zero(self, helix_involute):
        fr = mk.involute_frame(helix_involute, 0.0)
        assert np.allclose(fr.t_star, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(fr.n_star, [-1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(fr.b_star, [0.0, 0.0, 1.0], atol=1e-12)
        assert fr.d_case.kind is Causality.SPACELIKE

    def test_binormal_constant_along_helix(self, helix_involute_free):
        for s in np.linspace(0.0, math.pi, 11):
            fr = mk.involute_frame(helix_involute_free, float(s))
            assert np.allclose(fr.b_star, [0.0, 0.0, 1.0], atol=1e-12)

    def test_spacelike_case_signature(self, helix_involute_free):
        for s in (0.0, 1.3, 2.8):
            fr = mk.involute_frame(helix_involute_free, float(s))
            assert mk.inner(fr.t_star, fr.t_star) == pytest.approx(1.0, abs=1e-8)
            assert mk.inner(fr.n_star, fr.n_star) == pytest.approx(-1.0, abs=1e-8)
            assert mk.inner(fr.b_star, fr.b_star) == pytest.approx(1.0, abs=1e-8)
            for a, b in (
                (fr.t_star, fr.n_star),
                (fr.n_star, fr.b_star),
                (fr.b_star, fr.t_star),
            ):
                assert abs(mk.inner(a, b)) <= 1e-8

    def test_timelike_case_signature(self):
        # oracle: the inner products themselves. With a timelike rotation
        # vector the hyperbolic rotation makes n* spacelike and b* timelike.
        mirror = mk.curve_from_curvature(
            lambda s: 1 / 3, lambda s: 2 / 3, domain=(-0.05, 2.05)
        )
        inv = mk.InvoluteCurve(mirror, 2.5, domain=(0.1, 1.9))
        for s in (0.3, 1.0, 1.7):
            fr = mk.involute_frame(inv, s)
            assert fr.d_case.kind is Causality.TIMELIKE
            assert mk.inner(fr.t_star, fr.t_star) == pytest.approx(1.0, abs=1e-6)
            assert mk.inner(fr.n_star, fr.n_star) == pytest.approx(1.0, abs=1e-6)
            assert mk.inner(fr.b_star, fr.b_star) == pytest.approx(-1.0, abs=1e-6)
            for a, b in (
                (fr.t_star, fr.n_star),
                (fr.n_star, fr.b_star),
                (fr.b_star, fr.t_star),
            ):
                assert abs(mk.inner(a, b)) <= 1e-6

    def test_tangency_to_involute(self, helix_involute):
        # unit tangent of the numerically differentiated involute is +-t*
        for s in (0.2, 0.6, 0.9):
            vel = numdiff.derivative(
                lambda u: mk.involute_point(helix_involute, u), s, order=1
            )
            unit = vel / math.sqrt(abs(mk.inner(vel, vel)))
            t_star = mk.involute_frame(helix_involute, s).t_star
            align = abs(mk.inner(unit, t_star))
            assert abs(align - 1.0) <= 1e-4

    def test_frame_products_single_global_sign(self, helix_involute, helix):
        # the determinant-adjoint products reproduce the frame relations of
        # the rotated frame up to one shared sign (measured, not assumed)
        for s in (0.2, 0.7):
            fr = mk.involute_frame(helix_involute, s)
            relations = [
                (mk.cross(fr.t_star, fr.n_star), -fr.b_star),
                (mk.cross(fr.n_star, fr.b_star), -fr.t_star),
                (mk.cross(fr.b_star, fr.t_star), fr.n_star),
            ]
            signs = set()
            for got, printed in relations:
                if np.max(np.abs(got - printed)) <= 1e-8:
                    signs.add(1)
                elif np.max(np.abs(got + printed)) <= 1e-8:
                    signs.add(-1)
                else:
                    pytest.fail("frame product is not +-printed relation")
            assert len(signs) == 1

    def test_frame_independent_of_constant(self, helix):
        inv_a = mk.InvoluteCurve(helix, 1.0, domain=(0.0, 0.98))
        inv_b = mk.InvoluteCurve(helix, 4.0, domain=(0.0, math.pi))
        fr_a = mk.involute_frame(inv_a, 0.5)
        fr_b = mk.involute_frame(inv_b, 0.5)
        assert np.allclose(fr_a.t_star, fr_b.t_star)
        assert np.allclose(fr_a.n_star, fr_b.n_star)
        assert np.allclose(fr_a.b_star, fr_b.b_star)


class TestInvoluteDomain:
    def test_domain_must_avoid_cusp(self, helix):
        with pytest.raises(ValueError):
            mk.InvoluteCurve(helix, 1.0, domain=(0.0, 1.0))

    @pytest.mark.parametrize(
        "domain", [(math.nan, 0.9), (0.0, math.nan), (-math.inf, 0.9), (0.0, math.inf)]
    )
    def test_domain_must_be_finite(self, helix, domain):
        with pytest.raises(ValueError, match="involute domain"):
            mk.InvoluteCurve(helix, 4.0, domain=domain)

    def test_domain_must_sit_inside_base(self, helix):
        with pytest.raises(ValueError):
            mk.InvoluteCurve(helix, 1.0, domain=(-5.0, 0.5))

    def test_default_domain_picks_longer_piece(self, helix):
        inv = mk.InvoluteCurve(helix, 1.0)
        lo, hi = inv.domain
        assert lo >= 1.0 + mk.EPS_CUSP - 1e-12
        assert hi == pytest.approx(math.pi + 0.2)
