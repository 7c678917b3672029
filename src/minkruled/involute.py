"""Spacelike involutes of timelike base curves and their moving frames."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, _result, _rotation, _samples, frenet_apparatus
from .lorentz import CAUSAL_CLASSES, SPACELIKE_INDEX, CausalClass

__all__ = [
    "EPS_CUSP",
    "InvoluteCurve",
    "InvoluteFrame",
    "involute_frame",
    "involute_point",
    "involute_velocity",
]

EPS_CUSP = 1e-3


class InvoluteCurve:
    """Involute gamma(s) = r(s) + (c - s) t(s) of a timelike base curve.

    The offset (c - s) is signed. gamma is spacelike away from s = c, where
    its velocity vanishes (a cusp); the stored sampling domain must keep a
    margin of EPS_CUSP from the cusp. Pointwise evaluators accept any s the
    base curve can handle, so the cusp itself remains probeable.
    """

    def __init__(self, base: Curve, c_const: float, domain: tuple[float, float] | None = None):
        self.base = base
        self.c_const = float(c_const)
        if not math.isfinite(self.c_const):
            raise ValueError("involute constant c must be finite")
        if domain is None:
            domain = self._default_domain()
        lo, hi = float(domain[0]), float(domain[1])
        blo, bhi = base.domain
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"involute domain ({lo}, {hi}) must be finite with s_min < s_max")
        if lo < blo - 1e-12 or hi > bhi + 1e-12:
            raise ValueError("involute domain must lie inside the base domain")
        if lo < self.c_const + EPS_CUSP and hi > self.c_const - EPS_CUSP:
            raise ValueError(
                f"involute domain may not approach the cusp at s = {self.c_const} "
                f"closer than {EPS_CUSP}"
            )
        self.domain = (lo, hi)

    def _default_domain(self) -> tuple[float, float]:
        blo, bhi = self.base.domain
        c = self.c_const
        pieces = [
            (blo, min(bhi, c - EPS_CUSP)),
            (max(blo, c + EPS_CUSP), bhi),
        ]
        pieces = [(a, b) for a, b in pieces if b - a > 0.0]
        if not pieces:
            raise ValueError("no cusp-free sub-interval inside the base domain")
        return max(pieces, key=lambda p: p[1] - p[0])


def involute_point(inv: InvoluteCurve, s) -> np.ndarray:
    """gamma(s) = r(s) + (c - s) t(s); (3,) for a float s, (N, 3) for an array."""
    offset = inv.c_const - np.asarray(s, dtype=float)
    return inv.base.point(s) + offset[..., None] * inv.base.derivative(s, 1)


def involute_velocity(inv: InvoluteCurve, s) -> np.ndarray:
    """gamma'(s) = (c - s) kappa(s) n(s), per sample of s; zero at the cusp s = c."""
    return _velocity(inv, np.asarray(s, dtype=float), frenet_apparatus(inv.base, s))


def _velocity(inv: InvoluteCurve, s: np.ndarray, fa) -> np.ndarray:
    return ((inv.c_const - s) * fa.kappa)[..., None] * fa.n


@dataclass(frozen=True)
class InvoluteFrame:
    """Frame {t*, n*, b*} of the involute, rotated off the base frame.

    t* equals the base normal in both cases. With a spacelike rotation
    vector the signature is (<t*,t*>, <n*,n*>, <b*,b*>) = (+1, -1, +1); with
    a timelike one the hyperbolic rotation lands on (+1, +1, -1) instead.
    The frame does not depend on the involute constant c. For an array of s
    the vectors are (N, 3) and d_case is an object array of CausalClass.
    """

    t_star: np.ndarray
    n_star: np.ndarray
    b_star: np.ndarray
    d_case: CausalClass


def involute_frame(inv: InvoluteCurve, s) -> InvoluteFrame:
    """Involute frame at s via the hyperbolic rotation by theta.

    Spacelike rotation vector: t* = n, n* = -cosh(theta) t + sinh(theta) b,
    b* = -sinh(theta) t + cosh(theta) b. Timelike rotation vector: t* = n,
    n* = sinh(theta) t - cosh(theta) b, b* = -cosh(theta) t + sinh(theta) b.
    The case is chosen per sample.
    """
    return _result(_frame(_rotation(inv.base, _samples(s))), s)


def _frame(rotation) -> InvoluteFrame:
    """Involute frame from the rotation data of curves._rotation."""
    fa, _, causal, _, theta = rotation
    ch = np.cosh(theta)[:, None]
    sh = np.sinh(theta)[:, None]
    spacelike = (causal == SPACELIKE_INDEX)[:, None]
    n_star = np.where(spacelike, -ch * fa.t + sh * fa.b, sh * fa.t - ch * fa.b)
    b_star = np.where(spacelike, -sh * fa.t + ch * fa.b, -ch * fa.t + sh * fa.b)
    return InvoluteFrame(fa.n, n_star, b_star, CAUSAL_CLASSES[causal])
