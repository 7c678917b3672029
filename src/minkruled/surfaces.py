"""Trajectory ruled surfaces over spacelike involutes.

A surface is swept by a line whose direction X = x1 t* + x2 n* + x3 b* is
held fixed in the involute frame. The module computes the distribution
parameter (drall) of such surfaces two independent ways: a closed form in
the frame invariants (kappa, ||d||, theta, theta') and a finite-difference
determinant evaluation, classifies developability, constructs angle profiles
that force developability, and evaluates striction curves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numdiff
from .curves import (
    DerivativeMode,
    _Code,
    _darboux,
    _error,
    _general_helix,
    _raise_failed,
    _result,
    _samples,
    darboux_data,
)
from .errors import DegenerateCoefficientError, NullDirectionError
from .involute import (
    InvoluteCurve,
    InvoluteFrame,
    _velocity,
    involute_frame,
    involute_point,
)
from .lorentz import CausalClass, Causality, Orientation, _inner, _triple

__all__ = [
    "DEGEN_TOL",
    "Degeneracy",
    "DevelopabilityReport",
    "DrallResult",
    "ProfileKind",
    "RulingDirection",
    "StrictionPoint",
    "TAU_DEV",
    "TAU_DEV_FD",
    "TAU_STRICT",
    "TrajectoryRuledSurface",
    "base_is_striction",
    "binormal_surface",
    "classify_developability",
    "developable_prescription",
    "drall_closed",
    "drall_numeric",
    "general_surface",
    "make_direction",
    "normal_binormal_drall_ratio",
    "normal_surface",
    "ruling_derivative",
    "ruling_vector",
    "striction_point",
    "surface_point",
    "tangent_surface",
    "theta_profile",
]

TAU_DEV = 1e-6
TAU_DEV_FD = 1e-4
TAU_STRICT = 1e-4
DEGEN_TOL = 1e-9
THETA_CELL = 0.002  # cell width of the cumulative table in theta_profile


@dataclass(frozen=True)
class RulingDirection:
    """Constant ruling coefficients in the involute frame, normalized so that
    |x1^2 - x2^2 + x3^2| = 1 (the frame square with a timelike normal)."""

    x1: float
    x2: float
    x3: float
    causal: CausalClass

    def coefficients(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


def make_direction(x1: float, x2: float, x3: float) -> RulingDirection:
    """Normalize ruling coefficients and record their causal type.

    The square is taken in the involute frame signature with timelike normal:
    q = x1^2 - x2^2 + x3^2. Lightlike coefficient triples are rejected; any
    non-null triple (spacelike or timelike) is accepted.
    """
    if not all(math.isfinite(x) for x in (x1, x2, x3)):
        raise ValueError(f"ruling coefficients ({x1}, {x2}, {x3}) must be finite")
    q = x1 * x1 - x2 * x2 + x3 * x3
    scale = max(1.0, x1 * x1 + x2 * x2 + x3 * x3)
    if abs(q) <= DEGEN_TOL * scale:
        raise NullDirectionError(
            f"coefficients ({x1}, {x2}, {x3}) have vanishing frame square"
        )
    r = 1.0 / math.sqrt(abs(q))
    if q < 0.0:
        causal = CausalClass(Causality.TIMELIKE, Orientation.POSITIVE)
    else:
        causal = CausalClass(Causality.SPACELIKE)
    return RulingDirection(x1=x1 * r, x2=x2 * r, x3=x3 * r, causal=causal)


@dataclass(frozen=True)
class TrajectoryRuledSurface:
    """phi(s, v) = gamma(s) + v X(s) with X fixed in the involute frame."""

    inv: InvoluteCurve
    direction: RulingDirection


def general_surface(inv: InvoluteCurve, x1: float, x2: float, x3: float) -> TrajectoryRuledSurface:
    return TrajectoryRuledSurface(inv=inv, direction=make_direction(x1, x2, x3))


def tangent_surface(inv: InvoluteCurve) -> TrajectoryRuledSurface:
    """Ruling along t*: the surface swept by the involute tangents."""
    return general_surface(inv, 1.0, 0.0, 0.0)


def normal_surface(inv: InvoluteCurve) -> TrajectoryRuledSurface:
    """Ruling along n*."""
    return general_surface(inv, 0.0, 1.0, 0.0)


def binormal_surface(inv: InvoluteCurve) -> TrajectoryRuledSurface:
    """Ruling along b*."""
    return general_surface(inv, 0.0, 0.0, 1.0)


def _coefficients(surf: TrajectoryRuledSurface) -> np.ndarray:
    return np.array(surf.direction.coefficients())


def _ruling(coeffs: np.ndarray, fr: InvoluteFrame) -> np.ndarray:
    """x1 t* + x2 n* + x3 b* for coefficients of shape (3,) or one row per sample."""
    x1, x2, x3 = coeffs[..., 0, None], coeffs[..., 1, None], coeffs[..., 2, None]
    return x1 * fr.t_star + x2 * fr.n_star + x3 * fr.b_star


def ruling_vector(surf: TrajectoryRuledSurface, s) -> np.ndarray:
    """X(s) = x1 t*(s) + x2 n*(s) + x3 b*(s) in ambient coordinates."""
    return _ruling(_coefficients(surf), involute_frame(surf.inv, s))


def surface_point(surf: TrajectoryRuledSurface, s, v) -> np.ndarray:
    """phi(s, v) = gamma(s) + v X(s); v is a float or one value per s."""
    v = np.asarray(v, dtype=float)[..., None]
    return involute_point(surf.inv, s) + v * ruling_vector(surf, s)


def ruling_derivative(surf: TrajectoryRuledSurface, s) -> np.ndarray:
    """X'(s) in ambient coordinates, from the frame equations.

    Expanding X in the base frame and differentiating gives, for a spacelike
    rotation vector,

        X' = (x1 kappa - theta' (x2 sinh + x3 cosh)) t
             - x2 ||d|| n
             + (-x1 tau + theta' (x2 cosh + x3 sinh)) b

    and the mirrored coefficients for a timelike one. The n-coefficient is
    -x2 ||d|| in both cases.
    """
    return _result(_ruling_derivative(_coefficients(surf), _darboux(surf.inv.base, _samples(s))), s)


def _ruling_derivative(coeffs: np.ndarray, ev) -> np.ndarray:
    """X' at ev.s from its evaluation (_darboux); coefficients of shape (3,)
    or (N, 3)."""
    fa, spacelike, dd = ev.fa, ev.spacelike, ev.dd
    x1, x2, x3 = coeffs.T
    ch = np.cosh(dd.theta)
    sh = np.sinh(dd.theta)
    td = dd.theta_dot
    yt = x1 * fa.kappa - td * np.where(spacelike, x2 * sh + x3 * ch, x3 * sh - x2 * ch)
    yb = -x1 * fa.tau + td * np.where(spacelike, x2 * ch + x3 * sh, x3 * ch - x2 * sh)
    yn = -x2 * dd.d_norm
    return yt[:, None] * fa.t + yn[:, None] * fa.n + yb[:, None] * fa.b


class Degeneracy(enum.Enum):
    REGULAR = "regular"
    CYLINDRICAL = "cylindrical"
    SINGULAR = "singular"


@dataclass(frozen=True)
class DrallResult:
    """Signed distribution parameter with its degeneracy class.

    value is numerator/|denominator| for regular rulings, 0 for cylindrical
    ones (vanishing ruling derivative, trivially developable) and signed
    infinity for singular ones (vanishing denominator, surviving numerator).
    For an array of s every field is an (N,) array; degeneracy is then an
    object array of Degeneracy.
    """

    value: float
    degeneracy: Degeneracy
    developable: bool
    numerator: float
    denominator: float


_DEGENERACIES = np.array(list(Degeneracy), dtype=object)


def _classify_drall(
    num: np.ndarray,
    den: np.ndarray,
    num_scale: np.ndarray,
    den_scale: np.ndarray,
    tau_dev: float,
) -> DrallResult:
    null_den = np.abs(den) <= DEGEN_TOL * den_scale
    null_num = np.abs(num) <= DEGEN_TOL * num_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = num / np.abs(den)
    value = np.where(
        null_den, np.where(null_num, 0.0, np.copysign(np.inf, num)), regular
    )
    kind = np.where(null_den, np.where(null_num, 1, 2), 0)  # index into Degeneracy
    developable = np.where(null_den, null_num, np.abs(value) <= tau_dev)
    return DrallResult(value, _DEGENERACIES[kind], developable, num, den)


def drall_closed(surf: TrajectoryRuledSurface, s) -> DrallResult:
    """Distribution parameter from the closed form in frame invariants.

    For a spacelike rotation vector,

        delta = (c - s) kappa [x1 x3 ||d|| - theta' (x3^2 - x2^2)]
                / |(x2^2 - x1^2) ||d||^2 + (x2^2 - x3^2) theta'^2
                   + 2 x1 x3 theta' ||d|||

    where the denominator is the Lorentzian square of X'. The leading kappa
    factor is required for consistency with the determinant evaluation (see
    drall_numeric), as the axis-direction specializations confirm. For a
    timelike rotation vector the mirrored expansion yields the negated
    numerator over |(x1^2 + x2^2) ||d||^2 - (x2^2 - x3^2) theta'^2
    - 2 x1 x3 theta' ||d|||. The case is chosen per sample.
    """
    closed = _drall_closed(surf.inv, _coefficients(surf), _darboux(surf.inv.base, _samples(s)))
    return _result(closed, s)


def _drall_closed(inv: InvoluteCurve, coeffs: np.ndarray, ev) -> DrallResult:
    """Closed-form drall at ev.s from its evaluation (_darboux); coefficients
    of shape (3,) or one row per sample."""
    kappa = ev.fa.kappa
    x1, x2, x3 = coeffs.T
    sign = np.where(ev.spacelike, 1.0, -1.0)
    cs = inv.c_const - ev.s
    dn = ev.dd.d_norm
    td = ev.dd.theta_dot
    bracket = x1 * x3 * dn - td * (x3 * x3 - x2 * x2)
    num = sign * cs * kappa * bracket
    den = np.where(ev.spacelike, x2 * x2 - x1 * x1, x1 * x1 + x2 * x2) * dn * dn + sign * (
        (x2 * x2 - x3 * x3) * td * td + 2.0 * x1 * x3 * td * dn
    )
    num_scale = np.maximum(1.0, np.abs(cs) * kappa * (dn + np.abs(td)))
    den_scale = np.maximum(1.0, dn * dn + td * td)
    analytic = inv.base.derivative_mode is DerivativeMode.ANALYTIC
    tau_dev = TAU_DEV if analytic else TAU_DEV_FD
    return _classify_drall(num, den, num_scale, den_scale, tau_dev)


def drall_numeric(surf: TrajectoryRuledSurface, s) -> DrallResult:
    """Distribution parameter by the determinant rule, at a float s or a 1-D
    array of s.

    delta = det(gamma', X, X') / |<X', X'>| with X' obtained by five-point
    central differencing of the frame-built ruling, independent of the
    closed form above (no theta' enters). gamma' is evaluated analytically
    and cross-checked per sample against finite differences of the involute
    position; a failed check raises GeometryError naming the first bad s.
    For N samples the base frame is evaluated once, on the 5N points s plus
    stencil (numdiff.stencil); X, X' and the involute position
    gamma = r + (c - s) t all come from that evaluation (see _oracle).
    """
    ev = _darboux(surf.inv.base, _samples(s))
    numeric, codes, drift, _, _ = _oracle(surf.inv, _coefficients(surf), ev)
    _raise_failed(codes != _Code.OK, codes, ev.s, drift=drift)
    return _result(numeric, s)


def _oracle(inv: InvoluteCurve, coeffs: np.ndarray, ev):
    """(determinant drall, its codes, drift, striction points, their codes) at
    ev.s from one involute gamma = r + (c - s) t and ruling X on its 5N stencil
    points; coefficients of shape (3,) or one row per sample. The codes
    (curves._Code) are VELOCITY_DRIFT where the analytic gamma' and the
    differenced one differ by more than the drift bound, and CYLINDRICAL where
    the closed X' is numerically null, else OFFSET_DISAGREE where the offsets
    disagree."""
    s, dd = ev.s, ev.dd
    gamma, gdot_fd = numdiff.split(ev.involute(inv.c_const))
    rows = np.tile(np.broadcast_to(coeffs, (s.size, 3)), (5, 1))
    x_here, xdot = numdiff.split(_ruling(rows, ev.frame))
    gdot = _velocity(inv, s, ev.fa)
    drift = np.max(np.abs(gdot - gdot_fd), axis=-1)
    bound = 1e-4 * np.maximum(1.0, np.max(np.abs(gdot), axis=-1))
    drift_codes = (_Code.VELOCITY_DRIFT * (drift > bound)).astype(np.int8)
    den = _inner(xdot, xdot)
    xdot_sq = np.sum(xdot * xdot, axis=-1)
    norms = np.linalg.norm(gdot, axis=-1) * np.linalg.norm(x_here, axis=-1)
    num_scale = np.maximum(1.0, norms * np.maximum(1.0, np.sqrt(xdot_sq)))
    num = _triple(gdot, x_here, xdot)
    drall = _classify_drall(num, den, num_scale, np.maximum(1.0, xdot_sq), TAU_DEV_FD)
    xdot_closed = _ruling_derivative(coeffs, ev)
    xx = _inner(xdot_closed, xdot_closed)
    null = np.abs(xx) <= DEGEN_TOL * np.maximum(1.0, dd.d_norm ** 2 + dd.theta_dot ** 2)
    # cylindrical samples divide by a null square; their code says so
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = -_inner(gdot_fd, xdot) / den
        offset_closed = coeffs[..., 1] * (inv.c_const - s) * ev.fa.kappa * dd.d_norm / xx
        disagree = np.abs(offset - offset_closed) > TAU_STRICT * np.maximum(1.0, np.abs(offset))
        point = gamma + offset[:, None] * x_here
    codes = np.where(null, _Code.CYLINDRICAL, _Code.OFFSET_DISAGREE * disagree).astype(np.int8)
    return drall, drift_codes, drift, StrictionPoint(point, offset, offset_closed), codes


def normal_binormal_drall_ratio(inv: InvoluteCurve, s: float) -> float:
    """theta'^2 / (||d||^2 + theta'^2): the predicted |drall| ratio of the
    n*-ruled to the b*-ruled surface wherever both are regular."""
    dd = darboux_data(inv.base, s)
    td = dd.theta_dot
    return td * td / (dd.d_norm * dd.d_norm + td * td)


@dataclass(frozen=True)
class DevelopabilityReport:
    developable: bool
    max_abs_drall: float
    degeneracy_counts: Mapping[Degeneracy, int]
    reason: str
    max_normal_angle: float


def classify_developability(
    surf: TrajectoryRuledSurface, samples: Sequence[float]
) -> DevelopabilityReport:
    """Developability verdict over a sample set, with evidence.

    Every sample must come out developable (cylindrical, or |drall| within
    tolerance). For flagged-developable samples the verdict is cross-checked
    geometrically: the tangent-plane normal at ruling parameters 0.1 and 1.0
    must be parallel within 1e-3 radians.
    """
    ev = _darboux(surf.inv.base, _samples(samples))
    return _verdict(surf, ev, _drall_closed(surf.inv, _coefficients(surf), ev))


def _verdict(surf: TrajectoryRuledSurface, ev, res: DrallResult) -> DevelopabilityReport:
    """classify_developability from the evaluation at the samples and the
    closed drall res there."""
    inv = surf.inv
    coeffs = _coefficients(surf)
    n = ev.s.size
    counts = {deg: int(np.count_nonzero(res.degeneracy == deg)) for deg in Degeneracy}
    regular = res.degeneracy == Degeneracy.REGULAR
    max_abs = float(np.max(np.abs(res.value[regular]), initial=0.0))
    bad = int(np.count_nonzero(~res.developable))
    # Euclidean normals of the tangent plane span{phi_s, phi_v}; the span is
    # metric-independent, so this is a valid constancy probe along rulings.
    dev = res.developable
    s_dev = ev.s[dev]
    gdot = _velocity(inv, ev.s, ev.fa)[dev]
    xdot = _ruling_derivative(coeffs, ev)[dev]
    x_here = _ruling(coeffs, ev.frame)[:n][dev]
    n1 = np.cross(gdot + 0.1 * xdot, x_here)
    n2 = np.cross(gdot + 1.0 * xdot, x_here)
    len1 = np.linalg.norm(n1, axis=-1)
    len2 = np.linalg.norm(n2, axis=-1)
    probed = (len1 >= 1e-12) & (len2 >= 1e-12)
    n1 = n1[probed] / len1[probed, None]
    n2 = n2[probed] / len2[probed, None]
    angles = np.arccos(np.minimum(1.0, np.abs(np.sum(n1 * n2, axis=-1))))
    max_angle = float(np.max(angles, initial=0.0))
    _raise_failed(angles > 1e-3, _Code.NORMAL_TILT, s_dev[probed], angle=angles)
    developable = bad == 0
    if not developable:
        reason = f"drall exceeds tolerance at {bad} of {n} samples"
    elif counts[Degeneracy.CYLINDRICAL] == n:
        reason = "constant ruling direction (cylindrical surface)"
    elif abs(coeffs[1]) < 1e-12 and abs(coeffs[2]) < 1e-12:
        reason = "ruling along the involute tangent"
    elif _general_helix(ev.fa)[0]:
        reason = "base curve is a general helix (constant rotation angle)"
    else:
        reason = "rotation-angle profile satisfies the developability condition"
    return DevelopabilityReport(
        developable=developable,
        max_abs_drall=max_abs,
        degeneracy_counts=counts,
        reason=reason,
        max_normal_angle=max_angle,
    )


class ProfileKind(enum.Enum):
    GENERAL = "general"
    RECTIFYING = "rectifying"


def theta_profile(
    kind: ProfileKind,
    direction: RulingDirection,
    dnorm_fn: Callable[[float], float],
    lam: float,
) -> Callable[[float], float]:
    """Rotation-angle profile that makes the X-ruled surface developable.

    Returns theta(s) = coeff * integral_0^s dnorm_fn(u) du + lam with
    coeff = x1 x3 / (x3^2 - x2^2) in general and x1/x3 on the rectifying
    plane (x2 = 0). Feeding the resulting torsion tau = kappa tanh(theta)
    into curve_from_curvature produces a curve whose X-ruled trajectory
    surface has vanishing drall.

    The closure keeps a cumulative table of the integral at the nodes
    +-k THETA_CELL, one table for each sign of s, and extends it on demand
    one cell at a time. A call adds the table entry of the last node before
    s to a 4-panel Simpson rule over the part-cell from that node to s, so
    it costs five dnorm_fn calls plus those of any new cells, and the result
    is exact for cubic dnorm_fn. Each cell is computed from its two nodes
    alone and cells are appended in order, so the values do not depend on
    the order of the calls. Non-finite s raises ValueError.

    Limits: the tables grow as O(|s| / THETA_CELL) entries and live as long
    as the closure; the closure is not safe for concurrent first use from
    several threads (two threads may extend a table at once).
    """
    x1, x2, x3 = direction.coefficients()
    if kind is ProfileKind.RECTIFYING:
        if abs(x2) > 1e-12:
            raise DegenerateCoefficientError("rectifying profile needs x2 = 0")
        if abs(x3) <= DEGEN_TOL:
            raise DegenerateCoefficientError("rectifying profile needs x3 != 0")
        coeff = x1 / x3
    else:
        gap = x3 * x3 - x2 * x2
        if abs(gap) <= DEGEN_TOL:
            raise DegenerateCoefficientError(
                "general profile needs x3^2 != x2^2"
            )
        coeff = x1 * x3 / gap

    def simpson(a: float, b: float) -> float:
        h = 0.25 * (b - a)
        f = dnorm_fn
        return h / 3.0 * (
            f(a) + 4.0 * f(a + h) + 2.0 * f(a + 2.0 * h) + 4.0 * f(a + 3.0 * h) + f(b)
        )

    positive = [0.0]  # integral_0^{k THETA_CELL} dnorm_fn
    negative = [0.0]  # integral_0^{-k THETA_CELL} dnorm_fn

    def theta(s: float) -> float:
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"theta profile needs a finite s, got {s}")
        sign, table = (-1.0, negative) if s < 0.0 else (1.0, positive)
        k = int(abs(s) / THETA_CELL)
        while len(table) <= k:
            j = len(table) - 1
            cell = simpson(sign * j * THETA_CELL, sign * (j + 1) * THETA_CELL)
            table.append(table[j] + cell)
        return float(coeff * (table[k] + simpson(sign * k * THETA_CELL, s)) + lam)

    return theta


def developable_prescription(
    direction: RulingDirection,
    dnorm_fn: Callable[[float], float],
    lam: float,
    kind: ProfileKind = ProfileKind.GENERAL,
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Curvature/torsion pair realizing the developable angle profile.

    With theta from theta_profile, kappa = dnorm_fn * cosh(theta) and
    tau = dnorm_fn * sinh(theta) = kappa tanh(theta); the synthesized curve
    then has rotation-vector magnitude dnorm_fn and angle theta exactly.
    """
    theta = theta_profile(kind, direction, dnorm_fn, lam)

    def kappa_fn(s: float) -> float:
        return dnorm_fn(s) * math.cosh(theta(s))

    def tau_fn(s: float) -> float:
        return dnorm_fn(s) * math.sinh(theta(s))

    return kappa_fn, tau_fn


@dataclass(frozen=True)
class StrictionPoint:
    """Central point of the ruling through s.

    offset is the signed ruling-parameter value -<gamma', X'>/<X', X'> from
    finite differences; offset_closed is the same quantity from the frame
    invariants, x2 (c - s) kappa ||d|| / <X', X'>. The signed denominator
    keeps the central-point property <C', X'> = 0 even for rulings whose
    derivative is timelike. For an array of s the fields are stacked.
    """

    point: np.ndarray
    offset: float
    offset_closed: float


def striction_point(surf: TrajectoryRuledSurface, s) -> StrictionPoint:
    """Central point on the ruling at s (a float or a 1-D array); undefined
    for cylindrical rulings. An error names the first bad sample.

    The base frame is evaluated once, on the 5N points s plus stencil: the
    closed X' and offset_closed come from the rotation data at s, X, its
    finite-difference X' and the involute position gamma = r + (c - s) t
    from the same evaluation at all 5N points (see _oracle).
    """
    ev = _darboux(surf.inv.base, _samples(s))
    *_, sp, codes = _oracle(surf.inv, _coefficients(surf), ev)
    _raise_failed(codes != _Code.OK, codes, ev.s, offset=sp.offset, offset_closed=sp.offset_closed)
    return _result(sp, s)


def base_is_striction(surf: TrajectoryRuledSurface, samples: Sequence[float]) -> bool:
    """Whether the involute itself is the striction curve over the samples.

    Cylindrical samples are skipped (no central point); every other offset
    must vanish within TAU_STRICT (away from degeneracies: x2 = 0). All samples
    share one evaluation: a frame error at any sample raises first; then, in
    order, a failed striction check raises and an offset over TAU_STRICT gives False.
    """
    ev = _darboux(surf.inv.base, _samples(samples))
    *_, sp, codes = _oracle(surf.inv, _coefficients(surf), ev)
    for i, code in enumerate(codes.tolist()):
        if code == _Code.OK and abs(sp.offset[i]) > TAU_STRICT:
            return False
        if code not in (_Code.OK, _Code.CYLINDRICAL):
            raise _error(code, s=ev.s[i], offset=sp.offset[i], offset_closed=sp.offset_closed[i])
    return True
