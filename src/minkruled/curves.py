"""Unit-speed timelike curves in Minkowski 3-space.

Covers differentiation of parametric curves, the moving orthonormal frame
{t, n, b} with curvature and torsion, the rotation (Darboux) vector with its
hyperbolic angle split, the involute frame rotated by that angle,
general-helix detection, closed-form helices, and synthesis of curves from
prescribed curvature and torsion by integrating the frame equations.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numdiff
from .errors import (
    CylindricalRulingError,
    DegenerateFrameError,
    GeometryError,
    IntegrationError,
    InvalidFrameError,
    MissingDerivativeError,
    NotUnitSpeedError,
    NullDarbouxError,
    OutOfDomainError,
)
from .lorentz import (
    CAUSAL_CLASSES,
    LIGHTLIKE_INDEX,
    SPACELIKE_INDEX,
    CausalClass,
    _causal_index,
    _cross,
    _inner,
    as_vector,
    inner,
    triple,
)

__all__ = [
    "Curve",
    "DarbouxData",
    "DerivativeMode",
    "FrenetApparatus",
    "KAPPA_MIN",
    "ODE_STEP",
    "TAU_FRAME",
    "TAU_HELIX",
    "TAU_SPEED",
    "curve_from_curvature",
    "darboux_data",
    "frenet_apparatus",
    "helix_curve",
    "is_general_helix",
]

TAU_SPEED = 1e-6
TAU_FRAME = 1e-8
KAPPA_MIN = 1e-8
TAU_HELIX = 1e-6
ODE_STEP = 1e-3
NULL_GAP = 1e-12
VALIDATION_SAMPLES = 25  # unit-speed check grid of a new Curve
# h f'(x_m) from f at x_0 .. x_4 (row m), exact for quartics
_FIVE_POINT = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1], [1, -8, 0, 8, -1],
                        [-1, 6, -18, 10, 3], [3, -16, 36, -48, 25]]) / 12.0


def _samples(s) -> np.ndarray:
    """s as a 1-D float array; a float becomes a single sample."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"s must be a float or a 1-D array, got shape {arr.shape}")
    return np.atleast_1d(arr)


def _result(value, s):
    """Undo _samples for a float s: (1,) -> float, (1, 3) -> (3,), and the
    same field by field for a dataclass. For an array s, value is returned."""
    return value if np.ndim(s) > 0 else _item(value, 0)


def _joined(values: list):
    """Array results of one dataclass type, stacked sample by sample."""
    fields = dataclasses.fields(values[0])
    return type(values[0])(*(np.concatenate([getattr(v, f.name) for v in values]) for f in fields))


def _item(value, i):
    """Sample i of an array result, typed as for a float s; for a slice i,
    the rows of i of every field."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(
            value,
            **{f.name: _item(getattr(value, f.name), i) for f in dataclasses.fields(value)},
        )
    item = value[i]
    return item.item() if isinstance(item, np.generic) else item


# Per-sample outcomes are int8 _Code arrays: OK, or a failure with its (exception type, message).
_FAILURES = {
    "OUT_OF_DOMAIN": (OutOfDomainError, "s = {s} outside usable domain [{lo}, {hi}]"),
    "NOT_UNIT_SPEED": (
        NotUnitSpeedError, f"<r', r'> = {{speed}} at s = {{s}}; expected -1 within {TAU_SPEED}"
    ),
    "DEGENERATE_FRAME": (
        DegenerateFrameError, f"curvature {{kappa}} below {KAPPA_MIN} at s = {{s}}"
    ),
    "FLAT_PRESCRIPTION": (
        DegenerateFrameError, f"prescribed curvature {{kappa}} below {KAPPA_MIN} at s = {{s}}"
    ),
    "LIGHTLIKE_ROTATION": (
        NullDarbouxError, "rotation vector lightlike at s = {s} (kappa = {kappa}, tau = {tau})"
    ),
    "CYLINDRICAL": (
        CylindricalRulingError,
        "striction undefined at s = {s}: ruling derivative is numerically null",
    ),
    "VELOCITY_DRIFT": (
        GeometryError, "involute velocity cross-check failed at s = {s} (drift {drift})"
    ),
    "OFFSET_DISAGREE": (
        GeometryError,
        "striction offsets disagree at s = {s}: numeric {offset} vs closed {offset_closed}",
    ),
    "NORMAL_TILT": (
        GeometryError, "drall flags s = {s} developable but ruling normals tilt by {angle}"
    ),
}
_Code = enum.IntEnum("_Code", ["OK", *_FAILURES], start=0)


def _error(code: int, **values) -> GeometryError:
    """The exception of a failed code; built only where a call raises or a report prints it."""
    kind, message = _FAILURES[_Code(code).name]
    return kind(message.format(**values))


def _raise_failed(failed: np.ndarray, code, s: np.ndarray, **values) -> None:
    """Raise the error of code (one code, or one per row) for the first sample of s
    with a failed row. failed and the array values hold k rows per sample, row j
    belonging to s[j mod N] (numdiff.stencil order); the error reads the sample's
    first failed row."""
    if failed.any():
        rows = failed.reshape(-1, s.size)
        i = int(np.argmax(rows.any(axis=0)))
        j = i + s.size * int(np.argmax(rows[:, i]))
        code = code[j] if np.ndim(code) else code
        raise _error(code, s=s[i], **{k: v[j] if np.ndim(v) else v for k, v in values.items()})


def _require_unit_speed(d1: np.ndarray, s: np.ndarray) -> None:
    speed = _inner(d1, d1)
    _raise_failed(np.abs(speed + 1.0) > TAU_SPEED, _Code.NOT_UNIT_SPEED, s, speed=speed)


class DerivativeMode(enum.Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite-difference"


class Curve:
    """Unit-speed timelike curve r(s) on a closed parameter interval.

    position maps a float s to a 3-vector. derivatives, when given, is a
    tuple of evaluators for r', r'', r''' (a prefix is allowed); without
    them differentiation falls back to five-point stencils, which shrinks
    the usable parameter window by the stencil half-width.

    These evaluators, like the kappa, tau and dnorm prescriptions, take one
    float at a time, so they may use math.*; helix_curve and
    curve_from_curvature give curves that evaluate arrays of s. point and
    derivative take a float s, giving a (3,) result, or a 1-D array of N
    samples, giving (N, 3), checked once for shape and finiteness.

    The unit-speed timelike property <r', r'> = -1 is validated on a sample
    grid at construction and again wherever a frame is computed; it is never
    silently repaired.
    """

    def __init__(
        self,
        position: Callable[[float], np.ndarray],
        derivatives: Sequence[Callable[[float], np.ndarray]] | None = None,
        domain: tuple[float, float] = (0.0, 1.0),
        validate: bool = True,
    ):
        evaluators = (position, *(derivatives or ()))
        if len(evaluators) > 4:
            raise ValueError("at most three derivative evaluators are supported")
        self._init(tuple(functools.partial(_per_sample, fn) for fn in evaluators), domain, validate)

    @classmethod
    def _from_jets(cls, jets: tuple, domain: tuple[float, float]) -> Curve:
        """A curve whose jets[k] maps a 1-D array of s to the (N, 3) array of r^(k)."""
        curve = cls.__new__(cls)
        curve._init(jets, domain, validate=True)
        return curve

    def _init(self, jets: tuple, domain: tuple[float, float], validate: bool) -> None:
        self._jets = jets
        lo, hi = float(domain[0]), float(domain[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError("domain must be a finite interval with s_min < s_max")
        self.domain = (lo, hi)
        if validate:
            margin = 0.0 if len(jets) > 1 else numdiff.stencil_halfwidth(1)
            grid = np.linspace(lo + margin, hi - margin, VALIDATION_SAMPLES)
            _require_unit_speed(self.derivative(grid, 1), grid)

    @property
    def derivative_mode(self) -> DerivativeMode:
        return DerivativeMode.ANALYTIC if len(self._jets) > 1 else DerivativeMode.FINITE_DIFFERENCE

    def point(self, s) -> np.ndarray:
        s_arr = _samples(s)
        self._require(s_arr, 0)
        return _result(self._evaluate(s_arr, 0), s)

    def derivative(self, s, order: int) -> np.ndarray:
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        s_arr = _samples(s)
        self._require(s_arr, order)
        return _result(self._evaluate(s_arr, order), s)

    def _evaluate(self, s: np.ndarray, order: int) -> np.ndarray:
        """r^(order) at the 1-D array s, without a domain check."""
        if order < len(self._jets):
            out = self._jets[order](s)
        elif len(self._jets) == 1:
            out = numdiff.derivative(self._jets[0], s, order)
        else:
            raise MissingDerivativeError(f"no analytic evaluator for derivative order {order}")
        if out.shape != (s.size, 3):
            raise ValueError(f"curve evaluators must return 3-vectors, got shape {out.shape[1:]}")
        if not np.all(np.isfinite(out)):
            raise ValueError("vector components must be finite")
        return out

    def _require(self, s: np.ndarray, order: int, reach: float = 0.0) -> None:
        """Domain check at s for derivatives up to order, with s +- reach inside too."""
        lo, hi = self.domain
        margin = reach
        if order > 0 and len(self._jets) == 1:
            margin += numdiff.stencil_halfwidth(order)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        bad = (s < lo + margin - tol) | (s > hi - margin + tol)
        _raise_failed(bad, _Code.OUT_OF_DOMAIN, s, lo=lo + margin, hi=hi - margin)


def _per_sample(fn: Callable[[float], np.ndarray], s: np.ndarray) -> np.ndarray:
    # The loop over s of user curve evaluators, which take one float at a time.
    rows = [fn(u) for u in s.tolist()]
    return np.array(rows, dtype=float) if rows else np.empty((0, 3))


@dataclass(frozen=True)
class FrenetApparatus:
    """Moving frame of a timelike curve: t timelike, n and b spacelike.

    The frame satisfies t' = kappa n, n' = kappa t - tau b, b' = tau n, with
    kappa > 0 and the coordinate determinant of (t, n, b) fixed to +1. For
    an array of s the vectors are (N, 3) and the invariants (N,).
    """

    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: float
    tau: float


def _complete_frame(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Unit spacelike vector Lorentz-orthogonal to t and n. The determinant
    # of (t, n, w) equals <cross(t, n), w>, so w = cross(t, n) / |..| has
    # determinant +1 by construction; the frame equations alone would leave
    # the sign of b (and with it the sign of tau) free.
    w = _cross(t, n)
    q = _inner(w, w)
    if np.any(q <= 1e-6):
        raise DegenerateFrameError("tangent and normal do not span a stable plane")
    return w / np.sqrt(q)[:, None]


def frenet_apparatus(curve: Curve, s) -> FrenetApparatus:
    """Frame and scalar invariants at s (a float or a 1-D array).

    t = r'; kappa = ||r''|| (r'' is spacelike because it is orthogonal to the
    timelike tangent); n = r''/kappa; b completes the frame with determinant
    +1; tau is read off the third derivative as -<r''', b>/kappa.
    """
    return _result(_frenet(curve, _samples(s)), s)


def _frenet(curve: Curve, s: np.ndarray, points: np.ndarray | None = None) -> FrenetApparatus:
    """The frame at the samples s, domain-checked, or at points, k per sample as
    for _raise_failed, which the caller has checked."""
    evaluate, at = (curve.derivative, s) if points is None else (curve._evaluate, points)
    d1, d2, d3 = (evaluate(at, k) for k in (1, 2, 3))
    _require_unit_speed(d1, s)
    kappa = np.sqrt(np.maximum(_inner(d2, d2), 0.0))
    _raise_failed(kappa < KAPPA_MIN, _Code.DEGENERATE_FRAME, s, kappa=kappa)
    n = d2 / kappa[:, None]
    b = _complete_frame(d1, n)
    tau = -_inner(d3, b) / kappa
    return FrenetApparatus(t=d1, n=n, b=b, kappa=kappa, tau=tau)


@dataclass(frozen=True)
class DarbouxData:
    """Rotation vector d = tau t - kappa b of the frame and its angle split.

    For spacelike d (|kappa| > |tau|): d_norm^2 = kappa^2 - tau^2 and
    kappa = d_norm cosh(theta), tau = d_norm sinh(theta). For timelike d the
    roles swap: d_norm^2 = tau^2 - kappa^2, kappa = d_norm sinh(theta),
    tau = d_norm cosh(theta) (torsion taken positive). theta_dot is obtained
    by finite differencing of theta along the curve. For an array of s the
    fields are stacked and d_class is an object array of CausalClass.
    """

    d: np.ndarray
    d_class: CausalClass
    d_norm: float
    theta: float
    theta_dot: float
    c_unit: np.ndarray


def _rotation(curve: Curve, s: np.ndarray, points: np.ndarray | None = None):
    """(frame, d, causal index into CAUSAL_CLASSES, ||d||, theta) as for
    _frenet. The causal branch is chosen per point, so an array that crosses
    kappa = |tau| gives the same values as one call per sample."""
    fa = _frenet(curve, s, points)
    d = fa.tau[:, None] * fa.t - fa.kappa[:, None] * fa.b
    causal = _causal_index(d)
    lightlike = causal == LIGHTLIKE_INDEX
    _raise_failed(lightlike, _Code.LIGHTLIKE_ROTATION, s, kappa=fa.kappa, tau=fa.tau)
    spacelike = causal == SPACELIKE_INDEX
    d_norm = np.sqrt(np.abs(_inner(d, d)))
    theta = np.arctanh(
        np.where(spacelike, fa.tau, fa.kappa) / np.where(spacelike, fa.kappa, fa.tau)
    )
    return fa, d, causal, d_norm, theta


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


def _frame(rotation) -> InvoluteFrame:
    """Involute frame from the rotation data of _rotation."""
    fa, _, causal, _, theta = rotation
    ch = np.cosh(theta)[:, None]
    sh = np.sinh(theta)[:, None]
    spacelike = (causal == SPACELIKE_INDEX)[:, None]
    n_star = np.where(spacelike, -ch * fa.t + sh * fa.b, sh * fa.t - ch * fa.b)
    b_star = np.where(spacelike, -sh * fa.t + ch * fa.b, -ch * fa.t + sh * fa.b)
    return InvoluteFrame(fa.n, n_star, b_star, CAUSAL_CLASSES[causal])


@dataclass(frozen=True)
class _Evaluation:
    """One _rotation call on the 5N points numdiff.stencil(s) of a 1-D array
    s: the frame, spacelike mask and DarbouxData at s, and the involute frame and
    position r on all 5N points (each built on first read), which the kernels
    take X, the involute r + (c - s) t and their stencils from."""

    s: np.ndarray
    fa: FrenetApparatus
    spacelike: np.ndarray
    dd: DarbouxData
    points: np.ndarray
    rotation: tuple
    curve: Curve | None = None

    @functools.cached_property
    def frame(self) -> InvoluteFrame:
        return _frame(self.rotation)

    @functools.cached_property
    def position(self) -> np.ndarray:
        return self.curve._evaluate(self.points, 0)

    def involute(self, c: float) -> np.ndarray:
        return self.position + (c - self.points)[:, None] * self.rotation[0].t


def _darboux(curve: Curve, s: np.ndarray) -> _Evaluation:
    """The evaluation every quantity at the 1-D array s reads; theta_dot
    comes from the stencil rows of theta. A frame error names the sample."""
    curve._require(s, 3, reach=numdiff.stencil_halfwidth(1))
    points = numdiff.stencil(s)
    rotation = _rotation(curve, s, points)
    fa, d, causal, d_norm, _ = (_item(x, slice(s.size)) for x in rotation)
    theta, theta_dot = numdiff.split(rotation[4])
    dd = DarbouxData(d, CAUSAL_CLASSES[causal], d_norm, theta, theta_dot, d / d_norm[:, None])
    return _Evaluation(s, fa, causal == SPACELIKE_INDEX, dd, points, rotation, curve)


def darboux_data(curve: Curve, s) -> DarbouxData:
    """Rotation vector data at s (a float or a 1-D array), including the
    angle rate theta_dot."""
    return _result(_darboux(curve, _samples(s)).dd, s)


def is_general_helix(curve: Curve, samples: Sequence[float]) -> tuple[bool, float]:
    """Whether tau/kappa is constant over the samples; returns the deviation.

    The deviation is the largest distance of the ratio from its median; the
    verdict is positive when it stays within TAU_HELIX.
    """
    return _general_helix(frenet_apparatus(curve, _samples(samples)))


def _general_helix(fa: FrenetApparatus) -> tuple[bool, float]:
    """is_general_helix from the frame at the samples."""
    ratios = fa.tau / fa.kappa
    deviation = float(np.max(np.abs(ratios - np.median(ratios))))
    return deviation <= TAU_HELIX, deviation


def _coerce_frame(initial_frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if initial_frame is None:
        initial_frame = np.eye(3)
    elif hasattr(initial_frame, "t"):
        initial_frame = (initial_frame.t, initial_frame.n, initial_frame.b)
    t, n, b = initial_frame
    return as_vector(t), as_vector(n), as_vector(b)


def orthonormality_residuals(t, n, b) -> dict[str, float]:
    """The six Lorentz-orthonormality residuals of a (t, n, b) frame."""
    return {
        "<t,t>+1": inner(t, t) + 1.0,
        "<n,n>-1": inner(n, n) - 1.0,
        "<b,b>-1": inner(b, b) - 1.0,
        "<t,n>": inner(t, n),
        "<n,b>": inner(n, b),
        "<b,t>": inner(b, t),
    }


def _validate_initial_frame(t: np.ndarray, n: np.ndarray, b: np.ndarray) -> None:
    for name, value in orthonormality_residuals(t, n, b).items():
        if abs(value) > TAU_FRAME:
            raise InvalidFrameError(f"initial frame fails {name} = {value}")
    if triple(t, n, b) < 0.0:
        raise InvalidFrameError(
            "initial frame must have coordinate determinant +1"
        )


def curve_from_curvature(
    kappa_fn: Callable[[float], float],
    tau_fn: Callable[[float], float],
    initial_frame=None,
    initial_point=None,
    domain: tuple[float, float] = (0.0, 1.0),
    step: float = ODE_STEP,
) -> Curve:
    """Synthesize a unit-speed timelike curve with prescribed kappa and tau.

    Integrates r' = t together with the frame equations by a classical
    fixed-step fourth-order scheme (at least four steps, none above ODE_STEP)
    and applies a Lorentzian Gram-Schmidt pass after every step: t is
    renormalized to <t,t> = -1 first, then n and b are projected and
    renormalized. A cubic Hermite interpolant of r, t, n and b with the
    frame equations as node slopes (the RK dense output of Hairer, Norsett
    & Wanner, Solving ODEs I, II.6) is exact at the nodes, with a cell error
    near h^4/384 |y^(4)|, below that of the steps. The curve evaluates
    arrays of s; its r''' = kappa^2 t + kappa' n - kappa tau b takes kappa
    and tau from the prescription and kappa' from five-point differences at
    the nodes.

    The prescriptions are sampled once per step grid before integration, on
    the nodes (tau: all but the last, which takes its step end's), the step
    midpoints and the step ends; a node kappa below KAPPA_MIN raises before
    any step. Afterwards the r'' and r''' evaluators call them per sample.

    initial_frame may be a FrenetApparatus, a (t, n, b) triple, or None for
    the canonical frame; initial_point defaults to the origin. A non-finite
    domain end or a step that is not finite and positive raises ValueError.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"domain must be finite, got {domain}")
    if lo >= hi:
        raise ValueError("domain must satisfy s_min < s_max")
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step}")
    t0, n0, b0 = _coerce_frame(initial_frame)
    _validate_initial_frame(t0, n0, b0)
    p0 = np.zeros(3) if initial_point is None else as_vector(initial_point)

    nsteps = max(4, math.ceil((hi - lo) / min(step, ODE_STEP)))
    h = (hi - lo) / nsteps
    svals = lo + h * np.arange(nsteps + 1)
    mids, ends = svals[:-1] + 0.5 * h, svals[:-1] + h  # an end and the next node may differ

    def prescribed(fn: Callable[[float], float], s: np.ndarray) -> np.ndarray:
        return np.fromiter(map(fn, s.tolist()), float, s.size)

    kappas, k_mid, k_end = (prescribed(kappa_fn, grid) for grid in (svals, mids, ends))
    tau_here, tau_mid, tau_end = (prescribed(tau_fn, grid) for grid in (svals[:-1], mids, ends))
    taus = np.append(tau_here, tau_end[-1])
    _raise_failed(kappas < KAPPA_MIN, _Code.FLAT_PRESCRIPTION, svals, kappa=kappas)

    def rhs(y: np.ndarray, k, tau) -> np.ndarray:
        """The frame equations at one node, or at N with k and tau (N, 1)."""
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = k * y[2]
        out[2] = k * y[1] - tau * y[3]
        out[3] = tau * y[2]
        return out

    def unit(v: np.ndarray, sign: float, what: str, s: float) -> np.ndarray:
        q = sign * _inner(v, v)  # positive while v keeps its causal character
        if q <= 0.0:
            raise IntegrationError(f"{what} near s = {s}")
        return v / math.sqrt(q)

    table = np.empty((nsteps + 1, 4, 3))
    table[0] = p0, t0, n0, b0
    for i, end in enumerate(ends.tolist()):
        y = table[i]
        k1 = rhs(y, kappas[i], tau_here[i])
        k2 = rhs(y + 0.5 * h * k1, k_mid[i], tau_mid[i])
        k3 = rhs(y + 0.5 * h * k2, k_mid[i], tau_mid[i])
        k4 = rhs(y + h * k3, k_end[i], tau_end[i])
        state = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise IntegrationError(f"non-finite state near s = {end}")
        # Lorentzian Gram-Schmidt; the projection onto the timelike t adds
        # (rather than subtracts) the <.,t> component because <t,t> = -1.
        t = unit(state[1], -1.0, "tangent left the timelike cone", end)
        n = unit(state[2] + _inner(state[2], t) * t, 1.0, "normal is no longer spacelike", end)
        b = state[3] + _inner(state[3], t) * t - _inner(state[3], n) * n
        table[i + 1] = state[0], t, n, unit(b, 1.0, "binormal is no longer spacelike", end)

    # Frame-equation node slopes; kappa' from five-point rows, one-sided at the ends.
    slopes = rhs(table.swapaxes(0, 1), kappas[:, None], taus[:, None]).swapaxes(0, 1)
    first = np.clip(np.arange(nsteps + 1) - 2, 0, nsteps - 4)
    rows = _FIVE_POINT[np.arange(nsteps + 1) - first]
    kdots = np.sum(rows * kappas[first[:, None] + np.arange(5)], axis=1) / h

    def hermite(s: np.ndarray) -> np.ndarray:
        """(N, 4, 3) rows (r, t, n, b) of the cubic Hermite interpolant at s."""
        i = np.clip(np.searchsorted(svals, s, side="right") - 1, 0, nsteps - 1)
        width = (svals[i + 1] - svals[i])[:, None, None]
        u = (s - svals[i])[:, None, None] / width
        v = 1.0 - u
        cubic = v * v * (1.0 + 2.0 * u) * table[i] + u * u * (3.0 - 2.0 * u) * table[i + 1]
        return cubic + u * v * width * (v * slopes[i] - u * slopes[i + 1])

    def d3(s: np.ndarray) -> np.ndarray:
        y, kappa = hermite(s), prescribed(kappa_fn, s)[:, None]
        kdot = np.interp(s, svals, kdots)[:, None]
        tau = prescribed(tau_fn, s)[:, None]
        return kappa * kappa * y[:, 1] + kdot * y[:, 2] - kappa * tau * y[:, 3]

    return Curve._from_jets(
        (lambda s: hermite(s)[:, 0], lambda s: hermite(s)[:, 1],
         lambda s: prescribed(kappa_fn, s)[:, None] * hermite(s)[:, 2], d3), (lo, hi))


def helix_curve(
    kappa: float,
    tau: float,
    domain: tuple[float, float] = (0.0, math.pi),
) -> Curve:
    """Closed-form unit-speed timelike helix with constant kappa and tau.

    |kappa| > |tau| gives the hyperbolic-profile family (spacelike rotation
    vector); |kappa| < |tau| the circular-profile one (timelike rotation
    vector). kappa must be positive and may not equal |tau|, where the
    rotation vector would be lightlike and no such closed form exists.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    gap = kappa * kappa - tau * tau
    if abs(gap) <= NULL_GAP * max(1.0, kappa * kappa + tau * tau):
        raise NullDarbouxError("|kappa| = |tau| has a lightlike rotation vector")
    w = math.sqrt(abs(gap))
    beta = kappa / (w * w)
    scales = (beta, beta * w, beta * w * w, beta * w ** 3)
    timelike = gap < 0.0
    # The sign of the time slope fixes the sign of the recovered torsion
    # under the determinant +1 frame orientation.
    alpha = -tau / w if timelike else tau / w

    def jet(k: int) -> Callable[[np.ndarray], np.ndarray]:
        # r^(k) at an array of s: scales[k] times the profile pair at u = w s turned
        # k times, (sinh, cosh) by swaps and (cos, sin) by quarter-turns (p, q) -> (-q, p),
        # with the linear part's own derivative. The turns are exact sign flips.
        f, g = (np.cos, np.sin) if timelike else (np.sinh, np.cosh)
        a = b = scales[k]  # the signed scales of f and g
        for _ in range(k):
            f, g, a, b = (g, f, -b, a) if timelike else (g, f, b, a)

        def r(s: np.ndarray) -> np.ndarray:
            line = alpha * s if k == 0 else np.full_like(s, alpha if k == 1 else 0.0)
            p, q = a * f(w * s), b * g(w * s)
            return np.stack([line, p, q] if timelike else [p, q, line], axis=1)

        return r

    return Curve._from_jets(tuple(jet(k) for k in range(4)), domain)
