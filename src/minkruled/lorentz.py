"""Lorentzian vector algebra on R^3 with metric signature (-, +, +).

Vectors are plain length-3 float arrays (anything array-like is accepted);
the first coordinate carries the minus sign. All functions are pure and safe
for concurrent use. The public functions validate their arguments; the
row-wise helpers (_inner, _cross, _causal_index) take (3,) or (N, 3) arrays
already known to be finite and serve the frame kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlaneError, NullInputError, OrientationMismatchError

__all__ = [
    "AngleKind",
    "CausalClass",
    "Causality",
    "LorentzianAngle",
    "NULL_TOL",
    "Orientation",
    "as_vector",
    "classify",
    "coordinate_cross",
    "cross",
    "inner",
    "lorentz_angle",
    "norm",
    "null_tolerance",
    "triple",
]

NULL_TOL = 1e-9


def as_vector(u) -> np.ndarray:
    """Coerce to a finite float (3,) array; NaN/Inf components are rejected."""
    v = np.asarray(u, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _null_tolerance(u: np.ndarray) -> np.ndarray:
    return NULL_TOL * np.maximum(1.0, np.sum(u * u, axis=-1))


def inner(u, v) -> float:
    """Indefinite inner product -u0*v0 + u1*v1 + u2*v2."""
    return float(_inner(as_vector(u), as_vector(v)))


def norm(u) -> float:
    """sqrt(|<u, u>|), zero exactly on the light cone."""
    return math.sqrt(abs(inner(u, u)))


def null_tolerance(u) -> float:
    """Absolute tolerance below which a Lorentzian square counts as zero."""
    return float(_null_tolerance(as_vector(u)))


class Causality(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


class Orientation(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class CausalClass:
    """Causal type of a vector; timelike vectors also carry an orientation."""

    kind: Causality
    orientation: Orientation | None = None

    def __post_init__(self):
        if self.orientation is not None and self.kind is not Causality.TIMELIKE:
            raise ValueError("only timelike vectors carry an orientation")

    @property
    def is_timelike(self) -> bool:
        return self.kind is Causality.TIMELIKE

    @property
    def is_spacelike(self) -> bool:
        return self.kind is Causality.SPACELIKE

    @property
    def is_lightlike(self) -> bool:
        return self.kind is Causality.LIGHTLIKE

    def __str__(self) -> str:
        if self.orientation is not None:
            return f"{self.kind.value} ({self.orientation.value})"
        return self.kind.value


# _causal_index(u) indexes this table; an object array so that an (N,)
# index array picks one CausalClass per row without a Python loop.
CAUSAL_CLASSES = np.array(
    [
        CausalClass(Causality.TIMELIKE, Orientation.NEGATIVE),
        CausalClass(Causality.TIMELIKE, Orientation.POSITIVE),
        CausalClass(Causality.LIGHTLIKE),
        CausalClass(Causality.SPACELIKE),
    ],
    dtype=object,
)
LIGHTLIKE_INDEX = 2
SPACELIKE_INDEX = 3


def _causal_index(u: np.ndarray) -> np.ndarray:
    q = _inner(u, u)
    tol = _null_tolerance(u)
    timelike = (u[..., 0] > 0).astype(int)
    return np.where(q > tol, SPACELIKE_INDEX, np.where(q < -tol, timelike, LIGHTLIKE_INDEX))


def classify(u) -> CausalClass:
    """Causal class of u, tolerance-scaled near the light cone."""
    return CAUSAL_CLASSES[int(_causal_index(as_vector(u)))]


def cross(u, v) -> np.ndarray:
    """Lorentzian vector product, adjoint to the coordinate determinant.

    Characterized by <cross(u, v), w> = triple(u, v, w) for all w, which
    makes it antisymmetric and Lorentz-orthogonal to both factors; it is the
    convention under which the frame rotation identities hold with a single
    global sign. See coordinate_cross for the textbook componentwise rule,
    which differs in the middle component and fails orthogonality.
    """
    return _cross(as_vector(u), as_vector(v))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            u[..., 2] * v[..., 1] - u[..., 1] * v[..., 2],
            u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
        ],
        axis=-1,
    )


def coordinate_cross(u, v) -> np.ndarray:
    """Componentwise rule (u3 v2 - u2 v3, u1 v3 - u3 v1, u1 v2 - u2 v1).

    Indices 1..3 map onto coordinates 0..2. Antisymmetric, and it agrees
    with cross() whenever u0 v2 = u2 v0, but it is NOT adjoint to the
    determinant and is measurably not Lorentz-orthogonal to its factors
    (probe u = (0, 0, 1), v = (1, 1, 0)). Kept so verification reports can
    record both conventions side by side.
    """
    u = as_vector(u)
    v = as_vector(v)
    return np.array(
        [
            u[2] * v[1] - u[1] * v[2],
            u[0] * v[2] - u[2] * v[0],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def triple(u, v, w) -> float:
    """Plain 3x3 coordinate determinant with rows (u, v, w)."""
    return float(_triple(as_vector(u), as_vector(v), as_vector(w)))


def _triple(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (
        u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
        - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
        + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0])
    )


class AngleKind(enum.Enum):
    """Which of the four angle branches applied."""

    CIRCULAR = "circular"
    HYPERBOLIC_SPACELIKE_PAIR = "hyperbolic-spacelike-pair"
    HYPERBOLIC_MIXED = "hyperbolic-mixed"
    HYPERBOLIC_TIMELIKE_PAIR = "hyperbolic-timelike-pair"


@dataclass(frozen=True)
class LorentzianAngle:
    """Angle value (radians for CIRCULAR, rapidity otherwise) plus context."""

    value: float
    kind: AngleKind
    plane_class: Causality

    def __post_init__(self):
        if self.kind is AngleKind.CIRCULAR:
            if not 0.0 <= self.value <= math.pi + 1e-15:
                raise ValueError("circular angle must lie in [0, pi]")
        elif self.value < 0.0:
            raise ValueError("rapidity must be non-negative")


def lorentz_angle(u, v) -> LorentzianAngle:
    """Angle between two non-null vectors, dispatched on causal classes.

    Spacelike pairs get the circular angle when their span is a spacelike
    plane and a rapidity when it is timelike; mixed pairs and same-oriented
    timelike pairs always get rapidities. The magnitude of the inner product
    is used in the hyperbolic branches, so the result is symmetric.
    """
    u = as_vector(u)
    v = as_vector(v)
    cu = classify(u)
    cv = classify(v)
    if cu.is_lightlike or cv.is_lightlike:
        raise NullInputError("lorentz_angle requires non-null vectors")
    g = inner(u, v)
    scale = norm(u) * norm(v)
    if cu.is_spacelike and cv.is_spacelike:
        uu = inner(u, u)
        vv = inner(v, v)
        gram = uu * vv - g * g
        if abs(gram) <= NULL_TOL * max(1.0, abs(uu * vv)):
            raise DegeneratePlaneError("spanned plane is numerically lightlike")
        if gram > 0:
            val = math.acos(min(1.0, max(-1.0, g / scale)))
            return LorentzianAngle(val, AngleKind.CIRCULAR, Causality.SPACELIKE)
        val = math.acosh(max(1.0, abs(g) / scale))
        return LorentzianAngle(
            val, AngleKind.HYPERBOLIC_SPACELIKE_PAIR, Causality.TIMELIKE
        )
    if cu.is_timelike and cv.is_timelike:
        if cu.orientation is not cv.orientation:
            raise OrientationMismatchError(
                "timelike pair must share orientation for a hyperbolic angle"
            )
        val = math.acosh(max(1.0, abs(g) / scale))
        return LorentzianAngle(
            val, AngleKind.HYPERBOLIC_TIMELIKE_PAIR, Causality.TIMELIKE
        )
    val = math.asinh(abs(g) / scale)
    return LorentzianAngle(val, AngleKind.HYPERBOLIC_MIXED, Causality.TIMELIKE)
