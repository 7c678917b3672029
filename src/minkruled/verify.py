"""Seeded random scenes for cross-validating the drall closed form.

The generators produce synthesized curves with a spacelike rotation vector
(|kappa| > |tau| everywhere) or a timelike one (|tau| > |kappa|), random
non-null ruling directions, and sample parameters; trials compare the closed
form against the finite-difference determinant at the stated tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .config import polynomial
from .curves import Curve, _Code, _darboux, _raise_failed, curve_from_curvature
from .involute import InvoluteCurve
from .surfaces import (
    Degeneracy,
    DrallResult,
    RulingDirection,
    _drall_closed,
    _drall_numeric,
    make_direction,
)

__all__ = [
    "OracleTrial",
    "RandomCurve",
    "build_case1_curve",
    "build_case2_curve",
    "random_direction",
    "run_trials",
]

REL_TOL = 1e-4
# Rejection-sampling cap of build_case1_curve and build_case2_curve. On the
# default domain about 99 % of draws are accepted, so the cap is only met on
# domains the prescriptions cannot satisfy.
MAX_DRAWS = 1000
# Largest round of run_trials: keeps the memory of one round bounded (a few
# kB per candidate) whatever the trial count.
MAX_ROUND = 1000
MIN_SQUARE = 0.2


@dataclass(frozen=True)
class OracleTrial:
    s: float
    direction: RulingDirection
    closed: DrallResult
    numeric: DrallResult
    rel_err: float
    agree: bool


@dataclass(frozen=True)
class RandomCurve:
    """A synthesized curve together with the functions that prescribed it."""

    curve: Curve
    kappa: Callable[[float], float]
    tau: Callable[[float], float]


def random_direction(rng: np.random.Generator) -> RulingDirection:
    """Random non-null ruling direction whose square is at least MIN_SQUARE."""
    while True:
        x = rng.uniform(-1.5, 1.5, size=3)
        q = x[0] * x[0] - x[1] * x[1] + x[2] * x[2]
        if abs(q) >= MIN_SQUARE:
            return make_direction(float(x[0]), float(x[1]), float(x[2]))


def build_case1_curve(
    rng: np.random.Generator, domain: tuple[float, float] = (-0.05, 2.05)
) -> RandomCurve:
    """Synthesized curve with |kappa| > |tau|: kappa quadratic, ratio linear.
    RuntimeError after MAX_DRAWS rejected draws."""
    grid = np.linspace(domain[0], domain[1], 33)
    for _ in range(MAX_DRAWS):
        k0 = rng.uniform(0.7, 1.6)
        k1 = rng.uniform(-0.12, 0.12)
        k2 = rng.uniform(-0.05, 0.05)
        r0 = rng.uniform(-0.55, 0.55)
        r1 = rng.uniform(-0.12, 0.12)
        kappa = polynomial([k0, k1, k2])
        ratio = polynomial([r0, r1])
        # keep the ratio clear of +-1 so the rotation vector stays spacelike
        if np.max(np.abs(ratio(grid))) <= 0.85 and np.min(kappa(grid)) >= 0.3:

            def tau(s: float) -> float:
                return ratio(s) * kappa(s)

            return RandomCurve(curve_from_curvature(kappa, tau, domain=domain), kappa, tau)
    raise RuntimeError(f"no case-1 curve on {domain} within {MAX_DRAWS} draws")


def build_case2_curve(
    rng: np.random.Generator, domain: tuple[float, float] = (-0.05, 2.05)
) -> RandomCurve:
    """Synthesized curve with |tau| > |kappa| > 0 (timelike rotation vector).
    RuntimeError after MAX_DRAWS rejected draws."""
    grid = np.linspace(domain[0], domain[1], 33)
    for _ in range(MAX_DRAWS):
        t0 = rng.uniform(0.8, 1.6)
        t1 = rng.uniform(-0.12, 0.12)
        rho0 = rng.uniform(0.2, 0.7)
        rho1 = rng.uniform(-0.08, 0.08)
        tau = polynomial([t0, t1])
        rho = polynomial([rho0, rho1])
        if (
            np.max(np.abs(rho(grid))) <= 0.85
            and np.min(rho(grid)) >= 0.1
            and np.min(tau(grid)) >= 0.4
        ):

            def kappa(s: float) -> float:
                return rho(s) * tau(s)

            return RandomCurve(curve_from_curvature(kappa, tau, domain=domain), kappa, tau)
    raise RuntimeError(f"no case-2 curve on {domain} within {MAX_DRAWS} draws")


def _rows(result: DrallResult, index=slice(None)) -> list[DrallResult]:
    """The results of the samples index of an array result, with plain float
    and bool fields: one tolist per field rather than one conversion per value."""
    columns = (getattr(result, f.name)[index].tolist() for f in fields(result))
    return [DrallResult(*row) for row in zip(*columns)]


def _trial(
    s: float, direction: RulingDirection, closed: DrallResult, numeric: DrallResult
) -> OracleTrial:
    if (
        closed.degeneracy is Degeneracy.REGULAR
        and numeric.degeneracy is Degeneracy.REGULAR
    ):
        rel = abs(closed.value - numeric.value) / max(1.0, abs(numeric.value))
        agree = rel <= REL_TOL
    elif closed.degeneracy is numeric.degeneracy:
        rel = 0.0
        agree = True
    else:
        regular = closed if closed.degeneracy is Degeneracy.REGULAR else numeric
        rel = abs(regular.value)
        agree = rel <= REL_TOL
    return OracleTrial(
        s=s, direction=direction, closed=closed, numeric=numeric,
        rel_err=rel, agree=agree,
    )


def run_trials(
    curve: Curve,
    c_const: float,
    s_window: tuple[float, float],
    rng: np.random.Generator,
    trials: int,
    min_denominator: float = 0.02,
) -> list[OracleTrial]:
    """Seeded (direction, s) trials on one curve.

    Directions and samples whose closed-form denominator sits too close to
    zero (relative to its natural scale) are resampled: near the singular
    set the distribution parameter itself diverges and relative comparison
    is meaningless. RuntimeError after 50 * trials draws; trials must be at
    least 1.

    The trials run in rounds. A round draws as many candidates as trials are
    still missing, at most MAX_ROUND, in the order of one draw at a time (a
    direction, then s, per candidate). It evaluates the closed drall on all
    of them in one call and the determinant drall on the accepted ones in
    another. The trials are the ones a loop over single draws would give,
    in the same order.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    inv = InvoluteCurve(curve, c_const, domain=s_window)
    out: list[OracleTrial] = []
    attempts = 0
    while len(out) < trials:
        size = min(trials - len(out), 50 * trials - attempts, MAX_ROUND)
        if size == 0:
            raise RuntimeError("could not find enough well-conditioned trials")
        attempts += size
        directions, s_list = [], []
        for _ in range(size):
            directions.append(random_direction(rng))
            s_list.append(float(rng.uniform(s_window[0], s_window[1])))
        coeffs = np.array([d.coefficients() for d in directions])
        s = np.array(s_list)
        closed = _drall_closed(inv, coeffs, _darboux(curve, s))
        scale = np.maximum(1.0, np.abs(closed.denominator) + np.abs(closed.numerator))
        ill = np.abs(closed.denominator) < min_denominator * scale
        kept = np.flatnonzero((closed.degeneracy != Degeneracy.REGULAR) | ~ill)
        numeric, codes, drift = _drall_numeric(inv, coeffs[kept], _darboux(curve, s[kept]))
        _raise_failed(codes != _Code.OK, codes, s[kept], drift=drift)
        for i, closed_row, numeric_row in zip(kept.tolist(), _rows(closed, kept), _rows(numeric)):
            out.append(_trial(s_list[i], directions[i], closed_row, numeric_row))
    return out
