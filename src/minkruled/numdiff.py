"""Five-point central finite-difference stencils for scalar or vector data."""

from __future__ import annotations

import numpy as np

H_FIRST = 1e-4
H_THIRD = 1e-3


def stencil_halfwidth(order: int) -> float:
    """Distance the stencil reaches on either side of the expansion point."""
    return 2.0 * (H_THIRD if order == 3 else H_FIRST)


def derivative(f, s: float, order: int = 1):
    """order-th derivative of f at s (orders 1..3, five-point stencils)."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    h = H_THIRD if order == 3 else H_FIRST
    fm2 = f(s - 2 * h)
    fm1 = f(s - h)
    fp1 = f(s + h)
    fp2 = f(s + 2 * h)
    if order == 1:
        return _first_order(fm2, fm1, fp1, fp2, h)
    if order == 2:
        f0 = f(s)
        return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    return (-fm2 + 2 * fm1 - 2 * fp1 + fp2) / (2 * h ** 3)


def stencil(s: np.ndarray) -> np.ndarray:
    """The 5N points s, s - 2h, s - h, s + h, s + 2h (in that order, N at a
    time) of the first-derivative stencil of derivative() at the 1-D array s."""
    h = H_FIRST
    return np.concatenate([s, s - 2 * h, s - h, s + h, s + 2 * h])


def split(values: np.ndarray):
    """(f(s), f'(s)) from the values of f at the points stencil(s)."""
    here, *rest = np.split(values, 5)
    return here, _first_order(*rest, H_FIRST)


def _first_order(fm2, fm1, fp1, fp2, h: float):
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
