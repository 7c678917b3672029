"""Symbolic derivation of the closed drall and striction forms.

Vectors are coefficient columns in the base frame (t, n, b), whose Lorentz
metric is diag(-1, 1, 1). The frame equations t' = kappa n,
n' = kappa t - tau b, b' = tau n give v' = d_s v + A^T v for a column v,
with rows of A the columns of t', n', b'. The rotation vector d splits as
kappa = ||d|| cosh(theta), tau = ||d|| sinh(theta) when it is spacelike and
with cosh and sinh swapped when it is timelike. Because det(t, n, b) = +1,
the coordinate determinant of three columns equals the ambient one.

The identities are reduced to 0 exactly, modulo cosh^2 - sinh^2 = 1; the
closed kernels of surfaces.py are then tied to the lambdified derivation.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from minkruled import surfaces
from minkruled.curves import DarbouxData, DerivativeMode, FrenetApparatus, _Evaluation
from minkruled.lorentz import CAUSAL_CLASSES, _causal_index

s, c, dn, td = sp.symbols("s c dn td", real=True)
x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
C, S = sp.symbols("C S", real=True)  # cosh(theta), sinh(theta)
theta = sp.Function("theta")(s)
G = sp.diag(-1, 1, 1)


def inner(u, v):
    return (u.T * G * v)[0, 0]


def derivative(v, kappa, tau):
    """v' of a coefficient column v(s): d_s v + A^T v."""
    a = sp.Matrix([[0, kappa, 0], [kappa, 0, -tau], [0, tau, 0]])
    return v.diff(s) + a.T * v


def hyperbolic(expr):
    """expr with cosh(theta(s)), sinh(theta(s)), theta'(s) as C, S, td."""
    return expr.subs(theta.diff(s), td).subs({sp.cosh(theta): C, sp.sinh(theta): S})


def reduced(expr):
    """The numerator of expr modulo C^2 - S^2 - 1; 0 iff expr vanishes."""
    numerator = sp.numer(sp.together(hyperbolic(expr)))
    return sp.rem(sp.expand(numerator), C ** 2 - S ** 2 - 1, C)


def derivation(spacelike):
    """gamma', X, X' as columns and the code's num, den and offset_closed."""
    ch, sh = sp.cosh(theta), sp.sinh(theta)
    kappa, tau = (dn * ch, dn * sh) if spacelike else (dn * sh, dn * ch)
    t_star = sp.Matrix([0, 1, 0])
    n_star = sp.Matrix([-ch, 0, sh]) if spacelike else sp.Matrix([sh, 0, -ch])
    b_star = sp.Matrix([-sh, 0, ch]) if spacelike else sp.Matrix([-ch, 0, sh])
    x = x1 * t_star + x2 * n_star + x3 * b_star
    t = sp.Matrix([1, 0, 0])
    gdot = t + derivative((c - s) * t, kappa, tau)  # gamma = r + (c - s) t, r' = t
    xdot = derivative(x, kappa, tau)
    sign = 1 if spacelike else -1
    num = sign * (c - s) * kappa * (x1 * x3 * dn - td * (x3 ** 2 - x2 ** 2))
    first = x2 ** 2 - x1 ** 2 if spacelike else x1 ** 2 + x2 ** 2
    den = first * dn ** 2 + sign * ((x2 ** 2 - x3 ** 2) * td ** 2 + 2 * x1 * x3 * td * dn)
    offset_closed = x2 * (c - s) * kappa * dn / den
    return gdot, x, xdot, num, den, offset_closed


@pytest.mark.parametrize("spacelike", [True, False], ids=["spacelike", "timelike"])
def test_closed_forms_reduce_to_the_determinant_rule(spacelike):
    gdot, x, xdot, num, den, offset_closed = derivation(spacelike)
    assert reduced(sp.Matrix.hstack(gdot, x, xdot).det() - num) == 0
    assert reduced(inner(xdot, xdot) - den) == 0
    assert reduced(-inner(gdot, xdot) / inner(xdot, xdot) - offset_closed) == 0


ARGS = (dn, C, S, td, x1, x2, x3, c, s)


def lambdified(expr):
    """expr and the sum of the absolute values of its monomials, as functions
    of ARGS; the sum is the scale its rounding error is measured against."""
    expanded = sp.expand(hyperbolic(expr))
    scale = sum(sp.Abs(term) for term in sp.Add.make_args(expanded))
    return sp.lambdify(ARGS, expanded, "math"), sp.lambdify(ARGS, scale, "math")


@functools.cache
def derived(spacelike):
    """Lambdified det(gamma', X, X'), <X', X'> and the columns of X'."""
    gdot, x, xdot, *_ = derivation(spacelike)
    return {
        "num": lambdified(sp.Matrix.hstack(gdot, x, xdot).det()),
        "den": lambdified(inner(xdot, xdot)),
        "xdot": [lambdified(component) for component in xdot],
    }


def hand_built(spacelike, d_norm, angle, angle_rate, s_value):
    """An _Evaluation at one sample whose base frame is the coordinate basis;
    the closed kernels read neither its stencil points nor its involute frame."""
    ch, sh = math.cosh(angle), math.sinh(angle)
    kappa, tau = (d_norm * ch, d_norm * sh) if spacelike else (d_norm * sh, d_norm * ch)
    t, n, b = np.eye(3)[:, None, :]
    fa = FrenetApparatus(t, n, b, np.array([kappa]), np.array([tau]))
    d = tau * t - kappa * b
    dd = DarbouxData(
        d, CAUSAL_CLASSES[_causal_index(d)], np.array([d_norm]), np.array([angle]),
        np.array([angle_rate]), d / d_norm,
    )
    return _Evaluation(np.array([s_value]), fa, np.array([spacelike]), dd, None, None)


@settings(max_examples=200, deadline=None)
@given(
    spacelike=st.booleans(),
    d_norm=st.floats(0.05, 3.0),
    angle=st.floats(-2.0, 2.0),
    angle_rate=st.floats(-3.0, 3.0),
    coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    c_value=st.floats(-3.0, 3.0),
    s_value=st.floats(-3.0, 3.0),
)
def test_closed_kernels_equal_the_derivation(
    spacelike, d_norm, angle, angle_rate, coeffs, c_value, s_value
):
    ev = hand_built(spacelike, d_norm, angle, angle_rate, s_value)
    base = SimpleNamespace(derivative_mode=DerivativeMode.ANALYTIC)
    inv = SimpleNamespace(c_const=c_value, base=base)
    args = (d_norm, math.cosh(angle), math.sinh(angle), angle_rate, *coeffs, c_value, s_value)
    closed = surfaces._drall_closed(inv, np.array(coeffs), ev)
    xdot = surfaces._ruling_derivative(np.array(coeffs), ev)[0]
    forms = derived(spacelike)
    pairs = [(closed.numerator[0], forms["num"]), (closed.denominator[0], forms["den"])]
    pairs += list(zip(xdot, forms["xdot"]))
    for got, (value, scale) in pairs:
        assert abs(got - value(*args)) <= 1e-12 * max(1.0, scale(*args))
