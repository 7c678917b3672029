import math

import numpy as np
import pytest

from minkruled import numdiff


def test_first_derivative_of_sin():
    got = numdiff.derivative(math.sin, 0.7, order=1)
    assert got == pytest.approx(math.cos(0.7), abs=1e-10)


def test_second_derivative_of_sin():
    got = numdiff.derivative(math.sin, 0.7, order=2)
    assert got == pytest.approx(-math.sin(0.7), abs=1e-7)


def test_third_derivative_of_sin():
    got = numdiff.derivative(math.sin, 0.7, order=3)
    assert got == pytest.approx(-math.cos(0.7), abs=1e-6)


def test_exact_on_low_degree_polynomials():
    # the five-point first-derivative stencil annihilates quartics' error term
    poly = lambda s: 2.0 + 3.0 * s - s ** 2 + 0.5 * s ** 3
    dpoly = lambda s: 3.0 - 2.0 * s + 1.5 * s ** 2
    assert numdiff.derivative(poly, 1.3, order=1) == pytest.approx(dpoly(1.3), abs=1e-9)


def test_vector_valued():
    f = lambda s: np.array([math.sin(s), math.cos(s), s ** 2])
    got = numdiff.derivative(f, 0.4, order=1)
    assert np.allclose(got, [math.cos(0.4), -math.sin(0.4), 0.8], atol=1e-9)


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        numdiff.derivative(math.sin, 0.0, order=4)


def test_stencil_split_equals_derivative_per_sample():
    s = np.array([-0.3, 0.0, 0.7, 2.5])
    f = lambda u: np.stack([np.sin(u), u ** 3], axis=-1)
    values = f(numdiff.stencil(s))
    here, slope = numdiff.split(values)
    assert values.shape == (5 * s.size, 2)
    np.testing.assert_array_equal(here, f(s))
    for i, u in enumerate(s.tolist()):
        np.testing.assert_array_equal(slope[i], numdiff.derivative(f, u, order=1))
