import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funkinv.errors import PoleError
from funkinv.gammafn import POLE_TOLERANCE, gamma, rgamma

mpmath.mp.dps = 40


def _ref(z: complex) -> complex:
    return complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))


def test_known_values():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma(1.0) - 1.0) < 1e-15
    assert abs(gamma(5.0) - 24.0) < 1e-13
    assert abs(gamma(-0.5) - (-2.0 * math.sqrt(math.pi))) < 1e-14


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_strip_accuracy_against_mpmath(re, im):
    z = complex(re, im)
    # stay clear of the poles by at least 1e-6, as the accuracy target requires
    if abs(im) < 1e-3 and re < 0.75 and abs(re - round(re)) < 1e-3:
        return
    want = _ref(z)
    got = gamma(z)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("m", [0, 1, 5, 17])
def test_near_pole_accuracy(m):
    z = complex(-m + 1e-6, 0.0)
    want = _ref(z)
    assert abs(gamma(z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("m", [0, 1, 2, 9])
def test_pole_raises(m):
    with pytest.raises(PoleError) as err:
        gamma(complex(-m, 0.0))
    assert err.value.pole == -m
    with pytest.raises(PoleError):
        gamma(-m + 0.5 * POLE_TOLERANCE)


def test_rgamma_entire_and_zero_at_poles():
    assert rgamma(-3.0) == 0.0
    assert rgamma(0.0) == 0.0
    for z in (2.5, -0.5 + 1j, 4.0 - 2.3j):
        assert abs(rgamma(z) - 1.0 / _ref(complex(z))) <= 1e-12 / abs(_ref(complex(z)))


def test_reflection_consistency():
    for z in (-1.3 + 0.7j, -7.6, -0.25 - 3j):
        want = _ref(complex(z))
        assert abs(gamma(z) - want) <= 1e-12 * abs(want)


def test_functional_equation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(0.5, 10), rng.uniform(-10, 10))
        assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))
