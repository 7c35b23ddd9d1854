"""Gamma function for complex arguments, on top of :mod:`scipy.special`.

Real arguments go to scipy's real gamma and stay exactly real; complex ones
to its complex gamma, whose relative accuracy is better than 1e-12 on the
strip |Re z| <= 20, |Im z| <= 20 away from the poles.  Arguments within
``POLE_TOLERANCE`` of a pole 0, -1, -2, ... raise
:class:`~funkinv.errors.PoleError` instead of returning a huge value, and a
result too large for double precision raises
:class:`~funkinv.errors.DomainError` instead of returning inf.

The reciprocal ``rgamma`` is entire: it returns exactly 0 at the poles.
"""

from __future__ import annotations

import cmath

from scipy import special

from .errors import DomainError, PoleError

__all__ = ["gamma", "rgamma", "POLE_TOLERANCE"]

POLE_TOLERANCE = 1e-12


def nearest_pole(z: complex) -> int | None:
    """Index m >= 0 of the gamma pole at -m closest to z within tolerance, else None."""
    z = complex(z)
    k = round(z.real)
    if k > 0:
        return None
    if abs(complex(z.real - k, z.imag)) <= POLE_TOLERANCE:
        return -k
    return None


def _finite(name: str, z: complex, fn) -> complex:
    out = complex(fn(z.real) if z.imag == 0.0 else fn(z))
    if not cmath.isfinite(out):
        raise DomainError(f"{name}({z}) is out of the double-precision range")
    return out


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z; raises PoleError within POLE_TOLERANCE of 0, -1, -2, ..."""
    z = complex(z)
    m = nearest_pole(z)
    if m is not None:
        raise PoleError(f"gamma argument {z} within {POLE_TOLERANCE} of pole at {-m}", pole=-m)
    return _finite("gamma", z, special.gamma)


def rgamma(z: complex) -> complex:
    """1/Gamma(z), entire in z; returns exactly 0 at the poles of Gamma."""
    return _finite("rgamma", complex(z), special.rgamma)
