"""The sphere Laplacian and its weighted polynomial variants.

Three independent realizations, used to cross-validate one another:

* spectral: coefficient j scaled by the exact eigenvalue;
* factored: the order-ell operator applied as ell successive first-order
  factors [Laplacian + scalar] (Horner-like; avoids expanding the degree-2*ell
  polynomial, which cancels catastrophically for large |lam|);
* finite differences: the defining formula taken literally, i.e. central
  second differences of the homogeneous extension |x|^(lam+2*ell) f(x/|x|)
  in R^n with the (2n+1)-point stencil iterated ell times.  The extension is
  evaluated exactly at the stencil points (it is analytic off the origin), so
  the only error is the O(h^2) truncation, until rounding, amplified by
  h^(-2*ell), takes over at small h.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .grids import GridFunction, QuadratureGrid
from .spectral import HarmonicSpectrum, as_spectrum, delta_op_eigenvalue

__all__ = [
    "WeightedOpSpec",
    "beltrami",
    "beltrami_spectrum",
    "beltrami_fd_values",
    "weighted_laplacian",
    "weighted_laplacian_spectrum",
    "weighted_laplacian_fd",
]

FD_H_MIN = 1e-4
FD_H_MAX = 1e-2


@dataclass(frozen=True)
class WeightedOpSpec:
    """Parameters of the weighted Laplacian: order ell >= 0, weight exponent lam."""

    lam: complex
    ell: int
    n: int

    def __post_init__(self):
        if not isinstance(self.ell, numbers.Integral) or self.ell < 0:
            raise InvalidArgumentError(f"need an integer ell >= 0, got {self.ell!r}")
        if self.n < 3:
            raise InvalidArgumentError("need n >= 3")
        object.__setattr__(self, "lam", complex(self.lam))


# ---------------------------------------------------------------------------
# spectral and factored paths


def beltrami_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    """Sphere Laplacian: degree j scaled by -j(j+n-2)."""
    j = np.arange(spec.max_degree + 1)
    return spec.scale_degrees(-(j * (j + spec.n - 2)).astype(float))


def weighted_laplacian_spectrum(
    spec: HarmonicSpectrum,
    op: WeightedOpSpec,
    method: str = "diagonal",
) -> HarmonicSpectrum:
    """Apply the weighted Laplacian on the coefficient side.

    ``diagonal`` multiplies each degree by the closed-form eigenvalue;
    ``factored`` composes the ell commuting factors [Laplacian + scalar],
    from m = ell down to 1.
    """
    if op.n != spec.n:
        raise InvalidArgumentError("operator and spectrum dimensions differ")
    if method == "diagonal":
        degrees = np.arange(spec.max_degree + 1)
        return spec.scale_degrees(delta_op_eigenvalue(degrees, op.n, op.lam, op.ell))
    if method != "factored":
        raise InvalidArgumentError(f"unknown method {method!r}")
    out = spec
    for m in range(op.ell, 0, -1):
        shift = (op.lam + 2.0 * m) * (op.lam + 2.0 * m + op.n - 2.0)
        out = (-0.25) * (beltrami_spectrum(out) + shift * out)
    return out


def beltrami(f, *, band_limit: int | None = None, pole=None):
    """Sphere Laplacian of a band-limited function (spectral path).

    Accepts a spectrum or grid samples; grid samples are analyzed, scaled,
    and synthesized back onto their grid.
    """
    spec, grid = as_spectrum(f, band_limit, pole)
    out = beltrami_spectrum(spec)
    return out if grid is None else out.to_grid(grid)


def weighted_laplacian(f, op: WeightedOpSpec, *, method: str = "diagonal",
                       band_limit: int | None = None, pole=None):
    """Weighted Laplacian of a band-limited function; see
    :func:`weighted_laplacian_spectrum` for the method choices."""
    spec, grid = as_spectrum(f, band_limit, pole)
    out = weighted_laplacian_spectrum(spec, op, method=method)
    return out if grid is None else out.to_grid(grid)


# ---------------------------------------------------------------------------
# finite-difference path (independent of the harmonic eigenstructure)


def _iterated_stencil(ell: int, dim: int = 3):
    """Integer-coefficient stencil of the ell-fold composed 2nd-difference
    Laplacian; offsets in Z^dim, to be scaled by h^(-2*ell)."""
    base = {(0,) * dim: -2 * dim}
    for d in range(dim):
        for s in (+1, -1):
            off = [0] * dim
            off[d] = s
            base[tuple(off)] = 1
    stencil = {(0,) * dim: 1}
    for _ in range(ell):
        nxt: dict = {}
        for off1, c1 in stencil.items():
            for off2, c2 in base.items():
                key = tuple(a + b for a, b in zip(off1, off2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        stencil = nxt
    return stencil


def _apply_stencil(g_eval: Callable, points: np.ndarray, ell: int, h: float) -> np.ndarray:
    stencil = _iterated_stencil(ell, points.shape[1])
    offsets = np.array(list(stencil.keys()), dtype=float)
    coeffs = np.array(list(stencil.values()), dtype=float)
    pts = points[:, None, :] + h * offsets[None, :, :]
    vals = np.asarray(g_eval(pts.reshape(-1, points.shape[1])), dtype=complex)
    vals = vals.reshape(points.shape[0], len(coeffs))
    return (vals @ coeffs) * h ** (-2.0 * ell)


def _extension_eval(f_eval: Callable, a: complex) -> Callable:
    """The homogeneous extension x -> |x|^a f(x/|x|) of f on R^n, as a
    function of points x with shape (N, n).

    The power is the principal branch exp(a log|x|), single-valued since
    |x| > 0; a point with |x| = 0 or a non-finite norm raises DomainError.
    """
    def g(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if not np.all(np.isfinite(r) & (r > 0.0)):
            raise DomainError("homogeneous extension is undefined at x = 0 and at non-finite x")
        vals = np.asarray(f_eval(x / r[..., None]), dtype=complex)
        return np.exp(complex(a) * np.log(r)) * vals

    return g


def beltrami_fd_values(f_eval: Callable, points: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Sphere Laplacian at unit points from second differences of f(x/|x|);
    O(h^2) accurate."""
    _check_h(h)
    return _apply_stencil(_extension_eval(f_eval, 0.0), np.asarray(points, float), 1, h)


def weighted_laplacian_fd(
    f_eval: Callable,
    op: WeightedOpSpec,
    grid_or_points,
    h: float = 1e-3,
):
    """Weighted Laplacian by iterated (2n+1)-point stencils on the homogeneous
    extension in R^n; ell <= 2 only (wider stencils accumulate rounding).  At
    ell = 2 and n > 3 rounding outweighs the O(h^2) truncation below
    h of about 5e-3.

    ``f_eval`` must evaluate the function off-grid (band-limited synthesis);
    returns a GridFunction when given a grid, else an array of values.
    """
    if op.ell > 2:
        raise InvalidArgumentError("finite differences support ell <= 2")
    _check_h(h)
    if isinstance(grid_or_points, QuadratureGrid):
        points = grid_or_points.nodes
    else:
        points = np.asarray(grid_or_points, dtype=float)
    if points.ndim != 2 or points.shape[1] != op.n:
        raise InvalidArgumentError(f"points must have shape (N, {op.n}), got {points.shape}")
    g = _extension_eval(f_eval, op.lam + 2.0 * op.ell)
    vals = (-0.25) ** op.ell * _apply_stencil(g, points, op.ell, h)
    if isinstance(grid_or_points, QuadratureGrid):
        return GridFunction(grid_or_points, vals, {"path": "fd", "h": h, "ell": op.ell})
    return vals


def _check_h(h: float) -> None:
    if not (FD_H_MIN <= h <= FD_H_MAX):
        raise InvalidArgumentError(
            f"step h must lie in [{FD_H_MIN}, {FD_H_MAX}] "
            f"(truncation vs rounding balance), got {h}"
        )


def fd_convergence_slope(errors, steps) -> float:
    """Least-squares slope of log(error) against log(h)."""
    e = np.asarray(errors, dtype=float)
    s = np.asarray(steps, dtype=float)
    if len(e) < 3:
        raise InvalidArgumentError("need at least 3 data points for a slope")
    return float(np.polyfit(np.log(s), np.log(e), 1)[0])
