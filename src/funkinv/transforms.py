"""Forward transforms on S^{n-1}: lam-cosine, Funk, logarithmic, and lam-sine.

Each transform has two computational paths that the test suite plays against
each other:

* spectral: multiply the harmonic coefficients by the degree multipliers from
  :mod:`funkinv.spectral` (valid for any lam off the even nonnegative
  integers, via analytic continuation);
* quadrature: numerically integrate the kernel.  The kernels are functions of
  t = u.v alone, so per output point the integral collapses to a 1D integral
  of t-shell averages.  Algebraic kernel singularities are absorbed into
  Gauss-Jacobi weights (split at t = 0); logarithmic kernels are handled by
  differencing the absorbed power at +/-eps.  Shell averages evaluate the
  input off-grid, which goes through band-limited synthesis (raw grids are
  never interpolated).

A plain on-grid weighted sum is kept for the logarithmic cosine kernel
(``quadrature_method="ongrid"``) for convergence studies; near the singular
set it loses accuracy, which is why it is not the default.

The five public transforms, and ``funkinv forward``, run through one function
that reads each operator's paths and quadrature domain from ``OPERATORS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gammafn
from .errors import (
    DomainError,
    InvalidArgumentError,
    PoleError,
    PreconditionError,
)
from .grids import GridFunction, build_grid, integrate
from .spectral import (
    HarmonicSpectrum,
    _jacobi_rule,
    _split_jacobi_rule,
    analyze,  # noqa: F401  (re-exported: callers reach it as transforms.analyze)
    as_spectrum,
    cosine_multiplier,
    funk_multiplier,
    log_cosine_multiplier,
    pushforward_constant,
    sine_multiplier,
)

__all__ = [
    "gamma_norm",
    "delta_norm",
    "funk_scale",
    "frame_scale",
    "null_sphere_scale",
    "gamma_norm_k",
    "cosine_transform",
    "funk_transform",
    "log_cosine_transform",
    "sine_transform",
    "log_sine_transform",
    "cosine_spectrum",
    "funk_spectrum",
    "log_cosine_spectrum",
    "sine_spectrum",
    "log_sine_spectrum",
    "cosine_quadrature_values",
    "sine_quadrature_values",
    "log_cosine_quadrature_values",
    "log_sine_quadrature_values",
    "funk_geodesic_values",
    "null_space_basis",
]

EVEN_POLE_TOL = 1e-10
MEAN_ZERO_TOL = 1e-10


# ---------------------------------------------------------------------------
# normalization coefficients


def gamma_norm(lam: complex, n: int) -> complex:
    """Normalizing coefficient of the lam-cosine transform."""
    return gamma_norm_k(lam, n, 1)


def delta_norm(lam: complex, n: int) -> complex:
    """Normalizing coefficient of the lam-sine transform."""
    return gamma_norm_k(lam, n, n - 1)


def funk_scale(n: int) -> float:
    """Constant relating the (-1)-cosine transform to the Funk transform."""
    return null_sphere_scale(n, 1)


def frame_scale(n: int, k: int) -> float:
    """Constant in the codimension-k factorization of the sine transform."""
    return math.gamma(k / 2.0) / math.gamma((n - 1) / 2.0)


def null_sphere_scale(n: int, k: int) -> float:
    """Constant relating the codimension-k cosine transform at its limit
    parameter to the codimension-k Funk transform."""
    return math.sqrt(math.pi) / math.gamma((n - k) / 2.0)


def gamma_norm_k(lam: complex, n: int, k: int) -> complex:
    """Normalizing coefficient of the codimension-k cosine transform; k = 1 is
    the lam-cosine and k = n-1 the lam-sine transform."""
    lam = complex(lam)
    return (
        math.sqrt(math.pi)
        * gammafn.gamma(-lam / 2.0)
        * gammafn.rgamma(n / 2.0)
        * gammafn.rgamma((lam + k) / 2.0)
    )


def check_off_even_poles(lam: complex, tol: float = EVEN_POLE_TOL) -> None:
    """Raise PoleError when lam is within tol of {0, 2, 4, ...}."""
    lam = complex(lam)
    k = 2 * round(lam.real / 2.0)
    if k >= 0 and abs(lam - k) <= tol:
        raise PoleError(f"lambda = {lam} sits on the pole set {{0, 2, 4, ...}}", pole=k)


# ---------------------------------------------------------------------------
# spectrum-level (spectral path) transforms


def _even_scaled(spec: HarmonicSpectrum, multiplier: Callable, first: int = 0) -> HarmonicSpectrum:
    """spec with the even degrees from ``first`` up scaled by
    ``multiplier(degrees)``, evaluated once on all of them, and every other
    degree annihilated."""
    table = np.zeros(spec.max_degree + 1, dtype=complex)
    table[first::2] = multiplier(np.arange(first, spec.max_degree + 1, 2))
    return spec.scale_degrees(table)


def cosine_spectrum(spec: HarmonicSpectrum, lam: complex) -> HarmonicSpectrum:
    check_off_even_poles(lam)
    return _even_scaled(spec, lambda j: cosine_multiplier(j, spec.n, lam))


def funk_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    return _even_scaled(spec, lambda j: funk_multiplier(j, spec.n))


def log_cosine_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    if abs(spec.mean) > MEAN_ZERO_TOL:
        raise PreconditionError("logarithmic cosine transform requires a mean-zero input")
    return _even_scaled(spec, lambda j: log_cosine_multiplier(j, spec.n), first=2)


def sine_spectrum(spec: HarmonicSpectrum, lam: complex) -> HarmonicSpectrum:
    check_off_even_poles(lam)
    return _even_scaled(spec, lambda j: sine_multiplier(j, spec.n, lam))


def log_sine_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    # factors through the Funk transform followed by the logarithmic cosine
    return funk_scale(spec.n) * log_cosine_spectrum(funk_spectrum(spec))


# ---------------------------------------------------------------------------
# adapted quadrature engine


def null_space_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of u^T (n x (n-k)) for a frame u
    (n x k), by Householder completion; deterministic in u.

    A stack of frames (..., n, k) gives a stack of bases (..., n, n-k) from one
    batched QR; a unit vector as an n x 1 frame gives its orthogonal hyperplane.
    """
    u = np.asarray(u, dtype=float)
    q = np.linalg.qr(u, mode="complete")[0]
    return q[..., u.shape[-1] :]


def _subsphere_rule(d: int, resolution: int, circle_nodes: int):
    """Probability rule on S^{d-1} for shell averages."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if d == 2:
        ang = 2.0 * math.pi * np.arange(circle_nodes) / circle_nodes
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return pts, np.full(circle_nodes, 1.0 / circle_nodes)
    g = build_grid(d, resolution)
    return g.nodes, g.weights


def _shell_average_values(
    f_eval: Callable,
    points: np.ndarray,
    t_nodes: np.ndarray,
    n: int,
    subsphere_resolution: int,
    circle_nodes: int,
    chunk: int = 128,
) -> np.ndarray:
    """avg over {v : u.v = t} of f, for every output point u and shell t.

    Returns an array of shape (num_points, num_t).
    """
    omega, rho = _subsphere_rule(n - 1, subsphere_resolution, circle_nodes)
    sin_t = np.sqrt(np.clip(1.0 - t_nodes * t_nodes, 0.0, None))
    out = np.empty((points.shape[0], len(t_nodes)), dtype=complex)
    for lo in range(0, points.shape[0], chunk):
        batch = points[lo : lo + chunk]
        dirs = null_space_basis(batch[:, :, None]) @ omega.T  # (B, n, R)
        # pts[b, i, r, :] = t_i * u_b + sin_i * dirs[b, :, r]
        pts = (
            t_nodes[None, :, None, None] * batch[:, None, None, :]
            + sin_t[None, :, None, None] * np.transpose(dirs, (0, 2, 1))[:, None, :, :]
        )
        flat = pts.reshape(-1, n)
        vals = np.asarray(f_eval(flat), dtype=complex).reshape(len(batch), len(t_nodes), len(omega))
        out[lo : lo + chunk] = vals @ rho
    return out


def _apply_panels(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    panels,
    subsphere_resolution: int,
    circle_nodes: int,
) -> np.ndarray:
    total = np.zeros(points.shape[0], dtype=complex)
    for t_nodes, weights in panels:
        shells = _shell_average_values(
            f_eval, points, t_nodes, n, subsphere_resolution, circle_nodes
        )
        total += shells @ weights
    return pushforward_constant(n) * total


def _cosine_panels(lam: complex, n: int, polar_nodes: int):
    """Panels realizing int_{-1}^{1} |t|^lam q(t) (1-t^2)^((n-3)/2) dt / A_n
    with the |t|^Re(lam) factor absorbed into split Gauss-Jacobi weights."""
    lam = complex(lam)
    t, wts = _split_jacobi_rule(polar_nodes, (n - 3) / 2.0, lam.real)
    if lam.imag:
        wts = wts * np.exp(1j * lam.imag * np.log(t))
    return [(t, wts), (-t, wts)]


def _sine_panels(lam: complex, n: int, polar_nodes: int):
    """Panels for the (1-t^2)^(lam/2) kernel: symmetric Gauss-Jacobi with the
    full (1-t^2)^((lam+n-3)/2) weight absorbed."""
    lam = complex(lam)
    a = (lam.real + n - 3.0) / 2.0
    x, w = _jacobi_rule(polar_nodes, a, a)
    wts = w.astype(complex)
    if lam.imag:
        wts = wts * np.exp(0.5j * lam.imag * np.log1p(-x * x))
    return [(x, wts)]


def _log_panels(power_panels: Callable, n: int, polar_nodes: int, eps: float = 1e-5):
    """Panels for the logarithm of a power kernel: minus the derivative of
    ``power_panels(p, n, polar_nodes)`` in the absorbed power p at 0, realized
    as a central difference of the p = +-eps rules."""
    return [
        (t, (-sgn / (2.0 * eps)) * wts)
        for sgn in (+1.0, -1.0)
        for t, wts in power_panels(sgn * eps, n, polar_nodes)
    ]


def _even_abs_moment(lam: complex, alpha: float, m: int) -> complex:
    """int_{-1}^{1} |t|^lam t^m (1-t^2)^alpha dt for even m (beta integral)."""
    x = (complex(lam) + m + 1.0) / 2.0
    return gammafn.gamma(x) * math.gamma(alpha + 1.0) * gammafn.rgamma(x + alpha + 1.0)


def _moment_kernel_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    moments: np.ndarray,
    profile_degree: int,
    subsphere_resolution: int,
    circle_nodes: int,
) -> np.ndarray:
    """Exact kernel integration for band-limited input at complex parameters.

    The shell-average profile of a band-limited function is a polynomial in
    t of degree <= the band limit; it is interpolated at Chebyshev nodes and
    integrated against closed-form |t|^lam (1-t^2)^alpha monomial moments.
    Circumvents the slowly convergent log-oscillation of t^(i Im lam) that
    defeats plain quadrature.
    """
    num = profile_degree + 1
    t_nodes = np.cos(math.pi * (2.0 * np.arange(num) + 1.0) / (2.0 * num))
    shells = _shell_average_values(
        f_eval, np.asarray(points, float), t_nodes, n, subsphere_resolution, circle_nodes
    )
    cheb = np.polynomial.chebyshev.chebfit(t_nodes, shells.T, profile_degree)
    # row k holds the monomial coefficients of T_k
    to_mono = np.zeros((num, num))
    for k, row in enumerate(np.eye(num)):
        to_mono[k, : k + 1] = np.polynomial.chebyshev.cheb2poly(row)
    return pushforward_constant(n) * (cheb.T @ (to_mono @ moments[:num]))


def cosine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    lam: complex,
    *,
    polar_nodes: int = 32,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
    profile_degree: int = 16,
) -> np.ndarray:
    """lam-cosine transform values at unit points, by adapted quadrature.

    Real lam uses split Gauss-Jacobi rules with |t|^lam absorbed into the
    weight; complex lam goes through the moment route of
    :func:`_moment_kernel_values` (band-limited input assumed).
    """
    lam = complex(lam)
    if lam.real <= -1.0:
        raise DomainError(f"quadrature path needs Re lambda > -1, got {lam}")
    check_off_even_poles(lam)
    if lam.imag:
        alpha = (n - 3) / 2.0
        moments = np.array(
            [
                0.0 if m % 2 else _even_abs_moment(lam, alpha, m)
                for m in range(profile_degree + 1)
            ],
            dtype=complex,
        )
        raw = _moment_kernel_values(
            f_eval, points, n, moments, profile_degree, subsphere_resolution, circle_nodes
        )
    else:
        raw = _apply_panels(
            f_eval, np.asarray(points, float), n, _cosine_panels(lam, n, polar_nodes),
            subsphere_resolution, circle_nodes,
        )
    return gamma_norm(lam, n) * raw


def sine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    lam: complex,
    *,
    polar_nodes: int = 32,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
    profile_degree: int = 16,
) -> np.ndarray:
    lam = complex(lam)
    if lam.real <= 1.0 - n:
        raise DomainError(f"quadrature path needs Re lambda > {1 - n}, got {lam}")
    check_off_even_poles(lam)
    if lam.imag:
        # (1-t^2)^(lam/2) absorbs fully into a beta moment with complex second index
        half = (complex(lam) + n - 1.0) / 2.0
        moments = np.zeros(profile_degree + 1, dtype=complex)
        for m in range(0, profile_degree + 1, 2):
            x = (m + 1.0) / 2.0
            moments[m] = gammafn.gamma(x) * gammafn.gamma(half) * gammafn.rgamma(x + half)
        raw = _moment_kernel_values(
            f_eval, points, n, moments, profile_degree, subsphere_resolution, circle_nodes
        )
    else:
        raw = _apply_panels(
            f_eval, np.asarray(points, float), n, _sine_panels(lam, n, polar_nodes),
            subsphere_resolution, circle_nodes,
        )
    return delta_norm(lam, n) * raw


def log_cosine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    *,
    polar_nodes: int = 32,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    raw = _apply_panels(
        f_eval, np.asarray(points, float), n, _log_panels(_cosine_panels, n, polar_nodes),
        subsphere_resolution, circle_nodes,
    )
    return (2.0 / math.gamma(n / 2.0)) * raw


def log_sine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    *,
    polar_nodes: int = 32,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    # log(1/(1-t^2)) is the derivative of (1-t^2)^(lam/2) in lam/2
    panels = _log_panels(lambda p, n, m: _sine_panels(2.0 * p, n, m), n, polar_nodes)
    raw = _apply_panels(
        f_eval, np.asarray(points, float), n, panels, subsphere_resolution, circle_nodes
    )
    # prefactor fixed by the limit of the lam-sine family at lam = 0, equal to
    # the factorization through the Funk transform (see tests)
    return (math.sqrt(math.pi) / (math.gamma(n / 2.0) * math.gamma((n - 1) / 2.0))) * raw


def funk_geodesic_values(f_eval: Callable, points: np.ndarray, circle_nodes: int = 64) -> np.ndarray:
    """Great-circle averages on S^2 by the trapezoid rule (spectrally accurate
    for band-limited integrands).

    This is the t = 0 shell of :func:`_shell_average_values`: the circle
    orthogonal to each output point, sampled at ``circle_nodes`` equally spaced
    nodes, with all circles evaluated in one batched call per chunk.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] != 3:
        raise DomainError("the geodesic path is implemented for n = 3 only")
    return _shell_average_values(f_eval, pts, np.zeros(1), 3, 0, circle_nodes)[:, 0]


# ---------------------------------------------------------------------------
# plain on-grid sum (documented accuracy loss near the singular set)


def _log_cosine_ongrid_values(f: GridFunction) -> np.ndarray:
    """Literal weighted sum of the log(1/|u.v|) kernel over the stored grid,
    with the kernel capped at log(1e14) where |u.v| < 1e-14."""
    scale = 2.0 / math.gamma(f.grid.n / 2.0)
    cap = math.log(1e14)
    nodes = f.grid.nodes
    wf = f.grid.weights * f.values
    out = np.empty(f.grid.num_nodes, dtype=complex)
    chunk = max(1, 2**22 // max(f.grid.num_nodes, 1))
    for lo in range(0, f.grid.num_nodes, chunk):
        dots = nodes[lo : lo + chunk] @ nodes.T
        kernel = scale * np.minimum(np.log(1.0 / np.maximum(np.abs(dots), 1e-300)), cap)
        out[lo : lo + chunk] = kernel @ wf
    return out


# ---------------------------------------------------------------------------
# public transform operations: one table, one shared body


def _sizes(J: int, given: dict) -> dict:
    """Quadrature sizes sufficient for exactness at band limit J, except where
    ``given`` sets them."""
    defaults = {"polar_nodes": max(24, J + 6), "subsphere_resolution": max(4, J // 2 + 2),
                "circle_nodes": max(24, 2 * J + 2)}
    return {k: v if given.get(k) is None else given[k] for k, v in defaults.items()}


@dataclass(frozen=True)
class _Operator:
    """A forward transform as :func:`_transform` runs it.

    ``spectral(spec, lam)`` is the spectral path and ``quadrature(f_eval,
    points, n, lam, J, sizes)`` the quadrature path, given the caller's
    quadrature sizes; ``auto`` takes quadrature where ``quadrature_domain(lam,
    n)`` holds (everywhere by default).  The paths look their functions up in this module at call
    time, so a tracer that replaces those attributes sees every call.
    """

    name: str
    spectral: Callable
    quadrature: Callable
    quadrature_domain: Callable = lambda lam, n: True
    mean_zero: bool = False


# keyed by the names ``funkinv forward --transform`` takes
OPERATORS = {
    "cosine": _Operator(
        "cosine",
        lambda spec, lam: cosine_spectrum(spec, lam),
        lambda ev, x, n, lam, J, kw: cosine_quadrature_values(ev, x, n, lam, **_sizes(J, kw)),
        lambda lam, n: lam.real > -1.0,
    ),
    "funk": _Operator(
        "funk",
        lambda spec, lam: funk_spectrum(spec),
        lambda ev, x, n, lam, J, kw: funk_geodesic_values(
            ev, x, max(kw.get("circle_nodes") or 64, 2 * J + 2)
        ),
        lambda lam, n: n == 3,
    ),
    "logcos": _Operator(
        "log-cosine",
        lambda spec, lam: log_cosine_spectrum(spec),
        lambda ev, x, n, lam, J, kw: log_cosine_quadrature_values(ev, x, n, **_sizes(J, kw)),
        mean_zero=True,
    ),
    "sine": _Operator(
        "sine",
        lambda spec, lam: sine_spectrum(spec, lam),
        lambda ev, x, n, lam, J, kw: sine_quadrature_values(ev, x, n, lam, **_sizes(J, kw)),
        lambda lam, n: lam.real > 1.0 - n,
    ),
    "logsine": _Operator(
        "log-sine",
        lambda spec, lam: log_sine_spectrum(spec),
        lambda ev, x, n, lam, J, kw: log_sine_quadrature_values(ev, x, n, **_sizes(J, kw)),
        mean_zero=True,
    ),
}


def _transform(key, f, *, lam=None, path="auto", band_limit=None, pole=None,
               quadrature_method=None, **sizes):
    """Apply ``OPERATORS[key]`` to a spectrum (spectral path, returns a
    spectrum) or to grid samples (returns samples on the same grid, with the
    operator, the path taken, lambda and the quadrature method in the metadata).
    ``quadrature_method="ongrid"`` is the plain on-grid sum of the log-cosine
    kernel.
    """
    for value, allowed in ((key, tuple(OPERATORS)), (path, ("auto", "spectral", "quadrature")),
                           (quadrature_method, (None, "adapted", "ongrid"))):
        if value not in allowed:
            raise InvalidArgumentError(f"unknown choice {value!r}; expected one of {allowed}")
    op = OPERATORS[key]
    lam = None if lam is None else complex(lam)
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return op.spectral(f, lam)
    if not isinstance(f, GridFunction):
        raise InvalidArgumentError("expected a HarmonicSpectrum or GridFunction")
    if op.mean_zero and abs(integrate(f)) > MEAN_ZERO_TOL:
        raise PreconditionError(f"{op.name} transform requires a mean-zero input")
    if path == "auto":
        path = "quadrature" if op.quadrature_domain(lam, f.grid.n) else "spectral"
    meta = {"operator": op.name, "path": path, "lam": lam, "method": quadrature_method}
    meta = {k: v for k, v in meta.items() if v is not None}
    if path == "quadrature" and quadrature_method == "ongrid":
        return GridFunction(f.grid, _log_cosine_ongrid_values(f), meta)
    spec, grid = as_spectrum(f, band_limit, pole)
    if path == "spectral":
        out = op.spectral(spec, lam).to_grid(grid)
        return out.with_values(out.values, **meta)
    values = op.quadrature(spec.evaluate, grid.nodes, grid.n, lam, spec.max_degree, sizes)
    return GridFunction(grid, values, meta)


def cosine_transform(
    f,
    *,
    lam: complex,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-cosine transform of an even function.

    Accepts a HarmonicSpectrum (spectral path, returns a spectrum) or a
    GridFunction (path per ``path``; returns samples on the same grid with the
    chosen path recorded in the metadata).
    """
    return _transform("cosine", f, lam=lam, path=path, band_limit=band_limit, pole=pole,
                      polar_nodes=polar_nodes, subsphere_resolution=subsphere_resolution,
                      circle_nodes=circle_nodes)


def funk_transform(
    f,
    *,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    circle_nodes: int | None = None,
):
    """Funk transform: average over the great subsphere orthogonal to u.

    The quadrature (geodesic) path is the n = 3 great-circle trapezoid rule on
    max(circle_nodes, 2J+2) nodes, circle_nodes defaulting to 64; the spectral
    path works for any n.
    """
    return _transform("funk", f, path=path, band_limit=band_limit, pole=pole,
                      circle_nodes=circle_nodes)


def log_cosine_transform(
    f,
    *,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    quadrature_method: str = "adapted",
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """Logarithmic cosine transform of a mean-zero function.

    ``quadrature_method="ongrid"`` uses the literal weighted sum over the
    stored grid with the kernel capped at log(1e14) where |u.v| < 1e-14; it
    converges slowly near the singular circle and exists for convergence
    studies.  The default adapted rule is accurate to roughly 1e-10.
    """
    return _transform("logcos", f, path=path, band_limit=band_limit, pole=pole,
                      quadrature_method=quadrature_method, polar_nodes=polar_nodes,
                      subsphere_resolution=subsphere_resolution, circle_nodes=circle_nodes)


def sine_transform(
    f,
    *,
    lam: complex,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-sine transform of an even function."""
    return _transform("sine", f, lam=lam, path=path, band_limit=band_limit, pole=pole,
                      polar_nodes=polar_nodes, subsphere_resolution=subsphere_resolution,
                      circle_nodes=circle_nodes)


def log_sine_transform(
    f,
    *,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """Logarithmic sine transform of a mean-zero function."""
    return _transform("logsine", f, path=path, band_limit=band_limit, pole=pole,
                      polar_nodes=polar_nodes, subsphere_resolution=subsphere_resolution,
                      circle_nodes=circle_nodes)
