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

A plain on-grid weighted sum is kept for the logarithmic and cosine kernels
(``quadrature_method="ongrid"``) for convergence studies; near the singular
set it loses accuracy, which is why it is not the default.
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
    analyze,
    cosine_multiplier,
    funk_multiplier,
    log_cosine_multiplier,
    pushforward_constant,
    sine_multiplier,
)

__all__ = [
    "TransformParams",
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
    "great_circle_basis",
    "complement_basis",
]

EVEN_POLE_TOL = 1e-10
MEAN_ZERO_TOL = 1e-10


# ---------------------------------------------------------------------------
# normalization coefficients


def gamma_norm(lam: complex, n: int) -> complex:
    """Normalizing coefficient of the lam-cosine transform."""
    lam = complex(lam)
    return (
        math.sqrt(math.pi)
        * gammafn.gamma(-lam / 2.0)
        * gammafn.rgamma(n / 2.0)
        * gammafn.rgamma((lam + 1.0) / 2.0)
    )


def delta_norm(lam: complex, n: int) -> complex:
    """Normalizing coefficient of the lam-sine transform."""
    lam = complex(lam)
    return (
        math.sqrt(math.pi)
        * gammafn.gamma(-lam / 2.0)
        * gammafn.rgamma(n / 2.0)
        * gammafn.rgamma((n - 1.0 + lam) / 2.0)
    )


def funk_scale(n: int) -> float:
    """Constant relating the (-1)-cosine transform to the Funk transform."""
    return math.sqrt(math.pi) / math.gamma((n - 1) / 2.0)


def frame_scale(n: int, k: int) -> float:
    """Constant in the codimension-k factorization of the sine transform."""
    return math.gamma(k / 2.0) / math.gamma((n - 1) / 2.0)


def null_sphere_scale(n: int, k: int) -> float:
    """Constant relating the codimension-k cosine transform at its limit
    parameter to the codimension-k Funk transform."""
    return math.sqrt(math.pi) / math.gamma((n - k) / 2.0)


def gamma_norm_k(lam: complex, n: int, k: int) -> complex:
    """Normalizing coefficient of the codimension-k cosine transform."""
    lam = complex(lam)
    return (
        math.sqrt(math.pi)
        * gammafn.gamma(-lam / 2.0)
        * gammafn.rgamma(n / 2.0)
        * gammafn.rgamma((lam + k) / 2.0)
    )


@dataclass(frozen=True)
class TransformParams:
    lam: complex
    n: int
    path: str = "auto"

    def __post_init__(self):
        if self.n < 3:
            raise InvalidArgumentError("need n >= 3")
        if self.path not in ("quadrature", "spectral", "auto"):
            raise InvalidArgumentError(f"unknown path {self.path!r}")
        object.__setattr__(self, "lam", complex(self.lam))


def check_off_even_poles(lam: complex, tol: float = EVEN_POLE_TOL) -> None:
    """Raise PoleError when lam is within tol of {0, 2, 4, ...}."""
    lam = complex(lam)
    k = 2 * round(lam.real / 2.0)
    if k >= 0 and abs(lam - k) <= tol:
        raise PoleError(f"lambda = {lam} sits on the pole set {{0, 2, 4, ...}}", pole=k)


# ---------------------------------------------------------------------------
# spectrum-level (spectral path) transforms


def cosine_spectrum(spec: HarmonicSpectrum, lam: complex) -> HarmonicSpectrum:
    check_off_even_poles(lam)
    return spec.scale_degrees(lambda j: cosine_multiplier(j, spec.n, lam), even_only=True)


def funk_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    return spec.scale_degrees(lambda j: funk_multiplier(j, spec.n), even_only=True)


def log_cosine_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    if abs(spec.mean) > MEAN_ZERO_TOL:
        raise PreconditionError("logarithmic cosine transform requires a mean-zero input")
    return spec.scale_degrees(
        lambda j: log_cosine_multiplier(j, spec.n) if j else 0.0, even_only=True
    )


def sine_spectrum(spec: HarmonicSpectrum, lam: complex) -> HarmonicSpectrum:
    check_off_even_poles(lam)
    return spec.scale_degrees(lambda j: sine_multiplier(j, spec.n, lam), even_only=True)


def log_sine_spectrum(spec: HarmonicSpectrum) -> HarmonicSpectrum:
    # factors through the Funk transform followed by the logarithmic cosine
    return funk_scale(spec.n) * log_cosine_spectrum(funk_spectrum(spec))


# ---------------------------------------------------------------------------
# adapted quadrature engine


def great_circle_basis(u: np.ndarray):
    """Deterministic orthonormal basis (e1, e2) of the plane orthogonal to u in R^3.

    e1 points along the standard basis vector with the smallest |a.u| (lowest
    index on ties) projected off u; e2 = u x e1.  Never degenerate.
    """
    u = np.asarray(u, dtype=float)
    a = np.zeros(3)
    a[int(np.argmin(np.abs(u)))] = 1.0
    e1 = a - (a @ u) * u
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


def complement_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit u (n x (n-1)),
    by Householder completion; deterministic in u.

    A stack of directions of shape (..., n) gives a stack of bases of shape
    (..., n, n-1) from one batched QR.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    eye = np.broadcast_to(np.eye(n), u.shape[:-1] + (n, n))
    q, _ = np.linalg.qr(np.concatenate([u[..., :, None], eye], axis=-1))
    # first column of q is +-u; the next n-1 columns span the complement
    return q[..., 1:]


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
        dirs = complement_basis(batch) @ omega.T  # (B, n, R)
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
    from .spectral import _jacobi_rule

    lam = complex(lam)
    alpha = (n - 3) / 2.0
    x, w = _jacobi_rule(polar_nodes, alpha, lam.real)
    t = 0.5 * (1.0 + x)
    resid = (0.5 * (3.0 + x)) ** alpha * 0.5 ** (lam.real + alpha + 1.0)
    wts = w * resid
    if lam.imag:
        wts = wts * np.exp(1j * lam.imag * np.log(t))
    return [(t, wts), (-t, wts)]


def _sine_panels(lam: complex, n: int, polar_nodes: int):
    """Panels for the (1-t^2)^(lam/2) kernel: symmetric Gauss-Jacobi with the
    full (1-t^2)^((lam+n-3)/2) weight absorbed."""
    from .spectral import _jacobi_rule

    lam = complex(lam)
    a = (lam.real + n - 3.0) / 2.0
    x, w = _jacobi_rule(polar_nodes, a, a)
    wts = w.astype(complex)
    if lam.imag:
        wts = wts * np.exp(0.5j * lam.imag * np.log1p(-x * x))
    return [(x, wts)]


def _log_cosine_panels(n: int, polar_nodes: int, eps: float = 1e-5):
    """Panels for the log(1/|t|) kernel: minus the derivative in the absorbed
    power at 0, realized as a central difference of |t|^(+-eps) rules."""
    panels = []
    for sgn in (+1.0, -1.0):
        for t, wts in _cosine_panels(sgn * eps, n, polar_nodes):
            panels.append((t, (-sgn / (2.0 * eps)) * wts))
    return panels


def _log_sine_panels(n: int, polar_nodes: int, eps: float = 1e-5):
    """Panels for the log(1/(1-t^2)) kernel via the same differencing of the
    absorbed (1-t^2)^(+-eps) power."""
    panels = []
    for sgn in (+1.0, -1.0):
        for t, wts in _sine_panels(2.0 * sgn * eps, n, polar_nodes):
            panels.append((t, (-sgn / (2.0 * eps)) * wts))
    return panels


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
        f_eval, np.asarray(points, float), n, _log_cosine_panels(n, polar_nodes),
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
    raw = _apply_panels(
        f_eval, np.asarray(points, float), n, _log_sine_panels(n, polar_nodes),
        subsphere_resolution, circle_nodes,
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
# plain on-grid sums (documented accuracy loss near the singular set)


def _ongrid_values(f: GridFunction, kernel: Callable) -> np.ndarray:
    nodes = f.grid.nodes
    wf = f.grid.weights * f.values
    out = np.empty(f.grid.num_nodes, dtype=complex)
    chunk = max(1, 2**22 // max(f.grid.num_nodes, 1))
    for lo in range(0, f.grid.num_nodes, chunk):
        dots = nodes[lo : lo + chunk] @ nodes.T
        out[lo : lo + chunk] = kernel(dots) @ wf
    return out


# ---------------------------------------------------------------------------
# public transform operations


def _engine_sizes(J, polar_nodes, subsphere_resolution, circle_nodes) -> dict:
    """Quadrature sizes sufficient for exactness at band limit J."""
    return {
        "polar_nodes": polar_nodes if polar_nodes is not None else max(24, J + 6),
        "subsphere_resolution": subsphere_resolution
        if subsphere_resolution is not None
        else max(4, J // 2 + 2),
        "circle_nodes": circle_nodes if circle_nodes is not None else max(24, 2 * J + 2),
    }


def _resolve(f, params, lam, path):
    if params is not None:
        return complex(params.lam), params.path
    return (None if lam is None else complex(lam)), (path or "auto")


def _band_limit_of(f: GridFunction, band_limit):
    if band_limit is not None:
        return int(band_limit)
    if "band_limit" in f.meta:
        return int(f.meta["band_limit"])  # type: ignore[arg-type]
    raise InvalidArgumentError(
        "this path evaluates the input off-grid, which requires a band limit; "
        "pass band_limit= or use samples produced by synthesis"
    )


def _spectral_on_grid(f: GridFunction, op_spec, band_limit, pole, meta):
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    out = op_spec(spec)
    g = out.to_grid(f.grid)
    return g.with_values(g.values, **meta)


def _pick_path(path: str, lam_ok_for_quadrature: bool, f, band_limit) -> str:
    if path in ("quadrature", "spectral"):
        return path
    if lam_ok_for_quadrature:
        return "quadrature"
    return "spectral"


def cosine_transform(
    f,
    params: TransformParams | None = None,
    *,
    lam: complex | None = None,
    path: str | None = None,
    band_limit: int | None = None,
    pole=None,
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-cosine transform of an even function.

    Accepts a HarmonicSpectrum (spectral path, returns a spectrum) or a
    GridFunction (path per ``params``/``path``; returns samples on the same
    grid with the chosen path recorded in the metadata).
    """
    lam, path = _resolve(f, params, lam, path)
    if lam is None:
        raise InvalidArgumentError("cosine transform needs lambda")
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return cosine_spectrum(f, lam)
    chosen = _pick_path(path, lam.real > -1.0, f, band_limit)
    meta = {"operator": "cosine", "path": chosen, "lam": lam}
    if chosen == "spectral":
        return _spectral_on_grid(f, lambda s: cosine_spectrum(s, lam), band_limit, pole, meta)
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    vals = cosine_quadrature_values(
        spec.evaluate, f.grid.nodes, f.grid.n, lam, **_engine_sizes(
            J, polar_nodes, subsphere_resolution, circle_nodes
        ),
    )
    return GridFunction(f.grid, vals, meta)


def funk_transform(
    f,
    *,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    circle_nodes: int = 64,
):
    """Funk transform: average over the great subsphere orthogonal to u.

    The quadrature (geodesic) path is the n = 3 great-circle trapezoid rule;
    the spectral path works for any n.
    """
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return funk_spectrum(f)
    chosen = _pick_path(path, f.grid.n == 3, f, band_limit)
    meta = {"operator": "funk", "path": chosen}
    if chosen == "spectral":
        return _spectral_on_grid(f, funk_spectrum, band_limit, pole, meta)
    if f.grid.n != 3:
        raise DomainError("the geodesic quadrature path is n = 3 only; use the spectral path")
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    vals = funk_geodesic_values(spec.evaluate, f.grid.nodes, max(circle_nodes, 2 * J + 2))
    return GridFunction(f.grid, vals, meta)


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
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return log_cosine_spectrum(f)
    if abs(integrate(f)) > MEAN_ZERO_TOL:
        raise PreconditionError("logarithmic cosine transform requires a mean-zero input")
    chosen = "quadrature" if path == "auto" else path
    meta = {"operator": "log-cosine", "path": chosen, "method": quadrature_method}
    if chosen == "spectral":
        return _spectral_on_grid(f, log_cosine_spectrum, band_limit, pole, meta)
    if quadrature_method == "ongrid":
        scale = 2.0 / math.gamma(f.grid.n / 2.0)
        cap = math.log(1e14)

        def kernel(dots):
            return scale * np.minimum(np.log(1.0 / np.maximum(np.abs(dots), 1e-300)), cap)

        return GridFunction(f.grid, _ongrid_values(f, kernel), meta)
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    vals = log_cosine_quadrature_values(
        spec.evaluate, f.grid.nodes, f.grid.n, **_engine_sizes(
            J, polar_nodes, subsphere_resolution, circle_nodes
        ),
    )
    return GridFunction(f.grid, vals, meta)


def sine_transform(
    f,
    params: TransformParams | None = None,
    *,
    lam: complex | None = None,
    path: str | None = None,
    band_limit: int | None = None,
    pole=None,
    polar_nodes: int | None = None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-sine transform of an even function."""
    lam, path = _resolve(f, params, lam, path)
    if lam is None:
        raise InvalidArgumentError("sine transform needs lambda")
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return sine_spectrum(f, lam)
    chosen = _pick_path(path, lam.real > 1.0 - f.grid.n, f, band_limit)
    meta = {"operator": "sine", "path": chosen, "lam": lam}
    if chosen == "spectral":
        return _spectral_on_grid(f, lambda s: sine_spectrum(s, lam), band_limit, pole, meta)
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    vals = sine_quadrature_values(
        spec.evaluate, f.grid.nodes, f.grid.n, lam, **_engine_sizes(
            J, polar_nodes, subsphere_resolution, circle_nodes
        ),
    )
    return GridFunction(f.grid, vals, meta)


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
    if isinstance(f, HarmonicSpectrum):
        if path == "quadrature":
            raise InvalidArgumentError("quadrature path needs grid samples, not a spectrum")
        return log_sine_spectrum(f)
    if abs(integrate(f)) > MEAN_ZERO_TOL:
        raise PreconditionError("logarithmic sine transform requires a mean-zero input")
    chosen = "quadrature" if path == "auto" else path
    meta = {"operator": "log-sine", "path": chosen}
    if chosen == "spectral":
        return _spectral_on_grid(f, log_sine_spectrum, band_limit, pole, meta)
    J = _band_limit_of(f, band_limit)
    spec = analyze(f, J, pole=pole)
    vals = log_sine_quadrature_values(
        spec.evaluate, f.grid.nodes, f.grid.n, **_engine_sizes(
            J, polar_nodes, subsphere_resolution, circle_nodes
        ),
    )
    return GridFunction(f.grid, vals, meta)
