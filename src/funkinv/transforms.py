"""Forward transforms on S^{n-1}: lam-cosine, Funk, logarithmic, and lam-sine.

Each transform has two computational paths that the test suite plays against
each other:

* spectral: multiply the harmonic coefficients by the degree multipliers from
  :mod:`funkinv.spectral` (valid for any lam off the even nonnegative
  integers, via analytic continuation);
* quadrature: numerically integrate the kernel.  The kernels are even
  functions of t = u.v alone, so per output point the integral collapses to
  a 1D integral of t-shell averages.  For input of band limit J the even part
  of the shell profile is a polynomial of degree J//2 in y = 2t^2 - 1, and
  every kernel times the shell measure (1-t^2)^((n-3)/2) becomes a Jacobi
  weight (1-y)^a (1+y)^b in y, or for the logarithmic kernels its derivative
  in a or b.  One engine integrates all of them exactly: it fits the profile
  at J//2 + 1 Chebyshev nodes and contracts the coefficients with the
  Chebyshev moments of the weight from the Piessens-Branders recurrence,
  real and complex lam alike.  Shell averages evaluate the input off-grid,
  which goes through band-limited synthesis (raw grids are never
  interpolated), and never touch the multipliers.

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
from scipy.special import loggamma, psi

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


def _chebyshev_moments(a: complex, b: complex, num: int, wrt: str | None = None) -> np.ndarray:
    """Modified moments M_k = int_{-1}^{1} T_k(y) (1-y)^a (1+y)^b dy for
    k < num, or with ``wrt="a"`` / ``"b"`` their derivatives in that exponent
    (the moments of log(1-y) and log(1+y) times the weight); Re a, Re b > -1.

    Forward Piessens-Branders recurrence (BIT 13, 1973; QUADPACK's QAWS),
    (a+b+k+2) M_{k+1} + 2(a-b) M_k + (a+b-k+2) M_{k-1} = 0, from
    M_0 = 2^(a+b+1) B(a+1, b+1) and M_1 = M_0 (b-a)/(a+b+2).  The derivative
    in a runs the recurrence differentiated in a, whose right-hand side is
    -(M_{k+1} + 2 M_k + M_{k-1}), from digamma starting values.
    """
    if wrt == "b":  # y -> -y swaps the exponents and the sign of odd T_k
        return _chebyshev_moments(b, a, num, "a") * (-1.0) ** np.arange(num)
    a, b = complex(a), complex(b)
    s = a + b
    m = np.empty(num, dtype=complex)
    m[0] = np.exp((s + 1.0) * math.log(2.0) + loggamma(a + 1.0) + loggamma(b + 1.0)
                  - loggamma(s + 2.0))
    if num > 1:
        m[1] = m[0] * (b - a) / (s + 2.0)
    for k in range(1, num - 1):
        m[k + 1] = -(2.0 * (a - b) * m[k] + (s - k + 2.0) * m[k - 1]) / (s + k + 2.0)
    if wrt is None:
        return m
    d = np.empty(num, dtype=complex)
    d[0] = m[0] * (math.log(2.0) + psi(a + 1.0) - psi(s + 2.0))
    if num > 1:
        d[1] = d[0] * (b - a) / (s + 2.0) - m[0] * 2.0 * (b + 1.0) / (s + 2.0) ** 2
    for k in range(1, num - 1):
        rhs = m[k + 1] + 2.0 * m[k] + m[k - 1]
        d[k + 1] = -(2.0 * (a - b) * d[k] + (s - k + 2.0) * d[k - 1] + rhs) / (s + k + 2.0)
    return d


def _kernel_rule(profile_degree: int, a: complex, b: complex, wrt: str | None = None):
    """Nodes t and weights w with sum w p(t) = int_{-1}^{1} p(t) K(t) dt for
    every polynomial p of degree <= profile_degree, where K is the even
    kernel with K(t) = t W(2t^2-1) for t > 0, W(y) = ((1-y)/2)^a ((1+y)/2)^b
    is a Jacobi weight, and ``wrt`` replaces W by its derivative in a or b.

    With y = 2t^2-1 the integral is 1/4 int Q(y) W(y) dy, where
    Q(y) = p(t) + p(-t) is a polynomial of degree num-1, num =
    profile_degree//2 + 1.  Q is fitted at the num Chebyshev nodes
    y_i = cos(theta_i), which are t = +-cos(theta_i/2), and its coefficients
    are contracted with the moments of W from :func:`_chebyshev_moments`.
    """
    num = profile_degree // 2 + 1
    theta = math.pi * (2.0 * np.arange(num) + 1.0) / (2.0 * num)
    moments = _chebyshev_moments(a, b, num, wrt)
    if wrt is not None:  # W carries 2^-(a+b), whose derivative adds -log(2) W
        moments = moments - math.log(2.0) * _chebyshev_moments(a, b, num)
    moments = moments * 2.0 ** -(complex(a) + complex(b))
    moments[0] /= 2.0
    # Q = sum_k c_k T_k with c_k = (2/num) sum_i Q(y_i) cos(k theta_i), c_0 halved
    w = np.cos(np.outer(theta, np.arange(num))) @ moments / (2.0 * num)
    t = np.cos(theta / 2.0)
    return np.concatenate([t, -t]), np.concatenate([w, w])


def _kernel_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    rule,
    subsphere_resolution: int,
    circle_nodes: int,
) -> np.ndarray:
    """A_n sum_i w_i p_u(t_i) at every output point u, for a rule (t, w) from
    :func:`_kernel_rule` and the shell-average profile p_u about u; the
    rule's kernel includes the shell measure (1-t^2)^((n-3)/2)."""
    t, w = rule
    shells = _shell_average_values(
        f_eval, np.asarray(points, float), t, n, subsphere_resolution, circle_nodes
    )
    return pushforward_constant(n) * (shells @ w)


def cosine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    lam: complex,
    *,
    profile_degree: int,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    """lam-cosine transform values at unit points, by exact kernel quadrature
    of an input of band limit ``profile_degree``.

    |t|^lam (1-t^2)^((n-3)/2) is the Jacobi weight with a = (n-3)/2,
    b = (lam-1)/2 in y = 2t^2-1 (:func:`_kernel_rule`), for real and complex
    lam alike.
    """
    lam = complex(lam)
    if lam.real <= -1.0:
        raise DomainError(f"quadrature path needs Re lambda > -1, got {lam}")
    check_off_even_poles(lam)
    rule = _kernel_rule(profile_degree, (n - 3) / 2.0, (lam - 1.0) / 2.0)
    raw = _kernel_values(f_eval, points, n, rule, subsphere_resolution, circle_nodes)
    return gamma_norm(lam, n) * raw


def sine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    lam: complex,
    *,
    profile_degree: int,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    """lam-sine transform values at unit points, by exact kernel quadrature
    of an input of band limit ``profile_degree``: (1-t^2)^((lam+n-3)/2) is
    the Jacobi weight with a = (lam+n-3)/2, b = -1/2."""
    lam = complex(lam)
    if lam.real <= 1.0 - n:
        raise DomainError(f"quadrature path needs Re lambda > {1 - n}, got {lam}")
    check_off_even_poles(lam)
    rule = _kernel_rule(profile_degree, (lam + n - 3.0) / 2.0, -0.5)
    raw = _kernel_values(f_eval, points, n, rule, subsphere_resolution, circle_nodes)
    return delta_norm(lam, n) * raw


def log_cosine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    *,
    profile_degree: int,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    """Logarithmic cosine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/|t|) is
    -1/2 times the derivative of ((1+y)/2)^b = |t|^(2b) in b at b = -1/2."""
    rule = _kernel_rule(profile_degree, (n - 3) / 2.0, -0.5, wrt="b")
    raw = _kernel_values(f_eval, points, n, rule, subsphere_resolution, circle_nodes)
    return (-1.0 / math.gamma(n / 2.0)) * raw


def log_sine_quadrature_values(
    f_eval: Callable,
    points: np.ndarray,
    n: int,
    *,
    profile_degree: int,
    subsphere_resolution: int = 8,
    circle_nodes: int = 64,
) -> np.ndarray:
    """Logarithmic sine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/(1-t^2))
    is minus the derivative of ((1-y)/2)^a = (1-t^2)^a in a, taken at
    a = (n-3)/2, the exponent of the shell measure."""
    rule = _kernel_rule(profile_degree, (n - 3) / 2.0, -0.5, wrt="a")
    raw = _kernel_values(f_eval, points, n, rule, subsphere_resolution, circle_nodes)
    # prefactor fixed by the limit of the lam-sine family at lam = 0, equal to
    # the factorization through the Funk transform (see tests)
    return (-math.sqrt(math.pi) / (math.gamma(n / 2.0) * math.gamma((n - 1) / 2.0))) * raw


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
    """Quadrature sizes for band limit J: the profile degree J, and shell
    rules sufficient for exactness except where ``given`` sets them."""
    defaults = {"subsphere_resolution": max(4, J // 2 + 2), "circle_nodes": max(24, 2 * J + 2)}
    sizes = {k: v if given.get(k) is None else given[k] for k, v in defaults.items()}
    return dict(sizes, profile_degree=J)


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
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-cosine transform of an even function.

    Accepts a HarmonicSpectrum (spectral path, returns a spectrum) or a
    GridFunction (path per ``path``; returns samples on the same grid with the
    chosen path recorded in the metadata).
    """
    return _transform("cosine", f, lam=lam, path=path, band_limit=band_limit, pole=pole,
                      subsphere_resolution=subsphere_resolution, circle_nodes=circle_nodes)


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
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """Logarithmic cosine transform of a mean-zero function.

    ``quadrature_method="ongrid"`` uses the literal weighted sum over the
    stored grid with the kernel capped at log(1e14) where |u.v| < 1e-14; it
    converges slowly near the singular circle and exists for convergence
    studies.  The default adapted rule integrates the logarithm exactly
    against the band-limited shell profile, to rounding (about 1e-15).
    """
    return _transform("logcos", f, path=path, band_limit=band_limit, pole=pole,
                      quadrature_method=quadrature_method,
                      subsphere_resolution=subsphere_resolution, circle_nodes=circle_nodes)


def sine_transform(
    f,
    *,
    lam: complex,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """lam-sine transform of an even function."""
    return _transform("sine", f, lam=lam, path=path, band_limit=band_limit, pole=pole,
                      subsphere_resolution=subsphere_resolution, circle_nodes=circle_nodes)


def log_sine_transform(
    f,
    *,
    path: str = "auto",
    band_limit: int | None = None,
    pole=None,
    subsphere_resolution: int | None = None,
    circle_nodes: int | None = None,
):
    """Logarithmic sine transform of a mean-zero function."""
    return _transform("logsine", f, path=path, band_limit=band_limit, pole=pole,
                      subsphere_resolution=subsphere_resolution, circle_nodes=circle_nodes)
