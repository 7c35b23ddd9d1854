"""Forward transforms on S^{n-1}: lam-cosine, Funk, logarithmic, and lam-sine.

Each transform has two computational paths that the test suite plays against
each other:

* spectral: multiply the harmonic coefficients by the degree multipliers from
  :mod:`funkinv.spectral` (valid for any lam off the even nonnegative
  integers, via analytic continuation);
* quadrature: numerically integrate the kernel.  Every sphere kernel is the
  k = 1 case of a codimension-k frame kernel (a point u is the frame
  u[:, None]), and one function, :func:`_frame_kernel_values`, integrates
  them all, for these transforms and for those of :mod:`funkinv.stiefel`.
  The kernels depend on r = |U^T v| alone, so per frame the integral
  collapses to a 1D integral over r of the averages of the input over the
  shells {v : |U^T v| = r}.  For input of band limit J the shell profile is
  a polynomial of degree J//2 in y = 2r^2 - 1, and every kernel times the
  density of r becomes a Jacobi weight (1-y)^a (1+y)^b in y, or for the
  logarithmic kernels its derivative in a or b; the kernel is integrable
  exactly when Re a, Re b > -1, the one domain check of the quadrature
  path.  The weight is integrated exactly: the profile is fitted at J//2 + 1
  Chebyshev nodes and its coefficients are contracted with the Chebyshev
  moments of the weight from the Piessens-Branders recurrence, real and
  complex lam alike.  The shell averages come from one product rule over
  frames, :func:`_frame_shell_values`, sized from J; the Funk transform is
  its r = 0 shell, for every n.  Shell averages evaluate the input off-grid,
  which goes through band-limited synthesis (raw grids are never
  interpolated), and never touch the multipliers.

The five public transforms, and ``funkinv forward``, run through one function
that reads each operator's paths and quadrature domain from ``OPERATORS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _reflect(cols: np.ndarray, v: np.ndarray, scale: np.ndarray) -> None:
    """Apply I - scale v v^T, per stack entry, to the columns (C, S, m) in place."""
    cols -= np.einsum("si,csi->cs", v, cols)[:, :, None] * (scale[:, None] * v)


def null_space_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of u^T (n x (n-k)) for a frame u
    (n x k), by Householder completion; deterministic in u.

    A stack of frames (..., n, k) gives a stack of bases (..., n, n-k); a unit
    vector as an n x 1 frame gives its orthogonal hyperplane.  The k
    reflections of the Householder QR of u, with LAPACK's sign convention
    (beta = -sign(alpha) |x|), are computed for the whole stack at once and
    applied to the last n-k unit columns: the complete Q's trailing columns.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim < 2 or u.shape[-1] > u.shape[-2]:
        raise InvalidArgumentError(f"need a frame (..., n, k) with k <= n, got shape {u.shape}")
    *stack, n, k = u.shape
    cols = np.array(u.reshape(-1, n, k).transpose(2, 0, 1))  # (k, S, n)
    basis = np.zeros((n - k, cols.shape[1], n))
    basis[:, :, k:] = np.eye(n - k)[:, None, :]
    reflectors = []
    for j in range(k):
        x = cols[j, :, j:]
        alpha = x[:, 0]
        beta = -np.copysign(np.sqrt(np.einsum("si,si->s", x, x)), alpha)
        v = x.copy()
        v[:, 0] -= beta
        # H = I - 2 v v^T / |v|^2, |v|^2 = 2 beta (beta - alpha); a zero column gives H = I
        den = beta * (beta - alpha)
        scale = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0)
        if j + 1 < k:
            _reflect(cols[j + 1 :, :, j:], v, scale)
        reflectors.append((v, scale))
    for j in reversed(range(k)):
        _reflect(basis[:, :, j:], *reflectors[j])
    return basis.transpose(1, 2, 0).reshape(*stack, n, n - k)


@lru_cache(maxsize=None)
def _subsphere_rule(d: int, J: int):
    """Probability rule on S^{d-1}, exact for polynomials of degree <= J;
    cached, so its arrays are read-only."""
    if d >= 3:
        g = build_grid(d, max(4, J // 2 + 2))
        return g.nodes, g.weights
    if d == 1:
        nodes, weights = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    else:
        num = max(24, 2 * J + 2)
        ang = 2.0 * math.pi * np.arange(num) / num
        nodes, weights = np.stack([np.cos(ang), np.sin(ang)], axis=1), np.full(num, 1.0 / num)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _frame_shell_values(f_eval: Callable, frames: np.ndarray, r: np.ndarray, J: int) -> np.ndarray:
    """avg over {v : |U^T v| = r} of f, for every frame U of a stack (S, n, k)
    and every radius r in [0, 1], exact for input of band limit J.

    The shell is the product of spheres v = r U theta + sqrt(1-r^2) B omega,
    theta on S^{k-1} and omega on S^{n-k-1}, B the null-space basis of U; a
    unit vector u is the frame u[:, None], whose shells are {v : u.v = +-r}.
    At r = 0 the span sphere is one point.  Returns an array of shape (S, len(r)).
    """
    count, n, k = frames.shape
    if np.any(r):
        theta, tw = _subsphere_rule(k, J)
    else:
        theta, tw = np.zeros((1, k)), np.ones(1)
    omega, ow = _subsphere_rule(n - k, J)
    cos_r = np.asarray(r, dtype=float)[None, :, None, None, None]
    sin_r = np.sqrt(1.0 - cos_r * cos_r)
    bases = null_space_basis(frames)
    out = np.empty((count, cos_r.shape[1]), dtype=complex)
    # frames per f_eval call, at most 2^14 points each, bound the point arrays
    chunk = max(1, 2**14 // (cos_r.size * len(theta) * len(omega)))
    for lo in range(0, count, chunk):
        span = theta @ frames[lo : lo + chunk].transpose(0, 2, 1)  # (B, T, n)
        fiber = omega @ bases[lo : lo + chunk].transpose(0, 2, 1)  # (B, W, n)
        # pts[b, i, t, w, :] = r_i U_b theta_t + sqrt(1 - r_i^2) B_b omega_w
        pts = cos_r * span[:, None, :, None, :] + sin_r * fiber[:, None, None, :, :]
        vals = np.asarray(f_eval(pts.reshape(-1, n)), dtype=complex)
        out[lo : lo + chunk] = (vals.reshape(pts.shape[:-1]) @ ow) @ tw
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
    """Nodes r on (0, 1) and weights w with sum w g(r) = int_0^1 g(r) K(r) dr
    for every even polynomial g of degree <= profile_degree, where
    K(r) = r W(2r^2-1), W(y) = ((1-y)/2)^a ((1+y)/2)^b is a Jacobi weight,
    and ``wrt`` replaces W by its derivative in a or b.

    With y = 2r^2-1 the integral is 1/4 int Q(y) W(y) dy, where Q(y) = g(r)
    is a polynomial of degree num-1, num = profile_degree//2 + 1.  Q is
    fitted at the num Chebyshev nodes y_i = cos(theta_i), which are
    r = cos(theta_i/2), and its coefficients are contracted with the moments
    of W from :func:`_chebyshev_moments`.
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
    return np.cos(theta / 2.0), w


def _frame_kernel_values(f_eval: Callable, frames: np.ndarray, a: complex, b: complex, J: int,
                         wrt: str | None = None) -> np.ndarray:
    """Kernel integral of f about every frame U of a stack (S, n, k), exact
    for f of band limit J.  r = |U^T v| has density c r^(k-1) (1-r^2)^((n-k-2)/2)
    on (0, 1), c = 2 Gamma(n/2) / (Gamma(k/2) Gamma((n-k)/2)) (2 A_n at k = 1,
    both halves t = +-r at once); the kernel times that density, as r W(2r^2-1),
    is the Jacobi weight W of :func:`_kernel_rule` with exponents a, b (or its
    derivative in ``wrt``), summed against the frame-shell averages.

    This is the one integrability guard of the kernel quadratures: the
    integral converges exactly when Re a > -1 and Re b > -1.
    """
    a, b = complex(a), complex(b)
    if a.real <= -1.0 or b.real <= -1.0:
        raise DomainError(f"kernel not integrable: Jacobi exponents a = {a}, b = {b} "
                          "need real parts > -1")
    _, n, k = frames.shape
    c = 2.0 * math.gamma(n / 2.0) / (math.gamma(k / 2.0) * math.gamma((n - k) / 2.0))
    r, w = _kernel_rule(J, a, b, wrt)
    return c * (_frame_shell_values(f_eval, frames, r, J) @ w)


def _point_frames(points: np.ndarray) -> np.ndarray:
    """Unit points (S, n) as the stack of one-column frames (S, n, 1)."""
    return np.asarray(points, dtype=float)[:, :, None]


def cosine_quadrature_values(
    f_eval: Callable, points: np.ndarray, n: int, lam: complex, *, profile_degree: int
) -> np.ndarray:
    """lam-cosine transform values at unit points, by exact kernel quadrature
    of an input of band limit ``profile_degree``: the k = 1 frame kernel with
    a = (n-3)/2, b = (lam-1)/2, for real and complex lam alike."""
    lam = complex(lam)
    check_off_even_poles(lam)
    raw = _frame_kernel_values(f_eval, _point_frames(points), (n - 3) / 2.0, (lam - 1.0) / 2.0,
                               profile_degree)
    return gamma_norm(lam, n) * raw


def sine_quadrature_values(
    f_eval: Callable, points: np.ndarray, n: int, lam: complex, *, profile_degree: int
) -> np.ndarray:
    """lam-sine transform values at unit points, by exact kernel quadrature
    of an input of band limit ``profile_degree``: (1-t^2)^((lam+n-3)/2) is
    the k = 1 frame kernel with a = (lam+n-3)/2, b = -1/2."""
    lam = complex(lam)
    check_off_even_poles(lam)
    raw = _frame_kernel_values(f_eval, _point_frames(points), (lam + n - 3.0) / 2.0, -0.5,
                               profile_degree)
    return delta_norm(lam, n) * raw


def log_cosine_quadrature_values(
    f_eval: Callable, points: np.ndarray, n: int, *, profile_degree: int
) -> np.ndarray:
    """Logarithmic cosine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/|t|) is
    -1/2 times the derivative of ((1+y)/2)^b = |t|^(2b) in b at b = -1/2."""
    raw = _frame_kernel_values(f_eval, _point_frames(points), (n - 3) / 2.0, -0.5,
                               profile_degree, wrt="b")
    return (-1.0 / math.gamma(n / 2.0)) * raw


def log_sine_quadrature_values(
    f_eval: Callable, points: np.ndarray, n: int, *, profile_degree: int
) -> np.ndarray:
    """Logarithmic sine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/(1-t^2))
    is minus the derivative of ((1-y)/2)^a = (1-t^2)^a in a, taken at
    a = (n-3)/2, the exponent of the shell measure."""
    raw = _frame_kernel_values(f_eval, _point_frames(points), (n - 3) / 2.0, -0.5,
                               profile_degree, wrt="a")
    # prefactor fixed by the limit of the lam-sine family at lam = 0, equal to
    # the factorization through the Funk transform (see tests)
    return (-math.sqrt(math.pi) / (math.gamma(n / 2.0) * math.gamma((n - 1) / 2.0))) * raw


def funk_geodesic_values(f_eval: Callable, points: np.ndarray, *, profile_degree: int) -> np.ndarray:
    """Averages over the great subspheres {v : u.v = 0} of S^{n-1}, for any
    n, of an input of band limit ``profile_degree``: the r = 0 shell of
    :func:`_frame_shell_values`, whose S^{n-2} rule is exact to that degree
    (at n = 3, the circle under the trapezoid rule on max(24, 2J+2) nodes)."""
    return _frame_shell_values(f_eval, _point_frames(points), np.zeros(1), profile_degree)[:, 0]


# ---------------------------------------------------------------------------
# public transform operations: one table, one shared body


@dataclass(frozen=True)
class _Operator:
    """A forward transform as :func:`_transform` runs it.

    ``spectral(spec, lam)`` is the spectral path and ``quadrature(f_eval,
    points, n, lam, J)`` the quadrature path for input of band limit J, which
    sizes every rule; ``auto`` takes quadrature where ``quadrature_domain(lam,
    n)`` holds (everywhere by default), which is where the kernel passes the
    integrability guard of :func:`_frame_kernel_values`.  The paths look their
    functions up in this module at call time, so a tracer that replaces those
    attributes sees every call.
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
        lambda ev, x, n, lam, J: cosine_quadrature_values(ev, x, n, lam, profile_degree=J),
        lambda lam, n: lam.real > -1.0,
    ),
    "funk": _Operator(
        "funk",
        lambda spec, lam: funk_spectrum(spec),
        lambda ev, x, n, lam, J: funk_geodesic_values(ev, x, profile_degree=J),
    ),
    "logcos": _Operator(
        "log-cosine",
        lambda spec, lam: log_cosine_spectrum(spec),
        lambda ev, x, n, lam, J: log_cosine_quadrature_values(ev, x, n, profile_degree=J),
        mean_zero=True,
    ),
    "sine": _Operator(
        "sine",
        lambda spec, lam: sine_spectrum(spec, lam),
        lambda ev, x, n, lam, J: sine_quadrature_values(ev, x, n, lam, profile_degree=J),
        lambda lam, n: lam.real > 1.0 - n,
    ),
    "logsine": _Operator(
        "log-sine",
        lambda spec, lam: log_sine_spectrum(spec),
        lambda ev, x, n, lam, J: log_sine_quadrature_values(ev, x, n, profile_degree=J),
        mean_zero=True,
    ),
}


def _transform(key, f, *, lam=None, path="auto", band_limit=None, pole=None):
    """Apply ``OPERATORS[key]`` to a spectrum (spectral path, returns a
    spectrum) or to grid samples (returns samples on the same grid, with the
    operator, the path taken and lambda in the metadata).
    """
    for value, allowed in ((key, tuple(OPERATORS)), (path, ("auto", "spectral", "quadrature"))):
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
    meta = {"operator": op.name, "path": path, "lam": lam}
    meta = {k: v for k, v in meta.items() if v is not None}
    spec, grid = as_spectrum(f, band_limit, pole)
    if path == "spectral":
        out = op.spectral(spec, lam).to_grid(grid)
        return out.with_values(out.values, **meta)
    values = op.quadrature(spec.evaluate, grid.nodes, grid.n, lam, spec.max_degree)
    return GridFunction(grid, values, meta)


def cosine_transform(f, *, lam: complex, path: str = "auto", band_limit: int | None = None,
                     pole=None):
    """lam-cosine transform of an even function.

    Accepts a HarmonicSpectrum (spectral path, returns a spectrum) or a
    GridFunction (path per ``path``; returns samples on the same grid with the
    chosen path recorded in the metadata).
    """
    return _transform("cosine", f, lam=lam, path=path, band_limit=band_limit, pole=pole)


def funk_transform(f, *, path: str = "auto", band_limit: int | None = None, pole=None):
    """Funk transform: average over the great subsphere orthogonal to u.

    Both paths work for any n; the quadrature path averages over each great
    subsphere with a rule exact for input of band limit J
    (:func:`funk_geodesic_values`).
    """
    return _transform("funk", f, path=path, band_limit=band_limit, pole=pole)


def log_cosine_transform(f, *, path: str = "auto", band_limit: int | None = None, pole=None):
    """Logarithmic cosine transform of a mean-zero function."""
    return _transform("logcos", f, path=path, band_limit=band_limit, pole=pole)


def sine_transform(f, *, lam: complex, path: str = "auto", band_limit: int | None = None,
                   pole=None):
    """lam-sine transform of an even function."""
    return _transform("sine", f, lam=lam, path=path, band_limit=band_limit, pole=pole)


def log_sine_transform(f, *, path: str = "auto", band_limit: int | None = None, pole=None):
    """Logarithmic sine transform of a mean-zero function."""
    return _transform("logsine", f, path=path, band_limit=band_limit, pole=pole)
