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
  logarithmic kernels its derivative in a or b.  The weight is integrated
  exactly: the profile is fitted at J//2 + 1 Chebyshev nodes and its
  coefficients are contracted with the Piessens-Branders Chebyshev moments
  of the weight divided by Gamma(a+1) Gamma(b+1).  Those are entire in
  (a, b) and the 1/Gamma factors cancel in the normalizers, so one rule
  serves every lam off {0, 2, 4, ...}, real or complex: b = -1 is the point
  mass at r = 0 (the cosine at lam = -1 is the Funk transform) and a = -1
  the point mass at r = 1 (the sine at lam = 1-n is the identity).  Against
  the spectral path at n = 3..6, J <= 32, it agrees to 1e-13 relative for
  the cosine at Re lam in [-3, -1] and to 1.5e-13 for the sine at Re lam in
  [-n-1, 1-n]; further out digits fall (cosine at lam = -5: 1.2e-12 at
  n = 6, J = 16; at lam = -7.5: 7e-11 at n = 5, J = 32).  The shell
  averages come from one engine over frames, :func:`_frame_shell_values`,
  sized from J; the Funk transform is its r = 0 shell, for every n.  A
  zonal spectrum depends on a shell point only through its height along
  the pole, so the engine averages it with one Gauss-Gegenbauer rule per
  sphere of the shell, at J//2 + 1 heights on a meridian: O(J) points per
  Funk output and O(J^2) per kernel output, at every n.  Callables and
  full n = 3 tables take the product of the two spheres' product rules of
  :func:`~funkinv.grids.build_grid` at resolution J//2 + 1.  Every shell
  is antipodally symmetric, so a spectrum's odd degrees average to zero on
  it: a spectrum is replaced by its even part and evaluated at one point of
  each antipodal pair of the rule, at twice the weight, which halves the
  points (J//4 + 1 heights per zonal Funk output, (J//2 + 1)^2 points per
  zonal k = 1 kernel output); callables cannot be projected and take every
  point.  Shell averages evaluate the input off-grid, which goes through
  band-limited synthesis (raw grids are never interpolated), and never
  touch the multipliers.

The five public transforms, and ``funkinv forward``, run through one function
that reads each operator's paths from ``OPERATORS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import poch, psi

from . import gammafn
from .errors import (
    InvalidArgumentError,
    PoleError,
    PreconditionError,
)
from .grids import GridFunction, _product_rule, _symmetric_rule, integrate
from .spectral import (
    HarmonicSpectrum,
    _gamma_ratio,
    analyze,  # noqa: F401  (re-exported: callers reach it as transforms.analyze)
    as_spectrum,
    cosine_multiplier,
    funk_multiplier,
    log_cosine_multiplier,
    pushforward_constant,
    sine_multiplier,
)

__all__ = [
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


def funk_scale(n: int) -> float:
    """Constant relating the (-1)-cosine transform to the Funk transform."""
    return null_sphere_scale(n, 1)


def frame_scale(n: int, k: int) -> float:
    """Constant in the codimension-k factorization of the sine transform."""
    _check_frame_shape(n, k)
    return math.gamma(k / 2.0) / math.gamma((n - 1) / 2.0)


def null_sphere_scale(n: int, k: int) -> float:
    """Constant relating the codimension-k cosine transform at its limit
    parameter to the codimension-k Funk transform."""
    _check_frame_shape(n, k)
    return math.sqrt(math.pi) / math.gamma((n - k) / 2.0)


def _check_frame_shape(n: int, k: int) -> None:
    """k-frames of R^n, n >= 3, have 1 <= k <= n-1 columns."""
    if n < 3 or not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"need n >= 3 and 1 <= k <= n-1, got n = {n}, k = {k}")


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


def check_off_even_poles(lam: complex) -> None:
    """Raise PoleError when lam is within EVEN_POLE_TOL of {0, 2, 4, ...}."""
    lam = complex(lam)
    k = 2 * round(lam.real / 2.0)
    if k >= 0 and abs(lam - k) <= EVEN_POLE_TOL:
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
    """Probability rule on S^{d-1}, exact for polynomials of degree <= J, with
    its antipode map (``nodes[anti] == -nodes`` bitwise, equal weights): the
    two points +-1, swapped, when d = 1, otherwise the product rule of
    :func:`~funkinv.grids.build_grid` at resolution J//2 + 1, exact to degree
    2(J//2) + 1, and that rule's own pairing.  Cached, so its arrays are
    read-only."""
    if d == 1:
        rule = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]), np.array([1, 0])
    else:
        rule = _product_rule(d, J // 2 + 1)
    return _frozen(*rule)


@lru_cache(maxsize=None)
def _height_rule(d: int, J: int):
    """Probability rule for the height x = a.omega of omega uniform on
    S^{d-1} along a unit axis a, exact for polynomials in x of degree <= J,
    with its antipode map: the two points +-1 when d = 1, otherwise the
    J//2 + 1 node symmetric Gauss rule of the pushforward density
    (1-x^2)^((d-3)/2), whose nodes are paired by index reversal (a middle
    node x = 0 is its own antipode).  Nodes come as a column (m, 1); cached,
    so its arrays are read-only."""
    if d == 1:
        return _subsphere_rule(1, J)
    x, w = _symmetric_rule(J // 2 + 1, (d - 3) / 2.0)
    return _frozen(x[:, None], pushforward_constant(d) * w, np.arange(len(x))[::-1])


def _center_rule(cols: int, J: int):
    """The span sphere of the r = 0 shell: the one point 0 of R^cols, weight
    1, its own antipode."""
    return np.zeros((1, cols)), np.ones(1), np.zeros(1, dtype=np.intp)


def _frozen(*arrays):
    """The arrays, made read-only, as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _shell_rule(span_rule, span_dim: int, fiber_rule, fiber_dim: int, J: int, half: bool):
    """The span x fiber product rule of a shell, as gathered rows: span nodes
    theta (K, .), fiber nodes omega (K, .) and weights (K,), from the rules
    ``span_rule(span_dim, J)`` and ``fiber_rule(fiber_dim, J)``.

    The full product (``half`` false) has every pair of nodes.  The shell
    point of (-theta, -omega) is minus that of (theta, omega), and the two
    weights are equal, so for even input the ``half`` rule keeps one pair of
    each such antipodal couple, the one with the lower flat index, at twice
    its weight; a pair that is its own antipode (theta and omega both their
    own, as the r = 0 point with a middle height node) keeps its weight.  It
    has about half the K of the full product.  Cached per key, so a call of
    the engine does no index work; the arrays are read-only.
    """
    theta, tw, t_anti = span_rule(span_dim, J)
    omega, ow, w_anti = fiber_rule(fiber_dim, J)
    flat = np.arange(len(tw) * len(ow))
    weights = np.outer(tw, ow).reshape(-1)
    if half:
        anti = (t_anti[:, None] * len(ow) + w_anti).reshape(-1)
        flat = flat[flat <= anti]
        weights = np.where(anti[flat] == flat, 1.0, 2.0) * weights[flat]
    t, w = np.divmod(flat, len(ow))
    return _frozen(theta[t], omega[w], weights)


def _frame_shell_values(f, frames: np.ndarray, r: np.ndarray, J: int) -> np.ndarray:
    """avg over {v : |U^T v| = r} of f, for every frame U of a stack (S, n, k)
    and every radius r in [0, 1], exact for input of band limit J.  ``f`` is
    a HarmonicSpectrum or a callable on unit points (N, n).

    The shell is the product of spheres v = r U theta + sqrt(1-r^2) B omega,
    theta on S^{k-1} and omega on S^{n-k-1}, B the null-space basis of U; a
    unit vector u is the frame u[:, None], whose shells are {v : u.v = +-r}.
    At r = 0 the span sphere is one point.  Every shell is antipodally
    symmetric, so odd harmonics average to zero on it: a spectrum is
    replaced by its even part and integrated by the half rule of
    :func:`_shell_rule`, one node of each antipodal pair (theta, omega),
    (-theta, -omega) at twice the weight, about half the points of the full
    product.  A callable cannot be projected and takes the full product.

    A zonal spectrum, f(v) = g(v.p), takes a pole-adapted rule: on the
    shell, v.p = r sigma x + sqrt(1-r^2) rho s, with c = U^T p, sigma = |c|
    and rho = |p - U c| = sqrt(1 - sigma^2), where x = theta.c/sigma and
    s = (B omega).(p - U c)/rho are the heights of the two sphere points
    along the projections of p.  x and s are independent, with the
    pushforward densities of :func:`_height_rule` (Funk-Hecke; Dai and Xu
    2013, section 1.2), so the same loop runs on the 1 x 1 "frames" sigma
    and rho with those rules, and f is evaluated at each height t on one
    meridian, t p + sqrt(1-t^2) e with e a unit vector orthogonal to p.  No
    null-space basis of a frame is formed.  (x, s) -> (-x, -s) maps t to -t,
    so the half rule serves here too.  Returns an array of shape
    (S, len(r)).
    """
    count, n, k = frames.shape
    half = isinstance(f, HarmonicSpectrum)
    if half and f.kind == "zonal":
        if n != f.n:
            raise InvalidArgumentError(f"frames of R^{n} for a spectrum on S^{f.n - 1}")
        pole, rule, even = f.pole, _height_rule, f.even_projected()
        c = np.einsum("n,snk->sk", pole, frames)  # U^T p per frame; a batched matvec is 4x slower
        rest = pole - np.einsum("snk,sk->sn", frames, c)
        # sigma and rho as 1 x 1 frames and bases; rho from the residual keeps
        # its digits when p is (nearly) in the span, where 1 - sigma^2 cancels
        bases = np.sqrt(np.einsum("sn,sn->s", rest, rest))[:, None, None]
        frames = np.sqrt(np.einsum("sk,sk->s", c, c))[:, None, None]
        meridian = np.stack([pole, null_space_basis(pole[:, None])[:, 0]])  # (2, n)

        def f_eval(height):  # (N, 1) heights t -> f at t p + sqrt(1-t^2) e
            t = np.clip(height, -1.0, 1.0)
            return even.evaluate(np.concatenate([t, np.sqrt(1.0 - t * t)], axis=1) @ meridian)
    else:
        rule = _subsphere_rule
        f_eval = f.even_projected().evaluate if half else f
        bases = null_space_basis(frames)
    span = (rule, k) if np.any(r) else (_center_rule, frames.shape[2])
    theta, omega, weights = _shell_rule(*span, rule, n - k, J, half)
    cos_r = np.asarray(r, dtype=float)[None, :, None, None]
    sin_r = np.sqrt(1.0 - cos_r * cos_r)
    out = np.empty((count, cos_r.shape[1]), dtype=complex)
    # frames per f_eval call, at most 2^14 points each, bound the point arrays
    chunk = max(1, 2**14 // (cos_r.size * len(weights)))
    for lo in range(0, count, chunk):
        # pts[b, i, q, :] = r_i U_b theta_q + sqrt(1 - r_i^2) B_b omega_q
        pts = (cos_r * (theta @ frames[lo : lo + chunk].transpose(0, 2, 1))[:, None]
               + sin_r * (omega @ bases[lo : lo + chunk].transpose(0, 2, 1))[:, None])
        vals = np.asarray(f_eval(pts.reshape(-1, pts.shape[-1])), dtype=complex)
        out[lo : lo + chunk] = vals.reshape(pts.shape[:-1]) @ weights
    return out


def _chebyshev_moments(a: complex, b: complex, num: int, wrt: str | None = None) -> np.ndarray:
    """Regularized moments M_k / (Gamma(a+1) Gamma(b+1)), k < num, of
    M_k = int_{-1}^{1} T_k(y) (1-y)^a (1+y)^b dy, or with ``wrt="a"`` / ``"b"``
    the moments of log(1-y) and log(1+y) times the weight, divided alike.

    They are entire in (a, b): b = -1 gives a point mass at y = -1 and a = -1
    one at y = 1.  The Piessens-Branders recurrence (BIT 13, 1973; QUADPACK's
    QAWS) runs on R_k = M_k Gamma(s+k+2) / (k! Gamma(a+1) Gamma(b+1)), s = a+b:
    (k+1) R_{k+1} = -2(a-b) R_k - (s-k+2)(s+k+1)/k R_{k-1} from R_0 = 2^(s+1),
    R_1 = R_0 (b-a), with no division that can vanish; moment k is
    R_k k!/Gamma(s+k+2), in real arithmetic for real s.  The log moment in a
    takes dR_k/da from the same recurrence differentiated in a and adds
    (psi(a+1) - psi(s+k+2)) R_k, so it needs a off {-1, -2, ...} and s off
    {-2, -3, ...}.
    """
    if wrt == "b":  # y -> -y swaps the exponents and the sign of odd T_k
        return _chebyshev_moments(b, a, num, "a") * (-1.0) ** np.arange(num)
    a, b = complex(a), complex(b)
    s = a + b
    k = np.arange(num)
    ratio = (poch(s.real + k + 2.0, -(s.real + 1.0)) if s.imag == 0.0
             else _gamma_ratio(k + 1.0, s + k + 2.0))
    r, d = np.empty((2, num), dtype=complex)  # R_k and dR_k/da
    r[0] = 2.0 ** (s + 1.0)
    d[0] = math.log(2.0) * r[0]
    if num > 1:
        r[1], d[1] = r[0] * (b - a), d[0] * (b - a) - r[0]
    for j in range(1, num - 1):
        c = (s - j + 2.0) * (s + j + 1.0) / j
        r[j + 1] = -(2.0 * (a - b) * r[j] + c * r[j - 1]) / (j + 1)
        d[j + 1] = -(2.0 * (a - b) * d[j] + c * d[j - 1] + 2.0 * r[j]
                     + (2.0 * s + 3.0) / j * r[j - 1]) / (j + 1)
    if wrt is None:
        return r * ratio
    return (d + (psi(a + 1.0) - psi(s + k + 2.0)) * r) * ratio


def _frame_kernel_values(f, frames: np.ndarray, a: complex, b: complex, J: int,
                         wrt: str | None = None) -> np.ndarray:
    """int_0^1 F(r) K(r) dr about every frame U of a stack (S, n, k), exact
    for f of band limit J, where F(r) is the average of f over the shell
    {v : |U^T v| = r}, K(r) = r W(2r^2-1) / (Gamma(a+1) Gamma(b+1)) and
    W(y) = ((1-y)/2)^a ((1+y)/2)^b is a Jacobi weight (``wrt`` replaces W by
    its derivative in a or b).  r has density c r^(k-1) (1-r^2)^((n-k-2)/2),
    c = 2 Gamma(n/2) / (Gamma(k/2) Gamma((n-k)/2)), and a kernel times it is
    c Gamma(a+1) Gamma(b+1) K(r); callers fold that constant into their
    normalizer.  K is finite for every (a, b): b = -1 is the point mass at
    r = 0 (Funk), a = -1 the point mass at r = 1 (S_{1-n} = I).

    With y = 2r^2-1 the integral is 1/4 int Q(y) W(y) dy, where Q(y) = F(r)
    is a polynomial of degree num-1, num = J//2 + 1.  Q is fitted at the num
    Chebyshev nodes y_i = cos(theta_i), which are r = cos(theta_i/2), and its
    coefficients are contracted with the moments of W from
    :func:`_chebyshev_moments`.
    """
    num = J // 2 + 1
    theta = math.pi * (2.0 * np.arange(num) + 1.0) / (2.0 * num)
    moments = _chebyshev_moments(a, b, num, wrt)
    if wrt is not None:  # W carries 2^-(a+b), whose derivative adds -log(2) W
        moments = moments - math.log(2.0) * _chebyshev_moments(a, b, num)
    moments = moments * 2.0 ** -(complex(a) + complex(b))
    moments[0] /= 2.0
    # Q = sum_k c_k T_k with c_k = (2/num) sum_i Q(y_i) cos(k theta_i), c_0 halved
    w = np.cos(np.outer(theta, np.arange(num))) @ moments / (2.0 * num)
    return _frame_shell_values(f, frames, np.cos(theta / 2.0), J) @ w


def _point_frames(points: np.ndarray) -> np.ndarray:
    """Unit points (S, n) as the stack of one-column frames (S, n, 1)."""
    return np.asarray(points, dtype=float)[:, :, None]


def _frame_funk_values(f, frames: np.ndarray, J: int) -> np.ndarray:
    """Averages of f over the null-space spheres {v : U^T v = 0} of a stack
    of frames (S, n, k), exact for f of band limit J: the r = 0 shell."""
    return _frame_shell_values(f, frames, np.zeros(1), J)[:, 0]


def _frame_cosine_values(f, frames: np.ndarray, lam: complex, J: int) -> np.ndarray:
    """The normalized frame kernel r^lam, r = |U^T v|, about every frame of a
    stack (S, n, k), exact for f of band limit J, lam off {0, 2, 4, ...}: the
    exponents a = (n-k-2)/2, b = (k-2+lam)/2 of :func:`_frame_kernel_values`,
    scaled by gamma_norm_k c Gamma(a+1) Gamma(b+1) = 2 sqrt(pi) Gamma(-lam/2)/Gamma(k/2)."""
    _, n, k = frames.shape
    lam = complex(lam)
    check_off_even_poles(lam)
    raw = _frame_kernel_values(f, frames, (n - k - 2) / 2.0, (k - 2.0 + lam) / 2.0, J)
    return 2.0 * math.sqrt(math.pi) * gammafn.gamma(-lam / 2.0) / math.gamma(k / 2.0) * raw


def cosine_quadrature_values(
    f, points: np.ndarray, lam: complex, *, profile_degree: int
) -> np.ndarray:
    """lam-cosine transform values at unit points (S, n) of S^{n-1}, by exact
    kernel quadrature of an input of band limit ``profile_degree`` (a
    spectrum or a callable on unit points, as for every quadrature below,
    each of which reads n from the points): the k = 1 frame kernel, for real
    and complex lam alike."""
    return _frame_cosine_values(f, _point_frames(points), lam, profile_degree)


def sine_quadrature_values(
    f, points: np.ndarray, lam: complex, *, profile_degree: int
) -> np.ndarray:
    """lam-sine transform values at unit points, by exact kernel quadrature
    of an input of band limit ``profile_degree``: (1-t^2)^((lam+n-3)/2) is
    the k = 1 frame kernel with a = (lam+n-3)/2, b = -1/2."""
    lam = complex(lam)
    check_off_even_poles(lam)
    frames = _point_frames(points)
    n = frames.shape[1]
    raw = _frame_kernel_values(f, frames, (lam + n - 3.0) / 2.0, -0.5, profile_degree)
    return 2.0 * math.sqrt(math.pi) * gammafn.gamma(-lam / 2.0) / math.gamma((n - 1) / 2.0) * raw


def log_cosine_quadrature_values(f, points: np.ndarray, *, profile_degree: int) -> np.ndarray:
    """Logarithmic cosine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/|t|) is
    -1/2 times the derivative of ((1+y)/2)^b = |t|^(2b) in b at b = -1/2."""
    frames = _point_frames(points)
    raw = _frame_kernel_values(f, frames, (frames.shape[1] - 3) / 2.0, -0.5, profile_degree,
                               wrt="b")
    return -2.0 * raw


def log_sine_quadrature_values(f, points: np.ndarray, *, profile_degree: int) -> np.ndarray:
    """Logarithmic sine transform values at unit points, by exact kernel
    quadrature of an input of band limit ``profile_degree``: log(1/(1-t^2))
    is minus the derivative of ((1-y)/2)^a = (1-t^2)^a in a, taken at
    a = (n-3)/2, the exponent of the shell measure."""
    frames = _point_frames(points)
    n = frames.shape[1]
    raw = _frame_kernel_values(f, frames, (n - 3) / 2.0, -0.5, profile_degree, wrt="a")
    # prefactor fixed by the limit of the lam-sine family at lam = 0, equal to
    # the factorization through the Funk transform (see tests)
    return (-2.0 * math.sqrt(math.pi) / math.gamma((n - 1) / 2.0)) * raw


def funk_geodesic_values(f, points: np.ndarray, *, profile_degree: int) -> np.ndarray:
    """Averages over the great subspheres {v : u.v = 0} of S^{n-1}, for any
    n, of an input of band limit ``profile_degree``: the r = 0 shell of
    :func:`_frame_shell_values`, whose rule is exact to that degree (J//2 + 1
    heights for a zonal spectrum; for a callable or a full table the
    :func:`~funkinv.grids.build_grid` product rule on S^{n-2} at resolution
    J//2 + 1, at n = 3 the circle's 2(J//2 + 1) azimuth nodes).  The great
    subsphere is antipodally symmetric, so a spectrum is evaluated at one
    node of each antipodal pair only, its even part at twice the weight:
    J//4 + 1 heights for a zonal spectrum, J//2 + 1 azimuths for a full
    table at n = 3; a callable at every node."""
    return _frame_funk_values(f, _point_frames(points), profile_degree)


# ---------------------------------------------------------------------------
# public transform operations: one table, one shared body


@dataclass(frozen=True)
class _Operator:
    """A forward transform as :func:`_transform` runs it.

    ``spectral(spec, lam)`` is the spectral path and ``quadrature(spec,
    points, lam, J)`` the quadrature path for input of band limit J, which
    sizes every rule.  Both paths take every lam off {0, 2, 4, ...}, so
    ``auto`` is quadrature for grid samples and spectral for a spectrum.  The
    paths look their functions up in this module at call time, so a tracer
    that replaces those attributes sees every call.
    """

    name: str
    spectral: Callable
    quadrature: Callable
    mean_zero: bool = False


# keyed by the names ``funkinv forward --transform`` takes
OPERATORS = {
    "cosine": _Operator(
        "cosine",
        lambda spec, lam: cosine_spectrum(spec, lam),
        lambda ev, x, lam, J: cosine_quadrature_values(ev, x, lam, profile_degree=J),
    ),
    "funk": _Operator(
        "funk",
        lambda spec, lam: funk_spectrum(spec),
        lambda ev, x, lam, J: funk_geodesic_values(ev, x, profile_degree=J),
    ),
    "logcos": _Operator(
        "log-cosine",
        lambda spec, lam: log_cosine_spectrum(spec),
        lambda ev, x, lam, J: log_cosine_quadrature_values(ev, x, profile_degree=J),
        mean_zero=True,
    ),
    "sine": _Operator(
        "sine",
        lambda spec, lam: sine_spectrum(spec, lam),
        lambda ev, x, lam, J: sine_quadrature_values(ev, x, lam, profile_degree=J),
    ),
    "logsine": _Operator(
        "log-sine",
        lambda spec, lam: log_sine_spectrum(spec),
        lambda ev, x, lam, J: log_sine_quadrature_values(ev, x, profile_degree=J),
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
        path = "quadrature"
    meta = {"operator": op.name, "path": path, "lam": lam}
    meta = {k: v for k, v in meta.items() if v is not None}
    spec, grid = as_spectrum(f, band_limit, pole)
    if path == "spectral":
        out = op.spectral(spec, lam).to_grid(grid)
        return out.with_values(out.values, **meta)
    values = op.quadrature(spec, grid.nodes, lam, spec.max_degree)
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
