"""Zonal harmonics, kernel multipliers, and harmonic analysis on S^{n-1}.

Every rotation-invariant kernel operator acts diagonally on spherical
harmonics; this module computes those diagonal eigenvalues two independent
ways:

* ``funk_hecke_multiplier_quadrature`` integrates the kernel against a zonal
  profile with Gauss-Jacobi rules (singular powers absorbed into the weight,
  split at t = 0).  This is the oracle path: it never touches gamma-function
  closed forms.
* ``cosine_multiplier`` and friends evaluate gamma-ratio closed forms with
  analytic continuation in the parameter.  They are hypotheses until the
  quadrature oracle confirms them; the test suite gates everything spectral
  on that agreement.

The module also provides the band-limited representation
(:class:`HarmonicSpectrum`) used as the cross-validation oracle everywhere:
full (j, m) tables for n = 3 (polar about e_1), zonal tables about a stored
pole for n > 3.  Grid analysis and synthesis run one route for every grid:
ring by ring, over the grid's ``ring_size`` nodes per ring, with one FFT per
ring for full tables and one value per ring for zonal tables about +-e_1;
scattered nodes, and any other pole, are rings of one node.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import loggamma, roots_jacobi

from .errors import (
    DivergenceError,
    DomainError,
    ExcludedComponentError,
    InvalidArgumentError,
    PoleError,
    ResolutionError,
)
from .grids import GridFunction, QuadratureGrid, as_direction

__all__ = [
    "zonal_eval",
    "zonal_norm_sq",
    "pushforward_constant",
    "funk_hecke_multiplier_quadrature",
    "cosine_multiplier",
    "funk_multiplier",
    "sine_multiplier",
    "log_cosine_multiplier",
    "delta_op_eigenvalue",
    "HarmonicSpectrum",
    "MultiplierTable",
    "multiplier_table",
    "analyze",
    "random_even_spectrum",
    "zonal_profile_rule",
    "zonal_analysis_matrix",
]

POLE_TOL = 1e-12
# poles normalized from different vectors along one direction differ by an ulp
AXIS_TOL = 1e-14
# a pole whose squared norm is this close to 1 is a unit vector to rounding
# (as_direction leaves it within 3 ulp) and is kept bitwise
POLE_UNIT_TOL = 1e-15
UNIT_TOL = 1e-9  # shell points, x/|x| and grid nodes are unit vectors only to rounding


# ---------------------------------------------------------------------------
# zonal profiles


# Points per block of :func:`_zonal_blocks`.  One block's rows, (J+1) x 8192
# doubles (1.1 MB at J = 16), stay in cache while the next degree is formed
# and while the caller contracts them; whole-grid rows would stream one
# array per degree through memory.  8192 was the fastest of 1024..32768 for
# zonal analysis and synthesis at J = 16 on 167 042 nodes (n = 5), on a
# 2-core Xeon with one BLAS thread.
ZONAL_BLOCK = 8192


def _zonal_blocks(n: int, t, max_degree: int):
    """Yield (lo, hi, rows) with rows[j] = Z_j(t[lo:hi]) for j = 0..max_degree.

    Z_j is the degree-j zonal profile of :func:`zonal_eval`.  ``t`` is taken
    flat.  The domain is checked (a NaN fails it) and t clipped once; each
    block of at most ``ZONAL_BLOCK`` points runs the Gegenbauer recurrence in
    one reused (J+1, block) buffer, so ``rows`` is overwritten by the next
    block and must be consumed before the generator advances.  Each row is
    2(j+a-1) t times the row before, minus (j-1) times the one before that,
    divided by j+2a-1 (a = (n-2)/2), so every value is bitwise the same for
    any block size.  Empty input yields no block.
    """
    if max_degree < 0 or n < 3:
        raise InvalidArgumentError("need j >= 0 and n >= 3")
    arr = np.asarray(t, dtype=float).ravel()
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):
        raise DomainError("zonal profile argument must lie in [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    alpha = (n - 2) / 2.0
    size = min(len(arr), ZONAL_BLOCK)
    buf, tmp = np.empty((max_degree + 1, size)), np.empty(size)
    for lo in range(0, len(arr), ZONAL_BLOCK):
        hi = min(lo + ZONAL_BLOCK, len(arr))
        rows, x, scratch = buf[:, : hi - lo], arr[lo:hi], tmp[: hi - lo]
        rows[0] = 1.0
        if max_degree:
            rows[1] = x
        for j in range(2, max_degree + 1):
            np.multiply(2.0 * (j + alpha - 1.0), x, out=rows[j])
            rows[j] *= rows[j - 1]
            np.multiply(j - 1.0, rows[j - 2], out=scratch)
            rows[j] -= scratch
            rows[j] /= j + 2.0 * alpha - 1.0
        yield lo, hi, rows


def zonal_eval(j: int, n: int, t):
    """Degree-j zonal profile on [-1, 1], normalized to 1 at t = 1.

    Three-term recurrence for the Gegenbauer family with index (n-2)/2
    (Legendre polynomials when n = 3), run from degree 0 up to j by
    :func:`_zonal_blocks`; code that needs every degree up to j draws the
    rows from that one pass instead of calling this once per degree.
    """
    out = np.empty(np.shape(t))
    flat = out.reshape(-1)
    for lo, hi, rows in _zonal_blocks(n, t, j):
        flat[lo:hi] = rows[j]
    return out if np.ndim(t) else float(out)


def pushforward_constant(n: int) -> float:
    """Density constant of u.v under the uniform direction: measure
    A_n (1-t^2)^((n-3)/2) dt on [-1, 1] with total mass 1."""
    return math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))


@lru_cache(maxsize=None)
def _jacobi_rule(num_nodes: int, alpha: float, beta: float):
    x, w = roots_jacobi(num_nodes, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _split_jacobi_rule(num_nodes: int, alpha: float, power: float):
    """Rule (t, w) on (0, 1) with sum w g(t) ~ int_0^1 g(t) t^power (1-t^2)^alpha dt.

    The Gauss-Jacobi rule for (1-x)^alpha (1+x)^power mapped to t = (1+x)/2,
    with the residual ((3+x)/2)^alpha 2^-(power+alpha+1) of the substitution
    multiplied into the weights.  Only the quadrature oracle for the
    multipliers, :func:`funk_hecke_multiplier_quadrature`, uses it, on each
    half of a kernel split at t = 0; the transforms integrate their kernels
    by Chebyshev moments instead, so the oracle stays independent of them.
    """
    x, w = _jacobi_rule(num_nodes, alpha, power)
    t = 0.5 * (1.0 + x)
    wts = w * ((0.5 * (3.0 + x)) ** alpha * 0.5 ** (power + alpha + 1.0))
    t.setflags(write=False)
    wts.setflags(write=False)
    return t, wts


@lru_cache(maxsize=None)
def zonal_norm_sq(j: int, n: int) -> float:
    """Squared L2 norm of the degree-j zonal profile against the pushforward measure."""
    x, w = _jacobi_rule(max(j + 1, 2), (n - 3) / 2.0, (n - 3) / 2.0)
    vals = zonal_eval(j, n, x)
    return float(pushforward_constant(n) * np.dot(w, vals * vals))


def _zonal_norms(max_degree: int, n: int) -> np.ndarray:
    """zonal_norm_sq(j, n) for j = 0..max_degree."""
    return np.array([zonal_norm_sq(j, n) for j in range(max_degree + 1)])


def zonal_profile_rule(n: int, num_nodes: int):
    """Nodes t_q and probability weights for integrating profiles against the
    pushforward measure; exact for polynomial degree <= 2*num_nodes - 1."""
    x, w = _jacobi_rule(num_nodes, (n - 3) / 2.0, (n - 3) / 2.0)
    return x, pushforward_constant(n) * w


def zonal_analysis_matrix(t: np.ndarray, w_prob: np.ndarray, max_degree: int, n: int) -> np.ndarray:
    """Matrix M with (M @ profile_values)[j] = zonal coefficient of degree j."""
    w_prob = np.asarray(w_prob)
    M = np.empty((max_degree + 1, len(t)))
    norms = _zonal_norms(max_degree, n)[:, None]
    for lo, hi, rows in _zonal_blocks(n, t, max_degree):
        M[:, lo:hi] = w_prob[lo:hi] * rows / norms
    return M


# ---------------------------------------------------------------------------
# multipliers by quadrature (the oracle path)


def funk_hecke_multiplier_quadrature(
    kernel: Callable,
    j: int,
    n: int,
    *,
    power: float = 0.0,
    edge_power: float = 0.0,
    num_nodes: int = 48,
) -> complex:
    """Diagonal eigenvalue of the kernel operator f -> int f(v) k(u.v) d_*v.

    Computes A_n * int_{-1}^{1} kernel(t) Z_j(t) (1-t^2)^((n-3)/2) dt by
    Gauss-Jacobi quadrature split at t = 0.  ``power`` declares a |t|^power
    factor of the kernel and ``edge_power`` a (1-t^2)^edge_power factor; both
    are absorbed into the quadrature weight so that algebraic singularities
    cost no accuracy.  The kernel callable always receives the signed t and
    must include those factors itself.

    Raises DivergenceError when the declared exponents make the integral
    non-integrable, or when refinement fails to settle.
    """
    if j < 0 or n < 3:
        raise InvalidArgumentError("need j >= 0 and n >= 3")
    alpha = (n - 3) / 2.0 + edge_power
    if power <= -1.0 or alpha <= -1.0:
        raise DivergenceError(
            f"kernel with |t|^{power} (1-t^2)^{edge_power} factor is not integrable on S^{n - 1}"
        )

    def one_pass(num: int) -> complex:
        t, w = _split_jacobi_rule(num, alpha, power)
        # t^power (1-t^2)^alpha is absorbed into the rule; divide the declared
        # factors back out of the full kernel and keep the smooth remainder.
        desing = t ** (-power) * (1.0 - t * t) ** (-edge_power)
        plus = np.asarray(kernel(t), dtype=complex) * desing * zonal_eval(j, n, t)
        minus = np.asarray(kernel(-t), dtype=complex) * desing * zonal_eval(j, n, -t)
        return complex(pushforward_constant(n) * np.dot(w, plus + minus))

    coarse = one_pass(num_nodes)
    fine = one_pass(2 * num_nodes)
    d1 = abs(fine - coarse)
    if d1 > 1e-9 * max(1.0, abs(fine)):
        finest = one_pass(4 * num_nodes)
        if abs(finest - fine) > d1:
            raise DivergenceError("quadrature diverges under refinement")
        return finest
    return fine


# ---------------------------------------------------------------------------
# multipliers in closed form (gated by the quadrature oracle)


def _gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) elementwise as exp(loggamma(a) - loggamma(b)), which
    stays finite at high degree where each factor alone overflows.

    Exactly 0 at the poles of Gamma(b) and exactly real where both arguments
    are real; DomainError when a ratio is out of the double-precision range
    (or a is a pole of Gamma, which callers rule out first).
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    zero = (b.imag == 0.0) & (b.real <= 0.0) & (b.real == np.round(b.real))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.exp(loggamma(a) - loggamma(b))
    bad = np.flatnonzero(~zero & ~np.isfinite(out))
    if len(bad):
        raise DomainError(f"Gamma({a.flat[bad[0]]})/Gamma({b.flat[bad[0]]}) is out of range")
    real = (a.imag == 0.0) & (b.imag == 0.0)
    return np.where(zero, 0j, np.where(real, out.real + 0j, out))


def _even_degrees(j, n: int) -> np.ndarray:
    """Degree or degrees j as an array; InvalidArgumentError when n < 3, or
    naming the first degree that is odd or negative."""
    if n < 3:
        raise InvalidArgumentError(f"need n >= 3, got {n}")
    j = np.asarray(j)
    bad = np.flatnonzero((j < 0) | (j % 2 != 0))
    if len(bad):
        raise InvalidArgumentError(f"degree must be even and nonnegative, got {j.flat[bad[0]]}")
    return j


def cosine_multiplier(j, n: int, lam: complex):
    """Eigenvalue of the normalized |u.v|^lam kernel operator on degree j, an
    even degree or an array of them (a scalar for a scalar degree).

    Gamma-ratio form, meromorphic in lam with poles at lam in
    {j, j+2, j+4, ...}; arguments within 1e-12 of a pole raise PoleError.
    """
    j = _even_degrees(j, n)
    lam = complex(lam)
    num = (j - lam) / 2.0
    k = np.round(num.real)
    at_pole = np.flatnonzero((k <= 0) & (np.abs(num - k) <= 0.5 * POLE_TOL))
    if len(at_pole):
        jp, pole = j.flat[at_pole[0]], int(j.flat[at_pole[0]] - 2 * k.flat[at_pole[0]])
        raise PoleError(f"degree-{jp} cosine multiplier has a pole at lambda = {pole}", pole=pole)
    return ((-1.0) ** (j // 2) * _gamma_ratio(num, (j + lam + n) / 2.0))[()]


def funk_multiplier(j, n: int):
    """Eigenvalue of the great-subsphere average on an even degree j or an
    array of them (value of the zonal profile at 0; equals
    cosine_multiplier(j, n, -1) up to the constant relating the two transforms)."""
    j = _even_degrees(j, n)
    ratio = _gamma_ratio((j + 1) / 2.0, (j + n - 1) / 2.0).real
    return ((-1.0) ** (j // 2) * ratio * math.gamma((n - 1) / 2.0) / math.sqrt(math.pi))[()]


def sine_multiplier(j, n: int, lam: complex):
    """Eigenvalue of the normalized (1-(u.v)^2)^(lam/2) kernel operator on an
    even degree j or an array of them: the product of the lam-cosine and the
    (-1)-cosine multipliers."""
    return cosine_multiplier(j, n, lam) * cosine_multiplier(j, n, -1.0)


def log_cosine_multiplier(j, n: int):
    """Eigenvalue of the log(1/|u.v|) kernel operator on degree j, an even
    degree >= 2 or an array of them.

    This is the removable-singularity value of the lam-cosine multiplier at
    lam = 0; degree 0 is excluded (the operator is used on mean-zero input).
    """
    if np.any(np.asarray(j) == 0):
        raise ExcludedComponentError("degree 0 is excluded from the logarithmic transform")
    j = _even_degrees(j, n)
    return ((-1.0) ** (j // 2) * _gamma_ratio(j / 2.0, (j + n) / 2.0).real)[()]


def delta_op_eigenvalue(j, n: int, lam: complex, ell: int):
    """Exact eigenvalue of the weighted spherical Laplacian of order ell on
    degree j, a degree or an array of them.

    (-1/4)^ell * prod_{m=1..ell} [(lam+2m)(lam+2m+n-2) - j(j+n-2)]; entire in
    lam, equal to 1 when ell = 0.
    """
    if ell < 0:
        raise InvalidArgumentError(f"need ell >= 0, got {ell}")
    j = np.asarray(j)
    if np.any(j < 0) or n < 3:
        raise InvalidArgumentError("need j >= 0 and n >= 3")
    lam = complex(lam)
    jj = (j * (j + n - 2)).astype(float)
    # multiplied in real arithmetic: numpy's vector complex multiply fuses its
    # products, so its last bit would depend on how many degrees are passed
    re, im = np.ones(j.shape), np.zeros(j.shape)
    for m in range(1, ell + 1):
        shift = (lam + 2.0 * m) * (lam + 2.0 * m + n - 2.0)
        fr, fi = shift.real - jj, shift.imag
        re, im = re * fr - im * fi, re * fi + im * fr
    out = np.empty(j.shape, dtype=complex)
    out.real, out.imag = re, im
    return (out * (-0.25) ** ell)[()]


# ---------------------------------------------------------------------------
# band-limited representation


def _legendre_rows(x: np.ndarray, max_degree: int):
    """Yield (m, P) for m = 0..J, where P[j - m] = Pbar_jm(x) for j = m..J.

    Pbar_jm = sqrt((2j+1) (j-m)!/(j+m)!) P_j^m with the Condon-Shortley phase,
    so that each Pbar_jm has unit norm under dx/2 on [-1, 1].  Seeded by
    Pbar_00 = 1 and Pbar_mm = -sqrt((2m+1)/(2m)) sin(theta) Pbar_{m-1,m-1}, then
    Pbar_jm = a_jm (x Pbar_{j-1,m} - b_jm Pbar_{j-2,m}) with
    a_jm = sqrt((4j^2-1)/(j^2-m^2)) and b_jm = sqrt(((j-1)^2-m^2)/(4(j-1)^2-1)).
    Every factor is O(1), so nothing overflows at high degree.
    """
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    sin_t = np.sqrt((1.0 - x) * (1.0 + x))
    pmm = np.ones_like(x)
    for m in range(max_degree + 1):
        if m:
            pmm = -math.sqrt((2 * m + 1) / (2 * m)) * sin_t * pmm
        rows = np.empty((max_degree - m + 1,) + x.shape)
        rows[0] = pmm
        for j in range(m + 1, max_degree + 1):
            a = math.sqrt((4 * j * j - 1) / (j * j - m * m))
            np.multiply(x, rows[j - m - 1], out=rows[j - m])
            if j > m + 1:
                b = math.sqrt(((j - 1) ** 2 - m * m) / (4 * (j - 1) ** 2 - 1))
                rows[j - m] -= b * rows[j - m - 2]
            rows[j - m] *= a
        yield m, rows


def _polar_azimuth(points: np.ndarray):
    """cos(theta) and e^{i phi} of points on S^2 about the pole e_1:
    cos(theta) = x_1 and phi = atan2(x_3, x_2)."""
    pts = np.asarray(points, dtype=float)
    return pts[:, 0], np.exp(1j * np.arctan2(pts[:, 2], pts[:, 1]))


def harmonic_basis(points: np.ndarray, max_degree: int) -> np.ndarray:
    """Orthonormal (under the probability measure) complex harmonics on S^2.

    Returns an (N, (J+1)^2) matrix; column j*(j+1)+m holds degree j, order m:
    Y_jm = Pbar_jm(cos theta) e^{i m phi} for m >= 0, with Pbar_jm the
    orthonormal associated Legendre function (Condon-Shortley phase) from the
    three-term recurrence of :func:`_legendre_rows`, and
    Y_{j,-m} = (-1)^m conj(Y_jm).  Each Y_jm has unit mean square over S^2.
    The pole is e_1: cos(theta) = x_1 and phi = atan2(x_3, x_2), so the rings
    of ``build_grid(3, .)`` are circles of constant theta, and at a point with
    phi = 0 (x_3 = 0, x_2 > 0) every entry is real.
    """
    ct, e_phi = _polar_azimuth(points)
    out = np.empty((ct.shape[0], (max_degree + 1) ** 2), dtype=complex)
    phase = np.ones_like(e_phi)
    for m, rows in _legendre_rows(ct, max_degree):
        if m:
            phase = phase * e_phi
        j = np.arange(m, max_degree + 1)
        cols = rows.T * phase[:, None]
        out[:, j * (j + 1) + m] = cols
        if m:
            out[:, j * (j + 1) - m] = (-1.0) ** m * np.conj(cols)
    return out


def _synthesize_full(first: np.ndarray, size: int, spectrum: "HarmonicSpectrum") -> np.ndarray:
    """sum_jm c_jm Y_jm at every node of rings of ``size`` nodes, ring by ring.

    ``first`` (R, 3) holds the first node of each ring; node k of a ring sits
    2 pi k / size further in azimuth about e_1 than its first node, so order
    m takes the factor e^{2 pi i m k / size} there.  For each m >= 0 the
    Legendre rows at the first nodes are contracted with the coefficients of
    orders +m and -m, so no basis matrix is formed, and the two sums, times
    the first node's e^{+-i m phi}, are added into FFT bins +-m mod ``size``
    of their ring (orders past the Nyquist bin fold onto the bins they alias
    to).  One inverse FFT per ring then puts the bins on the nodes.  At size
    1 every order lands in bin 0 and no FFT runs: the values at scattered
    points.  For size > 1 a real spectrum's bins are Hermitian, so its
    samples come from a real inverse FFT and are exactly real.
    """
    max_degree, c = spectrum.max_degree, spectrum.coeffs
    # weights[m, :, j]: the real and imaginary parts of c_jm and of
    # (-1)^m c_{j,-m}, the weights of Pbar_jm in the sums of orders +m and -m
    j = spectrum.degrees
    order = np.arange(len(j)) - j * (j + 1)
    plus, minus = order >= 0, order < 0
    weights = np.zeros((max_degree + 1, 4, max_degree + 1))
    weights[order[plus], :2, j[plus]] = c[plus].view(float).reshape(-1, 2)
    signed = np.where(order % 2, -c, c)[minus]
    weights[-order[minus], 2:, j[minus]] = signed.view(float).reshape(-1, 2)
    ct, e_phi = _polar_azimuth(first)
    bins = np.zeros((len(first), size), dtype=complex)
    phase = np.ones_like(e_phi)
    for m, rows in _legendre_rows(ct, max_degree):
        if not m:
            sums = weights[0, :2] @ rows
            bins[:, 0] += sums[0] + 1j * sums[1]
            continue
        phase = phase * e_phi
        # real rows, so contract real and imaginary parts in one real product
        sums = weights[m, :, m:] @ rows
        up, down = phase * (sums[0] + 1j * sums[1]), np.conj(phase) * (sums[2] + 1j * sums[3])
        if m % size == -m % size:
            # orders +-m share one bin (always at size 1): add them as one term
            bins[:, m % size] += up + down
        else:
            bins[:, m % size] += up
            bins[:, -m % size] += down
    if size > 1:
        if spectrum.is_real:
            bins = np.fft.irfft(bins[:, : size // 2 + 1], size, axis=1, norm="forward")
        else:
            bins = np.fft.ifft(bins, axis=1, norm="forward")
    return bins.ravel()


def _ring_size_about(grid: QuadratureGrid, pole) -> int:
    """Nodes per ring of ``grid`` seen by a table about ``pole``: the grid's
    ``ring_size`` for a full table (pole None) and for a pole within
    ``AXIS_TOL`` of +-e_1, whose profiles are constant on each ring; 1, each
    node its own ring, for any other pole."""
    if pole is None or np.max(np.abs(pole[1:])) <= AXIS_TOL:
        return grid.ring_size
    return 1


def _unit_pole(pole) -> np.ndarray:
    """A copy of ``pole`` as a unit vector: kept bitwise when its squared norm
    is within ``POLE_UNIT_TOL`` of 1, so normalizing a spectrum's pole again
    cannot move it by an ulp; normalized by ``as_direction`` otherwise."""
    pole = np.array(pole, dtype=float).reshape(-1)
    return pole if abs(pole @ pole - 1.0) <= POLE_UNIT_TOL else as_direction(pole)


@lru_cache(maxsize=None)
def _degree_index(max_degree: int, full: bool) -> np.ndarray:
    """The read-only ``HarmonicSpectrum.degrees`` of each storage kind."""
    j = np.arange(max_degree + 1)
    out = np.repeat(j, 2 * j + 1) if full else j
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Coefficients of a band-limited function up to degree ``max_degree``.

    Two storage kinds:

    * full (n = 3 only): ``coeffs`` is a flat complex array of length
      (J+1)^2 against the orthonormal basis of :func:`harmonic_basis`, whose
      pole is e_1 (the axis of ``build_grid(3, .)``'s rings);
    * zonal (any n): ``coeffs[j]`` multiplies the degree-j zonal profile
      about the stored ``pole``.  A pole given as a unit vector to rounding
      (squared norm within ``POLE_UNIT_TOL`` of 1, as every spectrum's is)
      is kept bitwise, so a derived spectrum keeps its source's pole; any
      other is normalized.

    ``degrees`` gives the degree of each coefficient, so a degree-wise
    operator is one product ``coeffs * table[degrees]``.
    """

    n: int
    max_degree: int
    coeffs: np.ndarray
    pole: np.ndarray | None = None

    def __post_init__(self):
        if self.max_degree < 0:
            raise InvalidArgumentError(f"max_degree must be >= 0, got {self.max_degree}")
        coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if self.pole is None:
            if self.n != 3:
                raise InvalidArgumentError("full (j, m) tables are only kept for n = 3")
        else:
            pole = _unit_pole(self.pole)
            if len(pole) != self.n:
                raise InvalidArgumentError("pole dimension mismatch")
            pole.setflags(write=False)
            object.__setattr__(self, "pole", pole)
        if coeffs.shape != self.degrees.shape:
            raise InvalidArgumentError(f"{self.kind} coefficient table has wrong length")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def kind(self) -> str:
        return "full" if self.pole is None else "zonal"

    # -- degree access -----------------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """Degree of each entry of ``coeffs`` (read-only): ``arange(J+1)`` for
        zonal tables, each j repeated 2j+1 times (orders -j..j) for full ones."""
        return _degree_index(int(self.max_degree), self.pole is None)

    def degree_slice(self, j: int) -> np.ndarray:
        return self.coeffs[self.degrees == j]

    def _degree_energy(self) -> np.ndarray:
        """Squared L2(probability measure) norm of each degree 0..J's component."""
        c = self.coeffs
        energy = np.bincount(
            self.degrees, weights=c.real * c.real + c.imag * c.imag, minlength=self.max_degree + 1
        )
        if self.pole is not None:
            energy *= _zonal_norms(self.max_degree, self.n)
        return energy

    def degree_l2(self, j):
        """L2(probability measure) norm of the degree-j component; j is a
        degree or an integer array of them."""
        return np.sqrt(self._degree_energy()[j])

    @property
    def is_real(self) -> bool:
        """Whether the function is real-valued, decided exactly from the
        coefficients: all real in a zonal table (the profiles are real), or
        c_{j,-m} = (-1)^m conj(c_jm) throughout a full table."""
        c = self.coeffs
        if self.pole is not None:
            return not np.any(c.imag)
        j = self.degrees
        m = np.arange(len(c)) - j * (j + 1)
        return bool(np.array_equal(c, np.where(m % 2, -1.0, 1.0) * np.conj(c[j * (j + 1) - m])))

    @property
    def mean(self) -> complex:
        return complex(self.coeffs[0])

    def norm(self) -> float:
        return math.sqrt(self._degree_energy().sum())

    def odd_part_norm(self) -> float:
        return math.sqrt(self._degree_energy()[1::2].sum())

    # -- algebra -------------------------------------------------------------
    def _compatible(self, other: "HarmonicSpectrum") -> None:
        if (
            not isinstance(other, HarmonicSpectrum)
            or other.n != self.n
            or other.max_degree != self.max_degree
            or other.kind != self.kind
            or (self.pole is not None and np.max(np.abs(self.pole - other.pole)) > AXIS_TOL)
        ):
            raise InvalidArgumentError("spectra are not compatible")

    def __add__(self, other):
        self._compatible(other)
        return HarmonicSpectrum(self.n, self.max_degree, self.coeffs + other.coeffs, self.pole)

    def __sub__(self, other):
        self._compatible(other)
        return HarmonicSpectrum(self.n, self.max_degree, self.coeffs - other.coeffs, self.pole)

    def __mul__(self, scalar):
        return HarmonicSpectrum(self.n, self.max_degree, self.coeffs * complex(scalar), self.pole)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def scale_degrees(self, table):
        """New spectrum with each degree-j coefficient multiplied by table[j];
        ``table`` has an entry for every degree 0..J (for instance a multiplier
        evaluated on an array of degrees), and a zero annihilates that degree."""
        scaled = self.coeffs * np.asarray(table)[self.degrees]
        return HarmonicSpectrum(self.n, self.max_degree, scaled, self.pole)

    def with_zero_mean(self):
        out = np.array(self.coeffs)
        out[0] = 0.0
        return HarmonicSpectrum(self.n, self.max_degree, out, self.pole)

    def even_projected(self):
        return self.scale_degrees(np.arange(self.max_degree + 1) % 2 == 0)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Synthesize sample values at unit points of shape (N, n).

        Full tables run :func:`_synthesize_full` with each point its own
        ring: sum_m e^{i m phi} sum_j c_jm Pbar_jm(cos theta) order by order
        from the Legendre recurrence, taking the negative orders from the
        same rows through Y_{j,-m} = (-1)^m conj(Y_jm); the result equals
        ``harmonic_basis(points, J) @ coeffs`` without forming that matrix.
        Zonal tables sum coeffs[j] times the degree-j profile of u.pole, block
        by block of :func:`_zonal_blocks`, with the real and imaginary parts
        accumulated point by point in degree order, so the values do not
        depend on the block size.  Points of another shape raise
        InvalidArgumentError; a point whose squared norm is not within
        ``UNIT_TOL`` of 1 (a non-finite one included) raises DomainError.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise InvalidArgumentError(
                f"points must have shape (N, {self.n}), got {pts.shape}"
            )
        if not np.all(np.abs(np.square(pts) @ np.ones(self.n) - 1.0) <= UNIT_TOL):
            raise DomainError("points must be unit vectors")
        if self.pole is None:
            return _synthesize_full(pts, 1, self)
        t = pts @ self.pole
        out = np.empty(pts.shape[0], dtype=complex)
        # a zero part adds +-0 to a sum that is never -0, so skipping it
        # changes no bit; a real spectrum sums no imaginary part at all
        parts = [[(j, c) for j, c in enumerate(part) if c != 0.0]
                 for part in (self.coeffs.real, self.coeffs.imag)]
        for lo, hi, rows in _zonal_blocks(self.n, t, self.max_degree):
            for terms, dest in zip(parts, (out.real, out.imag)):
                acc = np.zeros(hi - lo)
                for j, c in terms:
                    acc += c * rows[j]
                dest[lo:hi] = acc
        return out

    def to_grid(self, grid: QuadratureGrid) -> GridFunction:
        """Sample the spectrum at the grid's nodes.

        The grid is taken ring by ring, over rings of
        ``_ring_size_about(grid, pole)`` nodes (see :func:`analyze`).  A full
        table runs :func:`_synthesize_full` on the rings: per-order sums at
        the first node of each ring, folded mod the ring size and inverted
        by one FFT per ring, so a real spectrum gives exactly real samples
        on rings of more than one node.  A zonal table is constant on each
        ring, so it is evaluated at the first node of each ring and each
        value repeated over its ring.
        """
        if grid.n != self.n:
            raise InvalidArgumentError("grid dimension mismatch")
        size = _ring_size_about(grid, self.pole)
        first = grid.nodes[::size]
        if self.pole is None:
            values = _synthesize_full(first, size, self)
        else:
            values = np.repeat(self.evaluate(first), size)
        return GridFunction(grid, values, {"band_limit": self.max_degree})

    @staticmethod
    def zeros(n: int, max_degree: int, pole=None) -> "HarmonicSpectrum":
        size = len(_degree_index(int(max_degree), pole is None))
        return HarmonicSpectrum(n, max_degree, np.zeros(size, dtype=complex), pole)


def analyze(f: GridFunction, max_degree: int, pole=None) -> HarmonicSpectrum:
    """Project grid samples onto harmonics up to ``max_degree`` by quadrature.

    Needs grid exactness degree >= 2*max_degree.  For n = 3 without a pole
    the result is a full table; for n > 3 the projection is restricted to
    zonal functions and ``pole``, a vector of n entries, must be supplied.
    Both run ring by ring over rings of ``_ring_size_about(grid, pole)``
    nodes: the grid's ``ring_size`` for a full table or a pole within
    ``AXIS_TOL`` of +-e_1, and 1 (each node its own ring) otherwise.  A
    full table takes one FFT of the weighted samples per ring, and each
    column contracts its order's bin m mod ``size`` with the conjugate of
    ``harmonic_basis`` at the first node of each ring.  A zonal table sums
    the weighted samples per ring (pairwise summation), since every profile
    is constant on a ring, and each coefficient is the weighted inner
    product with its profile at the first nodes over the profile's squared
    norm; the profiles come block by block from :func:`_zonal_blocks`, and
    each block's (J+1, block) rows are contracted with the real and
    imaginary parts of the ring sums in one real matrix product.
    """
    grid = f.grid
    if pole is None:
        if grid.n != 3:
            raise InvalidArgumentError("n > 3 analysis is zonal; supply the pole direction")
    else:
        pole = _unit_pole(pole)
        if len(pole) != grid.n:
            raise InvalidArgumentError(f"pole must have {grid.n} entries, got {len(pole)}")
    if grid.exactness_degree < 2 * max_degree:
        raise ResolutionError(
            f"analysis to degree {max_degree} needs exactness >= {2 * max_degree}, "
            f"grid has {grid.exactness_degree}"
        )
    size = _ring_size_about(grid, pole)
    first = grid.nodes[::size]
    wf = grid.weights * f.values
    if pole is None:
        j = _degree_index(max_degree, True)
        bins = (np.arange(len(j)) - j * (j + 1)) % size
        spectra = np.fft.fft(wf.reshape(-1, size), axis=1)
        basis = harmonic_basis(first, max_degree).conj()
        return HarmonicSpectrum(3, max_degree, np.einsum("rc,rc->c", basis, spectra[:, bins]))
    wf = wf.reshape(-1, size).sum(axis=1)
    # (points, 2) real view: column 0 the real parts, column 1 the imaginary parts
    parts = wf.view(float).reshape(-1, 2)
    sums = np.zeros((max_degree + 1, 2))
    for lo, hi, rows in _zonal_blocks(grid.n, first @ pole, max_degree):
        sums += rows @ parts[lo:hi]
    sums /= _zonal_norms(max_degree, grid.n)[:, None]
    return HarmonicSpectrum(grid.n, max_degree, sums[:, 0] + 1j * sums[:, 1], pole)


def as_spectrum(f, band_limit: int | None = None, pole=None):
    """(spectrum, grid) for a spectrum or grid samples.

    A spectrum comes back as it is, with grid None.  Grid samples are analyzed
    up to ``band_limit`` (default: the band limit recorded by synthesis in
    their metadata) and come back with their grid, so results can be
    synthesized onto it again.
    """
    if isinstance(f, HarmonicSpectrum):
        return f, None
    if not isinstance(f, GridFunction):
        raise InvalidArgumentError("expected a HarmonicSpectrum or GridFunction")
    if band_limit is None:
        if "band_limit" not in f.meta:
            raise InvalidArgumentError(
                "grid samples need a band limit; pass band_limit= or use samples "
                "produced by synthesis"
            )
        band_limit = f.meta["band_limit"]  # type: ignore[assignment]
    if not isinstance(band_limit, numbers.Integral):
        raise InvalidArgumentError(f"need an integer band limit, got {band_limit!r}")
    return analyze(f, int(band_limit), pole=pole), f.grid


def _rng(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an integer in [0, 2^128)."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**128:
        raise InvalidArgumentError(f"need an integer seed in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def random_even_spectrum(
    n: int,
    max_degree: int,
    seed: int,
    *,
    pole=None,
    zonal: bool | None = None,
) -> HarmonicSpectrum:
    """Random real-valued even band-limited function.

    Degree-j amplitudes scale like (1+j)^(-2).  For n = 3 the default is
    a full table with the conjugate symmetry that makes the function real;
    for n > 3 (or ``zonal=True``) a zonal table about ``pole`` (default e_1).
    """
    if max_degree < 0:
        raise InvalidArgumentError(f"max_degree must be >= 0, got {max_degree}")
    rng = _rng(seed)
    if zonal is None:
        zonal = n != 3
    if zonal:
        if pole is None:
            pole = np.eye(n)[0]
        coeffs = np.zeros(max_degree + 1, dtype=complex)
        for j in range(0, max_degree + 1, 2):
            coeffs[j] = rng.standard_normal() / (1.0 + j) ** 2.0
        return HarmonicSpectrum(n, max_degree, coeffs, pole)
    if n != 3:
        raise InvalidArgumentError("full random spectra only for n = 3")
    coeffs = np.zeros((max_degree + 1) ** 2, dtype=complex)
    for j in range(0, max_degree + 1, 2):
        base = j * (j + 1)
        scale = 1.0 / (1.0 + j) ** 2.0
        coeffs[base] = rng.standard_normal() * scale
        for m in range(1, j + 1):
            z = (rng.standard_normal() + 1j * rng.standard_normal()) * scale / math.sqrt(2.0)
            coeffs[base + m] = z
            coeffs[base - m] = (-1.0) ** m * np.conj(z)
    return HarmonicSpectrum(3, max_degree, coeffs)


# ---------------------------------------------------------------------------
# multiplier tables


# How multiplier_table builds one operator's table: multiplier(j, n, lam, ell)
# on the even degrees from ``first`` up, and whether the values read lambda and
# ell.  Keyed by the names ``funkinv multipliers --operator`` takes; the lambdas
# look each multiplier up in this module at call time.
_TableBuilder = namedtuple("_TableBuilder", "multiplier first reads_lam reads_ell")
_TABLE_BUILDERS = {
    "cosine": _TableBuilder(lambda j, n, lam, ell: cosine_multiplier(j, n, lam), 0, True, False),
    "sine": _TableBuilder(lambda j, n, lam, ell: sine_multiplier(j, n, lam), 0, True, False),
    "funk": _TableBuilder(lambda j, n, lam, ell: funk_multiplier(j, n), 0, False, False),
    "log-cosine": _TableBuilder(
        lambda j, n, lam, ell: log_cosine_multiplier(j, n), 2, False, False
    ),
    "delta-op": _TableBuilder(
        lambda j, n, lam, ell: delta_op_eigenvalue(j, n, lam, ell), 0, True, True
    ),
}


@dataclass(frozen=True)
class MultiplierTable:
    """Degree-indexed eigenvalues of a rotation-invariant operator."""

    operator: str
    n: int
    lam: complex | None
    ell: int | None
    degrees: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "degrees", tuple(int(j) for j in self.degrees))


def multiplier_table(
    operator: str,
    n: int,
    max_degree: int,
    lam: complex | None = None,
    ell: int | None = None,
) -> MultiplierTable:
    """Table of even-degree multipliers for one named operator, up to the
    integer band ``max_degree`` >= 0."""
    if operator not in _TABLE_BUILDERS:
        raise InvalidArgumentError(f"unknown operator {operator!r}")
    if not isinstance(max_degree, numbers.Integral) or max_degree < 0:
        raise InvalidArgumentError(f"need an integer max_degree >= 0, got {max_degree!r}")
    builder = _TABLE_BUILDERS[operator]
    degrees = np.arange(builder.first, max_degree + 1, 2)
    values = builder.multiplier(degrees, n, lam, ell if ell is not None else 0)
    return MultiplierTable(operator, n, lam, ell, tuple(degrees), values)
