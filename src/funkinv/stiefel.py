"""Transforms attached to orthonormal k-frames (codimension-k subspheres).

The forward transforms integrate over the sphere by the exact shell
quadrature of :mod:`funkinv.transforms`, whose sphere kernel quadratures are
their k = 1 case: the sphere splits into the shells
v = r * (u theta) + sqrt(1-r^2) * (B omega) with theta on S^{k-1} in the
frame's column span and omega on S^{n-k-1} in its null space.  A zonal
spectrum is averaged over each shell by one Gauss-Gegenbauer rule per
sphere in the height of theta and of omega along the pole's projections;
a callable or a full n = 3 table by the product of the two spheres' rules,
each the product rule of ``build_grid`` at resolution J//2 + 1.  The
shells are antipodally symmetric, so a spectrum is replaced by its even
part and evaluated at one node of each antipodal pair of the product, at
twice the weight, about half the points of the full product (J//4 + 1
heights per frame for the Funk transform of a zonal spectrum, at every n);
a callable, which cannot be projected, is evaluated at every node.  The
kept nodes are cached with the rules, so the batches of the Monte Carlo
loop do no index work.  The Funk transform is the r = 0 shell.  The
cosine transform is the frame kernel r^lam of ``_frame_kernel_values``:
with the radial density
r^{k-1} (1-r^2)^{(n-k-2)/2} it is a Jacobi weight in y = 2r^2-1, integrated
exactly against the shell averages by regularized Chebyshev moments, for
every lam off {0, 2, 4, ...} (at lam = -k the point mass at r = 0, Funk).
Every rule is sized from the band limit of the input.

The dual transforms integrate over frames and are computed by Monte Carlo
with Haar sampling (Gram-Schmidt orthonormalization of Gaussian matrices,
the QR factor with a positive R diagonal), all through one batched sampling
loop; estimates carry their standard error, and the counter-based generator
makes every run bit-reproducible from its seed.

Each identity tag states one degree-wise inverse of a lam-sine transform
S_s, written once in ``_sine_inverse``.  Four tags are one identity,
Delta_{1-n,(n-1+s)/2} S_s = I (n-1+s even, s != 0), with s = 1-n (4.9), -k
(thm4.1-i), 1-k (thm4.1-ii) or 1 (4.13); 4.8 inverts sine = cosine x Funk
at lam and 4.14 at lam = 1 (odd n).  Each is checked exactly, degree-wise,
and end to end with S_s f estimated by Monte Carlo along a meridian through
the pole, errors compared against 3 standard deviations.  4.9 has no Monte
Carlo path of its own: S_{1-n} is not sampled, and its end-to-end check is
the thm4.1 reconstruction that matches the parity of n-k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InsufficientSamplesError, InvalidArgumentError
from .grids import as_direction
from .inversion import InversionReport, _meridian_points
from .spectral import (
    HarmonicSpectrum,
    _rng,
    cosine_multiplier,
    delta_op_eigenvalue,
    funk_multiplier,
    random_even_spectrum,
    sine_multiplier,
    zonal_analysis_matrix,
)
from .transforms import (
    _frame_cosine_values,
    _frame_funk_values,
    check_off_even_poles,
    frame_scale,
    funk_scale,
    gamma_norm_k,
    null_space_basis,
    null_sphere_scale,
    sine_spectrum,
)

__all__ = [
    "StiefelFunction",
    "MCEstimate",
    "haar_frames",
    "null_space_basis",
    "funk_k_function",
    "cosine_k_function",
    "dual_funk_k",
    "dual_cosine_k",
    "sine_mc_via_dual_cosine",
    "sine_mc_via_dual_funk",
    "spectral_identity_error",
    "invert_funk_k",
    "invert_cosine1_k",
    "check_identity",
    "IDENTITY_TAGS",
]

MIN_SAMPLES = 100
MC_CHUNK = 20_000  # samples drawn and evaluated per batch


@dataclass(frozen=True)
class StiefelFunction:
    """Callable on frames with provenance metadata.

    ``fn`` must accept a stack of frames with shape (S, n, k) and return S
    values; this batch protocol is what makes the Monte Carlo duals cheap.
    """

    fn: Callable
    n: int
    k: int
    tag: str = "raw"

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(frames), dtype=complex)


@dataclass(frozen=True)
class MCEstimate:
    value: complex
    sigma: float
    samples: int

    def within(self, truth: complex) -> bool:
        """Whether truth lies within 3 sigma of the estimate."""
        return abs(self.value - truth) <= 3.0 * self.sigma


def _gram_schmidt(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalized columns of a stack of n x k matrices (S, n, k), and a
    flag per matrix whose rank is short (a residual column norm < 1e-13).

    Column j is orthogonalized against columns 0..j-1 twice (classical
    Gram-Schmidt with one reorthogonalization, which keeps orthogonality at
    rounding level), then normalized, for the whole stack at once.  This is
    the Q of g = QR with R's diagonal (the residual norms) positive.
    """
    cols = np.ascontiguousarray(g.transpose(2, 0, 1))  # (k, S, n)
    short = np.zeros(cols.shape[1], dtype=bool)
    for j, col in enumerate(cols):
        for _ in range(2 if j else 0):
            coef = np.einsum("isn,sn->is", cols[:j], col)
            col -= np.einsum("is,isn->sn", coef, cols[:j])
        norm = np.sqrt(np.einsum("sn,sn->s", col, col))
        tiny = norm < 1e-13
        short |= tiny
        col /= np.where(tiny, 1.0, norm)[:, None]
    return cols.transpose(1, 2, 0), short


def haar_frames(n: int, k: int, count: int, seed: int | None = None, rng=None) -> np.ndarray:
    """Stack of Haar-distributed frames, shape (count, n, k).

    The Q factor, with R's diagonal positive, of standard Gaussian n x k
    matrices, which is what makes the distribution exactly invariant
    (Mezzadri 2007), computed by Gram-Schmidt over the stack.  Rank-deficient
    draws (probability zero, but checked) are resampled.
    """
    try:
        n, k, count = operator.index(n), operator.index(k), operator.index(count)
    except TypeError:
        raise InvalidArgumentError("n, k and count must be integers") from None
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError("need 1 <= k <= n-1")
    if count < 0:
        raise InvalidArgumentError(f"need count >= 0, got {count}")
    if rng is None:
        rng = _rng(0 if seed is None else seed)
    frames, short = _gram_schmidt(rng.standard_normal((count, n, k)))
    redo = np.flatnonzero(short)
    while len(redo):
        frames[redo], short = _gram_schmidt(rng.standard_normal((len(redo), n, k)))
        redo = redo[short]
    return frames


# ---------------------------------------------------------------------------
# forward transforms (exact shell quadrature)


def funk_k_function(f, n: int, k: int, *, profile_degree: int) -> StiefelFunction:
    """Codimension-k Funk transform on stacks of frames u: the average of f
    over {v : u^T v = 0}, the unit sphere of u's null space, with its
    invariant probability measure, exact for f of band limit
    ``profile_degree``.  ``f`` is a HarmonicSpectrum (a zonal one takes the
    pole-adapted rule) or a callable on unit points (N, n)."""
    def fn(frames):
        return _frame_funk_values(f, frames, profile_degree)

    return StiefelFunction(fn, n, k, tag="funk_k")


def cosine_k_function(
    f, n: int, k: int, lam: complex, *, profile_degree: int
) -> StiefelFunction:
    """Codimension-k cosine transform on stacks of frames u: the normalized
    integral of f(v) |u^T v|^lam, |.| the Euclidean length of the k-vector
    u^T v, exact for f of band limit ``profile_degree``, for every lam off
    {0, 2, 4, ...}; at lam = -k, ``null_sphere_scale(n, k)`` times Funk.
    ``f`` is a HarmonicSpectrum (a zonal one takes the pole-adapted rule) or
    a callable on unit points (N, n)."""
    def fn(frames):
        return _frame_cosine_values(f, frames, lam, profile_degree)

    return StiefelFunction(fn, n, k, tag="cosine_k")


# ---------------------------------------------------------------------------
# dual transforms (Monte Carlo over Haar frames)


def _sample_mean(draw: Callable, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo mean of ``draw(count, rng)``, which returns ``count``
    sample values, over ``samples`` draws in batches of at most MC_CHUNK from
    one generator seeded with ``seed``."""
    if samples < MIN_SAMPLES:
        raise InsufficientSamplesError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    rng = _rng(seed)
    vals = np.empty(samples, dtype=complex)
    for lo in range(0, samples, MC_CHUNK):
        hi = min(lo + MC_CHUNK, samples)
        vals[lo:hi] = draw(hi - lo, rng)
    return MCEstimate(complex(vals.mean()), float(np.std(vals, ddof=1) / math.sqrt(samples)),
                      samples)


def _check_hyperplane_k(n: int, k: int) -> None:
    """The frames of a hyperplane v-perp have 1 <= k <= n-2 columns."""
    if not 1 <= k <= n - 2:
        raise InvalidArgumentError(f"frames of v-perp need 1 <= k <= n-2, got k = {k}, n = {n}")


def _frames_orthogonal_to(v: np.ndarray, k: int, count: int, rng) -> np.ndarray:
    """Haar frames of the hyperplane orthogonal to v, embedded in R^n."""
    n = len(v)
    basis = null_space_basis(v[:, None])  # (n, n-1)
    small = haar_frames(n - 1, k, count, rng=rng)
    # one (n, n-1) by (n-1, count*k) product, where a batched matmul would
    # run count tiny products
    return np.moveaxis(np.tensordot(basis, small, axes=(1, 1)), 0, 1)


def dual_funk_k(
    phi: StiefelFunction,
    v,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Average of phi over the frames orthogonal to v (Haar measure on frames
    of the hyperplane v-perp): Monte Carlo with reported standard error."""
    if not isinstance(phi, StiefelFunction):
        raise InvalidArgumentError("phi must be a StiefelFunction (carries n, k)")
    _check_hyperplane_k(phi.n, phi.k)
    v = as_direction(v)
    return _sample_mean(lambda count, rng: phi(_frames_orthogonal_to(v, phi.k, count, rng)),
                        samples, seed)


def dual_cosine_k(
    phi: StiefelFunction,
    v,
    lam: complex,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Normalized integral of phi(u) |u^T v|^lam over all Haar frames."""
    lam = complex(lam)
    if not isinstance(phi, StiefelFunction):
        raise InvalidArgumentError("phi must be a StiefelFunction (carries n, k)")
    if lam.real <= -phi.k:
        raise DomainError(f"direct dual path needs Re lambda > {-phi.k}, got {lam}")
    check_off_even_poles(lam)
    v = as_direction(v)

    def draw(count, rng):
        frames = haar_frames(phi.n, phi.k, count, rng=rng)
        return phi(frames) * np.linalg.norm(np.einsum("n,snk->sk", v, frames), axis=1) ** lam

    return _scale_mc(_sample_mean(draw, samples, seed), gamma_norm_k(lam, phi.n, phi.k))


def _scale_mc(est: MCEstimate, scale: complex) -> MCEstimate:
    return MCEstimate(est.value * scale, est.sigma * abs(scale), est.samples)


# ---------------------------------------------------------------------------
# composite Monte-Carlo pipelines for the factorization checks


def sine_mc_via_dual_cosine(
    f: HarmonicSpectrum,
    k: int,
    v,
    lam: complex,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Sine-transform value at v through the pipeline dual-cosine after
    codimension-k Funk: Monte Carlo over all Haar frames, the inner subsphere
    average of the spectrum done exactly per sampled frame (for zonal f, at
    J//4 + 1 heights along the pole, one of each antipodal pair of the
    J//2 + 1 node rule, with J = f.max_degree).

    At the end point lam = -k the dual cosine transform is the dual Funk
    transform (over the frames of v-perp) times null_sphere_scale(n, k)."""
    psi = funk_k_function(f, f.n, k, profile_degree=f.max_degree)
    if complex(lam) == -k:
        est = dual_funk_k(psi, v, samples, seed)
        return _scale_mc(est, frame_scale(f.n, k) * null_sphere_scale(f.n, k))
    est = dual_cosine_k(psi, v, lam, samples, seed)
    return _scale_mc(est, frame_scale(f.n, k))


def sine_mc_via_dual_funk(
    f: HarmonicSpectrum,
    k: int,
    v,
    lam: complex,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Sine-transform value at v through the pipeline dual-Funk after the
    codimension-k cosine transform, with both integrals sampled jointly:
    frames Haar in v-perp, sphere points uniform."""
    lam = complex(lam)
    n = f.n
    _check_hyperplane_k(n, k)
    if lam.real <= -k:
        raise DomainError(f"joint sampling needs Re lambda > {-k}, got {lam}")
    check_off_even_poles(lam)
    v = as_direction(v)

    def draw(count, rng):
        frames = _frames_orthogonal_to(v, k, count, rng)
        g = rng.standard_normal((count, n))
        w_pts = g / np.linalg.norm(g, axis=1, keepdims=True)  # uniform on the sphere
        dots = np.linalg.norm(np.einsum("sn,snk->sk", w_pts, frames), axis=1)
        return np.asarray(f.evaluate(w_pts), dtype=complex) * dots**lam

    scale = frame_scale(n, k) * gamma_norm_k(lam, n, k)
    return _scale_mc(_sample_mean(draw, samples, seed), scale)


# ---------------------------------------------------------------------------
# reduced degree-wise identities and end-to-end reconstruction checks


IDENTITY_TAGS = ("4.8", "4.9", "thm4.1-i", "thm4.1-ii", "4.13", "4.14")

# the Laplacian identities Delta_{1-n,(n-1+s)/2} S_s f = f: the sine
# parameter s(n, k) of each tag
_SINE_PARAMETER = {
    "4.9": lambda n, k: 1 - n,
    "thm4.1-i": lambda n, k: -k,
    "thm4.1-ii": lambda n, k: 1 - k,
    "4.13": lambda n, k: 1,
}


def _sine_inverse(identity: str, n: int, k: int, degrees: np.ndarray, lam: complex | None = None):
    """(s, ell, num, den): the sine parameter s of an identity, the order ell
    of its weighted Laplacian (None for the factorization tags), and the
    inverse of S_s on ``degrees`` as the degree-wise quotient num / den.

    The Laplacian tags undo S_s by Delta_{1-n,ell}, ell = (n-1+s)/2, which
    needs n-1+s even and s != 0: num holds its eigenvalues and den is 1.  4.8
    (at lam) and 4.14 (at 1, odd n) undo sine = cosine x Funk: num is 1 and
    den is funk_scale * C_lam * F, which must not vanish."""
    ones = np.ones(len(degrees))
    if identity in _SINE_PARAMETER:
        s = _SINE_PARAMETER[identity](n, k)
        if (n - 1 + s) % 2 or s == 0:
            raise InvalidArgumentError(f"{identity} needs n-1+s even and s != 0, got s = {s}")
        ell = (n - 1 + s) // 2
        return s, ell, delta_op_eigenvalue(degrees, n, 1 - n, ell), ones
    if identity == "4.14":
        if n % 2 == 0:
            raise InvalidArgumentError("4.14 needs odd n")
        lam = 1.0
    elif identity != "4.8":
        raise InvalidArgumentError(f"unknown identity tag {identity!r}")
    elif lam is None:
        raise InvalidArgumentError("factorization check needs lambda")
    den = funk_scale(n) * cosine_multiplier(degrees, n, lam) * funk_multiplier(degrees, n)
    if not np.all(den):
        raise DomainError(f"the cosine multiplier vanishes at lambda = {lam}: no ratio")
    return lam, None, ones, den


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b by Smith's method with true divisions, as Python's complex division
    rounds; numpy's divide multiplies by a reciprocal, which moves the last
    bit of the near-1 chain ratios below."""
    swap = np.abs(b.imag) > np.abs(b.real)
    x, y = np.where(swap, b.imag, b.real), np.where(swap, b.real, b.imag)
    p, q = np.where(swap, a.imag, a.real), np.where(swap, a.real, a.imag)
    ratio = y / x
    denom = x + y * ratio
    imag = np.where(swap, p * ratio - q, q - p * ratio)
    return (p + q * ratio) / denom + 1j * (imag / denom)


def spectral_identity_error(
    identity: str, n: int, k: int, max_degree: int = 10, lam: complex | None = None
) -> float:
    """Max deviation of the reduced degree-wise multiplier chain from 1.

    Each identity collapses, degree by degree, to its inverse of S_s times the
    sine multiplier of S_s; this evaluates that product over the even degrees.
    For the factorization tags the reduced content is the sine = cosine x Funk
    splitting (the k > 1 content is exercised end to end by the Monte-Carlo
    pipelines).
    """
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError("need 1 <= k <= n-1")
    j = np.arange(0, max_degree + 1, 2)
    s, _, num, den = _sine_inverse(identity, n, k, j, lam)
    return float(np.max(np.abs(_quotient(num * sine_multiplier(j, n, s), den) - 1.0)))


# reconstruction tag -> (mode, the sine_mc_* pipeline that estimates S_s f)
_RECONSTRUCTIONS = {
    "thm4.1-i": ("dual-funk", sine_mc_via_dual_cosine),
    "thm4.1-ii": ("dual-cosine", sine_mc_via_dual_cosine),
    "4.13": ("dual-funk", sine_mc_via_dual_funk),
    "4.14": ("product-inverse", sine_mc_via_dual_funk),
}


def _reconstruction(f: HarmonicSpectrum, identity: str, k: int, samples: int,
                    seed: int) -> InversionReport:
    """f from Monte Carlo estimates of a sine transform S_s f at the
    f.max_degree + 3 profile nodes of a meridian through the pole (node i with
    seed + i), analyzed and scaled on the even degrees by the identity's
    inverse of S_s; each coefficient's sigma is propagated through the same
    linear map, and errors are compared against 3 sigma."""
    _check_hyperplane_k(f.n, k)
    if f.kind != "zonal":
        raise InvalidArgumentError("reconstruction checks run on zonal test functions")
    n, J = f.n, f.max_degree
    mode, pipeline = _RECONSTRUCTIONS[identity]
    even = np.arange(0, J + 1, 2)
    s, ell, num, den = _sine_inverse(identity, n, k, even)
    inverse = _quotient(num, den)
    t, w, dirs = _meridian_points(f, J + 3)
    M = zonal_analysis_matrix(t, w, J, n)
    estimates = [pipeline(f, k, v, s, samples, seed + i) for i, v in enumerate(dirs)]
    g_vals = np.array([e.value for e in estimates])
    g_sig = np.array([e.sigma for e in estimates])
    errors = np.abs(inverse * (M @ g_vals)[even] - f.coeffs[even])
    sigmas = np.abs(inverse) * np.sqrt((M**2) @ g_sig**2)[even]
    worst = int(np.argmax(errors))
    degrees = even.tolist()
    return InversionReport(
        method="outside" if mode != "product-inverse" else "log-branch",
        params={"n": n, "k": k, "ell": ell, "samples": samples, "seed": seed, "band_limit": J},
        degree_condition=dict(zip(degrees, np.abs(inverse).tolist())),
        max_error=float(errors[worst]),
        per_degree_errors=dict(zip(degrees, errors.tolist())),
        extras={
            "identity": identity,
            "mode": mode,
            "mc_error": float(errors[worst]),
            "mc_sigma": float(sigmas[worst]),
            "within_3sigma": bool(np.all(errors <= 3.0 * sigmas + 1e-13)),
            "spectral_error": spectral_identity_error(identity, n, k, J),
            "per_degree_sigma": dict(zip(degrees, sigmas.tolist())),
        },
    )


def invert_funk_k(
    f: HarmonicSpectrum,
    k: int,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> InversionReport:
    """End-to-end reconstruction from codimension-k subsphere averages.

    The dual cosine transform at s of the averages is S_s f, inverted by the
    weighted Laplacian of order (n-1+s)/2; n-k fixes s: odd n-k is thm4.1-i,
    s = -k (the dual Funk end point), even n-k is thm4.1-ii, s = 1-k, excluded
    at k = 1 (a pole).  Monte Carlo at the profile nodes of a zonal f, errors
    against the propagated 3-sigma band.
    """
    return _reconstruction(f, "thm4.1-i" if (f.n - k) % 2 else "thm4.1-ii", k, samples, seed)


def invert_cosine1_k(
    f: HarmonicSpectrum,
    k: int,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> InversionReport:
    """End-to-end reconstruction from the codimension-k cosine transform at
    parameter 1, through the sine transform at 1 estimated by the dual-Funk
    pipeline, dispatching on the parity of n.

    Even n: the identity 4.13, the weighted Laplacian applied to the
    estimates.  Odd n: the identity 4.14, the estimates divided degree-wise by
    the cosine-at-1 and Funk multipliers (the frame_scale prefactor already
    matches the factorization).
    """
    return _reconstruction(f, "4.13" if f.n % 2 == 0 else "4.14", k, samples, seed)


def check_identity(
    identity: str,
    n: int,
    k: int,
    *,
    lam: complex | None = None,
    samples: int = 100_000,
    seed: int = 0,
    max_degree: int = 4,
) -> dict:
    """One factorization/reconstruction identity, verified both ways.

    Returns {identity, params, spectral_error, mc_error, mc_sigma,
    within_3sigma}: the reduced multiplier chain evaluated exactly, and the
    end-to-end Monte-Carlo realization against its 3-sigma band (for 4.9,
    that of its thm4.1 stand-in).
    """
    if identity not in IDENTITY_TAGS:
        raise InvalidArgumentError(f"unknown identity tag {identity!r}")
    spectral = spectral_identity_error(identity, n, k, max_degree, lam=lam)
    f = random_even_spectrum(n, max_degree, seed, zonal=True)
    if identity == "4.8":
        truth_spec = sine_spectrum(f, lam)
        v = _meridian_points(f, 3)[2][0]
        truth = complex(truth_spec.evaluate(v[None, :])[0])
        est_a = sine_mc_via_dual_cosine(f, k, v, lam, samples, seed)
        est_b = sine_mc_via_dual_funk(f, k, v, lam, samples, seed + 1)
        err_a, err_b = abs(est_a.value - truth), abs(est_b.value - truth)
        mc_error, mc_sigma = (err_a, est_a.sigma) if err_a / max(est_a.sigma, 1e-300) >= err_b / max(est_b.sigma, 1e-300) else (err_b, est_b.sigma)
        within = est_a.within(truth) and est_b.within(truth)
    else:
        # 4.9's stand-in: the thm4.1 reconstruction of invert_funk_k
        report = (invert_funk_k(f, k, samples=samples, seed=seed) if identity == "4.9"
                  else _reconstruction(f, identity, k, samples, seed))
        mc_error, mc_sigma = report.extras["mc_error"], report.extras["mc_sigma"]
        within = report.extras["within_3sigma"]
    return {
        "identity": identity,
        "params": {"n": n, "k": k, "lam": _fmt_lam(lam), "samples": samples, "seed": seed,
                   "max_degree": max_degree},
        "spectral_error": float(spectral),
        "mc_error": float(mc_error),
        "mc_sigma": float(mc_sigma),
        "within_3sigma": bool(within),
    }


def _fmt_lam(lam):
    return None if lam is None else [complex(lam).real, complex(lam).imag]
