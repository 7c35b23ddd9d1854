import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkinv.errors import (
    DomainError,
    InsufficientSamplesError,
    InvalidArgumentError,
    PoleError,
)
from funkinv.spectral import (
    HarmonicSpectrum,
    cosine_multiplier,
    delta_op_eigenvalue,
    funk_multiplier,
    random_even_spectrum,
    sine_multiplier,
    zonal_eval,
)
from funkinv import stiefel, transforms
from funkinv.stiefel import (
    MCEstimate,
    _frames_orthogonal_to,
    _rng,
    check_identity,
    cosine_k_function,
    dual_cosine_k,
    dual_funk_k,
    funk_k_function,
    haar_frames,
    invert_cosine1_k,
    invert_funk_k,
    null_space_basis,
    sine_mc_via_dual_cosine,
    sine_mc_via_dual_funk,
    spectral_identity_error,
)
from funkinv.grids import build_grid
from funkinv.transforms import (
    cosine_spectrum,
    frame_scale,
    funk_geodesic_values,
    funk_scale,
    null_sphere_scale,
    sine_spectrum,
)

SAMPLES = 20_000  # unit tests run light; the acceptance suite uses 1e5


@pytest.fixture(scope="module")
def zonal_f4():
    return random_even_spectrum(4, 4, seed=301, zonal=True)


@pytest.fixture(scope="module")
def zonal_f5():
    return random_even_spectrum(5, 4, seed=302, zonal=True)


# ---------------------------------------------------------------------------
# frames and Haar sampling


def test_haar_orthonormy_and_reproducibility():
    fr = haar_frames(5, 2, 1, seed=7)[0]
    assert np.max(np.abs(fr.T @ fr - np.eye(2))) <= 1e-12
    fr2 = haar_frames(5, 2, 1, seed=7)[0]
    assert np.array_equal(fr, fr2)
    assert not np.array_equal(fr, haar_frames(5, 2, 1, seed=8)[0])


def test_haar_projection_moment():
    # E[|u^T v|^2] = k/n by the trace identity for the projector onto the span
    n, k = 5, 2
    v = np.eye(n)[0]
    frames = haar_frames(n, k, 40_000, seed=11)
    vals = np.linalg.norm(np.einsum("snk,n->sk", frames, v), axis=1) ** 2
    sigma = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - k / n) <= 3 * sigma


def test_haar_rejects_bad_shape():
    for args in ((4, 4, 10), (4, 2, -1), (4, 2, 2.5), (4.0, 2, 10)):
        with pytest.raises(InvalidArgumentError):
            haar_frames(*args, seed=0)
    assert haar_frames(4, 2, 0, seed=0).shape == (0, 4, 2)


def _lapack_haar(g):
    """The Haar frames of the Gaussian draws g (S, n, k) by LAPACK QR with
    R's diagonal made positive, the reference the Gram-Schmidt frames follow."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(np.abs(diag) >= 1e-13)  # no draw here needs resampling
    return q * np.where(diag < 0, -1.0, 1.0)[:, None, :]


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 2), (5, 3), (6, 2), (6, 5)])
def test_haar_frames_match_lapack_reference(n, k):
    count, seed = 20_000, 17 + n + k
    frames = haar_frames(n, k, count, seed=seed)
    want = _lapack_haar(_rng(seed).standard_normal((count, n, k)))
    assert np.max(np.abs(frames - want)) <= 1e-11
    gram = np.einsum("snk,snj->skj", frames, frames)
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-14
    assert np.array_equal(haar_frames(n, k, 1, seed=seed), haar_frames(n, k, 1, seed=seed))


class _QueuedNormals:
    """A generator stub that hands out fixed Gaussian draws in order and
    records the shape of each request."""

    def __init__(self, *draws):
        self.draws, self.shapes = list(draws), []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw.copy()


@pytest.mark.parametrize("n, k", [(3, 2), (5, 3)])
def test_haar_frames_resample_rank_deficient_draws(n, k):
    count, bad = 6, 2
    g = _rng(5).standard_normal((count, n, k))
    g[bad, :, k - 1] = g[bad, :, 0]  # two equal columns: rank k-1
    fresh = _rng(6).standard_normal((1, n, k))
    stub = _QueuedNormals(g, fresh)
    frames = haar_frames(n, k, count, rng=stub)
    assert stub.shapes == [(count, n, k), (1, n, k)]
    assert np.max(np.abs(frames[bad].T @ frames[bad] - np.eye(k))) <= 1e-14
    assert np.array_equal(frames[bad], haar_frames(n, k, 1, rng=_QueuedNormals(fresh))[0])
    others = np.arange(count) != bad
    assert np.array_equal(frames[others],
                          haar_frames(n, k, count - 1, rng=_QueuedNormals(g[others])))


def test_null_space_basis():
    fr = haar_frames(5, 2, 1, seed=3)[0]
    B = null_space_basis(fr)
    assert B.shape == (5, 3)
    assert np.max(np.abs(B.T @ B - np.eye(3))) <= 1e-12
    assert np.max(np.abs(fr.T @ B)) <= 1e-12
    # deterministic completion
    assert np.array_equal(B, null_space_basis(fr))


# ---------------------------------------------------------------------------
# frame products against einsum references


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_frame_products_match_einsum_references(n, k):
    v = np.eye(n)[1]
    want = np.einsum("nm,smk->snk", null_space_basis(v[:, None]),
                     haar_frames(n - 1, k, 9, rng=_rng(4)))
    assert_allclose(_frames_orthogonal_to(v, k, 9, _rng(4)), want, rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# forward transforms over frames


def test_funk_k_constant():
    fr = haar_frames(5, 2, 1, seed=4)
    val = funk_k_function(lambda p: np.ones(len(p)), 5, 2, profile_degree=0)(fr)[0]
    assert abs(val - 1.0) <= 1e-14


def test_funk_k_codimension_full(zonal_f4):
    # k = n-1: the null sphere is a two-point set; even input gives f at the basis vector
    fr = haar_frames(4, 3, 1, seed=5)
    b = null_space_basis(fr[0])[:, 0]
    val = funk_k_function(zonal_f4.evaluate, 4, 3, profile_degree=zonal_f4.max_degree)(fr)[0]
    assert abs(val - complex(zonal_f4.evaluate(b[None, :])[0])) <= 1e-13


def test_funk_k_matches_great_circles_at_k1(even_f3):
    u = np.array([0.48, -0.6, 0.64])
    J = even_f3.max_degree
    val = funk_k_function(even_f3.evaluate, 3, 1, profile_degree=J)(u[None, :, None])[0]
    want = funk_geodesic_values(even_f3.evaluate, u[None, :], profile_degree=J)[0]
    assert abs(val - want) <= 1e-13


def test_funk_k_is_exact_at_band_16():
    # the fiber rule is sized from the band limit; a fixed resolution-6 rule
    # was off by 1e-4 here
    n, k, J = 5, 2, 16
    f = random_even_spectrum(n, J, seed=320, zonal=True)
    frames = haar_frames(n, k, 6, seed=13)
    got = funk_k_function(f.evaluate, n, k, profile_degree=J)(frames)
    fiber = build_grid(n - k, 16)  # exact to degree 31
    want = [f.evaluate(fiber.nodes @ b.T) @ fiber.weights for b in null_space_basis(frames)]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_right_invariance(zonal_f4):
    # functions of the frame through |u^T v| only depend on the span
    fr = haar_frames(4, 2, 1, seed=6)
    ang = 0.83
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    rotated = fr @ rot
    J = zonal_f4.max_degree
    funk = funk_k_function(zonal_f4.evaluate, 4, 2, profile_degree=J)
    a, b = funk(fr)[0], funk(rotated)[0]
    assert abs(a - b) <= 1e-12
    cosine = cosine_k_function(zonal_f4.evaluate, 4, 2, 1.0, profile_degree=J)
    c, d = cosine(fr)[0], cosine(rotated)[0]
    assert abs(c - d) <= 1e-12


def test_cosine_k_reduces_to_sphere_transform_at_k1():
    # k = 1 is the lam-cosine transform at u, k = n-1 the lam-sine transform
    # at the unit normal of the frame's span
    for n, J in itertools.product((3, 4, 5), (4, 16)):
        f = random_even_spectrum(n, J, seed=330 + n + J, zonal=n > 3)
        cosine_frames = haar_frames(n, 1, 5, seed=14)
        sine_frames = haar_frames(n, n - 1, 5, seed=15)
        cases = ((1, cosine_frames, cosine_spectrum, cosine_frames[:, :, 0]),
                 (n - 1, sine_frames, sine_spectrum, null_space_basis(sine_frames)[:, :, 0]))
        for lam in (-0.5, 1.0, 0.5 + 1j, -0.5 + 0.3j):
            for k, frames, sphere, dirs in cases:
                got = cosine_k_function(f.evaluate, n, k, lam, profile_degree=J)(frames)
                want = sphere(f, lam).evaluate(dirs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, J, k, lam)


def test_cosine_k_limit_to_funk_k(zonal_f4):
    # analytic continuation limit at the edge of the convergence domain
    fr = haar_frames(4, 2, 1, seed=9)
    eps = 1e-4
    J = zonal_f4.max_degree
    lim = cosine_k_function(zonal_f4.evaluate, 4, 2, -2.0 + eps, profile_degree=J)(fr)[0]
    want = null_sphere_scale(4, 2) * funk_k_function(zonal_f4.evaluate, 4, 2,
                                                     profile_degree=J)(fr)[0]
    assert abs(lim - want) <= 1e-3


def test_cosine_k_domain_guard():
    # the one guard left is the pole set {0, 2, 4, ...}; at lam = -k, past the
    # old integrability edge, the frame kernel is the point mass at r = 0, so
    # the transform is null_sphere_scale(n, k) times the Funk transform
    J = 6
    for n, k in ((5, 2), (6, 2), (6, 3)):
        f = random_even_spectrum(n, J, seed=50 + n + k, zonal=True)
        fr = haar_frames(n, k, 4, seed=9)
        for pole in (0.0, 2.0):
            with pytest.raises(PoleError):
                cosine_k_function(f.evaluate, n, k, pole, profile_degree=J)(fr)
        got = cosine_k_function(f.evaluate, n, k, -float(k), profile_degree=J)(fr)
        want = null_sphere_scale(n, k) * funk_k_function(f.evaluate, n, k, profile_degree=J)(fr)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, k)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_frame_functions_take_the_pole_adapted_rule_for_a_zonal_spectrum(n):
    # a spectrum and its evaluate callable give the same frame transforms: the
    # pole-adapted rule against the product rule, at poles +-e_1 and oblique
    J = 8
    for k, pole in itertools.product(range(1, n), (np.eye(n)[0], -np.eye(n)[0],
                                                   np.arange(1.0, n + 1))):
        f = random_even_spectrum(n, J, seed=360 + n + k, pole=pole)
        frames = haar_frames(n, k, 2, seed=k)
        pairs = [(funk_k_function(f, n, k, profile_degree=J),
                  funk_k_function(f.evaluate, n, k, profile_degree=J))]
        pairs += [(cosine_k_function(f, n, k, lam, profile_degree=J),
                   cosine_k_function(f.evaluate, n, k, lam, profile_degree=J))
                  for lam in (0.5 + 0.3j, -float(k))]
        for adapted, product in pairs:
            got, want = adapted(frames), product(frames)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, k, pole)


# ---------------------------------------------------------------------------
# dual transforms


def test_dual_funk_constant():
    one = funk_k_function(lambda p: np.ones(len(p)), 4, 2, profile_degree=0)
    est = dual_funk_k(one, np.eye(4)[0], samples=500, seed=1)
    assert abs(est.value - 1.0) <= 1e-12
    assert est.sigma <= 1e-12


def test_dual_funk_reproducible(zonal_f4):
    psi = funk_k_function(zonal_f4.evaluate, 4, 2, profile_degree=zonal_f4.max_degree)
    v = np.eye(4)[1]
    a = dual_funk_k(psi, v, samples=2000, seed=42)
    b = dual_funk_k(psi, v, samples=2000, seed=42)
    assert a.value == b.value and a.sigma == b.sigma


def test_dual_funk_needs_samples(zonal_f4):
    psi = funk_k_function(zonal_f4.evaluate, 4, 2, profile_degree=zonal_f4.max_degree)
    with pytest.raises(InsufficientSamplesError):
        dual_funk_k(psi, np.eye(4)[0], samples=50, seed=0)


def test_dual_composition_multiplier(zonal_f4):
    # double subsphere averaging acts degree-wise by the sine value at the
    # limit parameter over the combined constant
    n, k, j = 4, 1, 2
    f = HarmonicSpectrum(n, j, np.array([0, 0, 1.0 + 0j]), np.eye(n)[0])
    psi = funk_k_function(f.evaluate, n, k, profile_degree=j)
    v = np.array([0.6, 0.0, 0.0, 0.8])
    est = dual_funk_k(psi, v, samples=SAMPLES, seed=12)
    mult = sine_multiplier(j, n, -k) / (frame_scale(n, k) * null_sphere_scale(n, k))
    want = mult * complex(f.evaluate(v[None, :])[0])
    assert est.within(want)


def test_dual_cosine_guards(zonal_f4):
    phi = funk_k_function(zonal_f4.evaluate, 4, 2, profile_degree=zonal_f4.max_degree)
    with pytest.raises(DomainError):
        dual_cosine_k(phi, np.eye(4)[0], -2.5, samples=200, seed=0)
    with pytest.raises(InsufficientSamplesError):
        dual_cosine_k(phi, np.eye(4)[0], 1.0, samples=10, seed=0)


# ---------------------------------------------------------------------------
# factorization identities, spectral and Monte Carlo


def test_spectral_identities_tiny():
    cases = [
        ("4.9", 4, 1, None), ("4.9", 5, 2, None),
        ("thm4.1-i", 4, 1, None), ("thm4.1-i", 5, 2, None),
        ("thm4.1-ii", 4, 2, None),
        ("4.13", 4, 2, None), ("4.14", 5, 2, None),
        ("4.8", 4, 2, 1.0), ("4.8", 4, 1, -0.5), ("4.8", 5, 2, 1.0),
    ]
    for tag, n, k, lam in cases:
        assert spectral_identity_error(tag, n, k, 10, lam=lam) <= 1e-10


def _identity_chain_reference(tag, n, k, j, lam):
    """One degree of each reduced chain, in Python complex arithmetic."""
    cos = lambda lam: complex(cosine_multiplier(j, n, lam))  # noqa: E731
    sine = lambda lam: complex(sine_multiplier(j, n, lam))  # noqa: E731
    delta = lambda ell: complex(delta_op_eigenvalue(j, n, 1 - n, ell))  # noqa: E731
    cn, funk = funk_scale(n), float(funk_multiplier(j, n))
    return {
        "4.8": lambda: sine(lam) / (cos(lam) * cn * funk),
        "4.9": lambda: sine(1 - n),
        "thm4.1-i": lambda: delta((n - k - 1) // 2) * sine(-k),
        "thm4.1-ii": lambda: delta((n - k) // 2) * sine(1 - k),
        "4.13": lambda: delta(n // 2) * sine(1.0),
        "4.14": lambda: sine(1.0) / (cn * cos(1.0) * funk),
    }[tag]()


@pytest.mark.parametrize("tag, n, k, lam", [
    ("4.8", 4, 2, 1.0), ("4.8", 5, 1, -0.5), ("4.8", 6, 3, 0.3 - 0.7j),
    ("4.9", 4, 1, None), ("4.9", 7, 3, None),
    ("thm4.1-i", 5, 2, None), ("thm4.1-i", 6, 1, None),
    ("thm4.1-ii", 6, 2, None), ("thm4.1-ii", 7, 3, None),
    ("4.13", 4, 1, None), ("4.13", 6, 3, None),
    ("4.14", 5, 2, None), ("4.14", 7, 1, None),
])
def test_spectral_identity_error_matches_per_degree_reference(tag, n, k, lam):
    for max_degree in (0, 6, 17):
        want = max(
            abs(_identity_chain_reference(tag, n, k, j, lam) - 1.0)
            for j in range(0, max_degree + 1, 2)
        )
        assert spectral_identity_error(tag, n, k, max_degree, lam=lam) == want


def test_spectral_identity_guards():
    with pytest.raises(InvalidArgumentError):
        spectral_identity_error("thm4.1-i", 4, 2, 6)  # n-k even
    with pytest.raises(InvalidArgumentError):
        spectral_identity_error("thm4.1-ii", 4, 1, 6)  # excluded at k = 1
    with pytest.raises(InvalidArgumentError):
        spectral_identity_error("4.13", 5, 2, 6)  # odd n
    with pytest.raises(InvalidArgumentError):
        spectral_identity_error("4.8", 4, 2, 6)  # missing lambda
    with pytest.raises(DomainError):
        spectral_identity_error("4.8", 4, 2, 6, lam=-6.0)  # both sides vanish at degree 0
    # Delta_{1-n,(n-1+s)/2} S_s f = f holds exactly when n-1+s is even and s != 0
    sine_parameter = {"4.9": lambda n, k: 1 - n, "thm4.1-i": lambda n, k: -k,
                      "thm4.1-ii": lambda n, k: 1 - k, "4.13": lambda n, k: 1}
    raised = held = 0
    for tag, s_of in sine_parameter.items():
        for n in range(3, 9):
            for k in range(1, n):
                s = s_of(n, k)
                if (n - 1 + s) % 2 or s == 0:
                    with pytest.raises(InvalidArgumentError):
                        spectral_identity_error(tag, n, k, 10)
                    raised += 1
                else:
                    assert spectral_identity_error(tag, n, k, 10) <= 1e-13, (tag, n, k)
                    held += 1
    assert raised and held


def test_factorization_mc_both_pipelines(zonal_f4):
    lam = 1.0
    k = 2
    t = 0.41
    pole = zonal_f4.pole
    q = np.eye(4)[1]
    v = t * pole + math.sqrt(1 - t * t) * q
    truth = complex(sine_spectrum(zonal_f4, lam).evaluate(v[None, :])[0])
    est_a = sine_mc_via_dual_cosine(zonal_f4, k, v, lam, samples=SAMPLES, seed=7)
    est_b = sine_mc_via_dual_funk(zonal_f4, k, v, lam, samples=SAMPLES, seed=8)
    assert est_a.within(truth)
    assert est_b.within(truth)


@pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 3)])
def test_dual_cosine_pipeline_at_its_funk_end_point(n, k):
    # at lam = -k the dual cosine transform is the dual Funk transform times
    # null_sphere_scale
    f = random_even_spectrum(n, 4, seed=340 + n, zonal=True)
    v = np.array([0.6, 0.0, 0.8] + [0.0] * (n - 3))
    est = sine_mc_via_dual_cosine(f, k, v, -k, samples=SAMPLES, seed=13)
    psi = funk_k_function(f, n, k, profile_degree=f.max_degree)
    ref = dual_funk_k(psi, v, samples=SAMPLES, seed=13)
    scale = frame_scale(n, k) * null_sphere_scale(n, k)
    assert est.value == ref.value * scale and est.sigma == ref.sigma * abs(scale)
    assert est.within(complex(sine_spectrum(f, -k).evaluate(v[None, :])[0]))


def test_reconstruction_mc_dual_funk(zonal_f4):
    report = invert_funk_k(zonal_f4, 1, samples=SAMPLES, seed=5)
    assert report.extras["within_3sigma"]
    assert report.extras["spectral_error"] <= 1e-10
    assert report.extras["identity"] == "thm4.1-i"


def test_reconstruction_mc_dual_cosine(zonal_f4):
    report = invert_funk_k(zonal_f4, 2, samples=SAMPLES, seed=6)
    assert report.extras["within_3sigma"]
    assert report.extras["identity"] == "thm4.1-ii"


def test_reconstruction_mode_guards(zonal_f5):
    with pytest.raises(InvalidArgumentError):
        invert_funk_k(zonal_f5, 1, samples=200, seed=0)  # n-k even, k=1


_HYPERPLANE_PIPELINES = {
    "dual_funk_k": lambda f, k: dual_funk_k(
        funk_k_function(f.evaluate, f.n, k, profile_degree=f.max_degree), np.eye(f.n)[1],
        samples=200),
    "sine_mc_via_dual_funk": lambda f, k: sine_mc_via_dual_funk(
        f, k, np.eye(f.n)[1], 1.0, samples=200),
    "invert_funk_k": lambda f, k: invert_funk_k(f, k, samples=200),
    "invert_cosine1_k": lambda f, k: invert_cosine1_k(f, k, samples=200),
    "check_identity": lambda f, k: check_identity("thm4.1-i", f.n, k, samples=200),
}


@pytest.mark.parametrize("entry, k", [
    *itertools.product(sorted(set(_HYPERPLANE_PIPELINES) - {"check_identity"}), (-1, 0, 3)),
    ("check_identity", 3),  # below k = 1 its spectral check rejects k first
])
def test_hyperplane_frame_range(entry, k, zonal_f4):
    # the frames of v-perp in R^4 have 1 <= k <= 2 columns
    with pytest.raises(InvalidArgumentError, match="1 <= k <= n-2"):
        _HYPERPLANE_PIPELINES[entry](zonal_f4, k)


def test_cosine1_reconstruction_even_n(zonal_f4):
    report = invert_cosine1_k(zonal_f4, 2, samples=SAMPLES, seed=9)
    assert report.extras["within_3sigma"]
    assert report.extras["identity"] == "4.13"


def test_cosine1_reconstruction_odd_n(zonal_f5):
    report = invert_cosine1_k(zonal_f5, 2, samples=SAMPLES, seed=10)
    assert report.extras["within_3sigma"]
    assert report.extras["identity"] == "4.14"


@pytest.mark.parametrize("identity, n, k", [
    ("thm4.1-i", 5, 2), ("thm4.1-ii", 6, 2), ("4.13", 4, 1), ("4.14", 5, 2), ("4.14", 3, 1),
])
def test_reconstruction_of_exact_sine_values_is_f(monkeypatch, identity, n, k):
    # fed S_s f without sampling noise, each reconstruction's degree-wise map
    # returns f to rounding (amplified by the order-ell Laplacian), with zero sigma
    f = random_even_spectrum(n, 6, seed=41, zonal=True)
    mode, _ = stiefel._RECONSTRUCTIONS[identity]

    def exact(g, k, v, s, samples, seed):
        return MCEstimate(complex(sine_spectrum(g, s).evaluate(v[None, :])[0]), 0.0, samples)

    monkeypatch.setitem(stiefel._RECONSTRUCTIONS, identity, (mode, exact))
    report = stiefel._reconstruction(f, identity, k, 200, 0)
    assert report.extras["identity"] == identity and report.extras["mode"] == mode
    assert report.max_error <= 1e-10
    assert report.extras["mc_sigma"] == 0.0


@pytest.mark.parametrize("k, stand_in", [(1, "thm4.1-i"), (2, "thm4.1-ii")])
def test_identity_4_9_runs_the_thm41_reconstruction_of_its_parity(k, stand_in):
    # S_{1-n} is not sampled: 4.9's end-to-end check is thm4.1 at the parity of n-k
    got, ref = (check_identity(tag, 4, k, samples=400, seed=2) for tag in ("4.9", stand_in))
    for key in ("mc_error", "mc_sigma", "within_3sigma"):
        assert got[key] == ref[key]


def test_cosine1_k_degree_condition_at_odd_n(zonal_f5):
    # at odd n (4.14) the degree-wise map divides by funk_scale * C_1 * F
    report = invert_cosine1_k(zonal_f5, 2, samples=200, seed=0)
    want = {j: abs(1 / (funk_scale(5) * complex(cosine_multiplier(j, 5, 1.0))
                        * float(funk_multiplier(j, 5))))
            for j in range(0, zonal_f5.max_degree + 1, 2)}
    assert report.degree_condition == pytest.approx(want, rel=1e-14)


def test_product_inverse_reconstruction_needs_odd_n(monkeypatch, zonal_f4):
    # the guard runs before any sampling
    def no_sampling(*args):
        raise AssertionError("sampled at even n")

    monkeypatch.setitem(stiefel._RECONSTRUCTIONS, "4.14", ("product-inverse", no_sampling))
    with pytest.raises(InvalidArgumentError, match="odd n"):
        stiefel._reconstruction(zonal_f4, "4.14", 2, 200, 0)


def test_subsphere_rule_is_built_once(monkeypatch):
    # a zonal reconstruction takes the pole-adapted fiber rule and builds no
    # product rule; a callable input reuses one product rule per (d, J), at
    # resolution J//2 + 1
    calls = []
    real = transforms._product_rule
    monkeypatch.setattr(transforms, "_product_rule", lambda *a: calls.append(a) or real(*a))
    transforms._subsphere_rule.cache_clear()
    transforms._shell_rule.cache_clear()  # it holds the kept rows of built rules
    first = check_identity("thm4.1-i", 5, 2, samples=3600)
    assert check_identity("thm4.1-i", 5, 2, samples=3600) == first
    assert calls == []
    f = random_even_spectrum(5, 4, seed=2, zonal=True)
    psi = funk_k_function(f.evaluate, 5, 2, profile_degree=4)
    for seed in (3, 4):
        psi(haar_frames(5, 2, 50, seed=seed))
    assert calls == [(3, 3)]
    for d in (1, 2, 3):
        rule = transforms._subsphere_rule(d, 4)
        fresh = transforms._subsphere_rule.__wrapped__(d, 4)
        assert all(np.array_equal(a, b) for a, b in zip(rule, fresh, strict=True))
        assert not any(a.flags.writeable for a in rule)


def test_check_identity_entry_point():
    out = check_identity("4.8", 4, 2, lam=1.0, samples=5000, seed=1)
    assert out["within_3sigma"]
    assert out["spectral_error"] <= 1e-10
    assert set(out) == {
        "identity", "params", "spectral_error", "mc_error", "mc_sigma", "within_3sigma",
    }
    with pytest.raises(InvalidArgumentError):
        check_identity("nope", 4, 2)
