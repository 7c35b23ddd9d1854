import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_chebyt

from funkinv.errors import (
    DomainError,
    InvalidArgumentError,
    PoleError,
    PreconditionError,
)
from funkinv.grids import build_grid, grid_function, integrate, remove_mean
from funkinv.spectral import (
    HarmonicSpectrum,
    analyze,
    cosine_multiplier,
    funk_multiplier,
    log_cosine_multiplier,
    random_even_spectrum,
    sine_multiplier,
    zonal_eval,
)
from funkinv.diffops import WeightedOpSpec, weighted_laplacian_spectrum
from funkinv.transforms import (
    OPERATORS,
    _chebyshev_moments,
    cosine_quadrature_values,
    cosine_spectrum,
    cosine_transform,
    delta_norm,
    frame_scale,
    funk_geodesic_values,
    funk_scale,
    funk_spectrum,
    funk_transform,
    gamma_norm,
    gamma_norm_k,
    log_cosine_quadrature_values,
    log_cosine_spectrum,
    log_cosine_transform,
    log_sine_quadrature_values,
    log_sine_spectrum,
    log_sine_transform,
    null_space_basis,
    null_sphere_scale,
    sine_quadrature_values,
    sine_spectrum,
    sine_transform,
)

SQPI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def probes(grid3):
    return grid3.nodes[::41]


# ---------------------------------------------------------------------------
# normalization coefficients


def test_normalization_constants():
    # oracle values computed from the gamma factors by hand
    assert abs(gamma_norm(-1.0, 3) - 0.0) <= 1e-13  # zero of 1/Gamma((lam+1)/2)
    assert abs(funk_scale(3) - SQPI) <= 1e-14
    assert abs(funk_scale(4) - 2.0) <= 1e-13  # sqrt(pi)/Gamma(3/2)
    assert abs(frame_scale(4, 2) - 1.0 / math.gamma(1.5) * math.gamma(1.0)) <= 1e-13
    assert abs(null_sphere_scale(4, 2) - SQPI / math.gamma(1.0)) <= 1e-13
    # one closed form serves the cosine (k = 1), sine (k = n-1) and frame
    # transforms; check it against mpmath
    for lam, n, k in ((-0.5, 4, 1), (0.7, 4, 1), (1.3 + 0.4j, 5, 2), (-1.5, 6, 5)):
        lam_mp = mpmath.mpc(lam)
        want = complex(mpmath.sqrt(mpmath.pi) * mpmath.gamma(-lam_mp / 2)
                       / (mpmath.gamma(mpmath.mpf(n) / 2) * mpmath.gamma((lam_mp + k) / 2)))
        assert abs(gamma_norm_k(lam, n, k) - want) <= 1e-12 * abs(want)
    with pytest.raises(PoleError):
        gamma_norm(2.0, 3)


@pytest.mark.parametrize("transform, kw", [
    (cosine_transform, {"lam": 0.5}),
    (funk_transform, {}),
    (log_cosine_transform, {}),
    (sine_transform, {"lam": 0.5}),
    (log_sine_transform, {}),
])
def test_unknown_choices_and_inputs_are_rejected(grid3, transform, kw):
    spec = random_even_spectrum(3, 4, seed=5).with_zero_mean()
    x0 = spec.to_grid(grid3)
    for f in (spec, x0):
        for path in ("spectrl", "nope", None):
            with pytest.raises(InvalidArgumentError):
                transform(f, path=path, **kw)
    with pytest.raises(InvalidArgumentError):
        transform(x0.values, **kw)  # neither a spectrum nor grid samples
    if transform is log_cosine_transform:
        with pytest.raises(InvalidArgumentError):
            transform(x0, quadrature_method="nope")


# ---------------------------------------------------------------------------
# cosine transform


def test_cosine_constant_at_limit_parameter(even_f3):
    spec = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    out = cosine_spectrum(spec, -1.0)
    assert abs(out.coeffs[0] - SQPI) <= 1e-12


def test_cosine_annihilates_odd(probes):
    coeffs = np.zeros(16, dtype=complex)
    coeffs[1 * 2 + 0] = 1.0  # degree 1, order 0
    coeffs[3 * 4 + 1] = 0.5  # degree 3
    f_odd = HarmonicSpectrum(3, 3, coeffs)
    assert np.max(np.abs(cosine_spectrum(f_odd, 0.5).coeffs)) == 0.0
    quad = cosine_quadrature_values(f_odd.evaluate, probes, 3, 0.5, profile_degree=3)
    assert np.max(np.abs(quad)) <= 1e-14


def test_cosine_degree2_zonal(probes):
    pole = np.array([0.48, -0.6, 0.64])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    out = cosine_quadrature_values(f.evaluate, probes, 3, 1.0, profile_degree=2)
    want = cosine_multiplier(2, 3, 1.0) * f.evaluate(probes)
    assert np.max(np.abs(out - want)) <= 1e-12


def test_cosine_path_agreement(even_f3, probes, oracle_gate):
    for lam in (-0.5, -0.25, 0.3, 1.0, 1.7):
        quad = cosine_quadrature_values(
            even_f3.evaluate, probes, 3, lam, profile_degree=even_f3.max_degree
        )
        spec = cosine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_cosine_path_agreement_complex(even_f3, probes):
    for lam in (-0.5 + 0.4j, 1.2 - 0.9j):
        quad = cosine_quadrature_values(
            even_f3.evaluate, probes, 3, lam, profile_degree=even_f3.max_degree
        )
        spec = cosine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_cosine_path_agreement_n4(even_f4, grid4):
    probes4 = grid4.nodes[::97]
    for lam in (-0.5, 1.0):
        quad = cosine_quadrature_values(
            even_f4.evaluate, probes4, 4, lam, profile_degree=even_f4.max_degree,
            subsphere_resolution=6,
        )
        spec = cosine_spectrum(even_f4, lam).evaluate(probes4)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_cosine_grid_paths_and_metadata(grid3, even_f3):
    f_grid = even_f3.to_grid(grid3)
    out_q = cosine_transform(f_grid, lam=-0.5, path="quadrature")
    out_s = cosine_transform(f_grid, lam=-0.5, path="spectral")
    assert out_q.meta["path"] == "quadrature"
    assert out_s.meta["path"] == "spectral"
    assert np.max(np.abs(out_q.values - out_s.values)) <= 1e-12
    # auto: quadrature domain holds here
    assert cosine_transform(f_grid, lam=-0.5, path="auto").meta["path"] == "quadrature"
    # auto: out-of-domain parameter falls back to the spectral path
    assert cosine_transform(f_grid, lam=-1.5, path="auto").meta["path"] == "spectral"


def test_cosine_guards(grid3, even_f3):
    with pytest.raises(PoleError):
        cosine_spectrum(even_f3, 2.0)
    with pytest.raises(PoleError):
        cosine_spectrum(even_f3, 4.0 + 1e-11)
    with pytest.raises(DomainError):
        cosine_quadrature_values(even_f3.evaluate, grid3.nodes[:2], 3, -1.2, profile_degree=8)
    with pytest.raises(InvalidArgumentError):
        cosine_transform(even_f3, lam=0.5, path="quadrature")
    f_plain = grid_function(grid3, lambda v: v[:, 0] ** 2)
    with pytest.raises(InvalidArgumentError):
        cosine_transform(f_plain, lam=0.5, path="quadrature")  # no band limit known


def test_meromorphic_continuation_recursion(even_f3, probes):
    # values at lam and lam + 2 are tied by one factor of the weighted operator
    for lam in (-3.3, -1.7, 0.6):
        phi = cosine_spectrum(even_f3, lam + 2)
        op = WeightedOpSpec(lam=lam, ell=1, n=3)
        lhs = weighted_laplacian_spectrum(phi, op).evaluate(probes)
        rhs = cosine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


# ---------------------------------------------------------------------------
# Funk transform


def test_funk_constant(grid3):
    spec = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    out = funk_spectrum(spec)
    assert abs(out.coeffs[0] - 1.0) <= 1e-14
    geo = funk_geodesic_values(spec.evaluate, grid3.nodes[:5])
    assert_allclose(geo, 1.0, atol=1e-14)


def test_funk_zonal_degree2(probes):
    pole = np.array([0.28, 0.96, 0.0])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    geo = funk_geodesic_values(f.evaluate, probes)
    assert np.max(np.abs(geo - (-0.5) * f.evaluate(probes))) <= 1e-12


def test_funk_path_agreement(even_f3, probes):
    geo = funk_geodesic_values(even_f3.evaluate, probes, circle_nodes=64)
    spec = funk_spectrum(even_f3).evaluate(probes)
    assert np.max(np.abs(geo - spec)) <= 1e-9


def test_funk_is_limit_of_cosine_family(even_f3, probes):
    # the -1 cosine transform equals the Funk transform times the fixed scale,
    # each side computed by an independent path
    lhs = cosine_spectrum(even_f3, -1.0).evaluate(probes)
    rhs = funk_scale(3) * funk_geodesic_values(even_f3.evaluate, probes)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_funk_grid_api(grid3, even_f3):
    f_grid = even_f3.to_grid(grid3)
    out_q = funk_transform(f_grid, path="quadrature")
    out_s = funk_transform(f_grid, path="spectral")
    assert np.max(np.abs(out_q.values - out_s.values)) <= 1e-9
    with pytest.raises(DomainError):
        funk_transform(random_even_spectrum(4, 4, 1).to_grid(build_grid(4, 5)),
                       path="quadrature", pole=np.eye(4)[0])


@pytest.mark.parametrize("n", [3, 5])
def test_complement_basis_stack_matches_single(n):
    # one batched QR gives the same bases as one QR per frame, so the
    # quadrature shells and the frame fibers keep their points
    rng = np.random.default_rng(n)
    u = rng.standard_normal((200, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    u = np.vstack([u, np.eye(n), -np.eye(n)])
    frames = np.linalg.qr(rng.standard_normal((50, n, 2)))[0]
    for stack in (u[:, :, None], frames):
        k = stack.shape[2]
        bases = null_space_basis(stack)
        assert bases.shape == (len(stack), n, n - k)
        assert np.array_equal(bases, np.stack([null_space_basis(fr) for fr in stack]))
        assert np.max(np.abs(np.einsum("bik,bij->bkj", stack, bases))) <= 1e-15
        gram = np.einsum("bij,bik->bjk", bases, bases)
        assert np.max(np.abs(gram - np.eye(n - k))) <= 1e-15


# ---------------------------------------------------------------------------
# logarithmic transforms


def test_log_cosine_requires_mean_zero(grid3, even_f3):
    spec = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    with pytest.raises(PreconditionError):
        log_cosine_spectrum(spec)
    f_grid = spec.to_grid(grid3)
    with pytest.raises(PreconditionError):
        log_cosine_transform(f_grid)


def test_log_cosine_zero_input(grid3):
    spec = HarmonicSpectrum.zeros(3, 4)
    assert np.max(np.abs(log_cosine_spectrum(spec).coeffs)) == 0.0


def test_log_cosine_zonal_and_path_agreement(probes):
    pole = np.array([0.8, 0.0, 0.6])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    quad = log_cosine_quadrature_values(f.evaluate, probes, 3, profile_degree=2)
    want = log_cosine_multiplier(2, 3) * f.evaluate(probes)
    assert np.max(np.abs(quad - want)) <= 1e-12
    # random mean-zero function
    f0 = random_even_spectrum(3, 8, seed=9).with_zero_mean()
    quad = log_cosine_quadrature_values(f0.evaluate, probes, 3, profile_degree=8)
    spec = log_cosine_spectrum(f0).evaluate(probes)
    assert np.max(np.abs(quad - spec)) <= 1e-12


def test_log_cosine_ongrid_method_documented_loss(grid3, even_f3):
    f0 = remove_mean(even_f3.to_grid(grid3))
    out = log_cosine_transform(f0, quadrature_method="ongrid")
    spec = log_cosine_transform(f0, path="spectral", band_limit=8)
    err = np.max(np.abs(out.values - spec.values))
    assert err <= 5e-2  # converges slowly near the singular circle
    assert err > 1e-7  # and is genuinely less accurate than the adapted rule


def test_log_cosine_is_limit_of_cosine_family(probes):
    f0 = random_even_spectrum(3, 6, seed=10).with_zero_mean()
    small = cosine_spectrum(f0, 1e-5).evaluate(probes)
    logged = log_cosine_spectrum(f0).evaluate(probes)
    assert np.max(np.abs(small - logged)) <= 1e-4


def test_log_sine_consistency(probes):
    pole = np.array([0.0, 0.6, 0.8])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    quad = log_sine_quadrature_values(f.evaluate, probes, 3, profile_degree=2)
    comp = log_sine_spectrum(f).evaluate(probes)
    assert np.max(np.abs(quad - comp)) <= 1e-12


def test_log_sine_requires_mean_zero(grid3):
    spec = HarmonicSpectrum(3, 0, np.array([2.0 + 0j]))
    with pytest.raises(PreconditionError):
        log_sine_spectrum(spec)
    with pytest.raises(PreconditionError):
        log_sine_transform(spec.to_grid(grid3))


# ---------------------------------------------------------------------------
# sine transform


def test_sine_identity_parameter(even_f3, even_f4, even_f5):
    for f in (even_f3, even_f4, even_f5):
        out = sine_spectrum(f, 1 - f.n)
        even = f.even_projected()
        assert np.max(np.abs(out.coeffs - even.coeffs)) <= 1e-12


def test_sine_constant():
    spec = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    out = sine_spectrum(spec, -1.0)
    assert abs(out.coeffs[0] - math.pi) <= 1e-12


def test_sine_path_agreement(even_f3, probes):
    for lam in (-0.5, -1.5, 1.0):
        quad = sine_quadrature_values(
            even_f3.evaluate, probes, 3, lam, profile_degree=even_f3.max_degree
        )
        spec = sine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_sine_factorization(even_f3, probes):
    # quadrature sine against the spectral composition through the Funk transform
    lam = -0.5
    lhs = sine_quadrature_values(
        even_f3.evaluate, probes, 3, lam, profile_degree=even_f3.max_degree
    )
    rhs = funk_scale(3) * cosine_spectrum(funk_spectrum(even_f3), lam).evaluate(probes)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_sine_guards(even_f3, probes):
    with pytest.raises(PoleError):
        sine_spectrum(even_f3, 0.0)
    with pytest.raises(DomainError):
        sine_quadrature_values(even_f3.evaluate, probes, 3, -2.5, profile_degree=8)


# ---------------------------------------------------------------------------
# diagonal action through the grid API


def test_diagonal_action_of_each_transform(grid3, even_f3, oracle_gate):
    f_grid = even_f3.to_grid(grid3)
    cases = [
        (lambda g: cosine_transform(g, lam=-0.5, path="quadrature"),
         lambda j: cosine_multiplier(j, 3, -0.5)),
        (lambda g: funk_transform(g, path="quadrature"),
         lambda j: funk_multiplier(j, 3)),
        (lambda g: sine_transform(g, lam=-0.5, path="quadrature"),
         lambda j: sine_multiplier(j, 3, -0.5)),
    ]
    base = analyze(f_grid, 8)
    for apply_fn, mult in cases:
        out_spec = analyze(apply_fn(f_grid), 8)
        for j in range(0, 9, 2):
            want = mult(j) * base.degree_slice(j)
            got = out_spec.degree_slice(j)
            assert np.max(np.abs(got - want)) <= 1e-9


# ---------------------------------------------------------------------------
# the Chebyshev-Jacobi moment engine behind every kernel quadrature


@pytest.mark.parametrize("a, b", [(0.0, -0.5), (0.5, -0.5), (1.5, -0.5), (0.0, -0.9), (2.0, 0.3)])
def test_chebyshev_moments_against_quad(a, b):
    # scipy's "alg" weight is (1+y)^alpha (1-y)^beta for wvar = (alpha, beta);
    # "alg-loga" multiplies it by log(1+y) and "alg-logb" by log(1-y)
    num = 25
    for wrt, weight in ((None, "alg"), ("a", "alg-logb"), ("b", "alg-loga")):
        got = _chebyshev_moments(a, b, num, wrt)
        for k in range(num):
            want = quad(lambda y: eval_chebyt(k, y), -1.0, 1.0, weight=weight, wvar=(b, a),
                        limit=200)[0]
            assert abs(got[k] - want) <= 1e-12, (wrt, k)


def _beta_sum_moments(a, b, num):
    """int T_k(y) (1-y)^a (1+y)^b dy for k < num at 40 digits: T_k expanded
    in powers of 1+y, each power a beta integral."""
    with mpmath.workdps(40):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        # beta[m] = int (1-y)^a (1+y)^(b+m) dy = 2^(a+b+m+1) B(a+1, b+m+1)
        beta = [mpmath.power(2, a + b + 1) * mpmath.beta(a + 1, b + 1)]
        for m in range(1, num):
            beta.append(beta[-1] * 2 * (b + m) / (a + b + m + 1))
        out = []
        for k in range(num):
            mono = np.polynomial.chebyshev.cheb2poly(np.eye(k + 1)[k])  # small integers
            total = mpmath.mpc(0)
            for j, c in enumerate(mono):
                for m in range(j + 1):  # y^j = sum_m C(j, m) (1+y)^m (-1)^(j-m)
                    total += int(c) * math.comb(j, m) * (-1) ** (j - m) * beta[m]
            out.append(complex(total))
    return np.array(out)


@pytest.mark.parametrize("a, b", [(0.0, 0.25 + 0.5j), (0.5, -0.25 - 0.4j), (0.0, -0.35 + 0.5j),
                                  (1.0, 0.7 - 1.3j)])
def test_chebyshev_moments_complex_exponent(a, b):
    got = _chebyshev_moments(a, b, 25)
    want = _beta_sum_moments(a, b, 25)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _random_spectrum(n, J, seed):
    """Mean-zero complex input with odd degrees, full for n = 3 and zonal
    otherwise."""
    rng = np.random.default_rng(seed)
    pole = None if n == 3 else np.eye(n)[0]
    degrees = HarmonicSpectrum.zeros(n, J, pole).degrees
    coeffs = (rng.standard_normal(len(degrees)) + 1j * rng.standard_normal(len(degrees)))
    return HarmonicSpectrum(n, J, coeffs / (1.0 + degrees) ** 2, pole).with_zero_mean()


@pytest.mark.parametrize("n, J", [(3, 6), (3, 20), (3, 32), (4, 8), (5, 8)])
@pytest.mark.parametrize("key, lam", [
    ("cosine", 0.5), ("cosine", 0.5 + 1.0j), ("cosine", -0.7 - 0.4j),
    ("sine", -0.5), ("sine", 0.3 - 0.8j),
    ("logcos", None), ("logsine", None),
])
def test_quadrature_matches_spectral_for_every_kernel(key, lam, n, J):
    spec = _random_spectrum(n, J, seed=10 * n + J)
    points = np.random.default_rng(J).standard_normal((12, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    op = OPERATORS[key]
    got = op.quadrature(spec.evaluate, points, n, lam, J, {})
    want = op.spectral(spec, lam).evaluate(points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("transform, lam", [(cosine_transform, 0.5 + 1j),
                                            (sine_transform, 0.3 - 0.8j)])
def test_complex_lambda_quadrature_above_band_16(transform, lam):
    # the shell profile is fitted at the input's band limit; a fixed degree-16
    # fit was off by 5e-4 relative here
    x = random_even_spectrum(3, 20, seed=20).to_grid(build_grid(3, 21))
    got = transform(x, lam=lam, path="quadrature").values
    want = transform(x, lam=lam, path="spectral").values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
