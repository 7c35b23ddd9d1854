import inspect
import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_chebyt

from funkinv.errors import (
    InvalidArgumentError,
    PoleError,
    PreconditionError,
)
from funkinv.grids import build_grid, grid_function
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
from funkinv.stiefel import cosine_k_function, funk_k_function, haar_frames
from funkinv.transforms import (
    OPERATORS,
    _chebyshev_moments,
    _center_rule,
    _frame_shell_values,
    _height_rule,
    _shell_rule,
    _subsphere_rule,
    cosine_quadrature_values,
    cosine_spectrum,
    cosine_transform,
    frame_scale,
    funk_geodesic_values,
    funk_scale,
    funk_spectrum,
    funk_transform,
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
    assert abs(gamma_norm_k(-1.0, 3, 1) - 0.0) <= 1e-13  # zero of 1/Gamma((lam+1)/2)
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
        gamma_norm_k(2.0, 3, 1)


@pytest.mark.parametrize("call", [lambda: funk_scale(1), lambda: funk_scale(2),
                                  lambda: frame_scale(4, 0), lambda: frame_scale(2, 1),
                                  lambda: null_sphere_scale(4, 4), lambda: null_sphere_scale(4, 0)])
def test_normalization_constants_reject_bad_dimensions(call):
    # n >= 3 and 1 <= k <= n-1, named before any Gamma factor meets a pole
    with pytest.raises(InvalidArgumentError, match="1 <= k <= n-1"):
        call()


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
    quad = cosine_quadrature_values(f_odd.evaluate, probes, 0.5, profile_degree=3)
    assert np.max(np.abs(quad)) <= 1e-14


def test_cosine_degree2_zonal(probes):
    pole = np.array([0.48, -0.6, 0.64])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    out = cosine_quadrature_values(f.evaluate, probes, 1.0, profile_degree=2)
    want = cosine_multiplier(2, 3, 1.0) * f.evaluate(probes)
    assert np.max(np.abs(out - want)) <= 1e-12


def test_cosine_path_agreement(even_f3, probes, oracle_gate):
    for lam in (-0.5, -0.25, 0.3, 1.0, 1.7):
        quad = cosine_quadrature_values(
            even_f3.evaluate, probes, lam, profile_degree=even_f3.max_degree
        )
        spec = cosine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_cosine_path_agreement_complex(even_f3, probes):
    for lam in (-0.5 + 0.4j, 1.2 - 0.9j):
        quad = cosine_quadrature_values(
            even_f3.evaluate, probes, lam, profile_degree=even_f3.max_degree
        )
        spec = cosine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_cosine_path_agreement_n4(even_f4, grid4):
    probes4 = grid4.nodes[::97]
    for lam in (-0.5, 1.0):
        quad = cosine_quadrature_values(
            even_f4.evaluate, probes4, lam, profile_degree=even_f4.max_degree
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
    # auto takes quadrature for grid input at every lam, past Re lam = -1 too
    assert cosine_transform(f_grid, lam=-0.5, path="auto").meta["path"] == "quadrature"
    out_a = cosine_transform(f_grid, lam=-1.5, path="auto")
    assert out_a.meta["path"] == "quadrature"
    out_s = cosine_transform(f_grid, lam=-1.5, path="spectral")
    assert np.max(np.abs(out_a.values - out_s.values)) <= 1e-12 * np.max(np.abs(out_s.values))


def test_cosine_guards(grid3, even_f3):
    with pytest.raises(PoleError):
        cosine_spectrum(even_f3, 2.0)
    with pytest.raises(PoleError):
        cosine_spectrum(even_f3, 4.0 + 1e-11)
    # Re lam <= -1 is no longer out of the quadrature's domain
    got = cosine_quadrature_values(even_f3.evaluate, grid3.nodes[:2], -1.2, profile_degree=8)
    want = cosine_spectrum(even_f3, -1.2).evaluate(grid3.nodes[:2])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
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
    geo = funk_geodesic_values(spec.evaluate, grid3.nodes[:5], profile_degree=0)
    assert_allclose(geo, 1.0, atol=1e-14)


def test_funk_zonal_degree2(probes):
    pole = np.array([0.28, 0.96, 0.0])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    geo = funk_geodesic_values(f.evaluate, probes, profile_degree=2)
    assert np.max(np.abs(geo - (-0.5) * f.evaluate(probes))) <= 1e-12


def test_funk_path_agreement(even_f3, probes):
    geo = funk_geodesic_values(even_f3.evaluate, probes, profile_degree=even_f3.max_degree)
    spec = funk_spectrum(even_f3).evaluate(probes)
    assert np.max(np.abs(geo - spec)) <= 1e-9


def test_funk_is_limit_of_cosine_family(even_f3, probes):
    # the -1 cosine transform equals the Funk transform times the fixed scale,
    # each side computed by an independent path
    lhs = cosine_spectrum(even_f3, -1.0).evaluate(probes)
    rhs = funk_scale(3) * funk_geodesic_values(
        even_f3.evaluate, probes, profile_degree=even_f3.max_degree
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_funk_grid_api(grid3, even_f3):
    f_grid = even_f3.to_grid(grid3)
    out_q = funk_transform(f_grid, path="quadrature")
    out_s = funk_transform(f_grid, path="spectral")
    assert np.max(np.abs(out_q.values - out_s.values)) <= 1e-9
    # the great-subsphere quadrature serves every n, and auto takes it
    x4 = random_even_spectrum(4, 4, 1).to_grid(build_grid(4, 5))
    out_q = funk_transform(x4, path="quadrature", pole=np.eye(4)[0])
    out_s = funk_transform(x4, path="spectral", pole=np.eye(4)[0])
    assert np.max(np.abs(out_q.values - out_s.values)) <= 1e-12 * np.max(np.abs(out_s.values))
    assert funk_transform(x4, pole=np.eye(4)[0]).meta["path"] == "quadrature"


@pytest.mark.parametrize("n", [3, 5])
def test_complement_basis_stack_matches_single(n):
    # the batched reflections give the same bases as one call per frame, so
    # the quadrature shells and the frame fibers keep their points
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


def _lapack_complement(u):
    return np.linalg.qr(u, mode="complete")[0][..., u.shape[-1]:]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_complement_basis_matches_lapack(n):
    # the Householder completion reproduces LAPACK's complete Q, signs included
    rng = np.random.default_rng(40 + n)
    units = rng.standard_normal((300, n))
    units /= np.linalg.norm(units, axis=1)[:, None]
    coordinate = np.concatenate([np.eye(n), -np.eye(n)])  # LAPACK's reflector is I at e_1
    cases = [units[:, :, None], coordinate[:, :, None], units[0][:, None], coordinate[1][:, None]]
    for k in range(1, n):
        cases.append(np.linalg.qr(rng.standard_normal((2, 3, n, k)))[0])
        cases.append(np.stack([np.eye(n)[:, :k], -np.eye(n)[:, :k], np.eye(n)[:, ::-1][:, :k]]))
    for u in cases:
        got = null_space_basis(u)
        assert got.shape == u.shape[:-1] + (n - u.shape[-1],)
        assert np.max(np.abs(got - _lapack_complement(u))) <= 1e-13, u.shape


def test_complement_basis_rejects_non_frames():
    for u in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(InvalidArgumentError):
            null_space_basis(u)


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
    quad = log_cosine_quadrature_values(f.evaluate, probes, profile_degree=2)
    want = log_cosine_multiplier(2, 3) * f.evaluate(probes)
    assert np.max(np.abs(quad - want)) <= 1e-12
    # random mean-zero function
    f0 = random_even_spectrum(3, 8, seed=9).with_zero_mean()
    quad = log_cosine_quadrature_values(f0.evaluate, probes, profile_degree=8)
    spec = log_cosine_spectrum(f0).evaluate(probes)
    assert np.max(np.abs(quad - spec)) <= 1e-12


def test_log_cosine_is_limit_of_cosine_family(probes):
    f0 = random_even_spectrum(3, 6, seed=10).with_zero_mean()
    small = cosine_spectrum(f0, 1e-5).evaluate(probes)
    logged = log_cosine_spectrum(f0).evaluate(probes)
    assert np.max(np.abs(small - logged)) <= 1e-4


def test_log_sine_consistency(probes):
    pole = np.array([0.0, 0.6, 0.8])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    quad = log_sine_quadrature_values(f.evaluate, probes, profile_degree=2)
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
            even_f3.evaluate, probes, lam, profile_degree=even_f3.max_degree
        )
        spec = sine_spectrum(even_f3, lam).evaluate(probes)
        assert np.max(np.abs(quad - spec)) <= 1e-12


def test_sine_factorization(even_f3, probes):
    # quadrature sine against the spectral composition through the Funk transform
    lam = -0.5
    lhs = sine_quadrature_values(
        even_f3.evaluate, probes, lam, profile_degree=even_f3.max_degree
    )
    rhs = funk_scale(3) * cosine_spectrum(funk_spectrum(even_f3), lam).evaluate(probes)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_sine_guards(even_f3, probes):
    with pytest.raises(PoleError):
        sine_spectrum(even_f3, 0.0)
    # Re lam <= 1-n is no longer out of the quadrature's domain
    got = sine_quadrature_values(even_f3.evaluate, probes, -2.5, profile_degree=8)
    want = sine_spectrum(even_f3, -2.5).evaluate(probes)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    scale = math.gamma(a + 1.0) * math.gamma(b + 1.0)
    for wrt, weight in ((None, "alg"), ("a", "alg-logb"), ("b", "alg-loga")):
        got = _chebyshev_moments(a, b, num, wrt)
        for k in range(num):
            want = quad(lambda y: eval_chebyt(k, y), -1.0, 1.0, weight=weight, wvar=(b, a),
                        limit=200)[0]
            assert abs(got[k] - want / scale) <= 1e-12, (wrt, k)


def _beta_sum_moments(a, b, num):
    """int T_k(y) (1-y)^a (1+y)^b dy / (Gamma(a+1) Gamma(b+1)) for k < num
    at 50 digits: T_k expanded in powers of 1+y, each power a beta integral
    over the same Gamma factors, which is entire in (a, b)."""
    with mpmath.workdps(50):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        # beta[m] = int (1-y)^a (1+y)^(b+m) dy / (Gamma(a+1) Gamma(b+1))
        beta = [mpmath.power(2, a + b + m + 1) * mpmath.rf(b + 1, m) * mpmath.rgamma(a + b + m + 2)
                for m in range(num)]
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


@pytest.mark.parametrize("a, b", [(0.0, -1.0), (-1.0, -0.5), (0.0, -3.0), (0.5, -1.75),
                                  (1.0, -4.0 + 0.3j), (-2.5, -0.5)])
def test_chebyshev_moments_past_the_integrable_range(a, b):
    # the regularized moments are entire: b = -1 and a = -1 are point masses,
    # and (0, -3) is n = 3, lam = -5, where the unregularized recurrence is 0/0
    got = _chebyshev_moments(a, b, 25)
    want = _beta_sum_moments(a, b, 25)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(np.isfinite(_chebyshev_moments(a, b, 201)))


def _random_spectrum(n, J, seed):
    """Mean-zero complex input with odd degrees, full for n = 3 and zonal
    otherwise."""
    rng = np.random.default_rng(seed)
    pole = None if n == 3 else np.eye(n)[0]
    degrees = HarmonicSpectrum.zeros(n, J, pole).degrees
    coeffs = (rng.standard_normal(len(degrees)) + 1j * rng.standard_normal(len(degrees)))
    return HarmonicSpectrum(n, J, coeffs / (1.0 + degrees) ** 2, pole).with_zero_mean()


@pytest.mark.parametrize("n", [3, 4, 7])
def test_quadrature_values_read_n_from_the_points(n):
    # each kernel's exponents follow the dimension of the points; there is
    # no separate n argument to disagree with them
    J = 6
    spec = _random_spectrum(n, J, seed=n)
    points = np.random.default_rng(n).standard_normal((5, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    for fn, transform, lam in (
        (cosine_quadrature_values, cosine_spectrum, (0.5,)),
        (sine_quadrature_values, sine_spectrum, (0.5,)),
        (log_cosine_quadrature_values, lambda f: log_cosine_spectrum(f), ()),
        (log_sine_quadrature_values, lambda f: log_sine_spectrum(f), ()),
    ):
        assert "n" not in inspect.signature(fn).parameters
        got = fn(spec.evaluate, points, *lam, profile_degree=J)
        want = transform(spec, *lam).evaluate(points)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n, J", [(3, 6), (3, 20), (3, 32), (4, 8), (5, 8), (6, 8)])
@pytest.mark.parametrize("key, lam", [
    ("cosine", 0.5), ("cosine", 0.5 + 1.0j), ("cosine", -0.7 - 0.4j),
    ("sine", -0.5), ("sine", 0.3 - 0.8j),
    ("logcos", None), ("logsine", None), ("funk", None),
    # below the old integrability edges Re lam > -1 (cosine), > 1-n (sine)
    ("cosine", -1.0), ("cosine", -1.5), ("cosine", -1.5 + 0.7j), ("cosine", -2.5 - 0.4j),
    ("cosine", -3.0),
    pytest.param("sine", lambda n: 1.0 - n, id="sine-1-n"),
    pytest.param("sine", lambda n: 1.0 - n + 0.3j, id="sine-1-n+0.3j"),
    pytest.param("sine", lambda n: 0.5 - n, id="sine-0.5-n"),
    pytest.param("sine", lambda n: -1.0 - n, id="sine--1-n"),
])
def test_quadrature_matches_spectral_for_every_kernel(key, lam, n, J):
    lam = lam(n) if callable(lam) else lam
    spec = _random_spectrum(n, J, seed=10 * n + J)
    points = np.random.default_rng(J).standard_normal((12, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    op = OPERATORS[key]
    got = op.quadrature(spec.evaluate, points, lam, J)
    want = op.spectral(spec, lam).evaluate(points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("transform, edge", [(cosine_transform, lambda n: -1.0),
                                             (sine_transform, lambda n: 1.0 - n)])
def test_auto_path_takes_quadrature_across_the_old_edge(transform, edge, n):
    # the kernel quadrature once stopped at Re lam = edge(n), and auto fell
    # back to the spectral path below it; now auto takes quadrature on both
    # sides, matching the spectral path, and both paths raise PoleError alike
    spec = random_even_spectrum(n, 4, seed=n)
    x = spec.to_grid(build_grid(n, 5))
    for lam in (edge(n) + d + 1j * im for d in (-1e-3, 1e-3) for im in (0.0, 0.7, -1.3)):
        got = transform(x, lam=lam, path="auto", pole=spec.pole)
        assert got.meta["path"] == "quadrature", lam
        want = transform(x, lam=lam, path="spectral", pole=spec.pole).values
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want)), lam
    for lam in (0.0, 2.0, 4.0 + 1e-11):
        for path in ("auto", "quadrature", "spectral"):
            with pytest.raises(PoleError):
                transform(x, lam=lam, path=path, pole=spec.pole)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quadrature_end_points(n):
    # b = -1 is the point mass at r = 0: the cosine at lam = -1 is the Funk
    # transform times funk_scale(n); a = -1 is the point mass at r = 1: the
    # sine at lam = 1-n is the identity on even input
    J = 8
    spec = random_even_spectrum(n, J, seed=40 + n, zonal=n > 3)
    points = np.random.default_rng(n).standard_normal((12, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    f = spec.evaluate(points)
    funk = funk_geodesic_values(spec.evaluate, points, profile_degree=J)
    cosine = cosine_quadrature_values(spec.evaluate, points, -1.0, profile_degree=J)
    assert np.max(np.abs(cosine - funk_scale(n) * funk)) <= 1e-13 * np.max(np.abs(funk))
    sine = sine_quadrature_values(spec.evaluate, points, 1.0 - n, profile_degree=J)
    assert np.max(np.abs(sine - f)) <= 1e-13 * np.max(np.abs(f))


@pytest.mark.parametrize("transform, lam", [(cosine_transform, 0.5 + 1j),
                                            (sine_transform, 0.3 - 0.8j)])
def test_complex_lambda_quadrature_above_band_16(transform, lam):
    # the shell profile is fitted at the input's band limit; a fixed degree-16
    # fit was off by 5e-4 relative here
    x = random_even_spectrum(3, 20, seed=20).to_grid(build_grid(3, 21))
    got = transform(x, lam=lam, path="quadrature").values
    want = transform(x, lam=lam, path="spectral").values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _poles(n):
    """+e_1, -e_1 and an oblique pole."""
    return np.eye(n)[0], -np.eye(n)[0], np.arange(1.0, n + 1)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pole_adapted_shell_rule_matches_the_product_rule(n):
    # a zonal spectrum takes the pole-adapted rule, its evaluate callable the
    # product rule over the span and fiber spheres; both are exact at band J
    r = np.array([0.0, 0.55, 1.0])
    for k, J in itertools.product(range(1, n - 1), (4, 8, 12)):
        for i, pole in enumerate(_poles(n)):
            rng = np.random.default_rng(100 * n + 10 * k + J + i)
            coeffs = rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)
            f = HarmonicSpectrum(n, J, coeffs / (1.0 + np.arange(J + 1)) ** 2, pole)
            frames = haar_frames(n, k, 1, seed=J + k + i)
            got = _frame_shell_values(f, frames, r, J)
            want = _frame_shell_values(f.evaluate, frames, r, J)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, k, J, i)


def _odd_content_inputs():
    """Inputs with every degree 0..J present, odd ones included: a full
    n = 3 table at J = 7 and zonal n = 4, 5 tables about an oblique pole."""
    rng = np.random.default_rng(2700)
    out = []
    for n, J in ((3, 7), (4, 7), (5, 8)):
        size = (J + 1) ** 2 if n == 3 else J + 1
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs /= 1.0 + np.arange(size)
        out.append(HarmonicSpectrum(n, J, coeffs, None if n == 3 else _poles(n)[2]))
    return out


@pytest.mark.parametrize("f", _odd_content_inputs(), ids=lambda f: f"n{f.n}-{f.kind}")
def test_odd_degree_content_is_projected_out(f):
    # a spectrum is integrated at one node of each antipodal pair of shell
    # points, which is exact for its even part only; on input with odd degrees
    # the spectrum path must still equal the spectral path (multipliers, which
    # annihilate odd degrees) and the callable path (the full product rule)
    n, J = f.n, f.max_degree
    f0 = f.with_zero_mean()
    points = haar_frames(n, 1, 6, seed=n)[:, :, 0]
    sphere = [
        (lambda g: cosine_quadrature_values(g, points, 0.5, profile_degree=J), f,
         cosine_spectrum(f, 0.5)),
        (lambda g: sine_quadrature_values(g, points, -0.5 + 0.2j, profile_degree=J), f,
         sine_spectrum(f, -0.5 + 0.2j)),
        (lambda g: funk_geodesic_values(g, points, profile_degree=J), f, funk_spectrum(f)),
        (lambda g: log_cosine_quadrature_values(g, points, profile_degree=J), f0,
         log_cosine_spectrum(f0)),
        (lambda g: log_sine_quadrature_values(g, points, profile_degree=J), f0,
         log_sine_spectrum(f0)),
    ]
    for i, (quadrature, g, spectral) in enumerate(sphere):
        got = quadrature(g)
        want = spectral.evaluate(points)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, i)
        assert np.max(np.abs(got - quadrature(g.evaluate))) <= 1e-13 * np.max(np.abs(want)), (n, i)
    # the frame functions at k = 2; at k = n-1 (n = 3) they also have a
    # spectral path: the sine transform at the unit normal of the frame's
    # span, and the even part at it for the Funk transform (a two-point sphere)
    frames = haar_frames(n, 2, 5, seed=10 + n)
    normals = null_space_basis(frames)[:, :, 0]
    frame = [(funk_k_function, {}, f.even_projected())]
    frame += [(cosine_k_function, {"lam": lam}, sine_spectrum(f, lam))
              for lam in (0.5 + 0.3j, -1.5)]
    for function, kw, spectral in frame:
        got = function(f, n, 2, **kw, profile_degree=J)(frames)
        want = function(f.evaluate, n, 2, **kw, profile_degree=J)(frames)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, kw)
        if n == 3:
            exact = spectral.evaluate(normals)
            assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact)), (n, kw)


def _sphere_moment(alpha) -> float:
    """Mean of the monomial x^alpha over S^{d-1}, d = len(alpha): zero unless
    every exponent is even, else prod Gamma(b_i) / Gamma(sum b_i) times
    Gamma(d/2) / pi^(d/2), b_i = (alpha_i + 1)/2."""
    if any(a % 2 for a in alpha):
        return 0.0
    b = [(a + 1) / 2.0 for a in alpha]
    log = sum(math.lgamma(x) for x in b) - math.lgamma(sum(b))
    return math.exp(log + math.lgamma(len(alpha) / 2.0)) / math.pi ** (len(alpha) / 2.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_subsphere_rule_integrates_every_monomial_up_to_its_degree(d):
    # the shell engine's product rule on S^{d-1}, sized J//2 + 1, is exact
    # for every monomial of degree <= J; its weights are a probability rule
    for J in range(13):
        nodes, weights, _ = _subsphere_rule(d, J)
        assert abs(weights.sum() - 1.0) <= 1e-14 and np.all(weights > 0)
        powers = nodes[None, :, :] ** np.arange(J + 1)[:, None, None]  # (J+1, N, d)
        for alpha in itertools.product(range(J + 1), repeat=d):
            if sum(alpha) > J:
                continue
            monomial = np.prod(powers[list(alpha), :, range(d)], axis=0)
            assert abs(monomial @ weights - _sphere_moment(alpha)) <= 1e-14, (d, J, alpha)


def _rules():
    """Every (rule, d) the shell engine reads, its point of r = 0 included."""
    return ([(_subsphere_rule, d) for d in range(1, 6)] + [(_height_rule, d) for d in range(1, 7)]
            + [(_center_rule, cols) for cols in (1, 2, 3)])


@pytest.mark.parametrize("rule, d", _rules(), ids=lambda v: getattr(v, "__name__", str(v)))
def test_antipode_maps_are_involutions(rule, d):
    # nodes[anti] == -nodes bitwise, with equal weights, so the half rule of a
    # shell keeps one node of each pair at exactly twice its weight
    for J in range(13):
        nodes, weights, anti = rule(d, J)
        assert np.array_equal(anti[anti], np.arange(len(anti)))
        assert np.array_equal(nodes[anti], -nodes) and np.array_equal(weights[anti], weights)
        assert abs(weights.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("span, fiber", [((_subsphere_rule, 1), (_subsphere_rule, 2)),
                                         ((_subsphere_rule, 2), (_subsphere_rule, 1)),
                                         ((_subsphere_rule, 2), (_subsphere_rule, 2)),
                                         ((_subsphere_rule, 1), (_subsphere_rule, 3)),
                                         ((_center_rule, 2), (_subsphere_rule, 3)),
                                         ((_height_rule, 2), (_height_rule, 3)),
                                         ((_height_rule, 1), (_height_rule, 4)),
                                         ((_center_rule, 1), (_height_rule, 5))],
                         ids=lambda rule: f"{rule[0].__name__}{rule[1]}")
def test_half_shell_rule_integrates_every_even_monomial(span, fiber):
    # the half product integrates every monomial in (theta, omega) of even
    # total degree <= J, the ones that antipodal symmetry leaves; heights
    # are the first coordinate of a sphere point, the point of r = 0 is 0
    def moment(rule, d, alpha):
        if rule is _center_rule:
            return float(not any(alpha))
        return _sphere_moment(alpha if rule is _subsphere_rule else alpha + (0,) * (d - 1))

    for J in range(9):
        theta, omega, weights = _shell_rule(*span, *fiber, J, True)
        # a pair is its own antipode when both of its nodes are
        fixed = np.prod([np.sum(anti == np.arange(len(anti)))
                         for anti in (span[0](span[1], J)[2], fiber[0](fiber[1], J)[2])])
        assert 2 * len(weights) - fixed == len(_shell_rule(*span, *fiber, J, False)[2])
        assert abs(weights.sum() - 1.0) <= 1e-14
        nodes = np.concatenate([theta, omega], axis=1)
        split = theta.shape[1]
        powers = nodes[None, :, :] ** np.arange(J + 1)[:, None, None]
        for alpha in itertools.product(range(J + 1), repeat=nodes.shape[1]):
            if sum(alpha) > J or sum(alpha) % 2:
                continue
            monomial = np.prod(powers[list(alpha), :, range(nodes.shape[1])], axis=0)
            want = moment(*span, alpha[:split]) * moment(*fiber, alpha[split:])
            assert abs(monomial @ weights - want) <= 1e-14, (J, alpha)


def test_shell_rules_are_built_once_per_key():
    # the kept nodes and weights are cached with the rules: batch after batch
    # of a frame function reads one table per (span, fiber, J, half) key
    J = 6
    zonal = random_even_spectrum(5, J, seed=3, pole=_poles(5)[2])
    full = random_even_spectrum(3, J, seed=4)
    _shell_rule.cache_clear()
    for seed in range(4):
        frames = haar_frames(5, 2, 7, seed=seed)
        funk_k_function(zonal, 5, 2, profile_degree=J)(frames)
        cosine_k_function(zonal, 5, 2, 0.5, profile_degree=J)(frames)
        funk_k_function(zonal.evaluate, 5, 2, profile_degree=J)(frames)
        cosine_quadrature_values(full, haar_frames(3, 1, 5, seed=seed)[:, :, 0], 0.5,
                                 profile_degree=J)
    info = _shell_rule.cache_info()
    assert (info.misses, info.hits) == (4, 12)
    rule = _shell_rule(_height_rule, 2, _height_rule, 3, J, True)
    assert rule is _shell_rule(_height_rule, 2, _height_rule, 3, J, True)
    assert not any(a.flags.writeable for a in rule)


def test_pole_adapted_shell_rule_rejects_other_dimensions():
    f = random_even_spectrum(5, 4, seed=1)
    with pytest.raises(InvalidArgumentError):
        _frame_shell_values(f, np.eye(4)[None, :, :1], np.zeros(1), 4)


@pytest.mark.parametrize("n, res", [(4, 5), (5, 5), (6, 5)])
@pytest.mark.parametrize("oblique", [False, True])
def test_every_transform_quadrature_matches_spectral_on_a_full_grid(n, res, oblique):
    # the grid samples of a zonal input are analyzed about its pole, so the
    # quadrature path runs the pole-adapted rule at every node
    pole = _poles(n)[2] if oblique else None
    spec = random_even_spectrum(n, 4, seed=60 + n, pole=pole)
    grid = build_grid(n, res)
    x, x0 = spec.to_grid(grid), spec.with_zero_mean().to_grid(grid)
    for transform, data, kw in ((cosine_transform, x, {"lam": 0.5}),
                                (sine_transform, x, {"lam": -0.5}),
                                (funk_transform, x, {}),
                                (log_cosine_transform, x0, {}),
                                (log_sine_transform, x0, {})):
        got = transform(data, path="quadrature", pole=spec.pole, **kw)
        want = transform(data, path="spectral", pole=spec.pole, **kw).values
        assert got.meta["path"] == "quadrature"
        err = np.max(np.abs(got.values - want))
        assert err <= 1e-12 * np.max(np.abs(want)), (transform.__name__, err)
