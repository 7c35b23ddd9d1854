import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, lpmv

from funkinv import gammafn
from funkinv.errors import (
    DivergenceError,
    DomainError,
    ExcludedComponentError,
    FunkinvError,
    InvalidArgumentError,
    PoleError,
    ResolutionError,
)
from funkinv.grids import GridFunction, QuadratureGrid, as_direction, build_grid
from funkinv.spectral import (
    ZONAL_BLOCK,
    HarmonicSpectrum,
    _rng,
    analyze,
    as_spectrum,
    cosine_multiplier,
    delta_op_eigenvalue,
    funk_hecke_multiplier_quadrature,
    funk_multiplier,
    harmonic_basis,
    log_cosine_multiplier,
    multiplier_table,
    pushforward_constant,
    random_even_spectrum,
    sine_multiplier,
    zonal_analysis_matrix,
    zonal_eval,
    zonal_norm_sq,
    zonal_profile_rule,
)
from funkinv.transforms import funk_scale, gamma_norm_k

SQPI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# zonal profiles


def test_zonal_values():
    assert zonal_eval(0, 5, 0.3) == 1.0
    assert zonal_eval(1, 4, 0.37) == 0.37
    assert abs(zonal_eval(2, 3, 0.0) + 0.5) <= 1e-15  # (3t^2-1)/2 at 0
    t = np.linspace(-1, 1, 7)
    assert_allclose(zonal_eval(2, 3, t), (3 * t**2 - 1) / 2, atol=1e-14)
    assert zonal_eval(6, 4, 1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_zonal_eval_matches_scipy_gegenbauer(n):
    alpha = (n - 2) / 2.0
    t = np.concatenate([np.linspace(-1.0, 1.0, 81), [0.0, 1e-3, -0.999]])
    for j in range(41):
        want = eval_gegenbauer(j, alpha, t) / eval_gegenbauer(j, alpha, 1.0)
        assert_allclose(zonal_eval(j, n, t), want, rtol=0, atol=1e-12)


def _zonal_profile_restarted(j, n, t):
    """The degree-j profile by its own run of the recurrence from degree 0."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    alpha = (n - 2) / 2.0
    prev = np.ones_like(t)
    if j == 0:
        return prev
    cur = t.copy()
    for jj in range(2, j + 1):
        prev, cur = cur, (2.0 * (jj + alpha - 1.0) * t * cur - (jj - 1.0) * prev) / (
            jj + 2.0 * alpha - 1.0
        )
    return cur


def test_zonal_one_pass_matches_per_degree_reference():
    # the block engine runs each degree's recurrence with the arithmetic of a
    # per-degree restart, so rows and synthesis equal it bit for bit; analysis
    # contracts the rows by matrix products, which sum in another order
    grid, J, n = build_grid(5, 9), 8, 5
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)
    coeffs[[1, 4, 7]] = 0.0
    coeffs[2] = 0.25  # real coefficient
    pole = np.array([0.6, 0.0, 0.0, 0.8, 0.0])
    spec = HarmonicSpectrum(n, J, coeffs, pole)
    t = np.clip(grid.nodes @ spec.pole, -1.0, 1.0)

    want = np.zeros(grid.num_nodes, dtype=complex)
    for j in range(J + 1):
        if coeffs[j] != 0.0:
            want += spec.coeffs[j] * _zonal_profile_restarted(j, n, t)
    values = spec.to_grid(grid)
    assert np.array_equal(values.values, want)

    # float64 bound on reordering a sum of N terms: |dc_j| <= 2 N eps sum_i
    # |w_i f_i Z_j(t_i)| / |Z_j|^2, both sums within N eps of the exact one
    wf = grid.weights * values.values
    profiles = np.array([_zonal_profile_restarted(j, n, t) for j in range(J + 1)])
    norms = np.array([zonal_norm_sq(j, n) for j in range(J + 1)])
    want = profiles @ wf / norms
    bound = 2 * grid.num_nodes * np.finfo(float).eps * (np.abs(profiles * wf) @ np.ones(
        grid.num_nodes)) / norms
    assert np.all(np.abs(analyze(values, J, pole=spec.pole).coeffs - want) <= bound)

    x, w = np.linspace(-1.0, 1.0, 13), np.full(13, 1.0 / 13)
    want = np.array([w * _zonal_profile_restarted(j, n, x) / zonal_norm_sq(j, n)
                     for j in range(J + 1)])
    assert np.array_equal(zonal_analysis_matrix(x, w, J, n), want)


def _zonal_rule_grid(n, pole, num_nodes, rule_nodes, rng):
    """A grid of ``num_nodes`` points whose heights u.pole repeat the nodes of
    a ``rule_nodes``-point profile rule, each copy taking its share of the
    weight; it integrates zonal polynomials about ``pole`` of degree
    <= 2 rule_nodes - 1 exactly (and nothing else)."""
    t, w = zonal_profile_rule(n, rule_nodes)
    k = np.arange(num_nodes) % rule_nodes
    side = rng.standard_normal((num_nodes, n))
    side -= np.outer(side @ pole, pole)
    side /= np.linalg.norm(side, axis=1)[:, None]
    nodes = t[k, None] * pole + np.sqrt(1.0 - t[k] ** 2)[:, None] * side
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = w[k] / np.bincount(k, minlength=rule_nodes)[k]
    return QuadratureGrid(n, nodes, weights, None, exactness_degree=2 * rule_nodes - 1)


@pytest.mark.parametrize("N", [0, 1, ZONAL_BLOCK - 1, ZONAL_BLOCK, ZONAL_BLOCK + 1,
                               2 * ZONAL_BLOCK + 3])
def test_zonal_blocks_join_at_every_boundary(N):
    n, J = 5, 8
    rng = np.random.default_rng(N)
    pole = as_direction(rng.standard_normal(n))
    coeffs = rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)
    coeffs[2], coeffs[3], coeffs[5] = 0.5, 0.5j, 0.0  # evaluate skips zero parts
    spec = HarmonicSpectrum(n, J, coeffs, pole)

    points = rng.standard_normal((N, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    t = np.clip(points @ spec.pole, -1.0, 1.0)
    want = np.zeros(N, dtype=complex)
    for j in range(J + 1):
        want += spec.coeffs[j] * _zonal_profile_restarted(j, n, t)
    got = spec.evaluate(points)
    assert got.shape == (N,) and np.array_equal(got, want)
    assert np.array_equal(zonal_eval(J, n, t), _zonal_profile_restarted(J, n, t))
    assert zonal_analysis_matrix(t, np.ones(N), J, n).shape == (J + 1, N)

    if N == 0:  # a grid holds at least one node
        return
    band = min(N, J + 1) - 1
    grid = _zonal_rule_grid(n, spec.pole, N, band + 1, rng)
    known = HarmonicSpectrum(n, band, coeffs[: band + 1], spec.pole)
    got = analyze(known.to_grid(grid), band, pole=spec.pole).coeffs
    assert np.max(np.abs(got - known.coeffs)) <= 1e-13


def test_zonal_domain_error():
    with pytest.raises(DomainError):
        zonal_eval(2, 3, 1.5)
    with pytest.raises(InvalidArgumentError):
        zonal_eval(-1, 3, 0.0)


@pytest.mark.parametrize("multiplier", [
    lambda n: cosine_multiplier(2, n, 0.5),
    lambda n: funk_multiplier(2, n),
    lambda n: sine_multiplier(2, n, 0.5),
    lambda n: log_cosine_multiplier(2, n),
    lambda n: delta_op_eigenvalue(2, n, 0.5, 1),
])
def test_every_multiplier_needs_n_at_least_3(multiplier):
    # below n = 3 a Gamma factor can meet its pole (funk_multiplier(2, 1) did,
    # in math.gamma); every multiplier names n instead
    for n in (1, 2):
        with pytest.raises(InvalidArgumentError, match="n >= 3"):
            multiplier(n)


def test_seeds_are_the_philox_keys():
    # a seed in [0, 2^128) is the Philox key, bitwise; any other is named
    for seed in (0, 7, np.int64(7), 2**128 - 1):
        want = np.random.Generator(np.random.Philox(key=int(seed))).standard_normal(4)
        assert _rng(seed).standard_normal(4).tobytes() == want.tobytes()
    for seed in (-1, 2**128, 1.5, "3"):
        with pytest.raises(InvalidArgumentError, match="seed"):
            _rng(seed)
        with pytest.raises(InvalidArgumentError, match="seed"):
            random_even_spectrum(3, 4, seed)


@pytest.mark.parametrize("zonal", [False, True])
def test_negative_max_degree_is_invalid(zonal):
    # a negative band would build an empty table that fails later with a raw
    # IndexError; the spectrum and random_even_spectrum name the argument
    pole = np.eye(3)[0] if zonal else None
    with pytest.raises(InvalidArgumentError, match="max_degree must be >= 0, got -1"):
        HarmonicSpectrum(3, -1, np.zeros(0, dtype=complex), pole)
    # below -1 a zonal table has no length to allocate
    with pytest.raises(InvalidArgumentError, match="max_degree"):
        random_even_spectrum(4 if zonal else 3, -2, seed=0, zonal=zonal)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arguments_raise_domain_error(bad):
    with pytest.raises(DomainError):
        zonal_eval(2, 3, bad)
    with pytest.raises(DomainError):
        zonal_eval(2, 5, np.array([0.1, bad, 0.3]))
    full = random_even_spectrum(3, 4, seed=1)
    zonal = random_even_spectrum(5, 4, seed=1, zonal=True)
    for spec in (full, zonal):
        points = np.zeros((3, spec.n))
        points[:, 0] = 1.0
        points[1, 0] = bad
        with pytest.raises(DomainError):
            spec.evaluate(points)
        points[1, 0], points[2, 1] = 1.0, bad
        with pytest.raises(DomainError):
            spec.evaluate(points)


@pytest.mark.parametrize("n, zonal", [(3, False), (3, True), (4, True)])
def test_evaluate_checks_the_shape_of_its_points(n, zonal):
    spec = random_even_spectrum(n, 4, seed=2, zonal=zonal)
    u = np.zeros(n)
    u[0], u[-1] = 0.6, 0.8
    for points in (u, u[None, :-1], np.append(u, 0.0)[None, :], u[None, None, :]):
        with pytest.raises(InvalidArgumentError):
            spec.evaluate(points)
    assert spec.evaluate(u[None, :]).shape == (1,)


@pytest.mark.parametrize("n, zonal", [(3, False), (3, True), (5, True)])
def test_evaluate_rejects_points_off_the_sphere(n, zonal):
    # a full table once returned the north-pole value at (0, 0, 5) and a
    # zonal one the value at height 0.5 for the point 0.5 e_1
    spec = random_even_spectrum(n, 4, seed=3, zonal=zonal)
    pole = np.eye(n)[0]
    for scale in (5.0, 0.5, 1.0 + 1e-6, 0.0):
        with pytest.raises(DomainError, match="unit vectors"):
            spec.evaluate(np.stack([pole, scale * pole]))
    # points built as unit vectors are unit only to rounding, and pass
    rng = np.random.default_rng(n)
    points = rng.standard_normal((50, n))
    points /= np.linalg.norm(points, axis=1)[:, None]
    assert np.all(np.isfinite(spec.evaluate(points * (1.0 + 1e-12))))
    grid = build_grid(n, 4)
    assert np.all(np.isfinite(spec.evaluate(grid.nodes)))


def test_zonal_norms_match_quadrature_oracle():
    # oracle: direct adaptive quadrature of the profile squared
    for j, n in [(2, 3), (4, 3), (2, 4), (3, 5)]:
        oracle, _ = quad(
            lambda t: zonal_eval(j, n, t) ** 2 * (1 - t * t) ** ((n - 3) / 2.0), -1, 1
        )
        oracle *= pushforward_constant(n)
        assert abs(zonal_norm_sq(j, n) - oracle) <= 1e-12


# ---------------------------------------------------------------------------
# Funk-Hecke quadrature and the closed-form gate


def test_quadrature_trivial_cases():
    assert abs(funk_hecke_multiplier_quadrature(lambda t: np.ones_like(t), 0, 3) - 1.0) <= 1e-14
    assert abs(funk_hecke_multiplier_quadrature(lambda t: np.ones_like(t), 2, 3)) <= 1e-12
    assert abs(funk_hecke_multiplier_quadrature(lambda t: np.ones_like(t), 0, 4) - 1.0) <= 1e-12


def test_oracle_gate(oracle_gate):
    assert oracle_gate <= 1e-9


def test_degree0_multiplier_at_limit_parameter():
    # the defining integral diverges at lambda = -1 while its coefficient
    # vanishes; the product continues analytically to Gamma(1/2)/Gamma(1)
    closed = cosine_multiplier(0, 3, -1.0)
    assert abs(closed - SQPI) <= 1e-10
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        lam = -1.0 + eps
        val = funk_hecke_multiplier_quadrature(
            lambda t, lam=lam: gamma_norm_k(lam, 3, 1) * np.abs(t) ** lam, 0, 3, power=lam
        )
        errors.append(abs(val - SQPI))
    assert errors[2] < errors[0]
    assert errors[2] <= 1e-3


def test_quadrature_divergence_detection():
    with pytest.raises(DivergenceError):
        funk_hecke_multiplier_quadrature(
            lambda t: np.abs(t) ** -1.2, 0, 3, power=-1.2
        )


def test_sine_kernel_quadrature_matches_closed_form():
    lam = -0.5
    val = funk_hecke_multiplier_quadrature(
        lambda t, lam=lam: gamma_norm_k(lam, 3, 2) * (1 - t * t) ** (lam / 2.0),
        2, 3, edge_power=lam / 2.0,
    )
    assert abs(val - sine_multiplier(2, 3, lam)) <= 1e-9


def test_log_kernel_quadrature_matches_closed_form():
    # oracle: adaptive quadrature of the logarithmic kernel (split at 0)
    for n in (3, 4):
        kernel_scale = 2.0 / math.gamma(n / 2.0)
        oracle, _ = quad(
            lambda t: kernel_scale
            * math.log(1.0 / abs(t))
            * zonal_eval(2, n, t)
            * (1 - t * t) ** ((n - 3) / 2.0),
            -1, 1, points=[0.0], limit=200,
        )
        oracle *= pushforward_constant(n)
        assert abs(log_cosine_multiplier(2, n) - oracle) <= 1e-10
        # the production rule converges on the same value, just more slowly
        prod = funk_hecke_multiplier_quadrature(
            lambda t, s=kernel_scale: s * np.log(1.0 / np.abs(t)), 2, n, num_nodes=400
        )
        assert abs(prod - oracle) <= 1e-5


# ---------------------------------------------------------------------------
# closed forms: values and identities


def test_cosine_multiplier_values():
    assert abs(cosine_multiplier(0, 3, -1.0) - SQPI) <= 1e-12
    prod = cosine_multiplier(2, 3, 0.7) * cosine_multiplier(2, 3, -0.7 - 3)
    assert abs(prod - 1.0) <= 1e-12
    assert abs(cosine_multiplier(2, 4, -1.0) - (-2.0 / 3.0)) <= 1e-12
    assert abs(cosine_multiplier(2, 3, 1.0) - (-SQPI / 2.0)) <= 1e-13


def test_cosine_multiplier_pole_handling():
    with pytest.raises(PoleError) as err:
        cosine_multiplier(2, 3, 4.0)
    assert err.value.pole == 4.0
    with pytest.raises(PoleError):
        cosine_multiplier(2, 3, 2.0 + 1e-13)
    with pytest.raises(InvalidArgumentError):
        cosine_multiplier(3, 3, 0.5)
    # denominator pole gives an exact zero, not an error
    assert cosine_multiplier(0, 3, -5.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 2, 4, 6, 8, 10]),
    st.sampled_from([3, 4, 5]),
    st.floats(min_value=-3.9, max_value=3.9),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_duality_product_property(j, n, lam_re, lam_im):
    lam = complex(lam_re, lam_im)
    if abs(lam.imag) < 0.1:
        # keep away from the real pole sets of both factors
        if min(abs(lam.real - p) for p in range(0, 16, 2)) < 0.1:
            return
        if min(abs(-lam.real - n - p) for p in range(-16, 16, 2)) < 0.1:
            return
    prod = cosine_multiplier(j, n, lam) * cosine_multiplier(j, n, -lam - n)
    assert abs(prod - 1.0) <= 1e-10


def test_recursion_property():
    # one factor of the weighted Laplacian lowers the parameter by two
    for n in (3, 4, 5):
        for j in (0, 2, 4, 8):
            for lam in (-2.7, -0.5, 0.9, 1.3 + 0.8j):
                lhs = delta_op_eigenvalue(j, n, lam, 1) * cosine_multiplier(j, n, lam + 2)
                assert abs(lhs - cosine_multiplier(j, n, lam)) <= 1e-10


def test_delta_chain_property():
    for ell in (1, 2, 3):
        for j in (0, 2, 6):
            for n in (3, 4, 5):
                lam = -0.77
                lhs = delta_op_eigenvalue(j, n, lam, ell) * cosine_multiplier(
                    j, n, lam + 2 * ell
                )
                assert abs(lhs - cosine_multiplier(j, n, lam)) <= 1e-10


def test_funk_multiplier_values():
    assert funk_multiplier(0, 3) == pytest.approx(1.0, abs=1e-14)
    assert funk_multiplier(0, 7) == pytest.approx(1.0, abs=1e-14)
    assert abs(funk_multiplier(2, 3) + 0.5) <= 1e-13  # equals the profile at 0
    assert abs(funk_multiplier(2, 3) - zonal_eval(2, 3, 0.0)) <= 1e-13
    assert abs(funk_multiplier(2, 4) + 1.0 / 3.0) <= 1e-13
    for j in (0, 2, 4, 8):
        # n = 4 reduction: alternating 1/(j+1)
        want = (-1.0) ** (j // 2) / (j + 1)
        assert abs(funk_multiplier(j, 4) - want) <= 1e-13
        # consistency with the cosine family at its limit parameter
        assert abs(funk_multiplier(j, 5) - cosine_multiplier(j, 5, -1.0) / funk_scale(5)) <= 1e-13


def test_funk_multiplier_vs_great_circle_oracle():
    # oracle: direct great-circle average of a zonal profile about a tilted pole
    pole = np.array([0.6, 0.0, 0.8])
    u = np.array([0.0, 1.0, 0.0])
    ang = 2 * np.pi * np.arange(256) / 256
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    circle = np.outer(np.cos(ang), e1) + np.outer(np.sin(ang), e2)
    for j in (2, 4, 6):
        oracle = np.mean(zonal_eval(j, 3, circle @ pole))
        want = funk_multiplier(j, 3) * zonal_eval(j, 3, float(u @ pole))
        assert abs(oracle - want) <= 1e-12


def test_sine_multiplier_values():
    for n in (3, 4, 5):
        for j in (0, 2, 4, 10):
            assert abs(sine_multiplier(j, n, 1 - n) - 1.0) <= 1e-12
    assert abs(sine_multiplier(0, 3, -1.0) - math.pi) <= 1e-12


def test_log_multiplier_values():
    assert abs(log_cosine_multiplier(2, 3) + 4.0 / (3.0 * SQPI)) <= 1e-13
    assert abs(log_cosine_multiplier(2, 4) + 0.5) <= 1e-13
    with pytest.raises(ExcludedComponentError):
        log_cosine_multiplier(0, 3)
    # removable-singularity value: continuity of the cosine family at 0
    assert abs(cosine_multiplier(2, 3, 1e-6) - log_cosine_multiplier(2, 3)) <= 1e-5


def test_delta_op_values():
    assert delta_op_eigenvalue(4, 3, 0.3 + 1j, 0) == 1.0
    assert delta_op_eigenvalue(0, 3, -3.0, 1) == 0.0
    assert abs(delta_op_eigenvalue(2, 4, -3.0, 1) - 2.25) <= 1e-14
    with pytest.raises(InvalidArgumentError):
        delta_op_eigenvalue(2, 3, 0.0, -1)


# ---------------------------------------------------------------------------
# analysis / synthesis


def test_analyze_constant(grid3):
    from funkinv.grids import constant_function

    spec = analyze(constant_function(grid3, 1.0), 6)
    assert abs(spec.coeffs[0] - 1.0) <= 1e-12
    assert np.max(np.abs(spec.coeffs[1:])) <= 1e-12


def test_full_round_trip(grid3, even_f3):
    grid_f = even_f3.to_grid(grid3)
    back = analyze(grid_f, 8)
    assert np.max(np.abs(back.coeffs - even_f3.coeffs)) <= 1e-12
    again = analyze(back.to_grid(grid3), 8)
    assert np.max(np.abs(again.coeffs - back.coeffs)) <= 1e-12


def test_even_function_has_no_odd_degrees(grid3, even_f3):
    spec = analyze(even_f3.to_grid(grid3), 8)
    for j in range(1, 9, 2):
        assert spec.degree_l2(j) <= 1e-12


def test_analyze_second_moment(grid3):
    from funkinv.grids import grid_function

    spec = analyze(grid_function(grid3, lambda v: (v[:, 0] ** 2).astype(complex)), 4)
    assert abs(spec.coeffs[0] - 1.0 / 3.0) <= 1e-13


def test_zonal_round_trip(grid4, even_f4):
    grid_f = even_f4.to_grid(grid4)
    back = analyze(grid_f, 6, pole=even_f4.pole)
    assert np.max(np.abs(back.coeffs - even_f4.coeffs)) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n, res, J", [(3, 17, 16), (4, 17, 16), (5, 17, 16), (6, 9, 8)])
def test_zonal_route_on_the_polar_axis(n, res, J, sign):
    # about +-e_1 every profile is constant on the rings of a build_grid
    # output: to_grid evaluates one node per ring, analyze sums per ring
    grid = build_grid(n, res)
    j = np.arange(J + 1)
    rng = np.random.default_rng(n)
    coeffs = (rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1)) / (1.0 + j) ** 2
    f = HarmonicSpectrum(n, J, coeffs, sign * np.eye(n)[0])
    values = f.to_grid(grid)
    assert np.max(np.abs(values.values - f.evaluate(grid.nodes))) <= 1e-14
    back = analyze(values, J, pole=f.pole)
    assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))


def _complex_full_spectrum(J, seed):
    # odd degrees and no conjugate symmetry, so every (j, m) entry matters
    rng = np.random.default_rng(seed)
    size = (J + 1) ** 2
    return HarmonicSpectrum(3, J, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("J", range(17))
def test_ring_route_matches_the_dense_reference(J):
    # on build_grid(3, .) every order is e^{i m phi} times its value at the
    # first node of its ring, so to_grid and analyze run one FFT per ring
    f = _complex_full_spectrum(J, seed=J)
    for res in sorted({max(J + 1, 4), max(J + 3, 4)}):  # build_grid needs res >= 4
        grid = build_grid(3, res)
        assert grid.ring_size == 2 * res
        values = f.to_grid(grid).values
        assert _relative_gap(values, f.evaluate(grid.nodes)) <= 1e-14
        want = harmonic_basis(grid.nodes, J).conj().T @ (grid.weights * values)
        assert _relative_gap(analyze(GridFunction(grid, values), J).coeffs, want) <= 1e-14


def test_ring_route_folds_orders_past_the_ring_size():
    # 12 nodes per ring carry orders -16..16 only aliased onto their bins
    f = _complex_full_spectrum(16, seed=3)
    grid = build_grid(3, 6)
    assert _relative_gap(f.to_grid(grid).values, f.evaluate(grid.nodes)) <= 1e-14
    real = random_even_spectrum(3, 16, seed=4)
    assert not np.any(real.to_grid(grid).values.imag)
    assert not np.any(real.to_grid(build_grid(3, 17)).values.imag)


def _turned_grid(res, node, turn):
    """build_grid(3, res) with one node turned ``turn`` rad about e_1: x_1 is
    still constant on every ring, but the azimuths are no longer uniform."""
    grid = build_grid(3, res)
    nodes = np.array(grid.nodes)
    nodes[node, 1:] = [math.cos(turn) * nodes[node, 1] - math.sin(turn) * nodes[node, 2],
                       math.sin(turn) * nodes[node, 1] + math.cos(turn) * nodes[node, 2]]
    return QuadratureGrid(3, nodes, grid.weights, None, grid.exactness_degree, grid.resolution)


def test_grids_off_the_ring_layout_are_rings_of_one_node():
    # the same nodes without a resolution, and rings with one node moved in
    # azimuth, are rings of one node: to_grid runs the engine of evaluate at
    # every node, and analyze contracts the basis at every node
    grid = build_grid(3, 9)
    bare = QuadratureGrid(3, grid.nodes, grid.weights, grid.antipode, grid.exactness_degree)
    moved = _turned_grid(9, 20, 1e-3)
    assert bare.ring_size == 1 and moved.ring_size == 1
    f = _complex_full_spectrum(8, seed=5)
    for g in (bare, moved):
        values = f.to_grid(g).values
        assert np.array_equal(values, f.evaluate(g.nodes))
        want = harmonic_basis(g.nodes, 8).conj().T @ (g.weights * values)
        assert _relative_gap(analyze(GridFunction(g, values), 8).coeffs, want) <= 1e-14


@pytest.mark.parametrize("pole", [[1.0, 2.0, -0.5, 0.3, 0.7], [1.0, 1e-13, 0.0, 0.0, 0.0],
                                  [-1.0, 1e-13, 0.0, 0.0, 0.0], None])
def test_off_axis_pole_runs_the_block_engine(pole):
    # any pole farther than AXIS_TOL from +-e_1 sees the grid node by node,
    # bitwise as on the same nodes without rings; so does a full table on
    # rings whose azimuths are not uniform
    if pole is None:
        grid = _turned_grid(9, 20, 1e-3)
        f = _complex_full_spectrum(8, seed=11)
    else:
        grid = build_grid(5, 9)
        assert grid.ring_size > 1
        f = random_even_spectrum(5, 8, seed=11, pole=pole) * (1.0 - 0.5j)
    bare = QuadratureGrid(grid.n, grid.nodes, grid.weights, grid.antipode, grid.exactness_degree)
    assert bare.ring_size == 1
    values = f.to_grid(grid).values
    assert np.array_equal(values, f.evaluate(grid.nodes))
    assert np.array_equal(values, f.to_grid(bare).values)
    on_rings = analyze(GridFunction(grid, values), 8, pole=pole)
    assert np.array_equal(on_rings.coeffs, analyze(GridFunction(bare, values), 8, pole=pole).coeffs)


def test_analyze_resolution_guard(grid4):
    from funkinv.grids import constant_function

    with pytest.raises(ResolutionError):
        analyze(constant_function(grid4, 1.0), 8, pole=np.eye(4)[0])
    with pytest.raises(InvalidArgumentError):
        analyze(constant_function(grid4, 1.0), 4)  # n > 3 needs a pole


def test_addition_formula_links_basis_and_zonal():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(3); u /= np.linalg.norm(u)
    v = rng.standard_normal(3); v /= np.linalg.norm(v)
    B = harmonic_basis(np.vstack([u, v]), 8)
    for j in (1, 3, 6, 8):
        got = np.sum(B[0, j * j : (j + 1) ** 2] * np.conj(B[1, j * j : (j + 1) ** 2]))
        want = (2 * j + 1) * zonal_eval(j, 3, float(u @ v))
        assert abs(got - want) <= 1e-12


def _lpmv_basis(points, max_degree):
    """Reference harmonics from scipy's lpmv (Condon-Shortley phase) and the
    factorial normalization, polar about e_1 (phi = atan2(x_3, x_2));
    overflows past degree ~85."""
    ct = np.clip(points[:, 0], -1.0, 1.0)
    phi = np.arctan2(points[:, 2], points[:, 1])
    out = np.empty((len(points), (max_degree + 1) ** 2), dtype=complex)
    for j in range(max_degree + 1):
        base = j * (j + 1)
        for m in range(j + 1):
            norm = math.sqrt((2 * j + 1) * math.exp(math.lgamma(j - m + 1) - math.lgamma(j + m + 1)))
            col = norm * lpmv(m, j, ct) * np.exp(1j * m * phi)
            out[:, base + m] = col
            if m:
                out[:, base - m] = (-1.0) ** m * np.conj(col)
    return out


def _test_points(num, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((num, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    special = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0], [0.6, 0.8, 0]]
    return np.vstack([pts, special])


@pytest.mark.parametrize("J", [0, 1, 2, 7, 16, 40])
def test_harmonic_basis_matches_lpmv_reference(J):
    pts = _test_points(40, seed=J)
    assert np.max(np.abs(harmonic_basis(pts, J) - _lpmv_basis(pts, J))) <= 1e-12


@pytest.mark.parametrize("J", [0, 1, 5, 13])
def test_evaluate_matches_basis_product(J):
    # odd degrees and no conjugate symmetry, so every (j, m) entry matters
    pts = _test_points(60, seed=100 + J)
    rng = np.random.default_rng(J)
    c = rng.standard_normal((J + 1) ** 2) + 1j * rng.standard_normal((J + 1) ** 2)
    want = harmonic_basis(pts, J) @ c
    got = HarmonicSpectrum(3, J, c).evaluate(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_harmonic_basis_finite_at_high_degree():
    # the factorial normalization times lpmv turns non-finite from degree 86 on
    J = 120
    pts = _test_points(6, seed=3)
    B = harmonic_basis(pts, J)
    assert np.all(np.isfinite(B))
    # addition theorem: sum_m |Y_Jm(u)|^2 = 2J + 1 at every point
    power = np.sum(np.abs(B[:, J * J :]) ** 2, axis=1)
    assert np.max(np.abs(power - (2 * J + 1))) <= 1e-10
    f = HarmonicSpectrum(3, J, np.ones((J + 1) ** 2, dtype=complex))
    assert np.all(np.isfinite(f.evaluate(pts)))


def test_random_even_spectrum_is_real_and_even(grid3):
    f = random_even_spectrum(3, 8, seed=5)
    vals = f.to_grid(grid3).values
    assert np.max(np.abs(vals.imag)) <= 1e-13
    assert np.max(np.abs(vals - vals[grid3.antipode])) <= 1e-13
    f2 = random_even_spectrum(3, 8, seed=5)
    assert np.array_equal(f.coeffs, f2.coeffs)



def test_is_real_is_decided_exactly():
    full = random_even_spectrum(3, 8, seed=5)
    zonal = random_even_spectrum(5, 6, seed=5)
    assert full.is_real and zonal.is_real
    assert HarmonicSpectrum(3, 0, np.array([1.0 + 0j])).is_real
    # one broken conjugate pair, a complex mean, a complex zonal coefficient
    for spec, i in ((full, 8 * 9 + 3), (full, 0), (zonal, 2)):
        coeffs = np.array(spec.coeffs)
        coeffs[i] += 1e-17j if coeffs[i] != 0 else 1e-300j
        assert not HarmonicSpectrum(spec.n, spec.max_degree, coeffs, spec.pole).is_real
    assert not (1j * full).is_real


def test_multiplier_table():
    table = multiplier_table("cosine", 3, 8, lam=-1.0)
    assert table.degrees == (0, 2, 4, 6, 8)
    assert abs(table.values[0] - SQPI) <= 1e-12
    log_table = multiplier_table("log-cosine", 4, 8)
    assert log_table.degrees == (2, 4, 6, 8)
    with pytest.raises(InvalidArgumentError):
        multiplier_table("nope", 3, 8)
    # a negative or fractional band is refused, not tabulated as no degrees
    for bad in (-1, -2, 8.5):
        with pytest.raises(InvalidArgumentError, match="max_degree"):
            multiplier_table("cosine", 3, bad, lam=-1.0)
    same = multiplier_table("cosine", 3, np.int64(8), lam=-1.0)
    assert same.degrees == table.degrees and np.array_equal(same.values, table.values)


def test_as_spectrum_needs_an_integer_band_limit():
    # a fractional band is refused rather than truncated (every operation on
    # grid samples: test_grid_samples.py); numpy integers and the band
    # recorded by synthesis are taken as they are
    f = random_even_spectrum(3, 6, seed=7).to_grid(build_grid(3, 9))
    for bad in (4.7, 4.0, "4"):
        with pytest.raises(InvalidArgumentError, match="integer band limit"):
            as_spectrum(f, bad)
    want = analyze(f, 4)
    for band in (4, np.int64(4), np.int32(4)):
        got, grid = as_spectrum(f, band)
        assert grid is f.grid and got.max_degree == 4
        assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(as_spectrum(f)[0].coeffs, analyze(f, 6).coeffs)


def _mp_cosine(j, n, lam):
    sign = -1 if (j // 2) % 2 else 1
    lam = mpmath.mpc(lam)
    return sign * mpmath.gamma((j - lam) / 2) / mpmath.gamma((j + lam + n) / 2)


def test_multipliers_match_mpmath_to_high_degree():
    # the gamma ratios are taken in log space, so no table overflows however
    # high the degree; every entry stays within 1e-11 relative of mpmath
    cases = [
        (lambda j, n=n, lam=lam: cosine_multiplier(j, n, lam),
         lambda j, n=n, lam=lam: _mp_cosine(j, n, lam))
        for n, lam in ((3, -1.0), (4, 0.5), (7, -2.5), (3, 0.5 + 1j), (5, -1.5 - 2j))
    ]
    cases += [
        (lambda j: sine_multiplier(j, 3, 0.5),
         lambda j: _mp_cosine(j, 3, 0.5) * _mp_cosine(j, 3, -1)),
        (lambda j: funk_multiplier(j, 5),
         lambda j: _mp_cosine(j, 5, -1) * mpmath.gamma(2) / mpmath.sqrt(mpmath.pi)),
        # the removable value of the cosine multiplier at lam = 0
        (lambda j: log_cosine_multiplier(max(j, 2), 4),
         lambda j: _mp_cosine(max(j, 2), 4, 0)),
    ]
    with mpmath.workdps(30):
        for mine, ref in cases:
            for j in range(0, 2001, 2):
                want = complex(ref(j))
                got = complex(mine(j))
                assert abs(got - want) <= 1e-11 * abs(want), (j, got, want)
    assert np.all(np.isfinite(multiplier_table("funk", 3, 2000).values))


def test_multiplier_and_gamma_failures_are_funkinv_errors():
    # zeros of 1/Gamma stay exact zeros, poles stay PoleError
    assert cosine_multiplier(0, 3, -3.0) == 0.0
    assert cosine_multiplier(400, 3, -403.0) == 0.0
    with pytest.raises(PoleError):
        cosine_multiplier(400, 3, 404.0)
    # out of the double range: an error of the package, never inf, NaN or OverflowError
    for call in (lambda: cosine_multiplier(0, 3, -700.0), lambda: gammafn.gamma(180.0),
                 lambda: gammafn.rgamma(-180.5), lambda: gammafn.gamma(200 + 1j)):
        with pytest.raises(FunkinvError):
            call()


# ---------------------------------------------------------------------------
# degree-vector multipliers and the per-coefficient degree index

MULTIPLIERS = {
    "cosine": (lambda j, lam: cosine_multiplier(j, 5, lam), 0),
    "sine": (lambda j, lam: sine_multiplier(j, 5, lam), 0),
    "funk": (lambda j, lam: funk_multiplier(j, 5), 0),
    "log-cosine": (lambda j, lam: log_cosine_multiplier(j, 5), 2),
    "delta-op": (lambda j, lam: delta_op_eigenvalue(j, 5, lam, 3), 0),
}


@pytest.mark.parametrize("lam", [-1.0, 0.5, -2.5, 0.3 - 0.7j, -1.5 + 2j])
@pytest.mark.parametrize("name", list(MULTIPLIERS))
def test_multiplier_on_degree_array_matches_scalar_loop(name, lam):
    mult, first = MULTIPLIERS[name]
    # the weighted Laplacian acts on every degree, the kernels on even ones
    degrees = np.arange(first, 401, 1 if name == "delta-op" else 2)
    got = mult(degrees, lam)
    want = np.array([mult(int(j), lam) for j in degrees], dtype=got.dtype)
    assert got.shape == degrees.shape
    assert got.tobytes() == want.tobytes()


def test_scalar_degree_returns_a_scalar():
    for j in (4, np.int64(4)):
        assert isinstance(cosine_multiplier(j, 3, 0.5), complex)
        assert isinstance(sine_multiplier(j, 3, 0.5 + 1j), complex)
        assert isinstance(funk_multiplier(j, 3), float)
        assert isinstance(log_cosine_multiplier(j, 3), float)
        assert isinstance(delta_op_eigenvalue(j, 3, 0.5, 2), complex)


def test_bad_degree_in_array_raises_the_scalar_error():
    for bad in (3, -2):
        for call in (lambda j: cosine_multiplier(j, 3, 0.5), lambda j: funk_multiplier(j, 3),
                     lambda j: sine_multiplier(j, 3, 0.5), lambda j: log_cosine_multiplier(j, 3)):
            with pytest.raises(InvalidArgumentError):
                call(bad)
            with pytest.raises(InvalidArgumentError):
                call(np.array([2, 4, bad, 6]))
    with pytest.raises(InvalidArgumentError):
        delta_op_eigenvalue(np.array([0, 1, -1]), 3, 0.5, 1)
    with pytest.raises(PoleError) as scalar:
        cosine_multiplier(6, 3, 8.0)
    with pytest.raises(PoleError) as array:
        cosine_multiplier(np.array([0, 2, 4, 6, 8]), 3, 8.0)
    assert array.value.pole == scalar.value.pole == 8
    with pytest.raises(ExcludedComponentError):
        log_cosine_multiplier(np.array([2, 0, 4]), 3)
    with pytest.raises(DomainError):
        cosine_multiplier(np.array([0, 2]), 3, -700.0)


def _random_spectrum(n, max_degree, seed, zonal):
    rng = np.random.default_rng(seed)
    size = max_degree + 1 if zonal else (max_degree + 1) ** 2
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return HarmonicSpectrum(n, max_degree, coeffs, rng.standard_normal(n) if zonal else None)


@pytest.mark.parametrize("n, zonal", [(3, False), (3, True), (5, True)])
def test_degree_index_matches_per_degree_reference(n, zonal):
    J = 9
    spec = _random_spectrum(n, J, seed=7, zonal=zonal)

    def block(j):  # the storage layout, written out per degree
        return slice(j, j + 1) if zonal else slice(j * j, (j + 1) ** 2)

    want = np.empty(len(spec.coeffs), dtype=int)
    for j in range(J + 1):
        want[block(j)] = j
    assert np.array_equal(spec.degrees, want)
    assert not spec.degrees.flags.writeable
    table = np.random.default_rng(8).standard_normal(J + 1) * (1 - 0.5j)
    scaled = spec.scale_degrees(table)
    l2 = []
    for j in range(J + 1):
        part = spec.coeffs[block(j)]
        assert_allclose(scaled.coeffs[block(j)], table[j] * part, rtol=1e-15, atol=0)
        assert np.array_equal(spec.degree_slice(j), part)
        l2.append(float(np.linalg.norm(part)) * (math.sqrt(zonal_norm_sq(j, n)) if zonal else 1.0))
        assert spec.degree_l2(j) == pytest.approx(l2[j], rel=1e-15)
    assert_allclose(spec.degree_l2(np.arange(J + 1)), l2, rtol=1e-15)
    assert spec.norm() == pytest.approx(math.sqrt(sum(x * x for x in l2)), rel=1e-15)
    assert spec.odd_part_norm() == pytest.approx(math.sqrt(sum(x * x for x in l2[1::2])), rel=1e-15)
    even = spec.even_projected()
    for j in range(J + 1):
        want = spec.degree_slice(j) * (1 - j % 2)
        assert np.array_equal(even.degree_slice(j), want)


def test_spectra_about_one_pole_stay_compatible():
    # a derived spectrum keeps its source's pole bitwise: normalizing a unit
    # vector again would move it by an ulp per step
    f = random_even_spectrum(5, 6, seed=1, pole=np.random.default_rng(5).standard_normal(5))
    g = f
    for _ in range(4):
        g = 1.0 * g
    assert np.array_equal(g.pole, f.pole)
    assert (g - f).norm() == 0.0
    h = random_even_spectrum(4, 6, seed=2, pole=[1.0, 2.0, 3.0, 4.0])
    for derived in (h.even_projected(), h.scale_degrees(np.arange(7.0)), h * 2, h + h):
        assert np.array_equal(derived.pole, h.pole)
    # poles along one direction normalized from different vectors still combine
    assert (h - random_even_spectrum(4, 6, seed=2, pole=[3.0, 6.0, 9.0, 12.0])).norm() == 0.0
