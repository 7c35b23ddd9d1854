import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkinv.errors import InvalidArgumentError
from funkinv.diffops import (
    WeightedOpSpec,
    beltrami,
    beltrami_fd_values,
    beltrami_spectrum,
    fd_convergence_slope,
    weighted_laplacian,
    weighted_laplacian_fd,
    weighted_laplacian_spectrum,
)
from funkinv.grids import build_grid
from funkinv.spectral import HarmonicSpectrum, delta_op_eigenvalue, random_even_spectrum
from funkinv.transforms import cosine_spectrum


@pytest.fixture(scope="module")
def probes(grid3):
    return grid3.nodes[::23]


@pytest.fixture(scope="module")
def smooth_f3():
    # the (1+j)^-2 amplitudes keep the high-degree derivatives small enough
    # for tight FD bounds
    return random_even_spectrum(3, 6, seed=21)


def test_beltrami_trivial(grid3):
    const = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    assert np.max(np.abs(beltrami_spectrum(const).coeffs)) == 0.0
    fd = beltrami_fd_values(const.evaluate, grid3.nodes[:4], h=1e-3)
    assert np.max(np.abs(fd)) <= 1e-9


def test_beltrami_eigenvalue(probes):
    pole = np.array([0.6, 0.64, 0.48])
    f = HarmonicSpectrum(3, 2, np.array([0, 0, 1.0 + 0j]), pole)
    out = beltrami_spectrum(f)
    assert np.max(np.abs(out.evaluate(probes) + 6.0 * f.evaluate(probes))) <= 1e-13


def test_beltrami_fd_vs_spectral(smooth_f3, probes):
    ref = beltrami_spectrum(smooth_f3).evaluate(probes)
    fd = beltrami_fd_values(smooth_f3.evaluate, probes, h=1e-3)
    assert np.max(np.abs(fd - ref)) <= 1e-4


def test_beltrami_fd_second_order(smooth_f3, probes):
    ref = beltrami_spectrum(smooth_f3).evaluate(probes)
    errs = [
        np.max(np.abs(beltrami_fd_values(smooth_f3.evaluate, probes, h=h) - ref))
        for h in (1e-2, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    assert 50 <= ratio <= 200  # O(h^2): a decade in h gives about 100x


def test_grid_function_api(grid3, smooth_f3):
    f_grid = smooth_f3.to_grid(grid3)
    out = beltrami(f_grid)
    want = beltrami_spectrum(smooth_f3).to_grid(grid3)
    assert_allclose(out.values, want.values, atol=1e-12)
    op = WeightedOpSpec(lam=-1.5, ell=2, n=3)
    out = weighted_laplacian(f_grid, op)
    want = weighted_laplacian_spectrum(smooth_f3, op).to_grid(grid3)
    assert_allclose(out.values, want.values, atol=1e-12)


def test_weighted_laplacian_identity_order(smooth_f3):
    op = WeightedOpSpec(lam=0.3 + 0.2j, ell=0, n=3)
    out = weighted_laplacian_spectrum(smooth_f3, op)
    assert np.array_equal(out.coeffs, smooth_f3.coeffs)


def test_weighted_laplacian_kills_constant():
    const = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    op = WeightedOpSpec(lam=-3.0, ell=1, n=3)
    assert np.max(np.abs(weighted_laplacian_spectrum(const, op).coeffs)) == 0.0
    assert delta_op_eigenvalue(0, 3, -3.0, 1) == 0.0


def test_factored_matches_diagonal(smooth_f3):
    for ell in (1, 2, 3):
        op = WeightedOpSpec(lam=-1.5, ell=ell, n=3)
        diag = weighted_laplacian_spectrum(smooth_f3, op, method="diagonal")
        fact = weighted_laplacian_spectrum(smooth_f3, op, method="factored")
        assert np.max(np.abs(diag.coeffs - fact.coeffs)) <= 1e-12


def test_three_pipeline_recursion(smooth_f3, probes, oracle_gate):
    # one operator factor turns the (lam+2)-cosine transform into the lam one:
    # diagonal and factored must agree spectrally, finite differences to O(h^2)
    for lam in (-3.0, -1.5, -0.5, 0.5):
        phi = cosine_spectrum(smooth_f3, lam + 2)
        ref = cosine_spectrum(smooth_f3, lam).evaluate(probes)
        op = WeightedOpSpec(lam=lam, ell=1, n=3)
        diag = weighted_laplacian_spectrum(phi, op, "diagonal").evaluate(probes)
        fact = weighted_laplacian_spectrum(phi, op, "factored").evaluate(probes)
        assert np.max(np.abs(diag - ref)) <= 1e-8
        assert np.max(np.abs(fact - ref)) <= 1e-8
        fd = weighted_laplacian_fd(phi.evaluate, op, probes, h=1e-3)
        assert np.max(np.abs(fd - ref)) <= 1e-3


def test_fd_harmonic_extension_is_annihilated(probes):
    # |x|^(-1) is harmonic away from the origin in R^3
    const = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    op = WeightedOpSpec(lam=-3.0, ell=1, n=3)
    fd = weighted_laplacian_fd(const.evaluate, op, probes, h=1e-3)
    assert np.max(np.abs(fd)) <= 1e-5


def test_fd_matches_spectral_ell2(smooth_f3, probes):
    op = WeightedOpSpec(lam=-1.5, ell=2, n=3)
    ref = weighted_laplacian_spectrum(smooth_f3, op).evaluate(probes)
    fd = weighted_laplacian_fd(smooth_f3.evaluate, op, probes, h=3e-3)
    assert np.max(np.abs(fd - ref)) <= 1e-2


def test_fd_random_function_bound(probes):
    f = random_even_spectrum(3, 4, seed=31)
    op = WeightedOpSpec(lam=-0.5, ell=1, n=3)
    ref = weighted_laplacian_spectrum(f, op).evaluate(probes)
    fd = weighted_laplacian_fd(f.evaluate, op, probes, h=1e-3)
    assert np.max(np.abs(fd - ref)) <= 1e-3


def test_fd_convergence_slope(smooth_f3, probes):
    op = WeightedOpSpec(lam=-1.5, ell=1, n=3)
    ref = weighted_laplacian_spectrum(smooth_f3, op).evaluate(probes)
    steps = (1e-2, 3e-3, 1e-3)
    errs = [
        np.max(np.abs(weighted_laplacian_fd(smooth_f3.evaluate, op, probes, h=h) - ref))
        for h in steps
    ]
    slope = fd_convergence_slope(errs, steps)
    assert abs(slope - 2.0) <= 0.2


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("ell", [1, 2])
def test_fd_second_order_beyond_n3(n, ell):
    # the (2n+1)-point stencil in R^n; at ell = 2 rounding outweighs the
    # truncation below h of about 5e-3, so the steps stop there
    op = WeightedOpSpec(lam=-1.5, ell=ell, n=n)
    probes = build_grid(n, 6).nodes[::5]
    steps = (1e-2, 7e-3, 5e-3)
    for seed in range(3):
        f = random_even_spectrum(n, 6, seed)
        ref = weighted_laplacian_spectrum(f, op).evaluate(probes)
        errs = [
            np.max(np.abs(weighted_laplacian_fd(f.evaluate, op, probes, h=h) - ref))
            for h in steps
        ]
        assert abs(fd_convergence_slope(errs, steps) - 2.0) <= 0.2


def test_fd_guards(smooth_f3, probes):
    with pytest.raises(InvalidArgumentError):
        weighted_laplacian_fd(smooth_f3.evaluate, WeightedOpSpec(0.5, 3, 3), probes)
    with pytest.raises(InvalidArgumentError):
        weighted_laplacian_fd(smooth_f3.evaluate, WeightedOpSpec(0.5, 1, 4), probes)
    with pytest.raises(InvalidArgumentError):
        weighted_laplacian_fd(smooth_f3.evaluate, WeightedOpSpec(0.5, 1, 3), probes, h=1e-5)
    for ell in (-1, 1.5, 2.0):
        with pytest.raises(InvalidArgumentError, match="integer ell"):
            WeightedOpSpec(lam=0.5, ell=ell, n=3)


def test_fd_slope_needs_three_points():
    with pytest.raises(InvalidArgumentError):
        fd_convergence_slope([1e-2, 1e-4], [1e-1, 1e-2])
