import math

import numpy as np
import pytest

from funkinv.errors import InvalidArgumentError, PoleError
from funkinv.grids import build_grid
from funkinv.inversion import (
    THEOREMS,
    invert_cosine1,
    invert_funk,
    invert_general_between,
    invert_general_outside,
)
from funkinv.spectral import HarmonicSpectrum, random_even_spectrum
from funkinv.transforms import cosine_spectrum, funk_scale, funk_spectrum, funk_transform


def _max_coeff_err(spec_a, spec_b):
    return float(np.max(np.abs(spec_a.coeffs - spec_b.coeffs)))


def test_between_round_trip(even_f3):
    phi = cosine_spectrum(even_f3, -1.5 + 2)
    result = invert_general_between(phi, -1.5, 1, reference=even_f3)
    assert result.report.max_error <= 1e-8
    assert result.methods == ("between",)
    assert _max_coeff_err(result.primary, even_f3.even_projected()) <= 1e-10


def test_outside_round_trip(even_f4):
    phi = cosine_spectrum(even_f4, 0.5)
    result = invert_general_outside(phi, 0.5, 2, reference=even_f4)
    assert result.report.max_error <= 1e-8
    assert result.methods == ("outside",)


def test_between_outside_agreement(even_f3):
    # on any even band-limited data both chains realize the same inverse
    phi = cosine_spectrum(even_f3, 0.5)  # just an even band-limited function
    lam, ell = -1.5, 1
    a = invert_general_between(phi, lam, ell)
    b = invert_general_outside(phi, lam + 2 * ell, ell)
    assert _max_coeff_err(a.primary, b.primary) <= 1e-9


def test_constant_recovery():
    const = HarmonicSpectrum(3, 4, np.concatenate([[3.0 + 0j], np.zeros(24)]))
    phi = cosine_spectrum(const, -1.5 + 2)
    result = invert_general_between(phi, -1.5, 1, reference=const)
    assert result.report.max_error <= 1e-10


def test_between_pole_guard(even_f3):
    phi = cosine_spectrum(even_f3, 0.5)
    with pytest.raises(PoleError):
        invert_general_between(phi, -2.0, 2)  # lam + 2*ell = 2
    with pytest.raises(PoleError):
        invert_general_between(phi, -3.0 - 2.0, 1)  # -lam - n = 2 at n = 3... lam = -5
    with pytest.raises(PoleError):
        invert_general_outside(phi, 2.0, 1)


def test_funk_even_dimension(even_f4):
    phi = funk_spectrum(even_f4)
    result = invert_funk(phi, reference=even_f4)
    assert result.methods == ("between", "outside")
    assert result.report.max_error <= 1e-9
    assert result.report.branch_agreement <= 1e-9
    # both reconstructions, not just the primary
    for rec in result.reconstructions:
        assert _max_coeff_err(rec, even_f4.even_projected()) <= 1e-10


def test_funk_even_branches_agree_off_range(even_f4):
    # the two orderings agree on arbitrary even band-limited input,
    # not only on data in the range of the forward transform
    result = invert_funk(even_f4)
    assert result.report.branch_agreement <= 1e-9


def test_funk_odd_dimension(even_f3, even_f5):
    for f in (even_f3, even_f5):
        phi = funk_spectrum(f)
        result = invert_funk(phi, reference=f)
        assert result.methods == ("log-branch",)
        assert result.report.max_error <= 1e-6


def test_funk_odd_uses_geodesic_data(grid3, even_f3):
    # data produced by the independent great-circle quadrature path
    phi_grid = funk_transform(even_f3.to_grid(grid3), path="quadrature")
    result = invert_funk(phi_grid, band_limit=8, reference=even_f3)
    assert result.report.max_error <= 1e-6
    # grid in, grid out
    assert result.primary.grid is grid3


def test_funk_constant_recovery():
    const4 = HarmonicSpectrum(4, 2, np.array([2.0, 0, 0], dtype=complex), np.eye(4)[0])
    result = invert_funk(funk_spectrum(const4), reference=const4)
    assert result.report.max_error <= 1e-12
    const3 = HarmonicSpectrum(3, 0, np.array([2.0 + 0j]))
    result = invert_funk(funk_spectrum(const3), reference=const3)
    assert result.report.max_error <= 1e-12


def test_cosine1_even_dimension(even_f4):
    phi = cosine_spectrum(even_f4, 1.0)
    result = invert_cosine1(phi, reference=even_f4)
    assert result.report.max_error <= 1e-8
    assert result.report.branch_agreement <= 1e-9


def test_cosine1_odd_dimension(even_f3, even_f5):
    for f in (even_f3, even_f5):
        phi = cosine_spectrum(f, 1.0)
        result = invert_cosine1(phi, reference=f)
        assert result.report.max_error <= 1e-6
        assert result.methods == ("log-branch",)


def test_cosine1_constant_coefficient():
    # Gamma(2)/Gamma(-1/2) = -1/(2 sqrt(pi)); the constant must be restored by it
    const = HarmonicSpectrum(3, 0, np.array([1.0 + 0j]))
    phi = cosine_spectrum(const, 1.0)
    result = invert_cosine1(phi, reference=const)
    assert result.report.max_error <= 1e-12
    c = result.report.params["c"]
    assert abs(c - (-1.0 / (2.0 * math.sqrt(math.pi)))) <= 1e-13
    assert c < 0


def test_invalid_dimension():
    with pytest.raises(InvalidArgumentError):
        HarmonicSpectrum(2, 0, np.array([1.0 + 0j]))


def test_report_fields(even_f4):
    phi = funk_spectrum(even_f4)
    result = invert_funk(phi, reference=even_f4)
    rep = result.report
    assert rep.max_error >= 0.0
    assert all(v >= 0 for v in rep.per_degree_errors.values())
    assert not rep.odd_part_warning
    # condition numbers grow with degree (noise amplification record)
    cond = rep.degree_condition
    assert cond[6] > cond[2] > cond[0]
    d = rep.to_dict()
    assert d["method"] == "both"
    assert set(d["per_degree_errors"]) == {str(j) for j in range(7)}


def test_odd_part_warning(even_f4):
    coeffs = np.array(even_f4.coeffs)
    coeffs[3] = 0.2  # inject an odd component
    phi = HarmonicSpectrum(4, even_f4.max_degree, coeffs, even_f4.pole)
    result = invert_funk(phi)
    assert result.report.odd_part_warning
    assert result.report.odd_part_norm > 1e-10
    # the chain annihilates the odd part silently
    assert result.primary.odd_part_norm() == 0.0


def test_report_determinism(even_f3):
    phi = funk_spectrum(even_f3)
    a = invert_funk(phi, reference=even_f3).report.to_dict()
    b = invert_funk(phi, reference=even_f3).report.to_dict()
    assert a == b


def test_band_ceiling_default(grid3_fine):
    f = random_even_spectrum(3, 14, seed=40)
    phi_grid = funk_spectrum(f).to_grid(grid3_fine)
    phi_grid = phi_grid.with_values(phi_grid.values, band_limit=14)
    result = invert_funk(phi_grid)
    # analysis is capped at the documented ceiling unless overridden
    assert result.report.params["band_limit"] == 12
    result = invert_funk(phi_grid, band_limit=14, reference=f)
    assert result.report.params["band_limit"] == 14
    assert result.report.max_error <= 1e-6


def test_band_ceiling_clamp_is_reported():
    # band-16 grid input without band_limit= is analyzed to band 12; the report
    # keeps the input's band, and degrees 14-16 of a band-16 reference count
    # as errors instead of making the comparison fail
    f = random_even_spectrum(3, 16, seed=41)
    phi_grid = funk_spectrum(f).to_grid(build_grid(3, 17))
    rep = invert_funk(phi_grid, reference=f).report
    assert rep.params["band_limit"] == 12
    assert rep.params["input_band_limit"] == 16
    errs = rep.per_degree_errors
    assert set(errs) == set(range(17))
    assert max(errs[j] for j in range(13)) <= 1e-8
    assert errs[14] == f.degree_l2(14) > 0.0 and errs[16] == f.degree_l2(16) > 0.0
    assert rep.max_error >= 0.1 * max(errs[14], errs[16])
    assert rep.to_dict()["params"]["input_band_limit"] == 16
    # an explicit band_limit is taken as given
    rep = invert_funk(phi_grid, band_limit=16, reference=f).report
    assert "input_band_limit" not in rep.params and rep.max_error <= 1e-6


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("theorem", ["funk", "cosine1"])
def test_grid_reference_for_n_above_3(n, theorem):
    # zonal grid data with pole=: a grid reference is analyzed about the same
    # pole, so the comparison runs instead of asking for a pole
    pole = np.random.default_rng(n).standard_normal(n)
    f = random_even_spectrum(n, 6, seed=43, pole=pole)
    grid = build_grid(n, 7)
    if theorem == "funk":
        result = invert_funk(funk_spectrum(f).to_grid(grid), pole=f.pole, reference=f.to_grid(grid))
    else:
        result = invert_cosine1(
            cosine_spectrum(f, 1.0).to_grid(grid), pole=f.pole, reference=f.to_grid(grid)
        )
    rep = result.report
    assert rep.max_error <= 1e-12
    assert set(rep.per_degree_errors) == set(range(7))
    assert max(rep.per_degree_errors.values()) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_funk_and_cosine1_are_the_general_chains(n):
    # undoing C_mu, mu = -1 (Funk, on funk_scale(n) phi) or 1, at
    # ell = (n + mu) // 2: even n runs between at (1-n, ell) and outside at
    # (mu, ell); odd n runs outside at (mu, ell), the log point
    for seed in (0, 1, 2):
        f = random_even_spectrum(n, 10, seed, zonal=(n != 3))
        for mu, phi, invert in ((-1, funk_spectrum(f), invert_funk),
                                (1, cosine_spectrum(f, 1.0), invert_cosine1)):
            ell = (n + mu) // 2
            data = funk_scale(n) * phi if mu == -1 else phi
            want = [invert_general_outside(data, mu, ell).primary]
            if n % 2 == 0:
                want.insert(0, invert_general_between(data, 1 - n, ell).primary)
            got = invert(phi).reconstructions
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert _max_coeff_err(a, b) <= 1e-13 * np.max(np.abs(b.coeffs))


@pytest.mark.parametrize("n, lam, ell", [(3, -1, 1), (3, 3, 3), (4, -2, 1), (5, 1, 3), (6, -4, 1)])
def test_outside_log_point_round_trip(n, lam, ell):
    # -lam-n+2 ell = 0: the outside chain takes the log branch instead of
    # raising at the pole of C_0
    for seed in (0, 1, 2):
        f = random_even_spectrum(n, 10, seed, zonal=(n != 3))
        result = invert_general_outside(cosine_spectrum(f, lam), lam, ell, reference=f)
        assert result.methods == ("log-branch",)
        assert result.report.method == "log-branch"
        assert result.report.max_error <= 1e-13
        assert _max_coeff_err(result.primary, f.even_projected()) <= 1e-13


def test_outside_log_point_needs_a_mean_factor(even_f3):
    # at ell = 0 the log point is lam = -n, where C_lam(0) = 0: the mean is lost
    with pytest.raises(PoleError) as exc:
        invert_general_outside(even_f3, -3.0, 0)
    assert exc.value.pole == -3
    # the other poles of the inner exponent still raise: -lam-n+2 ell = 2
    with pytest.raises(PoleError):
        invert_general_outside(even_f3, -1.0, 2)


def test_theorem_table_maps_and_tolerances():
    assert list(THEOREMS) == ["funk", "cosine1", "general-between", "general-outside"]
    f = random_even_spectrum(4, 6, seed=5, zonal=True)
    lam, ell = -0.5 + 0j, 1
    forwards = {
        "funk": funk_spectrum(f),
        "cosine1": cosine_spectrum(f, 1.0),
        "general-between": cosine_spectrum(f, lam + 2 * ell),
        "general-outside": cosine_spectrum(f, lam),
    }
    for name, theorem in THEOREMS.items():
        phi = theorem.forward(f, lam, ell)
        assert np.array_equal(phi.coeffs, forwards[name].coeffs)
        result = theorem.inverse(phi, lam, ell, f)
        assert result.report.max_error <= theorem.tolerance[0]
    assert THEOREMS["funk"].tolerance == (1e-9, 1e-6)
    assert THEOREMS["cosine1"].tolerance == (1e-8, 1e-6)
