import math

import numpy as np
import pytest

from funkinv.errors import InvalidArgumentError, PoleError, ResolutionError
from funkinv.grids import build_grid
from funkinv.inversion import (
    THEOREMS,
    invert_cosine1,
    invert_funk,
    invert_general_between,
    invert_general_outside,
)
from funkinv.spectral import (
    HarmonicSpectrum,
    cosine_multiplier,
    funk_multiplier,
    random_even_spectrum,
)
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


def test_recorded_band_is_analyzed(grid3_fine):
    f = random_even_spectrum(3, 14, seed=40)
    phi_grid = funk_spectrum(f).to_grid(grid3_fine)
    assert phi_grid.meta["band_limit"] == 14
    # grid samples are analyzed at the band they record
    result = invert_funk(phi_grid, reference=f)
    assert result.report.params["band_limit"] == 14
    assert result.report.max_error <= 1e-9


def test_band16_grid_input_inverts_at_its_band():
    # band-16 grid input without band_limit= is inverted at band 16
    f = random_even_spectrum(3, 16, seed=41)
    phi_grid = funk_spectrum(f).to_grid(build_grid(3, 17))
    rep = invert_funk(phi_grid, reference=f).report
    assert rep.params["band_limit"] == 16
    assert rep.max_error <= 1e-9
    assert max(rep.per_degree_errors.values()) <= 1e-9
    # an explicit lower band_limit is taken as given: degrees 14-16 of the
    # band-16 reference count in full as errors
    rep = invert_funk(phi_grid, band_limit=12, reference=f).report
    assert rep.params["band_limit"] == 12
    errs = rep.per_degree_errors
    assert set(errs) == set(range(17))
    assert max(errs[j] for j in range(13)) <= 1e-8
    assert errs[14] == f.degree_l2(14) > 0.0 and errs[16] == f.degree_l2(16) > 0.0
    assert rep.max_error >= 0.1 * max(errs[14], errs[16])


def test_grid_reference_is_analyzed_at_its_own_band():
    # a lower band_limit= picks the band of phi, not of the reference: the
    # same band-16 function as grid samples and as a spectrum gives one report
    f = random_even_spectrum(3, 16, seed=41)
    grid = build_grid(3, 17)
    phi_grid = funk_spectrum(f).to_grid(grid)
    as_spec = invert_funk(phi_grid, band_limit=12, reference=f).report
    as_grid = invert_funk(phi_grid, band_limit=12, reference=f.to_grid(grid)).report
    assert set(as_grid.per_degree_errors) == set(range(17))
    assert as_grid.per_degree_errors[16] > 0.0
    assert as_grid.max_error == pytest.approx(as_spec.max_error, rel=1e-12)
    for j, err in as_spec.per_degree_errors.items():
        assert as_grid.per_degree_errors[j] == pytest.approx(err, rel=1e-9, abs=1e-13)


def test_reference_below_the_output_band_is_zero_padded():
    # a band-8 reference against a band-16 reconstruction: compared at band
    # 16, where both sides vanish above degree 8
    f = random_even_spectrum(3, 8, seed=45)
    phi_grid = funk_spectrum(f).to_grid(build_grid(3, 17))
    rep = invert_funk(phi_grid, band_limit=16, reference=f).report
    assert rep.params["band_limit"] == 16
    assert set(rep.per_degree_errors) == set(range(17))
    assert max(rep.per_degree_errors.values()) <= 1e-9
    assert rep.max_error <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_theorems_invert_band16_grid_samples(n):
    # the chains are exact at every degree: band-16 samples with no
    # band_limit= invert within each theorem's tolerance
    f = random_even_spectrum(n, 16, seed=44)
    grid = build_grid(n, 17)
    lam, ell = -0.5 + 0j, 1
    for name, theorem in THEOREMS.items():
        phi = theorem.forward(f, lam, ell).to_grid(grid)
        rep = PUBLIC[name](phi, lam, ell, pole=f.pole, reference=f).report
        assert rep.params["band_limit"] == 16, name
        assert rep.max_error <= theorem.tolerance[n % 2], name


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


# each theorem's public inverse, called as (phi, lam, ell, **keywords)
PUBLIC = {
    "funk": lambda phi, lam, ell, **kw: invert_funk(phi, **kw),
    "cosine1": lambda phi, lam, ell, **kw: invert_cosine1(phi, **kw),
    "general-between": invert_general_between,
    "general-outside": invert_general_outside,
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_degree_condition_is_the_reciprocal_forward_multiplier(n):
    # degree_condition[j] = 1/|multiplier of the transform undone| from the
    # closed forms: C at lam+2 ell, C at lam (also at its log point
    # lam = 2 ell - n), C at 1, and F
    f = random_even_spectrum(n, 10, 0, zonal=(n != 3))
    degrees = np.arange(0, 11, 2)
    odd = "log-branch" if n % 2 else "outside"
    cases = [  # theorem, lam, ell, multiplier, the method of the last chain
        ("funk", -0.5, 1, funk_multiplier(degrees, n), odd),
        ("cosine1", -0.5, 1, cosine_multiplier(degrees, n, 1.0), odd),
        ("general-between", -0.5, 1, cosine_multiplier(degrees, n, 1.5), "between"),
        ("general-outside", -0.5, 1, cosine_multiplier(degrees, n, -0.5), "outside"),
        ("general-outside", 2 - n, 1, cosine_multiplier(degrees, n, 2 - n), "log-branch"),
    ]
    for name, lam, ell, multiplier, method in cases:
        phi = THEOREMS[name].forward(f, complex(lam), ell)
        result = PUBLIC[name](phi, lam, ell)
        assert result.methods[-1] == method
        want = dict(zip(degrees.tolist(), (1.0 / np.abs(multiplier)).tolist()))
        assert result.report.degree_condition == want, (name, lam)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_report_params_keys(n):
    # lam is reported by funk (as 1-n) and the general theorems; c only by
    # cosine1's log branch (odd n)
    keys = {
        "funk": {"n", "ell", "lam", "band_limit"},
        "cosine1": {"n", "ell", "band_limit"} | ({"c"} if n % 2 else set()),
        "general-between": {"n", "ell", "lam", "band_limit"},
        "general-outside": {"n", "ell", "lam", "band_limit"},
    }
    f = random_even_spectrum(n, 16, 1, zonal=(n != 3))
    for name, theorem in THEOREMS.items():
        phi = theorem.forward(f, -0.5 + 0j, 1)
        params = PUBLIC[name](phi, -0.5, 1).report.params
        assert set(params) == keys[name], name
        assert params["band_limit"] == 16
        if name == "funk":
            assert params["lam"] == 1 - n
        if n > 4:
            continue
        # band-16 grid data is analyzed at band 16, which a grid exact to
        # degree 25 cannot resolve; band_limit= picks a lower band
        grid = phi.to_grid(build_grid(n, 13))
        with pytest.raises(ResolutionError):
            PUBLIC[name](grid, -0.5, 1, pole=f.pole)
        params = PUBLIC[name](grid, -0.5, 1, pole=f.pole, band_limit=12).report.params
        assert set(params) == keys[name] and params["band_limit"] == 12, name
