"""Reconstruction of f from its cosine-family transforms C_lam.

Two general chains place the weighted Laplacian Delta_{lam,ell} between two
cosine transforms or outside them: ``between``, C_{-lam-n} Delta_{lam,ell},
undoes C_{lam+2 ell}; ``outside``, Delta_{-lam-n,ell} C_{-lam-n+2 ell}, undoes
C_lam.  Where the inner exponent -lam-n+2 ell is 0, ``outside`` takes the log
branch: the log-cosine transform (C_0 on degrees >= 2) of the mean-zero part,
plus the mean over the degree-0 multiplier of C_lam.

The Funk and 1-cosine theorems undo C_mu, mu = -1 (on funk_scale(n) times the
data, as F = C_{-1} / funk_scale(n)) and mu = 1, at ell = (n + mu) // 2: even
n runs ``between`` at (1-n, ell) and ``outside`` at (mu, ell) and reports
their agreement, itself an identity worth testing; odd n runs ``outside`` at
(mu, ell), where the log branch applies.

``THEOREMS`` is the one statement of each of the four inversions: the
transform it undoes, its chains with their methods and report params, the
public inverse that ``funkinv invert`` calls, and its tolerance.  One body,
``_invert``, runs every row: it returns the reconstruction(s) with an
:class:`InversionReport` of the per-degree condition numbers and, given a
reference, the errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gammafn
from .errors import PoleError
from .diffops import WeightedOpSpec, weighted_laplacian_spectrum
from .grids import GridFunction
from .spectral import (
    HarmonicSpectrum,
    as_spectrum,
    zonal_profile_rule,
)
from .transforms import (
    EVEN_POLE_TOL,
    check_off_even_poles,
    cosine_spectrum,
    funk_scale,
    funk_spectrum,
    log_cosine_spectrum,
    null_space_basis,
)

__all__ = [
    "InversionReport",
    "InversionResult",
    "invert_general_between",
    "invert_general_outside",
    "invert_funk",
    "invert_cosine1",
    "THEOREMS",
    "DEFAULT_BAND_CEILING",
]

# The differential chains amplify degree j polynomially; past this band limit
# double precision loses several digits.  Overridable via band_limit=.
DEFAULT_BAND_CEILING = 12

ODD_PART_TOL = 1e-10


@dataclass(frozen=True)
class InversionReport:
    """Record of one inversion run.

    method: 'between', 'outside', 'log-branch', or 'both' (even-n theorems
    returning the pair).  Error fields are filled only when a reference was
    given and are reproducible bit-for-bit for fixed inputs.
    """

    method: str
    params: dict
    degree_condition: dict
    max_error: float | None = None
    per_degree_errors: dict | None = None
    branch_agreement: float | None = None
    odd_part_norm: float = 0.0
    odd_part_warning: bool = False
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def _num(x):
            return None if x is None else float(x)

        return {
            "method": self.method,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "degree_condition": {str(j): float(v) for j, v in sorted(self.degree_condition.items())},
            "max_error": _num(self.max_error),
            "per_degree_errors": None
            if self.per_degree_errors is None
            else {str(j): float(v) for j, v in sorted(self.per_degree_errors.items())},
            "branch_agreement": _num(self.branch_agreement),
            "odd_part_norm": float(self.odd_part_norm),
            "odd_part_warning": bool(self.odd_part_warning),
            "extras": {k: _jsonable(v) for k, v in sorted(self.extras.items())},
        }


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass(frozen=True)
class InversionResult:
    reconstructions: tuple
    methods: tuple
    report: InversionReport

    @property
    def primary(self):
        return self.reconstructions[0]


def _probe_points(spec: HarmonicSpectrum) -> np.ndarray:
    """Deterministic evaluation points for pointwise error reports."""
    if spec.kind == "full":
        golden = math.pi * (3.0 - math.sqrt(5.0))
        k = np.arange(32)
        z = 1.0 - (2.0 * k + 1.0) / 32.0
        r = np.sqrt(1.0 - z * z)
        return np.stack([r * np.cos(golden * k), r * np.sin(golden * k), z], axis=1)
    return _meridian_points(spec, spec.max_degree + 2)[2]


def _meridian_points(spec: HarmonicSpectrum, num: int):
    """The nodes t and weights w of the ``num``-node zonal profile rule, and
    the points t pole + sqrt(1-t^2) q on a meridian through the pole of spec,
    q the first null-space direction of the pole; the rule integrates
    profiles of degree <= 2 num - 1 exactly."""
    t, w = zonal_profile_rule(spec.n, num)
    q = null_space_basis(spec.pole[:, None])[:, 0]
    return t, w, t[:, None] * spec.pole[None, :] + np.sqrt(1.0 - t * t)[:, None] * q[None, :]


def _zero_padded(spec: HarmonicSpectrum, max_degree: int) -> HarmonicSpectrum:
    """The same function as a spectrum of the higher band ``max_degree``."""
    padded = HarmonicSpectrum.zeros(spec.n, max_degree, spec.pole)
    coeffs = np.array(padded.coeffs)
    coeffs[padded.degrees <= spec.max_degree] = spec.coeffs
    return HarmonicSpectrum(spec.n, max_degree, coeffs, spec.pole)


def _between(spec: HarmonicSpectrum, lam: complex, ell: int):
    """C_{-lam-n} Delta_{lam,ell} spec, which undoes C_{lam+2 ell}, and the
    method, ``between``."""
    n = spec.n
    _guard(-lam - n, "-lambda-n")
    _guard(lam + 2 * ell, "lambda+2*ell")
    op = WeightedOpSpec(lam=lam, ell=ell, n=n)
    return cosine_spectrum(weighted_laplacian_spectrum(spec, op), -lam - n), "between"


def _outside(spec: HarmonicSpectrum, lam: complex, ell: int):
    """Delta_{-lam-n,ell} C_{-lam-n+2 ell} spec, which undoes C_lam, and the
    method that ran: ``outside``, or ``log-branch`` where the inner exponent
    is 0.  There lam = 2 ell - n, the cosine transform is the logarithmic one
    on the mean-zero part, and the mean is restored with the reciprocal of
    the degree-0 multiplier, 1/C_lam(0) = Gamma(ell) / Gamma(n/2 - ell)."""
    n = spec.n
    _guard(lam, "lambda")
    inner = -lam - n + 2 * ell
    op = WeightedOpSpec(lam=-lam - n, ell=ell, n=n)
    if abs(inner) > EVEN_POLE_TOL:
        _guard(inner, "-lambda-n+2*ell")
        return weighted_laplacian_spectrum(cosine_spectrum(spec, inner), op), "outside"
    out = weighted_laplacian_spectrum(log_cosine_spectrum(spec.with_zero_mean()), op)
    return _add_constant(out, _mean_factor(n, ell) * spec.mean), "log-branch"


def _mean_factor(n: int, ell: int) -> float:
    """1/C_lam(0) at the log point lam = 2 ell - n: Gamma(ell) / Gamma(n/2 - ell).
    At ell = 0 (lam = -n) C_lam(0) vanishes and the mean cannot be restored."""
    if ell == 0:
        raise PoleError(f"inversion constraint violated: the degree-0 multiplier of "
                        f"C_lambda vanishes at lambda = {-n}", pole=-n)
    return math.gamma(ell) / gammafn.gamma(n / 2.0 - ell).real


def _undo_cosine(spec: HarmonicSpectrum, mu: int, **params):
    """The (reconstruction, method) runs that undo C_mu, mu = +-1, by the
    parameter rule of the module docstring, and their params: ell and
    ``params``."""
    n = spec.n
    ell = (n + mu) // 2
    if n % 2:
        return [_outside(spec, mu, ell)], {"ell": ell, **params}
    return [_between(spec, 1 - n, ell), _outside(spec, mu, ell)], {"ell": ell, **params}


def _undo_cosine1(spec: HarmonicSpectrum):
    """The runs that undo C_1; odd n also reports the log branch's mean
    factor c = 1/C_1(0)."""
    runs, params = _undo_cosine(spec, 1)
    if spec.n % 2:
        params["c"] = _mean_factor(spec.n, params["ell"])
    return runs, params


def _invert(name, phi, lam, ell, band_limit, pole, reference) -> InversionResult:
    """Run the theorem ``THEOREMS[name]`` on phi, a spectrum or grid samples.

    Grid samples without band_limit= are analyzed to at most
    DEFAULT_BAND_CEILING, and the report keeps a higher input band as
    ``input_band_limit``; the reconstructions go back onto phi's grid.  The
    condition number of degree j is 1/|multiplier|, read off the forward
    map's image of the all-ones spectrum.
    """
    theorem = THEOREMS[name]
    analyzed, params = band_limit, {}
    if band_limit is None and isinstance(phi, GridFunction):
        given = int(phi.meta.get("band_limit", DEFAULT_BAND_CEILING))
        analyzed = min(given, DEFAULT_BAND_CEILING)
        if given > analyzed:
            params["input_band_limit"] = given
    spec, grid = as_spectrum(phi, analyzed, pole)
    runs, chain_params = theorem.chains(spec, lam, ell)
    outputs, methods = zip(*runs)
    params.update(chain_params, n=spec.n, band_limit=spec.max_degree)
    ones = HarmonicSpectrum(spec.n, spec.max_degree, np.ones_like(spec.coeffs), spec.pole)
    image = theorem.forward(ones, lam, ell)
    degrees = np.arange(0, spec.max_degree + 1, 2)
    with np.errstate(divide="ignore"):
        condition = 1.0 / np.abs(image.coeffs[np.searchsorted(image.degrees, degrees)])
    pts = _probe_points(outputs[0])
    agreement = max_err = per_degree = None
    if len(outputs) == 2:
        agreement = float(np.max(np.abs(outputs[0].evaluate(pts) - outputs[1].evaluate(pts))))
    if reference is not None:
        ref_spec = as_spectrum(reference, band_limit, spec.pole)[0]
        out = outputs[0]
        if ref_spec.max_degree > out.max_degree:
            # degrees above the output's band count in full as errors
            out = _zero_padded(out, ref_spec.max_degree)
        diff = out - ref_spec
        per_degree = dict(enumerate(diff.degree_l2(np.arange(diff.max_degree + 1)).tolist()))
        max_err = float(np.max(np.abs(outputs[0].evaluate(pts) - ref_spec.evaluate(pts))))
    odd_norm = spec.odd_part_norm()
    report = InversionReport(
        method="both" if len(outputs) == 2 else methods[0],
        params=params,
        degree_condition=dict(zip(degrees.tolist(), condition.tolist())),
        max_error=max_err,
        per_degree_errors=per_degree,
        branch_agreement=agreement,
        odd_part_norm=odd_norm,
        odd_part_warning=odd_norm > ODD_PART_TOL,
    )
    if grid is not None:
        outputs = tuple(o.to_grid(grid) for o in outputs)
    return InversionResult(outputs, methods, report)


def invert_general_between(phi, lam: complex, ell: int, *, band_limit: int | None = None,
                           pole=None, reference=None) -> InversionResult:
    """Undo the (lam+2*ell)-cosine transform: weighted Laplacian of order ell
    sandwiched between the data and a (-lam-n)-cosine transform."""
    return _invert("general-between", phi, complex(lam), ell, band_limit, pole, reference)


def invert_general_outside(phi, lam: complex, ell: int, *, band_limit: int | None = None,
                           pole=None, reference=None) -> InversionResult:
    """Undo the lam-cosine transform: (-lam-n+2*ell)-cosine transform of the
    data followed by the weighted Laplacian outside.  At lam = 2*ell - n the
    inner exponent is 0 and the log branch runs; it needs ell >= 1."""
    return _invert("general-outside", phi, complex(lam), ell, band_limit, pole, reference)


def invert_funk(phi, *, band_limit: int | None = None, pole=None,
                reference=None) -> InversionResult:
    """Reconstruct an even function from its great-subsphere averages.

    The chains undo C_{-1} on funk_scale(n) phi, with ell = (n-1)//2 and the
    Laplacian weight 1-n.  Even n: ``between`` at (1-n, ell) and ``outside``
    at (-1, ell) are both returned and their agreement reported.  Odd n: the
    log branch of ``outside`` at (-1, ell), with the mean restored additively.
    """
    return _invert("funk", phi, None, None, band_limit, pole, reference)


def invert_cosine1(phi, *, band_limit: int | None = None, pole=None,
                   reference=None) -> InversionResult:
    """Reconstruct an even function from its 1-cosine transform.

    The chains undo C_1 with ell = (n+1)//2.  Even n: ``between`` at
    (1-n, ell) and ``outside`` at (1, ell), both returned.  Odd n: the log
    branch of ``outside`` at (1, ell), which restores the mean with
    c = 1/C_1(0) = Gamma((n+1)/2) / Gamma(-1/2), reported as ``c``.
    """
    return _invert("cosine1", phi, None, None, band_limit, pole, reference)


@dataclass(frozen=True)
class _Theorem:
    forward: Callable  # (f, lam, ell) -> phi, the transform the theorem undoes
    chains: Callable  # (spec, lam, ell) -> ([(reconstruction, method), ...], params)
    inverse: Callable  # (phi, lam, ell, reference) -> InversionResult, the public inverse
    tolerance: tuple  # the default bound on max_error at even n and at odd n


# keyed and ordered by the names ``funkinv invert --theorem`` takes; each row
# is the one statement of its theorem, which ``_invert`` runs.  The entries
# look their functions up in this module at call time, so a tracer that
# replaces those attributes sees every call
THEOREMS = {
    "funk": _Theorem(
        lambda f, lam, ell: funk_spectrum(f),
        lambda spec, lam, ell: _undo_cosine(funk_scale(spec.n) * spec, -1, lam=complex(1 - spec.n)),
        lambda phi, lam, ell, ref: invert_funk(phi, reference=ref),
        (1e-9, 1e-6)),
    "cosine1": _Theorem(
        lambda f, lam, ell: cosine_spectrum(f, 1.0),
        lambda spec, lam, ell: _undo_cosine1(spec),
        lambda phi, lam, ell, ref: invert_cosine1(phi, reference=ref),
        (1e-8, 1e-6)),
    "general-between": _Theorem(
        lambda f, lam, ell: cosine_spectrum(f, lam + 2 * ell),
        lambda spec, lam, ell: ([_between(spec, lam, ell)], {"lam": lam, "ell": ell}),
        lambda phi, lam, ell, ref: invert_general_between(phi, lam, ell, reference=ref),
        (1e-8, 1e-8)),
    "general-outside": _Theorem(
        lambda f, lam, ell: cosine_spectrum(f, lam),
        lambda spec, lam, ell: ([_outside(spec, lam, ell)], {"lam": lam, "ell": ell}),
        lambda phi, lam, ell, ref: invert_general_outside(phi, lam, ell, reference=ref),
        (1e-8, 1e-8)),
}


def _add_constant(spec: HarmonicSpectrum, value: complex) -> HarmonicSpectrum:
    coeffs = np.array(spec.coeffs)
    coeffs[spec.degrees == 0] += value
    return HarmonicSpectrum(spec.n, spec.max_degree, coeffs, spec.pole)


def _guard(lam: complex, name: str) -> None:
    try:
        check_off_even_poles(lam)
    except PoleError as exc:
        raise PoleError(f"inversion constraint violated: {name} = {lam} is a pole", pole=exc.pole)
