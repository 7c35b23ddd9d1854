"""Every operation that takes grid samples reads them at the band they record.

``GRID_OPERATIONS`` lists each such operation once: the five transforms on
both paths, the two Laplacians and the four inversions.  On band-14 samples,
a call without ``band_limit=`` equals, bit for bit, the same call with
``band_limit=14``; a fractional ``band_limit=`` and the same values with
no recorded band raise ``InvalidArgumentError``; and on a grid too coarse
for band 14 they raise ``ResolutionError``.  ``test_every_grid_operation_is_listed`` keeps the
table whole: a public function that reaches ``spectral.as_spectrum`` must
have a row.
"""

import ast
from pathlib import Path

import pytest

import funkinv
from funkinv.diffops import WeightedOpSpec, beltrami, weighted_laplacian
from funkinv.errors import InvalidArgumentError, ResolutionError
from funkinv.grids import GridFunction, build_grid
from funkinv.inversion import (
    invert_cosine1,
    invert_funk,
    invert_general_between,
    invert_general_outside,
)
from funkinv.spectral import random_even_spectrum
from funkinv.transforms import (
    cosine_transform,
    funk_transform,
    log_cosine_transform,
    log_sine_transform,
    sine_transform,
)

PACKAGE = Path(funkinv.__file__).resolve().parent
BAND = 14
LAM = 0.5 + 0.3j


def _transform_rows(name, transform, **keywords):
    return {f"{name}/{path}": lambda g, path=path, **kw: transform(g, path=path, **keywords, **kw)
            for path in ("spectral", "quadrature")}


# each operation as (samples, **keywords) -> result, keyed by its public name
# (and the path, for the transforms)
GRID_OPERATIONS = {
    **_transform_rows("cosine_transform", cosine_transform, lam=LAM),
    **_transform_rows("funk_transform", funk_transform),
    **_transform_rows("log_cosine_transform", log_cosine_transform),
    **_transform_rows("sine_transform", sine_transform, lam=LAM),
    **_transform_rows("log_sine_transform", log_sine_transform),
    "beltrami": beltrami,
    "weighted_laplacian": lambda g, **kw: weighted_laplacian(
        g, WeightedOpSpec(lam=-1.5, ell=2, n=g.grid.n), **kw),
    "invert_funk": invert_funk,
    "invert_cosine1": invert_cosine1,
    "invert_general_between": lambda g, **kw: invert_general_between(g, -0.5, 1, **kw),
    "invert_general_outside": lambda g, **kw: invert_general_outside(g, -0.5, 1, **kw),
}


def _outcome(result):
    """A result as something == compares bit for bit: the sample bytes and
    the metadata, or each reconstruction's bytes and the report."""
    if isinstance(result, GridFunction):
        return result.values.tobytes(), repr(sorted(result.meta.items()))
    return ([r.values.tobytes() for r in result.reconstructions], result.methods,
            repr(result.report.to_dict()))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", list(GRID_OPERATIONS))
def test_grid_samples_are_read_at_their_band(name, n):
    operation = GRID_OPERATIONS[name]
    # mean zero, so the logarithmic transforms take it too
    f = random_even_spectrum(n, BAND, seed=7).with_zero_mean()
    samples = f.to_grid(build_grid(n, BAND + 1))
    assert samples.meta["band_limit"] == BAND
    got = operation(samples, pole=f.pole)
    assert _outcome(got) == _outcome(operation(samples, pole=f.pole, band_limit=BAND))
    with pytest.raises(InvalidArgumentError, match="integer band limit"):
        operation(samples, pole=f.pole, band_limit=BAND - 0.5)
    with pytest.raises(InvalidArgumentError):
        operation(GridFunction(samples.grid, samples.values), pole=f.pole)
    with pytest.raises(ResolutionError):
        operation(f.to_grid(build_grid(n, 10)), pole=f.pole)


def grid_operations(paths) -> set:
    """The public functions of ``paths`` that reach ``as_spectrum``: those
    that call it, or call by name a function that reaches it."""
    calls, public = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                calls[node.name] = {
                    sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", None)
                    for sub in ast.walk(node) if isinstance(sub, ast.Call)}
                if not node.name.startswith("_"):
                    public.add(node.name)
    reach, grown = {"as_spectrum"}, True
    while grown:
        new = {name for name, called in calls.items() if called & reach} - reach
        reach |= new
        grown = bool(new)
    return (reach & public) - {"as_spectrum"}


def test_every_grid_operation_is_listed():
    listed = {name.split("/")[0] for name in GRID_OPERATIONS}
    assert grid_operations(sorted(PACKAGE.glob("*.py"))) == listed


def test_grid_operation_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _inner(f):\n    return as_spectrum(f)\n"
        "def outer(f):\n    return _inner(f)\n"
        "def method_call(f):\n    return spectral.as_spectrum(f)\n"
        "def unrelated(f):\n    return f\n"
    )
    assert grid_operations([tmp_path / "a.py"]) == {"outer", "method_call"}
