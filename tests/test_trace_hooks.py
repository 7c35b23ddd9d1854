"""Guards for the benchmark's span tracer, ``perfbench/spans.py``.

The tracer times each layer by replacing the funkinv functions it names in
``HOOKS`` with wrappers, looked up by module attribute.  A renamed function,
or a transform that binds its path functions before the tracer swaps them,
would silently drop spans from the per-layer metrics, so these tests check
both through the tracer itself (read from the checkout, not edited).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import funkinv as fk

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS = {"spectral": "transforms.spectral", "quadrature": "transforms.quadrature"}
TRANSFORMS = {
    "cosine": (fk.cosine_transform, {"lam": 0.5}),
    "funk": (fk.funk_transform, {}),
    "log-cosine": (fk.log_cosine_transform, {}),
    "sine": (fk.sine_transform, {"lam": 0.5}),
    "log-sine": (fk.log_sine_transform, {}),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(spans):
    for layer, module, attr, _ in spans.HOOKS:
        assert layer in spans.LAYERS
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


@pytest.mark.parametrize("path", ["auto", "spectral", "quadrature"])
@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_transform_spans_follow_the_chosen_path(spans, name, path):
    transform, kw = TRANSFORMS[name]
    x = fk.random_even_spectrum(3, 4, seed=1).with_zero_mean().to_grid(fk.build_grid(3, 6))
    tracer = spans.Tracer()
    with tracer.recording():
        out = transform(x, path=path, **kw)
    chosen = out.meta["path"]
    assert path in ("auto", chosen)
    recorded = {s.name for s in tracer.spans}
    assert LAYERS[chosen] in recorded
    assert not recorded & (set(LAYERS.values()) - {LAYERS[chosen]})
    if chosen == "quadrature":
        # the literal kernel integral stays independent of the closed forms
        assert "spectral.multiplier" not in recorded
