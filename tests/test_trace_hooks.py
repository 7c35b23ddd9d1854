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

import numpy as np
import pytest

import funkinv as fk
from funkinv import transforms
from funkinv.cli import main
from funkinv.stiefel import (
    check_identity,
    cosine_k_function,
    funk_k_function,
    haar_frames,
)
from funkinv.transforms import _subsphere_rule, cosine_quadrature_values, funk_geodesic_values

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
    # the frame transforms share the quadrature engine but not its span names
    assert not any(span.startswith("stiefel.") for span in recorded)
    if chosen == "quadrature":
        # the literal kernel integral stays independent of the closed forms
        assert "spectral.multiplier" not in recorded


@pytest.mark.parametrize("kind", ["funk", "cosine"])
def test_frame_transform_spans_stay_in_stiefel(spans, kind):
    # the frame transforms run the transforms' private frame helpers, so their
    # time is attributed to stiefel.frame_fn, never to transforms.quadrature,
    # even at k = 1 where the public sphere quadratures compute the same values
    f = fk.random_even_spectrum(4, 4, seed=2, zonal=True)
    for k in (1, 2):
        frames = haar_frames(4, k, 20, seed=3)
        tracer = spans.Tracer()
        with tracer.recording():
            if kind == "funk":
                phi = funk_k_function(f.evaluate, 4, k, profile_degree=4)
            else:
                phi = cosine_k_function(f.evaluate, 4, k, 0.5, profile_degree=4)
            phi(frames)
        recorded = {s.name for s in tracer.spans}
        assert {"stiefel.frame_fn", "spectral.evaluate"} <= recorded
        assert "transforms.quadrature" not in recorded


@pytest.mark.parametrize("theorem", ["funk", "cosine1", "general-between", "general-outside"])
def test_cli_invert_runs_inside_the_inversion_span(spans, theorem, tmp_path):
    # the theorem table looks the inversions up at call time, so a CLI run is
    # covered by the inversion span and its forward map by transforms.spectral
    tracer = spans.Tracer()
    with tracer.recording():
        assert main(["invert", "--theorem", theorem, "--n", "4",
                     "--out", str(tmp_path / "r.json")]) == 0
    recorded = [s.name for s in tracer.spans]
    assert recorded.count("inversion") == 1
    assert "transforms.spectral" in recorded


@pytest.mark.parametrize("J", [4, 12])
def test_quadrature_point_counts(J):
    # R fiber points per output for the Funk paths, at n = 3 and 5 (the r = 0
    # shell has one span point); 2 (J//2 + 1) R for the k = 1 cosine paths, one shell pair
    # per node of the half rule
    seen = []
    f3 = fk.random_even_spectrum(3, J, seed=4)
    f5 = fk.random_even_spectrum(5, J, seed=5, zonal=True)
    points5 = haar_frames(5, 1, 6, seed=9)[:, :, 0]

    def counting(f):
        def f_eval(points):
            seen.append(len(points))
            return f.evaluate(points)
        return f_eval

    def evaluated(call, outputs):
        seen.clear()
        call()
        return sum(seen) / outputs

    points = haar_frames(3, 1, 7, seed=6)[:, :, 0]
    frames1, frames2 = haar_frames(5, 1, 6, seed=7), haar_frames(5, 2, 6, seed=8)
    fiber = {d: len(_subsphere_rule(d, J)[1]) for d in (2, 3, 4)}
    shells = 2 * (J // 2 + 1)
    counts = {
        "funk_geodesic_values": evaluated(
            lambda: funk_geodesic_values(counting(f3), points, profile_degree=J), 7),
        "funk_geodesic_values n5": evaluated(
            lambda: funk_geodesic_values(counting(f5), points5, profile_degree=J), 6),
        "funk_k": evaluated(
            lambda: funk_k_function(counting(f5), 5, 2, profile_degree=J)(frames2), 6),
        "cosine_quadrature_values": evaluated(
            lambda: cosine_quadrature_values(counting(f3), points, 3, 0.5, profile_degree=J), 7),
        "cosine_k": evaluated(
            lambda: cosine_k_function(counting(f5), 5, 1, 0.5, profile_degree=J)(frames1), 6),
    }
    assert counts == {
        "funk_geodesic_values": fiber[2],
        "funk_geodesic_values n5": fiber[4],
        "funk_k": fiber[3],
        "cosine_quadrature_values": shells * fiber[2],
        "cosine_k": shells * fiber[4],
    }


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("J", [4, 12])
def test_zonal_quadrature_point_counts(spans, monkeypatch, n, J):
    # a zonal spectrum takes the pole-adapted rule at one node of each
    # antipodal pair: of the J//2 + 1 heights per Funk output at n-k >= 2,
    # the lower half and a middle one (J//4 + 1), and of the 2 (J//2 + 1)^2
    # per k = 1 cosine output (two span heights per fiber height, at each of
    # J//2 + 1 radii) half, whatever n is; no null-space basis of a frame
    # stack is built, only that of the pole
    f = fk.random_even_spectrum(n, J, seed=n, pole=np.arange(1.0, n + 1))
    bases = []
    real = transforms.null_space_basis
    monkeypatch.setattr(transforms, "null_space_basis", lambda u: bases.append(u) or real(u))
    frames = {k: haar_frames(n, k, 6, seed=k) for k in range(1, n - 1)}
    points = frames[1][:, :, 0]

    def evaluated(call):
        tracer = spans.Tracer()
        with tracer.recording():
            call()
        return sum(s.n for s in tracer.spans if s.name == "spectral.evaluate") / 6

    counts = {
        "funk_geodesic_values": evaluated(
            lambda: funk_geodesic_values(f, points, profile_degree=J)),
        "cosine_quadrature_values": evaluated(
            lambda: cosine_quadrature_values(f, points, n, 0.5, profile_degree=J)),
        "cosine_k": evaluated(lambda: cosine_k_function(f, n, 1, 0.5, profile_degree=J)(frames[1])),
    }
    for k, fr in frames.items():
        counts[f"funk_k k={k}"] = evaluated(lambda: funk_k_function(f, n, k, profile_degree=J)(fr))
    heights = J // 2 + 1
    assert counts == {
        "funk_geodesic_values": J // 4 + 1,
        "cosine_quadrature_values": heights**2,
        "cosine_k": heights**2,
        **{f"funk_k k={k}": J // 4 + 1 for k in frames},
    }
    assert bases and all(np.array_equal(u, f.pole[:, None]) for u in bases)


def test_zonal_blocks_record_one_span_per_call(spans):
    # the block engine runs inside evaluate and analyze, never through the
    # hooked public functions, so each call is one span whatever its size
    grid = fk.build_grid(5, 9)
    assert grid.num_nodes > fk.spectral.ZONAL_BLOCK
    f = fk.random_even_spectrum(5, 8, seed=3, zonal=True)
    values = f.to_grid(grid)
    tracer = spans.Tracer()
    with tracer.recording():
        f.evaluate(grid.nodes)
        fk.analyze(values, 8, pole=f.pole)
    assert [(s.name, s.n) for s in tracer.spans] == [
        ("spectral.evaluate", grid.num_nodes),
        ("spectral.analyze", 0),
    ]


@pytest.mark.parametrize("n, res", [(4, 10), (5, 6), (5, 12)])
def test_axis_synthesis_evaluates_one_point_per_ring(spans, n, res):
    # a zonal spectrum about the grid's polar axis is synthesized from one
    # node per ring; an oblique pole still evaluates every node
    grid = fk.build_grid(n, res)
    on_axis = fk.random_even_spectrum(n, 8, seed=3)
    oblique = fk.random_even_spectrum(n, 8, seed=3, pole=np.arange(1.0, n + 1))
    tracer = spans.Tracer()
    with tracer.recording():
        on_axis.to_grid(grid)
        oblique.to_grid(grid)
    assert [(s.name, s.n) for s in tracer.spans] == [
        ("spectral.evaluate", res),
        ("spectral.evaluate", grid.num_nodes),
    ]


def test_frame_paths_run_no_qr(monkeypatch):
    # Haar frames and shell complements are orthonormalized by Gram-Schmidt
    # and Householder loops over the stack, never one LAPACK QR per matrix
    def no_qr(*args, **kwargs):
        raise AssertionError("numpy.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for tag, n, k, lam in (("4.8", 4, 2, 1.0), ("4.9", 4, 1, None), ("thm4.1-i", 5, 2, None),
                           ("4.14", 5, 2, None)):
        assert check_identity(tag, n, k, lam=lam, samples=200)["spectral_error"] <= 1e-12
    f = fk.random_even_spectrum(5, 4, seed=2, zonal=True)
    phi = cosine_k_function(f.evaluate, 5, 2, 0.5, profile_degree=4)
    assert np.all(np.isfinite(phi(haar_frames(5, 2, 20, seed=3))))
    x = fk.random_even_spectrum(3, 4, seed=1).to_grid(fk.build_grid(3, 6))
    assert fk.cosine_transform(x, lam=0.5, path="quadrature").meta["path"] == "quadrature"
