"""In-memory span tracer behind the per-layer benchmark metrics.

While a traced pass runs, each public funkinv function named in ``HOOKS`` is
replaced, in every ``funkinv`` module namespace that binds it (or on its
class, for methods), by a wrapper that records one span: layer name, tag
(the function or subcommand), start, end, parent span, op id, whether an
exception left it, and a work count.  Nothing inside ``src/funkinv`` is
changed; the wrappers are removed again after the pass.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the benchmark runs one op at a time
in one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Layer names, in the order the per-layer metrics are reported.  "op" is the
# root span around each benchmark op: its self time is the part of an op that
# no hooked layer covers.
LAYERS = (
    "op",
    "gammafn",
    "spectral.multiplier",
    "grids.build_grid",
    "spectral.harmonic_basis",
    "spectral.analyze",
    "spectral.evaluate",
    "transforms.quadrature",
    "transforms.spectral",
    "diffops",
    "inversion",
    "stiefel.haar_frames",
    "stiefel.frame_fn",
    "stiefel.mc",
    "cli",
)

CLI_SUBCOMMANDS = ("multipliers", "forward", "diffop", "invert", "convergence")


def _points(args, kwargs, out):
    return len(args[1])


def _outputs(args, kwargs, out):
    return len(kwargs["points"] if "points" in kwargs else args[1])


def _samples(args, kwargs, out):
    return out.samples


# (layer, module, attribute, work count or None).  The work count is taken
# from the call's arguments and result.
HOOKS = (
    ("gammafn", "funkinv.gammafn", "gamma", None),
    ("gammafn", "funkinv.gammafn", "rgamma", None),
    ("spectral.multiplier", "funkinv.spectral", "cosine_multiplier", None),
    ("spectral.multiplier", "funkinv.spectral", "funk_multiplier", None),
    ("spectral.multiplier", "funkinv.spectral", "sine_multiplier", None),
    ("spectral.multiplier", "funkinv.spectral", "log_cosine_multiplier", None),
    ("spectral.multiplier", "funkinv.spectral", "delta_op_eigenvalue", None),
    ("spectral.multiplier", "funkinv.spectral", "multiplier_table", None),
    ("grids.build_grid", "funkinv.grids", "build_grid", lambda a, k, out: out.num_nodes),
    ("spectral.harmonic_basis", "funkinv.spectral", "harmonic_basis", lambda a, k, out: out.size),
    ("spectral.analyze", "funkinv.spectral", "analyze", None),
    ("spectral.evaluate", "funkinv.spectral", "HarmonicSpectrum.evaluate", _points),
    ("transforms.quadrature", "funkinv.transforms", "cosine_quadrature_values", _outputs),
    ("transforms.quadrature", "funkinv.transforms", "sine_quadrature_values", _outputs),
    ("transforms.quadrature", "funkinv.transforms", "log_cosine_quadrature_values", _outputs),
    ("transforms.quadrature", "funkinv.transforms", "log_sine_quadrature_values", _outputs),
    ("transforms.quadrature", "funkinv.transforms", "funk_geodesic_values", _outputs),
    ("transforms.spectral", "funkinv.transforms", "cosine_spectrum", None),
    ("transforms.spectral", "funkinv.transforms", "funk_spectrum", None),
    ("transforms.spectral", "funkinv.transforms", "log_cosine_spectrum", None),
    ("transforms.spectral", "funkinv.transforms", "sine_spectrum", None),
    ("transforms.spectral", "funkinv.transforms", "log_sine_spectrum", None),
    ("diffops", "funkinv.diffops", "beltrami", None),
    ("diffops", "funkinv.diffops", "beltrami_spectrum", None),
    ("diffops", "funkinv.diffops", "beltrami_fd_values", _outputs),
    ("diffops", "funkinv.diffops", "weighted_laplacian", None),
    ("diffops", "funkinv.diffops", "weighted_laplacian_spectrum", None),
    ("diffops", "funkinv.diffops", "weighted_laplacian_fd", None),
    ("inversion", "funkinv.inversion", "invert_funk", None),
    ("inversion", "funkinv.inversion", "invert_cosine1", None),
    ("inversion", "funkinv.inversion", "invert_general_between", None),
    ("inversion", "funkinv.inversion", "invert_general_outside", None),
    ("stiefel.haar_frames", "funkinv.stiefel", "haar_frames", lambda a, k, out: out.shape[0]),
    ("stiefel.frame_fn", "funkinv.stiefel", "StiefelFunction.__call__", _points),
    ("stiefel.mc", "funkinv.stiefel", "dual_funk_k", _samples),
    ("stiefel.mc", "funkinv.stiefel", "dual_cosine_k", _samples),
    ("stiefel.mc", "funkinv.stiefel", "sine_mc_via_dual_funk", _samples),
    # delegates to dual_cosine_k, which counts the samples
    ("stiefel.mc", "funkinv.stiefel", "sine_mc_via_dual_cosine", None),
)

FD_TAGS = ("weighted_laplacian_fd", "beltrami_fd_values")

# span name -> the counter its work count adds to
COUNTERS = {
    "grids.build_grid": "grids.nodes",
    "spectral.harmonic_basis": "spectral.harmonic_basis.entries",
    "spectral.evaluate": "spectral.evaluate.points",
    "transforms.quadrature": "transforms.quadrature.outputs",
    "stiefel.haar_frames": "stiefel.frames",
    "stiefel.mc": "stiefel.samples",
    "cli": "cli.bytes_out",
}


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "op", "error", "n")

    def __init__(self, name, tag, parent, op):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start
        self.error = False
        self.n = 0

    def as_list(self, t0: float) -> list:
        return [self.name, self.tag, self.start - t0, self.end - t0, self.parent, self.op,
                self.error, self.n]


class Tracer:
    """Records spans inside :meth:`recording`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, tag: str = "", op: int | None = None):
        """Open a span; ``op`` starts a new op (a root span) with that id."""
        outer_op = self._op
        if op is not None:
            self._op = op
        rec = Span(name, tag, self._stack[-1] if self._stack else -1, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def _wrap(self, layer: str, tag: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(layer, tag) as rec:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec.n = int(count(args, kwargs, out))
                return out

        return wrapper

    @contextmanager
    def recording(self):
        """Replace every hooked function in the loaded funkinv modules and record
        spans until exit, when the originals are put back.  A wrapper that
        outlives the block calls straight through."""
        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "funkinv" or name.startswith("funkinv."))]
        try:
            for layer, module, attr, count in HOOKS:
                owner = sys.modules[module]
                *cls_path, fname = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[fname]
                wrapper = self._wrap(layer, fname, original, count)
                targets = [owner] if cls_path else [
                    m for m in modules if m.__dict__.get(fname) is original
                ]
                for target in targets:
                    restore.append((target, fname, original))
                    setattr(target, fname, wrapper)
            self.active = True
            yield self
        finally:
            self.active = False
            for target, fname, original in reversed(restore):
                setattr(target, fname, original)


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _under(spans, i: int, pred) -> bool:
    p = spans[i].parent
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass layer figures from the spans of ``passes`` traced passes.

    Only spans that belong to an op (op id >= 0) count; set-up spans are
    summarised separately by :func:`setup_metrics`.
    """
    spans = list(spans)
    own = self_times(spans)
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s", "errors")}
    out.update(dict.fromkeys(COUNTERS.values(), 0.0))
    out.update({f"cli.{sub}.s": 0.0 for sub in CLI_SUBCOMMANDS})
    out["diffops.fd_points"] = 0.0
    quadrature_points = 0
    for i, s in enumerate(spans):
        if s.op < 0:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[i]
        out[f"{s.name}.errors"] += s.error
        if s.name in COUNTERS:
            out[COUNTERS[s.name]] += s.n
        if s.name == "cli":
            out[f"cli.{s.tag}.s"] += s.end - s.start
        elif s.name == "spectral.evaluate":
            if _under(spans, i, lambda p: p.name == "transforms.quadrature"):
                quadrature_points += s.n
            if _under(spans, i, lambda p: p.tag in FD_TAGS):
                out["diffops.fd_points"] += s.n
    outputs = out.pop("transforms.quadrature.outputs")
    out = {k: v / max(passes, 1) for k, v in out.items()}
    out["transforms.points_per_output"] = quadrature_points / outputs if outputs else 0.0
    return out


def setup_metrics(spans) -> dict:
    """Grid building done during set-up (spans outside any op)."""
    own = self_times(spans)
    built = [(i, s) for i, s in enumerate(spans) if s.op < 0 and s.name == "grids.build_grid"]
    return {
        "setup.grids.build_grid.self_s": float(sum(own[i] for i, _ in built)),
        "setup.grids.nodes": float(sum(s.n for _, s in built)),
    }
