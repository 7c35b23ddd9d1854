"""The benchmark's two workloads: fixed op lists at fixed sizes, every op
checked against a reference computed another way.

Only the inputs come from the workload seed: the random band-limited test
functions and the CLI input specs (the timed Monte Carlo identities run at a
fixed seed, see ``MC_SEED``).  Sizes, operators and sample counts are fixed,
so every seed does the same amount of work.

* ``quadrature-n3``: the literal-kernel quadrature paths on S^2, checked
  against the spectral path on the same grid, and ``funkinv forward --path
  auto``.  Time goes to ``spectral.harmonic_basis`` on off-grid shell points;
  the multipliers, ``diffops``, ``inversion`` and ``stiefel`` are idle.
* ``spectral-mc``: the exact multiplier chains, on the grid and against
  Monte Carlo.  Grid -> ``analyze`` -> multipliers -> synthesis at band 16,
  for n = 3 (full tables) and n = 5 (zonal, 167k nodes), plus the weighted
  Laplacian (diagonal, factored, finite differences) and the four inversions
  from grid input; ``check_identity`` for the identities with a finite-variance
  estimator; and one session of ``funkinv`` CLI commands (multiplier tables,
  spectral forward, FD diffop, inversions, convergence study).  The quadrature
  shells are idle, and the identities never call ``harmonic_basis``.

The CLI commands run through ``cli.main`` in the workload's own process
(config parsing, 17-digit CSV/JSON writing); their output files must match a
reference run of the same command byte for byte.  Two workloads, not more,
so that each run can be long enough for its medians to ride out the host's
throughput swings.

Ops that fail at every seed are kept out of the timed lists so that a run
measures completed work; they are listed in ``KNOWN_FAILURES`` and attempted
once after the passes of a traced run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import mpmath
import numpy as np

import funkinv as fk
from funkinv import cli, diffops, transforms
from funkinv.spectral import random_even_spectrum
from funkinv.stiefel import check_identity

# Weighted Laplacian used by spectral-mc (the CLI's defaults).
OP_LAM, OP_ELL = -1.5, 1

# (tag, n, k, lambda, samples): one check_identity op each.
IDENTITIES = (
    ("4.8", 4, 2, 1.0, 40_000),
    ("4.9", 4, 1, None, 4_000),
    ("thm4.1-i", 5, 2, None, 3_600),
    ("4.14", 5, 2, None, 30_000),
)
# The timed identities run at check_identity's default seed in every run, not
# at the workload seed: a 3-sigma verdict fails by design at a few seeds in a
# thousand (4.8 at seeds 152 and 201 with 5000 samples, and at 304 with 40000),
# and a timed op must not fail at any workload seed.
MC_SEED = 0
# The two identities whose Monte Carlo estimator has infinite variance: their
# within_3sigma verdicts are meaningless, passing vacuously at most seeds and
# failing at some, so they are known failures rather than timed ops.
INFINITE_VARIANCE = (
    ("thm4.1-ii", 6, 2, None, 700),
    ("4.13", 4, 1, None, 60_000),
)

# Ops that fail at every seed, or whose verdict is meaningless, by op name,
# with the reason.
KNOWN_FAILURES = {
    "cli/multipliers-400": (
        "spectral-mc: multipliers --J 400 overflows the gamma ratios (from degree 282 on); "
        "a raw OverflowError escapes main() and the command exits 1"
    ),
    "n3/invert-funk-clamped": (
        "spectral-mc: invert_funk on band-16 grid input without band_limit clamps "
        "it to band 12, and the band-16 reference then raises 'spectra are not compatible'"
    ),
    "thm4.1-ii/n6k2": (
        "spectral-mc: the dual-cosine estimator at lambda = 1-k has infinite variance; sigma is "
        "about 20 times the largest coefficient, and within_3sigma fails at some seeds (seed 52 among 0-119)"
    ),
    "4.13/n4k1": (
        "spectral-mc: infinite-variance Monte Carlo (ROADMAP: sigma 0.62 on O(1) coefficients); "
        "within_3sigma fails at some seeds (seed 66 among 0-119)"
    ),
}


class Mismatch(Exception):
    """An op's output disagrees with its reference or breaks a stated rule."""


@dataclass
class Op:
    """One timed operation.

    ``run`` does the work; ``check`` compares its result with the reference
    and returns the error (raising :class:`Mismatch` on a broken rule).  The
    op fails when the error is not finite or exceeds ``tol``.  ``exact`` marks
    errors measured against an exact reference; only those enter
    ``accuracy_digits`` (finite differences and Monte Carlo carry a truncation
    or sampling error by design).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], float]
    tol: float
    exact: bool = True


@dataclass
class Workload:
    ops: list
    known_failures: list = field(default_factory=list)
    # per-layer figures read from the op results of one pass (None for failed ops)
    result_metrics: Callable[[list], dict] | None = None


def rel_error(out, ref) -> float:
    """max|out - ref| / max(1, max|ref|); raises Mismatch on shape or NaN/inf."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape:
        raise Mismatch(f"output shape {out.shape} differs from reference {ref.shape}")
    if not np.all(np.isfinite(out)):
        raise Mismatch("output holds NaN or inf")
    return float(np.max(np.abs(out - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def _grid_check(ref_values):
    return lambda out: rel_error(out.values, ref_values)


def _primary_check(ref_values):
    return lambda result: rel_error(result.primary.values, ref_values)


# ---------------------------------------------------------------------------
# quadrature-n3


def quadrature_n3(seed: int, workdir: str, tracer) -> Workload:
    # Sizes keep a pass near 4 s, so a run holds enough passes for its medians
    # to ride out the host's throughput swings of several seconds.
    g9, g13 = fk.build_grid(3, 9), fk.build_grid(3, 13)
    f6 = random_even_spectrum(3, 6, seed)
    x = f6.to_grid(g9)
    x0 = f6.with_zero_mean().to_grid(g9)
    x12 = random_even_spectrum(3, 12, seed).to_grid(g13)
    cases = (
        ("cosine-0.5", lambda p: fk.cosine_transform(x, lam=0.5, path=p), 1e-12),
        ("cosine-0.5+1i", lambda p: fk.cosine_transform(x, lam=0.5 + 1j, path=p), 1e-12),
        ("sine-0.5", lambda p: fk.sine_transform(x, lam=0.5, path=p), 1e-12),
        # the log kernels difference the absorbed power at +-1e-5: ~1e-9 error
        ("log-cosine", lambda p: fk.log_cosine_transform(x0, path=p), 1e-8),
        ("log-sine", lambda p: fk.log_sine_transform(x0, path=p), 1e-8),
        ("funk-geodesic", lambda p: fk.funk_transform(x12, path=p), 1e-12),
    )
    ops = [
        Op(name, lambda fn=fn: fn("quadrature"), _grid_check(fn("spectral").values), tol)
        for name, fn, tol in cases
    ]
    return Workload(ops + [cli_op("forward-auto", ("forward-auto",), seed, workdir, tracer)])


# ---------------------------------------------------------------------------
# spectral-mc: grid chains


def _chain_ops(n: int, seed: int) -> tuple[list, list]:
    """Spectral-path ops at band 16 on build_grid(n, 17), and the known
    failures among their variants.

    References apply the closed-form multipliers to the known coefficients
    and synthesize once, so they skip the ``analyze`` step every op runs.
    """
    J = 16
    g = fk.build_grid(n, J + 1)
    f = random_even_spectrum(n, J, seed)
    f0 = f.with_zero_mean()
    pole = f.pole
    x, x0 = f.to_grid(g), f0.to_grid(g)
    kw = {"path": "spectral", "pole": pole}
    forward = (
        ("cosine-0.5", lambda: fk.cosine_transform(x, lam=0.5, **kw),
         transforms.cosine_spectrum(f, 0.5)),
        ("cosine-0.5+1i", lambda: fk.cosine_transform(x, lam=0.5 + 1j, **kw),
         transforms.cosine_spectrum(f, 0.5 + 1j)),
        ("sine-0.5", lambda: fk.sine_transform(x, lam=0.5, **kw),
         transforms.sine_spectrum(f, 0.5)),
        ("funk", lambda: fk.funk_transform(x, **kw), transforms.funk_spectrum(f)),
        ("log-cosine", lambda: fk.log_cosine_transform(x0, **kw),
         transforms.log_cosine_spectrum(f0)),
        ("log-sine", lambda: fk.log_sine_transform(x0, **kw), transforms.log_sine_spectrum(f0)),
    )
    ops = [Op(f"n{n}/{name}", run, _grid_check(ref.to_grid(g).values), 1e-12)
           for name, run, ref in forward]

    op = fk.WeightedOpSpec(lam=OP_LAM, ell=OP_ELL, n=n)
    lap_ref = diffops.weighted_laplacian_spectrum(f, op).to_grid(g).values
    for method in ("diagonal", "factored"):
        ops.append(Op(
            f"n{n}/laplacian-{method}",
            lambda method=method: fk.weighted_laplacian(x, op, method=method, pole=pole),
            _grid_check(lap_ref), 1e-11,
        ))
    if n == 3:
        # O(h^2) truncation at h = 1e-3 leaves ~1e-5 relative error at band 16
        ops.append(Op(
            "n3/laplacian-fd",
            lambda: fk.weighted_laplacian_fd(lambda pts: f.evaluate(pts), op, g),
            _grid_check(lap_ref), 1e-4, exact=False,
        ))

    truth = x.values
    between = OP_LAM + 2 * OP_ELL
    inversions = (
        ("invert-funk", transforms.funk_spectrum(f),
         lambda phi: fk.invert_funk(phi, band_limit=J, pole=pole)),
        ("invert-cosine1", transforms.cosine_spectrum(f, 1.0),
         lambda phi: fk.invert_cosine1(phi, band_limit=J, pole=pole)),
        ("invert-between", transforms.cosine_spectrum(f, between),
         lambda phi: fk.invert_general_between(phi, OP_LAM, OP_ELL, band_limit=J, pole=pole)),
        ("invert-outside", transforms.cosine_spectrum(f, OP_LAM),
         lambda phi: fk.invert_general_outside(phi, OP_LAM, OP_ELL, band_limit=J, pole=pole)),
    )
    phis = {name: phi_spec.to_grid(g) for name, phi_spec, _ in inversions}
    for name, _, invert in inversions:
        ops.append(Op(f"n{n}/{name}", lambda invert=invert, phi=phis[name]: invert(phi),
                      _primary_check(truth), 1e-9))
    known = []
    if n == 3:
        known.append(Op("n3/invert-funk-clamped",
                        lambda: fk.invert_funk(phis["invert-funk"], reference=f),
                        _primary_check(truth), 1e-9))
    return ops, known


# ---------------------------------------------------------------------------
# spectral-mc: Monte Carlo identities


def _identity_check(result: dict) -> float:
    for key in ("mc_error", "mc_sigma", "spectral_error"):
        if not math.isfinite(result[key]):
            raise Mismatch(f"{key} is not finite")
    if not result["within_3sigma"]:
        raise Mismatch(
            f"Monte Carlo error {result['mc_error']:.3g} outside 3 sigma ({result['mc_sigma']:.3g})"
        )
    return result["spectral_error"]


def _identity_ops(seed: int, identities) -> list:
    return [
        Op(f"{tag}/n{n}k{k}",
           lambda tag=tag, n=n, k=k, lam=lam, samples=samples: check_identity(
               tag, n, k, lam=lam, samples=samples, seed=seed),
           _identity_check, 1e-10)
        for tag, n, k, lam, samples in identities
    ]


def _identity_metrics(seed: int) -> Callable[[list], dict]:
    """The per-layer figures read from the results of the IDENTITIES ops."""
    scale = [float(np.max(np.abs(random_even_spectrum(n, 4, seed, zonal=True).coeffs)))
             for _, n, _, _, _ in IDENTITIES]

    def result_metrics(results):
        rel_sigma, sigma_sqrt_n = [0.0], [0.0]
        for result, c, identity in zip(results, scale, IDENTITIES):
            if result is not None:
                rel_sigma.append(result["mc_sigma"] / c)
                sigma_sqrt_n.append(result["mc_sigma"] * math.sqrt(identity[4]))
        return {"stiefel.mc_rel_sigma": max(rel_sigma), "stiefel.sigma_sqrt_n": max(sigma_sqrt_n)}

    return result_metrics


def spectral_mc(seed: int, workdir: str, tracer) -> Workload:
    ops3, known = _chain_ops(3, seed)
    ops5, _ = _chain_ops(5, seed)
    mc, mc_metrics = _identity_ops(MC_SEED, IDENTITIES), _identity_metrics(MC_SEED)
    first = len(ops3) + len(ops5)
    commands = ("multipliers-16", "multipliers-256", "forward-spectral", "diffop-fd",
                "invert-funk-n3", "invert-cosine1-n4", "convergence")
    return Workload(
        ops3 + ops5 + mc + [cli_op("session", commands, seed, workdir, tracer)],
        known_failures=(known + [overflow_op(workdir, tracer)]
                        + _identity_ops(seed, INFINITE_VARIANCE)),
        result_metrics=lambda results: mc_metrics(results[first:first + len(mc)]),
    )


# ---------------------------------------------------------------------------
# CLI commands


def _columns(data: bytes) -> dict:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return dict(zip(header, zip(*(line.split(",") for line in lines[1:]))))


def _complex(cols: dict, re: str, im: str) -> np.ndarray:
    return np.array(cols[re], dtype=float) + 1j * np.array(cols[im], dtype=float)


def _mp_cosine(j: int, n: int, lam: float):
    """Cosine multiplier from mpmath's gamma, independent of funkinv.gammafn."""
    sign = -1 if (j // 2) % 2 else 1
    return sign * mpmath.gamma(mpmath.mpf(j - lam) / 2) / mpmath.gamma(mpmath.mpf(j + lam + n) / 2)


def _multiplier_check(operator: str, n: int, lam: float, max_degree: int):
    degrees = list(range(0, max_degree + 1, 2))
    with mpmath.workdps(30):
        ref = [_mp_cosine(j, n, lam) for j in degrees]
        if operator == "sine":
            ref = [c * _mp_cosine(j, n, -1.0) for c, j in zip(ref, degrees)]
        ref = np.array([complex(c) for c in ref])

    def check(files):
        cols = _columns(files["csv"])
        if [int(j) for j in cols["j"]] != degrees:
            raise Mismatch("multiplier table lists the wrong degrees")
        return rel_error(_complex(cols, "value_re", "value_im"), ref)

    return check


def _forward_check(spec_text: str, lam: float, resolution: int):
    spec = cli.parse_function_spec(spec_text, 3, 8)
    nodes = fk.build_grid(3, resolution).nodes
    ref = transforms.cosine_spectrum(spec, lam).evaluate(nodes)
    return lambda files: rel_error(_complex(_columns(files["csv"]), "output_re", "output_im"), ref)


def _diffop_check(spec_text: str, resolution: int):
    spec = cli.parse_function_spec(spec_text, 3, 6)
    op = fk.WeightedOpSpec(lam=OP_LAM, ell=OP_ELL, n=3)
    nodes = fk.build_grid(3, resolution).nodes
    ref = diffops.weighted_laplacian_spectrum(spec, op).evaluate(nodes)
    return lambda files: rel_error(_complex(_columns(files["csv"]), "value_re", "value_im"), ref)


def _invert_check(n: int, seed: int, branches: int):
    spec = cli.parse_function_spec(f"random-even:J=8,seed={seed}", n, 8)
    truth = spec.evaluate(fk.build_grid(n, 12).nodes)

    def check(files):
        if not json.loads(files["json"])["passed"]:
            raise Mismatch("inversion report says passed = false")
        cols = _columns(files["csv"])
        errors = [rel_error(_complex(cols, "f_re", "f_im"), truth)]
        for b in range(1, branches + 1):
            errors.append(rel_error(_complex(cols, f"recon{b}_re", f"recon{b}_im"), truth))
        return max(errors)

    return check


def _convergence_check(files) -> float:
    text = files["csv"].decode()
    slope = next(line for line in text.splitlines() if line.startswith("# slope="))
    return abs(float(slope.split("=")[1]) - 2.0)


def _cli_commands(seed: int) -> dict:
    """name -> (argv, output kinds, check, tol, exact) per CLI op."""
    fwd_spec = f"random-even:J=8,seed={seed}"
    quad_spec = f"random-even:J=4,seed={seed}"
    fd_spec = f"random-even:J=6,seed={seed}"
    s = str(seed)
    return {
        "multipliers-16": (["multipliers", "--operator", "cosine", "--n", "3", "--lambda", "-1",
                            "--J", "16"], ("csv",), _multiplier_check("cosine", 3, -1.0, 16),
                           1e-12, True),
        # a band below the gamma overflow, which starts at degree 282
        "multipliers-256": (["multipliers", "--operator", "sine", "--n", "3", "--lambda", "0.5",
                             "--J", "256"], ("csv",), _multiplier_check("sine", 3, 0.5, 256),
                            1e-12, True),
        "forward-spectral": (["forward", "--transform", "cosine", "--n", "3", "--lambda", "0.5",
                              "--path", "spectral", "--input", fwd_spec, "--J", "8",
                              "--resolution", "12"], ("csv",),
                             _forward_check(fwd_spec, 0.5, 12), 1e-12, True),
        "forward-auto": (["forward", "--transform", "cosine", "--n", "3", "--lambda", "0.5",
                          "--path", "auto", "--input", quad_spec, "--J", "4", "--resolution", "8"],
                         ("csv",), _forward_check(quad_spec, 0.5, 8), 1e-10, True),
        "diffop-fd": (["diffop", "--path", "fd", "--lambda", str(OP_LAM), "--ell", str(OP_ELL),
                       "--n", "3", "--input", fd_spec, "--J", "6", "--resolution", "12"],
                      ("csv",), _diffop_check(fd_spec, 12), 1e-4, False),
        "invert-funk-n3": (["invert", "--theorem", "funk", "--n", "3", "--seed", s,
                            "--resolution", "12"], ("json", "csv"), _invert_check(3, seed, 1),
                           1e-8, True),
        "invert-cosine1-n4": (["invert", "--theorem", "cosine1", "--n", "4", "--seed", s,
                               "--resolution", "12"], ("json", "csv"), _invert_check(4, seed, 2),
                              1e-8, True),
        "convergence": (["convergence", "--study", "fd-beltrami", "--seed", s], ("csv",),
                        _convergence_check, 0.2, False),
    }


class CliRunner:
    """Runs funkinv CLI commands through ``cli.main`` in this process; during a
    traced pass each command is a ``cli`` span whose work count is the bytes
    it wrote."""

    def __init__(self, workdir: str, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def outputs(self, name: str, kinds, tree: str) -> tuple[list, dict]:
        base = os.path.join(self.workdir, tree, name)
        os.makedirs(os.path.dirname(base), exist_ok=True)
        paths = {kind: f"{base}.{kind}" for kind in kinds}
        flags = []
        for kind, path in paths.items():
            # invert writes its report with --out and the optional table with --csv
            flags += ["--csv" if kind == "csv" and "json" in paths else "--out", path]
        return flags, paths

    def run(self, argv, paths: dict) -> dict:
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        code = self._main(argv, paths)
        files = {}
        for kind, path in paths.items():
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[kind] = fh.read()
        return {"code": code, "files": files}

    def _main(self, argv, paths) -> int:
        if self.tracer is None or not self.tracer.active:
            return cli.main(argv)
        with self.tracer.span("cli", argv[0]) as rec:
            try:
                return cli.main(argv)
            finally:
                rec.n = sum(os.path.getsize(p) for p in paths.values() if os.path.exists(p))


def cli_op(label: str, names, seed: int, workdir: str, tracer) -> Op:
    """One timed op that runs the named CLI commands in turn.  Each command's
    output files must match, byte for byte, a reference run of the same
    command made at set-up, and pass the command's own content check within
    its tolerance.  The op's error is the largest among the commands whose
    check has an exact reference."""
    runner = CliRunner(workdir, tracer)
    commands = _cli_commands(seed)
    runs = []
    for name in names:
        argv, kinds, content_check, tol, exact = commands[name]
        flags, ref_paths = runner.outputs(name, kinds, "ref")
        reference = runner.run(argv + flags, ref_paths)
        if reference["code"] != 0:
            raise RuntimeError(f"reference run of {name} exited {reference['code']}")
        flags, paths = runner.outputs(name, kinds, "run")
        runs.append((name, argv + flags, paths, reference, content_check, tol, exact))

    def run():
        return [runner.run(argv, paths) for _, argv, paths, *_ in runs]

    def check(results):
        errors = [0.0]
        for result, (name, _, _, reference, content_check, tol, exact) in zip(results, runs):
            if result["code"] != 0:
                raise Mismatch(f"{name}: exit code {result['code']}")
            if result["files"] != reference["files"]:
                raise Mismatch(f"{name}: output bytes differ from the reference run")
            err = content_check(result["files"])
            if not err <= tol:
                raise Mismatch(f"{name}: error {err:.3g} above tolerance {tol:.3g}")
            if exact:
                errors.append(err)
        return max(errors)

    return Op(f"cli/{label}", run, check, math.inf)


def overflow_op(workdir: str, tracer) -> Op:
    """``multipliers --J 400``, a known failure: the command must exit 0."""
    runner = CliRunner(workdir, tracer)
    flags, paths = runner.outputs("multipliers-400", ("csv",), "run")
    return Op(
        "cli/multipliers-400",
        lambda: runner.run(["multipliers", "--operator", "cosine", "--J", "400"] + flags, paths),
        lambda result: 0.0 if result["code"] == 0 else math.inf, 0.0,
    )


WORKLOADS = {
    "quadrature-n3": quadrature_n3,
    "spectral-mc": spectral_mc,
}
