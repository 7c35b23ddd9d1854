"""Experiment runner: multiplier tables, forward transforms, differential
operator comparisons, inversions, convergence studies, and frame-transform
identity checks.

Every invocation is fully determined by (config, seed): outputs embed the
library version and a hash of the effective configuration, use LF endings and
17-significant-digit floats, and contain no timestamps.  Exit codes: 0 on
success, 2 when a check-style subcommand finds an identity violated beyond
tolerance, 1 on operational errors (with a machine-readable JSON object on
standard error).

Flags override config-file values, which override built-in defaults.  Config
files are flat ``key = value`` text; keys are the long option names with
dashes replaced by underscores.  Each subcommand's options, with their
defaults, are declared once, in ``SUBCOMMANDS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .errors import FunkinvError, InvalidArgumentError
from .diffops import (
    WeightedOpSpec,
    beltrami_fd_values,
    beltrami_spectrum,
    fd_convergence_slope,
    weighted_laplacian_fd,
    weighted_laplacian_spectrum,
)
from .grids import build_grid, grid_function, integrate
from .inversion import THEOREMS
from .spectral import (
    _TABLE_BUILDERS,
    HarmonicSpectrum,
    multiplier_table,
    random_even_spectrum,
    zonal_eval,
)
from .stiefel import IDENTITY_TAGS, check_identity, dual_funk_k, funk_k_function
from .transforms import OPERATORS, _transform

STUDIES = ("fd-beltrami", "fd-weighted", "quadrature", "mc-dual")

_FLOAT = ".17g"


def _fmt(x) -> str:
    return format(float(x), _FLOAT)


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"malformed config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    supplied = vars(args)
    if supplied.get("config"):
        file_cfg = _parse_config_file(supplied["config"])
        for key, val in file_cfg.items():
            if key not in cfg:
                raise InvalidArgumentError(f"unknown config key {key!r}")
            cfg[key] = _coerce(f"config key {key!r}", val, defaults[key])
    for key in cfg:
        if supplied.get(key) is not None:
            cfg[key] = supplied[key]
    return cfg


def _coerce(name: str, text: str, default):
    """A config-file value or function-spec field, named ``name`` in the
    error, as the type of its default."""
    try:
        return type(default)(text)
    except ValueError:
        raise InvalidArgumentError(
            f"{name}: cannot read {text!r} as {type(default).__name__}"
        ) from None


def _config_hash(cfg: dict) -> str:
    # output locations do not identify the experiment
    skip = {"out", "csv", "config"}
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k not in skip)
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_csv(path: str, columns, rows, cfg_hash: str, extra_comments=()) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# funkinv {__version__} config-sha256={cfg_hash}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, obj: dict, cfg_hash: str) -> None:
    obj = dict(obj)
    obj["_version"] = __version__
    obj["_config_hash"] = cfg_hash
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# function-spec mini-language: zonal:j=..,pole=x,y,z | const:c | random-even:J=..,seed=..


def _spec_field(fields: dict, key: str, default):
    """A function-spec field as the type of its default, which it defaults to."""
    if key not in fields:
        return default
    return _coerce(f"function spec field {key!r}", fields[key], default)


def _degree_field(fields: dict, key: str, default: int) -> int:
    """A function-spec degree field, which must be nonnegative."""
    degree = _spec_field(fields, key, default)
    if degree < 0:
        raise InvalidArgumentError(f"function spec field {key!r} must be >= 0, got {degree}")
    return degree


def parse_function_spec(text: str, n: int, max_degree: int) -> HarmonicSpectrum:
    kind, _, rest = text.partition(":")
    if kind == "const":
        value = _coerce("function spec constant", rest, 0j) if rest else 1.0
        if n == 3:
            return HarmonicSpectrum(3, 0, np.array([value]))
        return HarmonicSpectrum(n, 0, np.array([value]), np.eye(n)[0])
    fields = {}
    if rest:
        parts = rest.split(",")
        i = 0
        while i < len(parts):
            if "=" not in parts[i]:
                raise InvalidArgumentError(f"malformed function spec field {parts[i]!r}")
            key, val = parts[i].split("=", 1)
            if key == "pole":
                comps = [val]
                while len(comps) < n and i + 1 < len(parts) and "=" not in parts[i + 1]:
                    i += 1
                    comps.append(parts[i])
                fields["pole"] = np.array([_coerce("function spec field 'pole'", c, 0.0)
                                           for c in comps])
            else:
                fields[key] = val
            i += 1
    if kind == "zonal":
        j = _degree_field(fields, "j", 2)
        pole = fields.get("pole")
        if pole is None:
            pole = np.eye(n)[0]
        coeffs = np.zeros(j + 1, dtype=complex)
        coeffs[j] = 1.0
        return HarmonicSpectrum(n, j, coeffs, pole)
    if kind == "random-even":
        J = _degree_field(fields, "J", max_degree)
        seed = _spec_field(fields, "seed", 0)
        return random_even_spectrum(n, J, seed, zonal=(n != 3))
    raise InvalidArgumentError(f"unknown function spec kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_multipliers(cfg: dict) -> int:
    h = _config_hash(cfg)
    lam = complex(cfg["lambda_re"], cfg["lambda_im"])
    table = multiplier_table(cfg["operator"], cfg["n"], cfg["J"], lam=lam, ell=cfg["ell"])
    builder = _TABLE_BUILDERS[cfg["operator"]]
    rows = []
    for j, val in zip(table.degrees, table.values):
        rows.append([
            cfg["operator"], str(cfg["n"]), str(j),
            _fmt(lam.real) if builder.reads_lam else "",
            _fmt(lam.imag) if builder.reads_lam else "",
            str(cfg["ell"]) if builder.reads_ell else "",
            _fmt(val.real), _fmt(val.imag),
        ])
    _write_csv(cfg["out"], ["operator", "n", "j", "lambda_re", "lambda_im", "ell",
                            "value_re", "value_im"], rows, h)
    return 0


def _cmd_forward(cfg: dict) -> int:
    # the logarithmic transforms need a mean-zero input, so their default is one
    op = OPERATORS.get(cfg["transform"])
    cfg["input"] = cfg["input"] or (
        "zonal:j=4" if op is not None and op.mean_zero else "random-even:J=6,seed=0"
    )
    h = _config_hash(cfg)
    n = cfg["n"]
    spec = parse_function_spec(cfg["input"], n, cfg["J"])
    grid = build_grid(n, cfg["resolution"])
    f_grid = spec.to_grid(grid)
    lam = complex(cfg["lambda_re"], cfg["lambda_im"])
    out = _transform(cfg["transform"], f_grid, lam=lam, path=cfg["path"],
                     band_limit=spec.max_degree, pole=spec.pole)
    # a real input under a real kernel has a real transform: its imaginary
    # parts are written as 0, not as the rounding of the sums behind them
    real = spec.is_real and lam.imag == 0.0
    columns = [f"x{i + 1}" for i in range(n)] + ["input_re", "input_im", "output_re", "output_im"]
    rows = []
    for node, fin, fout in zip(grid.nodes, f_grid.values, out.values):
        im_in, im_out = (0.0, 0.0) if real else (fin.imag, fout.imag)
        rows.append([_fmt(c) for c in node]
                    + [_fmt(fin.real), _fmt(im_in), _fmt(fout.real), _fmt(im_out)])
    _write_csv(cfg["out"], columns, rows, h,
               extra_comments=[f"transform={cfg['transform']} path={out.meta.get('path')}"])
    return 0


def _cmd_diffop(cfg: dict) -> int:
    h = _config_hash(cfg)
    n = cfg["n"]
    spec = parse_function_spec(cfg["input"], n, cfg["J"])
    op = WeightedOpSpec(lam=complex(cfg["lambda_re"], cfg["lambda_im"]), ell=cfg["ell"], n=n)
    grid = build_grid(n, cfg["resolution"])
    reference = weighted_laplacian_spectrum(spec, op, method="diagonal").evaluate(grid.nodes)
    if cfg["path"] == "spectral":
        values = reference
    elif cfg["path"] == "factored":
        values = weighted_laplacian_spectrum(spec, op, method="factored").evaluate(grid.nodes)
    elif cfg["path"] == "fd":
        values = weighted_laplacian_fd(spec.evaluate, op, grid.nodes, h=cfg["h"])
    else:
        raise InvalidArgumentError(f"unknown diffop path {cfg['path']!r}")
    columns = [f"x{i + 1}" for i in range(n)] + [
        "value_re", "value_im", "spectral_re", "spectral_im", "abs_diff",
    ]
    rows = []
    for node, v, r in zip(grid.nodes, values, reference):
        rows.append([_fmt(c) for c in node] + [
            _fmt(v.real), _fmt(v.imag), _fmt(r.real), _fmt(r.imag), _fmt(abs(v - r)),
        ])
    _write_csv(cfg["out"], columns, rows, h,
               extra_comments=[f"path={cfg['path']} h={_fmt(cfg['h'])} ell={cfg['ell']}"])
    return 0


def _cmd_invert(cfg: dict) -> int:
    h = _config_hash(cfg)
    n = cfg["n"]
    input_spec = cfg["input"] or f"random-even:J={cfg['J']},seed={cfg['seed']}"
    f = parse_function_spec(input_spec, n, cfg["J"])
    theorem = THEOREMS.get(cfg["theorem"])
    if theorem is None:
        raise InvalidArgumentError(f"unknown theorem {cfg['theorem']!r}")
    lam, ell = complex(cfg["lambda_re"], cfg["lambda_im"]), cfg["ell"]
    result = theorem.inverse(theorem.forward(f, lam, ell), lam, ell, f)
    tol = cfg["tolerance"] or theorem.tolerance[n % 2]
    report = result.report.to_dict()
    report["input"] = input_spec
    report["tolerance"] = tol
    report["passed"] = bool(result.report.max_error <= tol)
    _write_json(cfg["out"], report, h)
    if cfg["csv"]:
        grid = build_grid(n, cfg["resolution"])
        # f, then each reconstruction, as a real and an imaginary column
        values = [f.evaluate(grid.nodes)] + [r.evaluate(grid.nodes) for r in result.reconstructions]
        names = ["f"] + [f"recon{i}" for i in range(1, len(values))]
        columns = [f"x{i + 1}" for i in range(n)] + [f"{a}_{b}" for a in names for b in ("re", "im")]
        rows = [[_fmt(c) for c in node] + [_fmt(x) for v in values for x in (v[i].real, v[i].imag)]
                for i, node in enumerate(grid.nodes)]
        _write_csv(cfg["csv"], columns, rows, h)
    return 0 if report["passed"] else 2


def _option_list(cfg: dict, key: str, kind, what: str) -> list:
    """The comma-separated option ``key`` as a list of at least 3 values of
    the type of ``kind``."""
    values = [_coerce(f"option --{key.replace('_', '-')}", text, kind)
              for text in cfg[key].split(",")]
    if len(values) < 3:
        raise InvalidArgumentError(f"need at least 3 {what}")
    return values


def _cmd_convergence(cfg: dict) -> int:
    h = _config_hash(cfg)
    study, n = cfg["study"], cfg["n"]
    rows = []
    passed = True
    slope = None
    if study in ("fd-beltrami", "fd-weighted"):
        steps = _option_list(cfg, "h_values", 0.0, "step sizes")
        f = random_even_spectrum(n, cfg["J"], cfg["seed"], decay=2.0)
        probes = build_grid(n, 6).nodes[::5]
        errors = []
        for step in steps:
            if study == "fd-beltrami":
                fd = beltrami_fd_values(f.evaluate, probes, h=step)
                ref = beltrami_spectrum(f).evaluate(probes)
            else:
                op = WeightedOpSpec(lam=complex(cfg["lambda_re"], cfg["lambda_im"]),
                                    ell=cfg["ell"], n=n)
                fd = weighted_laplacian_fd(f.evaluate, op, probes, h=step)
                ref = weighted_laplacian_spectrum(f, op).evaluate(probes)
            errors.append(float(np.max(np.abs(fd - ref))))
            rows.append([_fmt(step), _fmt(errors[-1])])
        slope = fd_convergence_slope(errors, steps)
        passed = abs(slope - 2.0) <= 0.2
        columns = ["h", "max_error"]
    elif study == "quadrature":
        resolutions = _option_list(cfg, "resolutions", 0, "resolutions")
        pole = np.array([0.6, 0.0, 0.8] + [0.0] * (n - 3))
        for res in resolutions:
            grid = build_grid(n, res)
            f = grid_function(grid, lambda v: zonal_eval(6, n, v @ pole))
            err = abs(integrate(f))
            rows.append([str(res), _fmt(err)])
            if res >= 8 and err >= 1e-12:
                passed = False
        columns = ["resolution", "error"]
    elif study == "mc-dual":
        sample_counts = _option_list(cfg, "samples_list", 0, "sample counts")
        f = random_even_spectrum(n, 4, cfg["seed"], zonal=True)
        psi = funk_k_function(f.evaluate, n, cfg["k"], profile_degree=f.max_degree)
        v = np.eye(n)[1]
        sigmas = []
        for count in sample_counts:
            est = dual_funk_k(psi, v, count, cfg["seed"])
            sigmas.append(est.sigma)
            rows.append([str(count), _fmt(est.sigma), _fmt(abs(est.value))])
        slope = float(np.polyfit(np.log(sample_counts), np.log(sigmas), 1)[0])
        passed = abs(slope + 0.5) <= 0.1
        columns = ["samples", "sigma", "abs_value"]
    else:
        raise InvalidArgumentError(f"unknown study {study!r}")
    comments = [f"study={study}"]
    if slope is not None:
        comments.append(f"slope={_fmt(slope)}")
    comments.append(f"passed={passed}")
    _write_csv(cfg["out"], columns, rows, h, extra_comments=comments)
    return 0 if passed else 2


def _cmd_stiefel_check(cfg: dict) -> int:
    h = _config_hash(cfg)
    lam = complex(cfg["lambda_re"], cfg["lambda_im"]) if cfg["identity"] == "4.8" else None
    result = check_identity(
        cfg["identity"], cfg["n"], cfg["k"], lam=lam, samples=cfg["samples"],
        seed=cfg["seed"], max_degree=cfg["J"],
    )
    _write_json(cfg["out"], result, h)
    ok = result["within_3sigma"] and result["spectral_error"] <= 1e-10
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# the option table and the parser


# subcommand -> (handler, help, defaults).  The defaults are the subcommand's
# options: each key is a config-file key and, with dashes for underscores and a
# leading "--", a flag of the default's type.
SUBCOMMANDS = {
    "multipliers": (_cmd_multipliers, "degree-multiplier tables as CSV", {
        "operator": "cosine", "n": 3, "J": 16, "lambda_re": -1.0, "lambda_im": 0.0,
        "ell": 1, "out": "multipliers.csv",
    }),
    "forward": (_cmd_forward, "forward transform of a synthesized input", {
        "transform": "cosine", "n": 3, "lambda_re": -0.5, "lambda_im": 0.0,
        "path": "auto", "input": "", "resolution": 16, "J": 8, "out": "forward.csv",
    }),
    "diffop": (_cmd_diffop, "weighted Laplacian path comparison as CSV", {
        "lambda_re": -1.5, "lambda_im": 0.0, "ell": 1, "n": 3, "path": "spectral",
        "h": 1e-3, "input": "random-even:J=6,seed=0", "resolution": 12, "J": 6,
        "out": "diffop.csv",
    }),
    "invert": (_cmd_invert, "round-trip inversion report (JSON + optional CSV)", {
        "theorem": "funk", "n": 3, "lambda_re": -0.5, "lambda_im": 0.0, "ell": 1,
        "input": "", "resolution": 12, "J": 8, "seed": 0, "tolerance": 0.0,
        "out": "invert.json", "csv": "",
    }),
    "convergence": (_cmd_convergence, "error vs parameter tables with slope checks", {
        "study": "fd-beltrami", "n": 3, "lambda_re": -1.5, "lambda_im": 0.0, "ell": 1,
        "seed": 0, "J": 6, "h_values": "1e-2,7e-3,5e-3", "resolutions": "4,6,8,10,12",
        "samples_list": "1000,4000,16000,64000", "k": 1, "out": "convergence.csv",
    }),
    "stiefel-check": (_cmd_stiefel_check, "frame-transform identity check (JSON)", {
        "identity": "4.8", "n": 4, "k": 2, "lambda_re": 1.0, "lambda_im": 0.0,
        "samples": 100000, "seed": 1, "J": 4, "out": "stiefel-check.json",
    }),
}

_CHOICES = {
    "operator": tuple(_TABLE_BUILDERS),
    "transform": tuple(OPERATORS),
    "theorem": tuple(THEOREMS),
    "study": STUDIES,
    "identity": IDENTITY_TAGS,
}
_PATHS = {"forward": ("quadrature", "spectral", "auto"), "diffop": ("spectral", "factored", "fd")}
_HELP = {
    "config": "flat key = value config file",
    "input": "zonal:j=..,pole=.. | const:c | random-even:J=..,seed=..",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funkinv",
        description="spherical cosine/Funk/sine transforms, weighted Laplacians, "
        "and their inversion identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help=_HELP["config"])
        for key, default in defaults.items():
            flags = ["--" + key.replace("_", "-")] + (["--lambda"] if key == "lambda_re" else [])
            choices = _PATHS[command] if key == "path" else _CHOICES.get(key)
            # None marks an option that was not given, so config files can fill it
            p.add_argument(*flags, dest=key, type=type(default), choices=choices,
                           default=None, help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, defaults = SUBCOMMANDS[args.command]
    try:
        return handler(_effective_config(args, defaults))
    except (FunkinvError, OSError) as exc:
        # a file-system failure of any kind reports as OSError
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
