import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import funkinv
from funkinv.cli import build_parser, main, parse_function_spec
from funkinv.diffops import beltrami_fd_values, beltrami_spectrum
from funkinv.errors import InvalidArgumentError
from funkinv.grids import build_grid, grid_function, integrate
from funkinv.spectral import random_even_spectrum, zonal_eval
from funkinv.stiefel import dual_funk_k, funk_k_function

# The directory holding the imported package, absolute so that a child started
# in another working directory (a relative PYTHONPATH such as ``src`` would
# resolve against that directory) imports the same funkinv as this process.
PACKAGE_ROOT = str(Path(funkinv.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "funkinv", *args],
        cwd=cwd, capture_output=True, text=True, env=env,
    )


def test_multipliers_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["multipliers", "--n", "3", "--J", "8", "--lambda", "-1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# funkinv ")
    assert "config-sha256=" in lines[0]
    assert lines[1] == "operator,n,j,lambda_re,lambda_im,ell,value_re,value_im"
    first = lines[2].split(",")
    assert first[:3] == ["cosine", "3", "0"]
    assert abs(float(first[6]) - math.sqrt(math.pi)) <= 1e-10
    assert len(lines) == 2 + 5  # even degrees 0..8


def test_multipliers_high_degree_are_finite(tmp_path):
    # the gamma ratios used to overflow from degree 282 on
    for operator in ("cosine", "sine", "funk", "log-cosine"):
        out = tmp_path / f"{operator}.csv"
        assert main(["multipliers", "--operator", operator, "--J", "400",
                     "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows[-1][2] == "400"
        values = np.array([[float(r[6]), float(r[7])] for r in rows])
        assert np.all(np.isfinite(values))


def test_forward_csv(tmp_path):
    out = tmp_path / "f.csv"
    code = main([
        "forward", "--transform", "cosine", "--n", "3", "--lambda-re", "1",
        "--path", "quadrature", "--input", "zonal:j=2,pole=0,0,1",
        "--resolution", "8", "--out", str(out),
    ])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 8 * 16
    node = max(rows, key=lambda r: abs(float(r[3])))
    ratio = float(node[5]) / float(node[3])
    assert abs(ratio - (-math.sqrt(math.pi) / 2.0)) <= 1e-8  # degree-2 value at lam=1


def test_forward_rejects_bad_input(tmp_path):
    res = run_cli(["forward", "--transform", "logcos", "--input", "const:1",
                   "--out", "x.csv"], tmp_path)
    assert res.returncode == 1
    err = json.loads(res.stderr)
    assert err["error"] == "PreconditionError"



def _csv_columns(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return dict(zip(lines[0].split(","), zip(*(l.split(",") for l in lines[1:]))))


@pytest.mark.parametrize("path", ["quadrature", "spectral"])
def test_forward_real_transform_has_zero_imaginary_columns(tmp_path, path):
    base = ["forward", "--transform", "cosine", "--lambda-re", "0.5", "--path", path,
            "--input", "random-even:J=6,seed=3", "--resolution", "10"]
    out = tmp_path / "real.csv"
    assert main(base + ["--out", str(out)]) == 0
    cols = _csv_columns(out)
    assert set(cols["input_im"]) == set(cols["output_im"]) == {"0"}
    assert any(float(v) != 0.0 for v in cols["output_re"])
    # a complex lambda makes the transform complex, and its parts are kept
    out = tmp_path / "complex.csv"
    assert main(base + ["--lambda-im", "0.5", "--out", str(out)]) == 0
    cols = _csv_columns(out)
    assert set(cols["input_im"]) == {"0"}
    assert max(abs(float(v)) for v in cols["output_im"]) > 1e-3


@pytest.mark.parametrize("transform, default_input", [
    ("cosine", "random-even:J=6,seed=0"),
    ("logcos", "zonal:j=4"),
    ("logsine", "zonal:j=4"),
])
def test_forward_default_input(tmp_path, transform, default_input):
    # the logarithmic transforms default to a mean-zero input; the default is
    # resolved before the configuration hash, so it equals spelling it out
    base = ["forward", "--transform", transform, "--resolution", "8"]
    assert main(base + ["--out", str(tmp_path / "default.csv")]) == 0
    assert main(base + ["--input", default_input, "--out", str(tmp_path / "given.csv")]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()

def test_diffop_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["diffop", "--lambda", "-1.5", "--ell", "1", "--n", "3",
                 "--path", "fd", "--h", "1e-3", "--resolution", "6",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    diffs = [float(r[-1]) for r in rows]
    assert max(diffs) <= 1e-3


def test_invert_json_and_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert main(["invert", "--theorem", "funk", "--n", "4", "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_error"] <= 1e-9
    assert report["_version"]
    # impossible tolerance: computation fine, identity check fails -> exit 2
    assert main(["invert", "--theorem", "funk", "--n", "4", "--seed", "7",
                 "--tolerance", "1e-30", "--out", str(out)]) == 2


def test_invert_csv_output(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    assert main(["invert", "--theorem", "general-between", "--n", "3",
                 "--lambda", "-1.5", "--ell", "1", "--seed", "3",
                 "--out", str(out), "--csv", str(csv)]) == 0
    rows = [l.split(",") for l in csv.read_text().splitlines() if not l.startswith("#")]
    assert rows[0][:5] == ["x1", "x2", "x3", "f_re", "f_im"]
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    assert np.max(np.abs(data[:, 3] - data[:, 5])) <= 1e-8  # recon matches truth


def test_invert_general_outside_at_the_log_point(tmp_path):
    # -lam-n+2 ell = 0: the outside chain runs its log branch
    res = run_cli(["invert", "--theorem", "general-outside", "--n", "3", "--lambda", "-1",
                   "--ell", "1", "--out", "r.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] is True and report["method"] == "log-branch"
    assert report["max_error"] <= 1e-13


def test_cli_byte_determinism(tmp_path):
    args = ["invert", "--theorem", "funk", "--n", "4", "--seed", "7", "--out", "r.json"]
    res = run_cli(args, tmp_path)
    assert res.returncode == 0
    first = (tmp_path / "r.json").read_bytes()
    res = run_cli(args, tmp_path)
    assert res.returncode == 0
    assert (tmp_path / "r.json").read_bytes() == first


def test_stiefel_check_cli(tmp_path):
    out = tmp_path / "s.json"
    code = main(["stiefel-check", "--identity", "4.8", "--n", "4", "--k", "2",
                 "--lambda", "1", "--samples", "5000", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["identity"] == "4.8"
    assert result["mc_error"] < 3 * result["mc_sigma"]
    assert result["spectral_error"] <= 1e-10


def test_convergence_cli(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["convergence", "--study", "fd-beltrami", "--out", str(out)]) == 0
    text = out.read_text()
    slope = float(next(l for l in text.splitlines() if l.startswith("# slope")).split("=")[1])
    assert abs(slope - 2.0) <= 0.2
    assert main(["convergence", "--study", "quadrature", "--out", str(out)]) == 0
    assert main(["convergence", "--study", "mc-dual", "--n", "4",
                 "--samples-list", "500,2000,8000", "--out", str(out)]) == 0
    slope = float(next(l for l in out.read_text().splitlines()
                       if l.startswith("# slope")).split("=")[1])
    assert abs(slope + 0.5) <= 0.1
    res = run_cli(["convergence", "--study", "fd-beltrami", "--h-values", "1e-2,1e-3",
                   "--out", "c.csv"], tmp_path)
    assert res.returncode == 1  # fewer than 3 points
    err = json.loads(res.stderr)
    assert err["error"] == "InvalidArgumentError"
    assert "need at least 3 step sizes" in err["message"]


def test_mc_dual_study_runs_at_the_given_n(tmp_path):
    out = tmp_path / "mc.csv"
    counts = (500, 2000, 8000)
    assert main(["convergence", "--study", "mc-dual", "--n", "3", "--samples-list",
                 ",".join(map(str, counts)), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    f = random_even_spectrum(3, 4, 0, zonal=True)
    psi = funk_k_function(f, 3, 1, profile_degree=f.max_degree)
    want = [dual_funk_k(psi, np.eye(3)[1], count, 0).sigma for count in counts]
    assert [float(row[1]) for row in rows] == want


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 3\nJ = 6\nlambda_re = -1\nout = from_config.csv\n")
    out = tmp_path / "cli_wins.csv"
    assert main(["multipliers", "--config", str(cfg), "--J", "4", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 3  # flag J=4 overrode config J=6
    res = run_cli(["multipliers", "--config", "missing.cfg"], tmp_path)
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"] == "OSError"


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    res = run_cli(["multipliers", "--config", str(cfg), "--out", "m.csv"], tmp_path)
    assert res.returncode == 1
    assert json.loads(res.stderr)["error"] == "InvalidArgumentError"


def test_unparsable_config_value(tmp_path):
    # a value that is not of its option's type is an InvalidArgumentError
    # naming the key and the value, not a traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = x\n")
    res = run_cli(["multipliers", "--config", str(cfg), "--out", "m.csv"], tmp_path)
    assert res.returncode == 1
    err = json.loads(res.stderr)
    assert err["error"] == "InvalidArgumentError"
    assert "'n'" in err["message"] and "'x'" in err["message"]
    assert not (tmp_path / "m.csv").exists()


def test_parse_function_spec():
    spec = parse_function_spec("zonal:j=4,pole=0,0,1", 3, 8)
    assert spec.max_degree == 4
    assert spec.pole is not None and spec.pole[2] == 1.0
    spec = parse_function_spec("const:2.5", 4, 8)
    assert spec.mean == 2.5
    spec = parse_function_spec("random-even:J=6,seed=3", 3, 8)
    assert spec.max_degree == 6 and spec.kind == "full"
    with pytest.raises(InvalidArgumentError):
        parse_function_spec("spline:k=3", 3, 8)


@pytest.mark.parametrize("spec, field, text", [
    ("zonal:j=x", "'j'", "'x'"),
    ("const:abc", "constant", "'abc'"),
    ("random-even:J=4,seed=q", "'seed'", "'q'"),
    ("zonal:j=2,pole=1,a,0", "'pole'", "'a'"),
    ("zonal:j=-1", "'j'", "-1"),
    ("random-even:J=-1", "'J'", "-1"),
    ("random-even:J=-2", "'J'", "-2"),
])
def test_malformed_number_in_function_spec(spec, field, text, tmp_path, capsys):
    # a number that does not parse, or a negative degree, is an
    # InvalidArgumentError naming the field and the text, which the CLI
    # reports as its JSON error object
    with pytest.raises(InvalidArgumentError, match=f"{field}.*{text}"):
        parse_function_spec(spec, 3, 8)
    assert main(["forward", "--input", spec, "--out", str(tmp_path / "f.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgumentError" and text in err["message"]


@pytest.mark.parametrize("study, option, values, bad", [
    ("fd-beltrami", "--h-values", ["1e-2", "7e-3", "5e-3"], "x"),
    ("quadrature", "--resolutions", ["4", "6", "8"], "a"),
    ("mc-dual", "--samples-list", ["1000", "2000", "4000"], "2e3"),
])
def test_malformed_convergence_list(study, option, values, bad, tmp_path, capsys):
    # an entry that does not parse is an InvalidArgumentError naming the option
    # and the entry; fewer than 3 entries still raise
    out = str(tmp_path / "c.csv")
    for text, want in ((",".join([values[0], bad, values[2]]), f"{option}: cannot read {bad!r}"),
                       (",".join(values[:2]), "need at least 3")):
        assert main(["convergence", "--study", study, option, text, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgumentError" and want in err["message"]


@pytest.mark.parametrize("args", [
    ["multipliers", "--operator", "funk", "--n", "1"],
    ["multipliers", "--operator", "cosine", "--n", "1"],
    ["multipliers", "--J", "-1"],
    ["forward", "--n", "2"],
    ["forward", "--input", "random-even:J=4,seed=-2"],
    ["diffop", "--n", "2"],
    ["invert", "--seed", "-1"],
    ["invert", "--n", "1"],
    ["convergence", "--study", "mc-dual", "--seed", "-1"],
    ["convergence", "--study", "mc-dual", "--k", "0"],
    ["stiefel-check", "--seed", "-1"],
    ["stiefel-check", "--seed", str(2**128)],
    ["stiefel-check", "--k", "0"],
], ids=" ".join)
def test_out_of_range_arguments_exit_1_with_a_json_error(args, tmp_path, capsys):
    # every failure is a FunkinvError: the CLI exits 1 with one JSON error
    # object on stderr and writes no output file
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"} and err["error"] == "InvalidArgumentError"
    assert not out.exists()


# every subcommand's options: dest -> option strings, and the choices of the
# options that have them
CLI_SURFACE = {
    "multipliers": {
        "config": ["--config"], "operator": ["--operator"], "n": ["--n"],
        "lambda_re": ["--lambda-re", "--lambda"], "lambda_im": ["--lambda-im"],
        "ell": ["--ell"], "J": ["--J"], "out": ["--out"],
    },
    "forward": {
        "config": ["--config"], "transform": ["--transform"], "path": ["--path"],
        "input": ["--input"], "resolution": ["--resolution"], "n": ["--n"],
        "lambda_re": ["--lambda-re", "--lambda"], "lambda_im": ["--lambda-im"],
        "J": ["--J"], "out": ["--out"],
    },
    "diffop": {
        "config": ["--config"], "path": ["--path"], "h": ["--h"], "input": ["--input"],
        "resolution": ["--resolution"], "n": ["--n"],
        "lambda_re": ["--lambda-re", "--lambda"], "lambda_im": ["--lambda-im"],
        "ell": ["--ell"], "J": ["--J"], "out": ["--out"],
    },
    "invert": {
        "config": ["--config"], "theorem": ["--theorem"], "input": ["--input"],
        "resolution": ["--resolution"], "tolerance": ["--tolerance"], "csv": ["--csv"],
        "n": ["--n"], "lambda_re": ["--lambda-re", "--lambda"], "lambda_im": ["--lambda-im"],
        "ell": ["--ell"], "seed": ["--seed"], "J": ["--J"], "out": ["--out"],
    },
    "convergence": {
        "config": ["--config"], "study": ["--study"], "h_values": ["--h-values"],
        "resolutions": ["--resolutions"], "samples_list": ["--samples-list"], "k": ["--k"],
        "n": ["--n"], "lambda_re": ["--lambda-re", "--lambda"], "lambda_im": ["--lambda-im"],
        "ell": ["--ell"], "seed": ["--seed"], "J": ["--J"], "out": ["--out"],
    },
    "stiefel-check": {
        "config": ["--config"], "identity": ["--identity"], "k": ["--k"],
        "samples": ["--samples"], "n": ["--n"], "lambda_re": ["--lambda-re", "--lambda"],
        "lambda_im": ["--lambda-im"], "seed": ["--seed"], "J": ["--J"], "out": ["--out"],
    },
}
CLI_CHOICES = {
    ("multipliers", "operator"): ("cosine", "sine", "funk", "log-cosine", "delta-op"),
    ("forward", "transform"): ("cosine", "funk", "logcos", "sine", "logsine"),
    ("forward", "path"): ("quadrature", "spectral", "auto"),
    ("diffop", "path"): ("spectral", "factored", "fd"),
    ("invert", "theorem"): ("funk", "cosine1", "general-between", "general-outside"),
    ("convergence", "study"): ("fd-beltrami", "fd-weighted", "quadrature", "mc-dual"),
    ("stiefel-check", "identity"): ("4.8", "4.9", "thm4.1-i", "thm4.1-ii", "4.13", "4.14"),
}


def test_cli_option_surface():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(CLI_SURFACE)
    choices = {}
    for name, sub in commands.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        assert {a.dest: a.option_strings for a in actions} == CLI_SURFACE[name]
        choices.update({(name, a.dest): tuple(a.choices) for a in actions if a.choices})
        # an option left out stays None, so that a config file can set it
        assert all(a.default is None for a in actions)
    assert choices == CLI_CHOICES


def test_diffop_fd_path_runs_at_n4(tmp_path):
    out = tmp_path / "d4.csv"
    assert main(["diffop", "--path", "fd", "--n", "4", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0][:4] == ["x1", "x2", "x3", "x4"]
    assert max(float(r[-1]) for r in rows[1:]) <= 1e-4


@pytest.mark.parametrize("extra", [[], ["--ell", "2"]])
def test_convergence_fd_weighted_defaults_pass(tmp_path, extra):
    # the default steps stop at 5e-3, above where rounding takes over at ell = 2
    out = tmp_path / "c.csv"
    assert main(["convergence", "--study", "fd-weighted", *extra, "--out", str(out)]) == 0
    slope = float(next(l for l in out.read_text().splitlines()
                       if l.startswith("# slope")).split("=")[1])
    assert abs(slope - 2.0) <= 0.05


def test_fd_study_runs_at_the_given_n(tmp_path):
    out = tmp_path / "fd.csv"
    assert main(["convergence", "--study", "fd-beltrami", "--n", "4", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    f = random_even_spectrum(4, 6, 0)
    probes = build_grid(4, 6).nodes[::5]
    ref = beltrami_spectrum(f).evaluate(probes)
    want = [float(np.max(np.abs(beltrami_fd_values(f.evaluate, probes, h=h) - ref)))
            for h in (1e-2, 7e-3, 5e-3)]
    assert [float(row[1]) for row in rows] == want


def test_quadrature_study_runs_at_the_given_n(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["convergence", "--study", "quadrature", "--n", "5", "--resolutions", "4,6,8",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    pole = np.array([0.6, 0.0, 0.8, 0.0, 0.0])
    want = [abs(integrate(grid_function(build_grid(5, res), lambda v: zonal_eval(6, 5, v @ pole))))
            for res in (4, 6, 8)]
    assert [float(row[1]) for row in rows] == want
