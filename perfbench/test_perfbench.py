"""Tests of the benchmark itself, at its smallest size (one-second runs).

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _run(workload: str, trace: int) -> tuple[list, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == worker.per_layer_units()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    lines, result = _run("spectral-mc", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[2] for line in lines if not line.startswith("#")}
    assert printed == declared
    assert any(line.startswith("# env nproc=") and "OPENBLAS_NUM_THREADS=1" in line
               for line in lines)
    if trace:
        path = os.path.join(ROOT, ".perfbench_run", "trace-spectral-mc-seed3.json")
        with open(path) as fh:
            _check_parents(json.load(fh)["spans"])


def _check_parents(records):
    assert records
    for i, (name, tag, start, end, parent, op, error, n) in enumerate(records):
        assert start <= end
        if parent < 0:
            assert name in ("op", "setup")
            assert (op >= 0) == (name == "op")
            continue
        assert parent < i
        p_name, _, p_start, p_end, _, p_op, _, _ = records[parent]
        assert p_start <= start and end <= p_end
        assert op == p_op


def test_tracer_spans_nest_and_hooks_are_restored():
    import funkinv as fk
    from funkinv import spectral, transforms

    original = spectral.analyze
    tracer = spans.Tracer()
    f = fk.random_even_spectrum(3, 4, 1).to_grid(fk.build_grid(3, 6))
    with tracer.recording():
        assert transforms.analyze is spectral.analyze
        assert transforms.analyze.__wrapped__ is original
        with tracer.span("op", "quadrature", op=0):
            fk.cosine_transform(f, lam=0.5, path="quadrature")
    assert transforms.analyze is original and spectral.analyze is original
    _check_parents([s.as_list(0.0) for s in tracer.spans])
    layers = spans.layer_metrics(tracer.spans, 1)
    assert layers["transforms.quadrature.calls"] == 1
    assert layers["spectral.harmonic_basis.calls"] >= 1
    assert layers["transforms.points_per_output"] > 1
    own = spans.self_times(tracer.spans)
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(own) == pytest.approx(total)


def test_perturbed_output_counts_as_failure(tmp_path):
    wl = workloads.WORKLOADS["spectral-mc"](3, str(tmp_path), None)
    op = wl.ops[0]
    out = op.run()
    perturbed = out.with_values(out.values * (1.0 + 1e-9))
    ok = worker.run_pass(workloads.Workload([op]))
    bad = worker.run_pass(workloads.Workload([
        workloads.Op(op.name, lambda: perturbed, op.check, op.tol, op.exact)]))
    assert ok["failures"] == [] and len(ok["exact_errors"]) == 1
    assert len(bad["failures"]) == 1 and "above tolerance" in bad["failures"][0]


def test_changed_cli_bytes_count_as_failure(tmp_path):
    op = workloads.cli_op("tables", ("multipliers-16",), 3, str(tmp_path), None)
    (result,) = op.run()
    assert op.check([result]) <= 1e-12
    changed = {"code": 0,
               "files": {k: v.replace(b"e", b"E", 1) for k, v in result["files"].items()}}
    with pytest.raises(workloads.Mismatch):
        op.check([changed])
    with pytest.raises(workloads.Mismatch):
        op.check([{"code": 1, "files": result["files"]}])


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
