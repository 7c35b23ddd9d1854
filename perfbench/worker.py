"""Child process of the benchmark: sets one workload up, then measures it.

``run.py`` starts this file in a fresh interpreter, so each workload's set-up
time and peak RSS are its own.  With ``--role setup`` it stops after set-up;
with ``--role measure`` it runs passes over the workload's op list until
``--seconds`` have elapsed (at least ``MIN_PASSES``) and prints one JSON
object on its last line of standard output.

With ``--trace 1`` the passes alternate between untraced and traced, the
spans are written to ``.perfbench_run/trace-<workload>-seed<seed>.json`` and
the report holds the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# accuracy_digits is capped here: an exact match reads as 16 digits
MAX_DIGITS = 16.0
# op_tail_s leaves 10 samples beyond it.  With at least 11 passes it stays
# among the samples of the slowest op, instead of dropping to the next op
# down whenever a slow host fits one pass fewer into the run.
MIN_PASSES = 11


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
    }


def digits(err: float) -> float:
    """-log10 of a relative error, capped at MAX_DIGITS."""
    return MAX_DIGITS if err <= 0.0 else min(MAX_DIGITS, -math.log10(err))


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has at
    least 10 samples beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def run_pass(workload, tracer=None, op_base: int = 0) -> dict:
    """One pass over the op list: per-op times, failures, errors and the
    workload's result metrics.  Op outputs are kept only for those metrics,
    so they do not add to the peak RSS of other workloads."""
    from workloads import Mismatch

    keep = workload.result_metrics is not None
    times, failures, exact_errors, results = [], [], [], []
    start = time.perf_counter()
    for i, op in enumerate(workload.ops):
        t = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("op", op.name, op=op_base + i):
                    out = op.run()
            times.append(time.perf_counter() - t)
            err = op.check(out)
            if not err <= op.tol:
                raise Mismatch(f"error {err:.3g} above tolerance {op.tol:.3g}")
        except Exception as exc:  # every failure is counted, none stops the pass
            if len(times) <= i:
                times.append(time.perf_counter() - t)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            if keep:
                results.append(None)
            continue
        if keep:
            results.append(out)
        if op.exact:
            exact_errors.append(err)
    wall = time.perf_counter() - start
    return {"wall": wall, "times": times, "failures": failures, "exact_errors": exact_errors,
            "result_metrics": workload.result_metrics(results) if keep else {}}


def attempt_known_failures(workload) -> list:
    """Run each known-failing op once; report whether it still fails."""
    from workloads import KNOWN_FAILURES

    report = []
    for op in workload.known_failures:
        try:
            err = op.check(op.run())
            failed = not err <= op.tol
            outcome = f"error {err:.3g}"
        except Exception as exc:
            failed = True
            outcome = f"{type(exc).__name__}: {exc}"
        report.append({"op": op.name, "failed": failed, "outcome": outcome,
                       "reason": KNOWN_FAILURES[op.name]})
    return report


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from spans import CLI_SUBCOMMANDS, LAYERS

    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    units.update({
        "grids.nodes": "count",
        "setup.grids.build_grid.self_s": "s",
        "setup.grids.nodes": "count",
        "spectral.harmonic_basis.entries": "count",
        "spectral.evaluate.points": "count",
        "transforms.points_per_output": "points/output",
        "diffops.fd_points": "count",
        "stiefel.frames": "count",
        "stiefel.samples": "count",
        "stiefel.sigma_sqrt_n": "1",
        "stiefel.mc_rel_sigma": "1",
        "cli.bytes_out": "B",
        **{f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS},
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "known.attempted": "count",
        "known.failed": "count",
    })
    return units


def measure(workload, seconds: float) -> dict:
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(workload))
        if len(passes) >= MIN_PASSES and time.perf_counter() + passes[-1]["wall"] > deadline:
            break
    times = [t for p in passes for t in p["times"]]
    value, pct, beyond = tail(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = [e for p in passes for e in p["exact_errors"]]
    return {
        "passes": len(passes),
        "attempted": sum(len(p["times"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "metrics": {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "op_p50_s": statistics.median(times),
            "op_tail_s": value,
            "peak_rss_mb": rss_kb / 1024.0,
            "accuracy_digits": min((digits(e) for e in errors), default=0.0),
        },
        "tail": {"percentile": pct, "beyond": beyond, "samples": len(times)},
        "op_medians": {op.name: statistics.median(p["times"][i] for p in passes)
                       for i, op in enumerate(workload.ops)},
    }


def measure_traced(workload, tracer, seconds: float) -> dict:
    import spans

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(workload))
        with tracer.recording():
            traced.append(run_pass(workload, tracer, op_base=len(traced) * len(workload.ops)))
        if time.perf_counter() + plain[-1]["wall"] + traced[-1]["wall"] > deadline:
            break
    untraced_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    in_ops = [s for s in tracer.spans if s.op >= 0]
    metrics = {"stiefel.mc_rel_sigma": 0.0, "stiefel.sigma_sqrt_n": 0.0}
    metrics.update(spans.layer_metrics(tracer.spans, len(traced)))
    metrics.update(spans.setup_metrics(tracer.spans))
    metrics.update(traced[-1]["result_metrics"])
    known = attempt_known_failures(workload)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(in_ops) / len(traced),
        "known.attempted": float(len(known)),
        "known.failed": float(sum(k["failed"] for k in known)),
    })
    units = per_layer_units()
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics differ from their list: {set(metrics) ^ set(units)}")
    passes = plain + traced
    return {
        "passes": len(passes),
        "attempted": sum(len(p["times"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "metrics": {name: metrics[name] for name in units},
        "units": units,
        "known_failures": known,
        "untraced_wall_s": untraced_wall,
    }


def write_trace(path: str, tracer, meta: dict) -> None:
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w") as fh:
        json.dump({**meta,
                   "fields": ["name", "tag", "start_s", "end_s", "parent", "op", "error", "n"],
                   "spans": [s.as_list(t0) for s in tracer.spans]}, fh)
        fh.write("\n")


def warm_up(workload) -> None:
    """One untimed run of the first op, so lazy imports and cached rules are filled."""
    workload.ops[0].run()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    args = parser.parse_args(argv)

    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer() if args.trace else None
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        build = WORKLOADS[args.workload]
        if tracer is None:
            workload = build(args.seed, workdir, None)
            warm_up(workload)
        else:
            with tracer.recording(), tracer.span("setup"):
                workload = build(args.seed, workdir, tracer)
                warm_up(workload)
        setup_s = time.time() - args.t0
        if args.role == "setup":
            report = {"setup_s": setup_s}
        elif tracer is None:
            report = {"setup_s": setup_s, "env": environment(), **measure(workload, args.seconds)}
        else:
            report = {"env": environment(), **measure_traced(workload, tracer, args.seconds)}
            path = os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            write_trace(path, tracer, {"workload": args.workload, "seed": args.seed,
                                       "env": report["env"], "passes": report["passes"]})
            report["trace_file"] = os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
