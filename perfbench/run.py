"""funkinv benchmark: one workload per run, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: quadrature-n3 and spectral-mc (see ``workloads.py`` for what each
runs and why).  Load is closed-loop: one process, one op at a time, with
BLAS/OpenMP pinned to one thread.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time (the
median of several fresh-process set-ups), the median pass wall time, the
median and tail op time, peak RSS and accuracy digits.  With ``--trace 1``
it prints the per-layer metrics of a traced run and the tracing overhead.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark builds nothing: it runs ``src/funkinv`` from the checkout and
exits 2 when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("quadrature-n3", "spectral-mc")
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
# Fresh-process set-ups per run whose median is setup_s; the measuring
# worker's own set-up is one of them.
SETUPS = 3
# Every run must end within 180 s; children are killed past this budget.
BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        # every run compiles funkinv from source, so no run inherits another's cache
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def run_worker(role: str, args, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.time()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(args, result: dict, metrics: dict, units: dict, setups=()) -> dict:
    """Print the run's environment, failures and metrics; return the JSON summary."""
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    if setups:
        print("# setup_s samples: " + " ".join(f"{s:.4g}" for s in setups))
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"# ops attempted={attempted} failed={failed} failure_rate={failed / attempted:.4g} "
          f"passes={result['passes']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for known in result.get("known_failures", ()):
        state = "still fails" if known["failed"] else "now passes"
        print(f"# known failure {known['op']} ({state}: {known['outcome']}): {known['reason']}")
    for name, seconds in result.get("op_medians", {}).items():
        print(f"# op {name}: median {seconds:.4g} s over {result['passes']} passes")
    for name, value in metrics.items():
        line = f"{name:40s} {value:.6g} {units[name]}"
        if name == "op_tail_s":
            t = result["tail"]
            line += f"  (p{t['percentile']:.1f}, {t['beyond']} of {t['samples']} samples beyond)"
        print(line)
    if "trace_file" in result:
        print(f"# untraced wall_s {result['untraced_wall_s']:.6g} s; "
              f"spans in {result['trace_file']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funkinv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "funkinv", "__init__.py")):
        print(f"perfbench: no funkinv sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    if args.trace:
        result = run_worker("measure", args, env, deadline)
        summary = report(args, result, result["metrics"], result["units"])
    else:
        setups = [run_worker("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
        result = run_worker("measure", args, env, deadline)
        setups.append(result["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
        summary = report(args, result, metrics, UNITS, setups)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
