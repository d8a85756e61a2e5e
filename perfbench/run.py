"""gcflab benchmark: one workload per invocation, result as JSON on stdout.

    python3 perfbench/run.py --workload flow-round-s2 --seed 0 --seconds 30 --trace 0

Run it from the root of a gcflab source tree; the package is imported from
`src/`.  `--trace 0` prints the end-to-end metrics of one untraced pass;
`--trace 1` runs the same inputs untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The line before the result holds
the full report: environment, every operation with its headline numbers,
the fingerprint, the workload-specific metrics and the layer table.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-ups in fresh interpreters, besides the run's own: before and after the
# timed pass, so the median spans the run rather than one moment of it
SETUP_REPEATS_BEFORE, SETUP_REPEATS_AFTER = 2, 3

# Set-up in a fresh interpreter: import, grid build and input generation.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]), sys.argv[6] == "1")
print(time.perf_counter() - start)
"""

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("flow-round-s2", "soliton-s1", "analyze-corpus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes (coarse grids, few bodies) for the smoke test")
    return p.parse_args(argv)


def child_setup_seconds(args):
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), args.workload,
           str(args.seed), str(args.seconds), "1" if args.smoke else "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(args, inputs):
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "grids": {str(dim): list(grid.shape) for dim, grid in inputs.grids.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_commit": commit,
        "traced": bool(args.trace),
    }


def timed_pass(workloads, inputs):
    start = time.perf_counter()
    ops = workloads.execute(inputs)
    return ops, time.perf_counter() - start


def fingerprint(ops):
    values = [op.values for op in ops]
    digest = hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
    return {"sha256": digest, "ops": values}


def workload_metrics(ops):
    """Metrics that only some workloads have; reported, not gated.  An
    operation that raised has no values and does not count as completed."""
    failed = sum(op.error is not None for op in ops)
    out = {"failed_fraction": (failed / len(ops), "ratio")}
    runs = [op for op in ops if op.kind in ("flow", "soliton") and "steps" in op.values]
    if runs:
        steps = [op.values["steps"] for op in runs]
        out["steps_to_solution"] = (statistics.median(steps), "count")
        out["step_ms"] = (1e3 * sum(op.seconds for op in runs) / sum(steps), "ms")
    reports = [op for op in ops if op.kind == "report" and op.values]
    if reports:
        out["reports_per_s"] = (len(reports) / sum(op.seconds for op in reports), "1/s")
    oracles = [op for op in ops if op.kind.startswith("mc_") and op.values]
    if oracles:
        samples = sum(op.values["samples"] for op in oracles)
        out["mc_samples_per_s"] = (samples / sum(op.seconds for op in oracles), "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def layer_metrics(summary, tracer, traced_wall, untraced_wall, table_bytes):
    """Per-layer metrics of the traced pass, named as in BENCHMARK.json."""
    def s(name):
        return summary[name]

    def ratio(a, b):
        return a / b if b else 0.0

    errors = tracer.errors
    eval_points = tracer.work["sphere.eval"]
    step_rejected = errors.get(("flow.step", "StepRejected"), 0)
    m = {
        "sphere.derivative_bundle.calls": (s("sphere.derivative_bundle")["calls"], "count"),
        "sphere.derivative_bundle.self_s": (s("sphere.derivative_bundle")["self_s"], "s"),
        "sphere.derivative_bundle.mean_us": (
            1e6 * ratio(s("sphere.derivative_bundle")["self_s"],
                        s("sphere.derivative_bundle")["calls"]), "us"),
        "sphere.analyze.self_s": (s("sphere.analyze")["self_s"], "s"),
        "sphere.synthesize.self_s": (s("sphere.synthesize")["self_s"], "s"),
        "sphere.lowpass.calls": (s("sphere.lowpass")["calls"], "count"),
        "sphere.lowpass.self_s": (s("sphere.lowpass")["self_s"], "s"),
        "sphere.eval.points": (eval_points, "count"),
        "sphere.eval.self_s": (s("sphere.eval")["self_s"], "s"),
        "sphere.eval.points_per_s": (ratio(eval_points, s("sphere.eval")["inclusive_s"]), "1/s"),
        "sphere.legendre.table_bytes_computed": (table_bytes, "bytes"),
        "body.ConvexBody.constructions": (s("body.ConvexBody")["calls"], "count"),
        "body.ConvexBody.self_s": (s("body.ConvexBody")["self_s"], "s"),
        "body.ConvexBody.rejected": (
            errors.get(("body.ConvexBody", "BodyValidityError"), 0), "count"),
        "body.normalize_volume.calls": (s("body.normalize_volume")["calls"], "count"),
        "body.normalize_volume.self_s": (s("body.normalize_volume")["self_s"], "s"),
        "body.geometry_summary.self_s": (s("body.geometry_summary")["self_s"], "s"),
        "flow.step.attempts": (s("flow.step")["calls"], "count"),
        "flow.step.rejected": (step_rejected, "count"),
        "flow.step.accept_ratio": (
            ratio(s("flow.step")["calls"] - step_rejected, s("flow.step")["calls"]), "ratio"),
        "flow.step.self_s": (s("flow.step")["self_s"], "s"),
        "flow.stable_dt.self_s": (s("flow.stable_dt")["self_s"], "s"),
        "flow.run.self_s": (s("flow.run")["self_s"], "s"),
        "entropy.entropy_point.calls": (s("entropy.entropy_point")["calls"], "count"),
        "entropy.entropy_point.self_s": (s("entropy.entropy_point")["self_s"], "s"),
        "entropy.entropy_point.mean_us": (
            1e6 * ratio(s("entropy.entropy_point")["self_s"],
                        s("entropy.entropy_point")["calls"]), "us"),
        "entropy.santalo_point.self_s": (s("entropy.santalo_point")["self_s"], "s"),
        "entropy.entropy_report.self_s": (s("entropy.entropy_report")["self_s"], "s"),
        "entropy.mc_log_integral.self_s": (s("entropy.mc_log_integral")["self_s"], "s"),
        "entropy.mc_polar_mass_center.self_s": (
            s("entropy.mc_polar_mass_center")["self_s"], "s"),
        "soliton.solve_soliton.self_s": (s("soliton.solve_soliton")["self_s"], "s"),
    }
    layer_self = sum(v["self_s"] for v in summary.values())
    m["untraced_remainder_s"] = (traced_wall - layer_self, "s")
    m["traced_wall_s"] = (traced_wall, "s")
    m["untraced_wall_s"] = (untraced_wall, "s")
    m["tracing_overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gcflab" / "__init__.py").is_file():
        print(f"error: no gcflab sources at {SRC}; run from a gcflab source tree",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    inputs = workloads.setup(args.workload, args.seed, args.seconds, args.smoke)
    setup_samples = [time.perf_counter() - start]
    if not workloads.gcflab.__file__.startswith(str(SRC)):
        print("error: gcflab was not imported from this source tree", file=sys.stderr)
        return 2
    setup_samples += [child_setup_seconds(args) for _ in range(SETUP_REPEATS_BEFORE)]

    ops, wall = timed_pass(workloads, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [child_setup_seconds(args) for _ in range(SETUP_REPEATS_AFTER)]
    report = {
        "env": environment(args, inputs),
        "setup_samples_s": setup_samples,
        "fingerprint": fingerprint(ops),
        "errors": {},
        "ops": [{"kind": op.kind, "solution": op.solution, "seconds": op.seconds,
                 "error": op.error} for op in ops],
        "workload_metrics": workload_metrics(ops),
    }
    all_ops = list(ops)
    correct = True

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops, traced_wall = timed_pass(workloads, inputs)
        finally:
            tracer.uninstall()
        traced_fp = fingerprint(traced_ops)
        # tracing must not change a single result
        correct = traced_fp["sha256"] == report["fingerprint"]["sha256"]
        report["traced_fingerprint_sha256"] = traced_fp["sha256"]
        all_ops += traced_ops
        summary = tracer.summary()
        report["layers"] = summary
        report["layer_errors"] = {f"{n}:{k}": c for (n, k), c in tracer.errors.items()}
        metrics = layer_metrics(summary, tracer, traced_wall, wall,
                                workloads.table_bytes_computed(inputs.grids))
    else:
        solutions = len({op.solution for op in ops})
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "time_to_solution_s": sum(op.seconds for op in ops) / solutions,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    failed = [op for op in all_ops if op.error is not None]
    for op in failed:
        report["errors"][op.error] = report["errors"].get(op.error, 0) + 1
    report["metrics"] = metrics
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct and not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
