"""Alternating parent/change benchmark pairs, written to ``BENCH_<pr>.json``.

    python3 bench/pairs.py --parent HEAD~1 --pr N [--change REV] [--traced]

Run it from the root of a gcflab git checkout.  The parent side is ``git
archive REV`` unpacked into a temporary directory, so the repository gets no
worktree metadata.  The change side is ``git archive`` of ``--change REV``
unpacked the same way, or by default a copy of the working tree's files
(``git ls-files --cached --others --exclude-standard``: tracked and untracked,
less what ``.gitignore`` excludes).  Both sides thus start without a
``__pycache__``, so neither runs warm where the other compiles every module
(as it does on every run when ``PYTHONDONTWRITEBYTECODE`` is set).  Both sides
run their own copy of ``perfbench/run.py``.

The runs are fixed: for every workload, ``PAIRS`` pairs, pair i running
``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` once on each
side, with S the i-th entry of ``SEEDS`` taken cyclically.  The side that runs
first alternates from one round of the seeds to the next (``schedule``), so
every seed runs in both orders and an effect of running first is not taken
for an effect of the seed: the speed of a shared machine drifts by up to
0.73-1.30x over minute-long phases, so only matched, alternating pairs are
compared.  Per workload the file holds every pair's end-to-end metrics, each
side's median and quartiles, the ratio of medians (change / parent), how
many pairs the change won on each metric, overall, per seed and per side
that ran first, whether a gain on it would hold
(``gain_rule``: the change wins at least 9 of 10 pairs, ties counting for
neither side, and the parent's median exceeds the change's by more than the
parent's interquartile range), and, per seed, both sides'
fingerprints and headline numbers.  Each side of a pair also keeps its run's
workload metrics: oracle and report throughput, step counts and time per
step.  ``--traced`` adds one ``--trace 1`` run per side and workload at the
first seed, for the per-layer counts.  Each side also runs ``gcflab verify
--out`` once, and the file records the 11 check values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

WORKLOADS = ("flow-round-s2", "soliton-s1", "analyze-corpus")
END_TO_END = ("wall_s", "time_to_solution_s", "setup_s", "peak_rss_mb")  # all lower-is-better
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_TIMEOUT_S = 1800
PAIRS = 10
SEEDS = (0, 3)
SECONDS = 30


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--change", default=None,
                   help="git revision of the change side (default: the working tree)")
    p.add_argument("--pr", required=True, help="label of the output file, BENCH_<pr>.json")
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per side and workload")
    return p.parse_args(argv)


def git(root, *cmd) -> str:
    done = subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout.strip()


def export(root, rev, dest) -> Path:
    """Unpack ``git archive rev`` into dest; returns dest."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(root), "archive", rev], stdout=fh, check=True,
                       timeout=120)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def copy_worktree(root, dest) -> Path:
    """Copy the working tree's tracked and untracked, not ignored files into
    dest; returns dest.  Tracked files deleted from the tree are skipped."""
    listed = git(root, "ls-files", "--cached", "--others", "--exclude-standard", "-z")
    dest.mkdir()
    for name in filter(None, listed.split("\0")):
        source = Path(root) / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    return dest


def run_bench(tree, workload, seed, trace) -> dict:
    """One perfbench invocation; returns its report and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def run_verify(tree, out_dir, side) -> dict:
    """``gcflab verify --out`` on one side; returns the check values."""
    path = Path(out_dir) / f"verify-{side}.json"
    code = ("import sys; sys.path.insert(0, 'src'); from gcflab.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, "verify", "--out", str(path)],
                          cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    report = json.loads(path.read_text())
    return {
        "exit_code": done.returncode,
        "all_pass": report["all_pass"],
        "passed": sum(c["ok"] for c in report["checks"]),
        "wall_s": time.perf_counter() - start,
        "values": {c["name"]: c["value"] for c in report["checks"]},
        "elapsed_s": {c["name"]: c["elapsed"] for c in report["checks"]},
    }


def schedule() -> list:
    """(seed, side that runs first) of each pair: the seeds in turn, the
    first side switching after each round of them."""
    return [(SEEDS[i % len(SEEDS)], ("parent", "change")[(i // len(SEEDS)) % 2])
            for i in range(PAIRS)]


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def wins(pairs, metric) -> int:
    """Pairs in which the change's value of ``metric`` is lower (a tie is no win)."""
    return sum(p["change"]["metrics"][metric] < p["parent"]["metrics"][metric] for p in pairs)


def summarize(pairs) -> dict:
    """Medians, quartiles, ratio of medians, wins of the change (overall, per
    seed and per side that ran first) and, per metric, whether a gain would
    hold by the gain rule."""
    out = {"median": {}, "quartiles": {}, "ratio_of_medians": {}, "change_wins": {},
           "change_wins_by_seed": {}, "change_wins_by_first": {}, "gain_rule": {}}
    groups = {key: {value: [p for p in pairs if p[key] == value]
                    for value in sorted({p[key] for p in pairs})} for key in ("seed", "first")}
    for metric in END_TO_END:
        side = {s: [p[s]["metrics"][metric] for p in pairs] for s in ("parent", "change")}
        out["median"][metric] = {s: statistics.median(v) for s, v in side.items()}
        out["quartiles"][metric] = {s: quartiles(v) for s, v in side.items()}
        med = out["median"][metric]
        out["ratio_of_medians"][metric] = med["change"] / med["parent"]
        won = wins(pairs, metric)
        out["change_wins"][metric] = f"{won}/{len(pairs)}"
        for key in ("seed", "first"):
            out[f"change_wins_by_{key}"][metric] = {
                str(value): f"{wins(group, metric)}/{len(group)}"
                for value, group in groups[key].items()}
        low, high = out["quartiles"][metric]["parent"]
        rule = {"wins_enough": 10 * won >= 9 * len(pairs),  # at least 9 of every 10 pairs
                "median_gap": med["parent"] - med["change"], "parent_iqr": high - low}
        rule["gap_exceeds_iqr"] = rule["median_gap"] > rule["parent_iqr"]
        rule["holds"] = rule["wins_enough"] and rule["gap_exceeds_iqr"]
        out["gain_rule"][metric] = rule
    return out


def values(metrics) -> dict:
    """{name: value} of a perfbench metrics block {name: {"value", "unit"}}."""
    return {k: v["value"] for k, v in metrics.items()}


def side_summary(run) -> dict:
    result, report = run["result"], run["report"]
    return {
        "metrics": values(result["metrics"]),
        "workload_metrics": values(report["workload_metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fingerprint": report["fingerprint"]["sha256"],
    }


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(git(".", "rev-parse", "--show-toplevel"))
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    doc = {
        "pr": args.pr,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "parent": {"rev": args.parent, "commit": git(root, "rev-parse", args.parent)},
        "change": ({"rev": args.change, "commit": git(root, "rev-parse", args.change)}
                   if args.change else
                   {"rev": "working tree", "commit": git(root, "rev-parse", "HEAD"),
                    "uncommitted_changes": bool(git(root, "status", "--porcelain"))}),
        "env": environment(),
        "settings": {"seconds": SECONDS, "pairs": PAIRS, "seeds": list(SEEDS),
                     "trace": 0, "command": "perfbench/run.py"},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="gcflab-pairs-") as tmp:
        trees = {"parent": export(root, args.parent, Path(tmp) / "parent"),
                 "change": export(root, args.change, Path(tmp) / "change")
                 if args.change else copy_worktree(root, Path(tmp) / "change")}
        for workload in WORKLOADS:
            pairs, fingerprints = [], {}
            for i, (seed, first) in enumerate(schedule()):
                order = ("parent", "change") if first == "parent" else ("change", "parent")
                runs = {side: run_bench(trees[side], workload, seed, 0)
                        for side in order}
                pair = {"pair": i, "seed": seed, "first": order[0]}
                pair.update({side: side_summary(runs[side]) for side in ("parent", "change")})
                pair["ratio"] = {m: pair["change"]["metrics"][m] / pair["parent"]["metrics"][m]
                                 for m in END_TO_END}
                pairs.append(pair)
                print(f"{workload} pair {i} seed {seed}: wall_s ratio {pair['ratio']['wall_s']:.3f}",
                      file=sys.stderr, flush=True)
                if seed not in fingerprints:
                    fingerprints[seed] = {
                        side: {"sha256": runs[side]["report"]["fingerprint"]["sha256"],
                               "ops": runs[side]["report"]["fingerprint"]["ops"]}
                        for side in ("parent", "change")}
                    fingerprints[seed]["equal"] = (fingerprints[seed]["parent"]["sha256"]
                                                   == fingerprints[seed]["change"]["sha256"])
            entry = {"pairs": pairs, **summarize(pairs), "fingerprints": fingerprints}
            if args.traced:
                entry["traced"] = {}
                for side in ("parent", "change"):
                    run = run_bench(trees[side], workload, SEEDS[0], 1)
                    entry["traced"][side] = {
                        "seed": SEEDS[0],
                        "layers": values(run["result"]["metrics"]),
                        "workload_metrics": values(run["report"]["workload_metrics"]),
                        "layer_errors": run["report"]["layer_errors"],
                    }
            doc["workloads"][workload] = entry
        doc["verify"] = {side: run_verify(trees[side], tmp, side)
                         for side in ("parent", "change")}
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
