"""Smoke test of the benchmark at minimal size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, traced and untraced, must emit every metric BENCHMARK.json
names, with its unit, and pass its output checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, *SPEC["command"][1:], "--seconds", str(SPEC["run_seconds"]),
           "--smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=check)


def last_two_lines(done):
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    report, result = last_two_lines(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert report["env"]["traced"] == bool(trace)
    assert report["workload_metrics"]["failed_fraction"]["value"] == 0.0


def test_fingerprint_repeats():
    runs = [last_two_lines(bench("--workload", "soliton-s1", "--seed", "2", "--trace", "0"))[0]
            for _ in range(2)]
    assert runs[0]["fingerprint"] == runs[1]["fingerprint"]


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "0", "--trace", "0",
                 cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
