"""Smoke test of the benchmark at tiny input sizes. Not part of the unit
suite; run it with

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from suite import HERE, ROOT, load_spec, run_one

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_metric(workload, trace):
    result, out, err = run_one(workload, seed=5, seconds=0.5, trace=trace, size="tiny")
    assert result is not None, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, err
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is no
    program to measure: exit non-zero and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
