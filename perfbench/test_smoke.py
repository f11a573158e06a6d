"""Smoke test of the benchmark on tiny inputs.

Each workload must run, pass its correctness checks with no failed
operations, and print exactly the metric names ``BENCHMARK.json`` declares:
the end-to-end metrics with tracing off, the per-layer metrics with it on.
Runs go through ``perfbench/run.py`` in a fresh process each, as the
benchmark is meant to be run, so timing shims never leak into this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_checks_and_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_spec_describes_every_declared_metric_and_workload():
    assert set(SPEC["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in SPEC["end_to_end"].values():
        assert set(spec["workloads"]) == set(WORKLOADS)
    assert set(SPEC["workloads"]) == set(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
