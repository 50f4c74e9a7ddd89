"""The benchmark's own tests: every workload at the tiny size.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _result(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_workloads_match_the_benchmark_file():
    assert NAMES == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_every_metric_with_its_unit(workload, trace):
    proc = _result("--workload", workload, "--seed", "5", "--seconds", "0.5",
                   "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = _units(SPEC["per_layer" if trace == "1" else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_self_times_fit_in_the_repetition(workload, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    result = run.measure(workload, 7, 0.5, trace=True, size="tiny")
    assert result["correct"], result["report"]
    assert result["rep_wall_s"]
    for unit, wall in result["rep_wall_s"].items():
        assert 0.0 < result["rep_self_s"][unit] <= wall


def test_a_wrong_rank_correlation_fails_the_run(monkeypatch):
    from flan import metrics

    real = metrics.kendall_tau
    monkeypatch.setattr(metrics, "kendall_tau", lambda x, y: real(x, y) * 0.999)
    monkeypatch.setattr(run, "ROOT", ROOT)
    result = run.measure("bench-data", 3, 0.1, trace=False, size="tiny")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("--workload", "bench-data", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
