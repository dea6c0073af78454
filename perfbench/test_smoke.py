"""Smoke test of the benchmark harness at tiny sizes (about a second per run).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_without_errors(workload, trace):
    proc = run_bench(ROOT, BENCH_DIR / "run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert report["digest"] == report["digest_expected"]
    assert report["provenance"]["trace"] is bool(trace)


def test_bench_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "perfbench" / "run.py", "--workload", "front", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
