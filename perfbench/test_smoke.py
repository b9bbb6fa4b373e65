"""Smoke test of the benchmark: every workload at toy size, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs `run.py --toy` in its own process, as the benchmark is run,
and checks the result line against the metric lists of BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_toy_workload_reports_every_metric(workload, trace):
    r = _run(HERE / "run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--toy")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_fails_without_the_program_source():
    bare = ROOT / ".perfbench_work" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        r = _run(bare / HERE.name / "run.py", "--workload", "train_desk",
                 "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
