"""The traced benchmark's result line is strict JSON with finite metrics.

A tracer target that the program stops calling has no samples, and its
median is NaN; `json.dumps` prints that as a bare `NaN`, which Python's
`json.loads` accepts but a strict parser refuses. Each workload runs at toy
size, as `perfbench/run.py` is run, in about 3 s.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _refuse_constant(name):
    raise ValueError(f"result line holds the non-JSON constant {name}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run_reports_only_finite_metrics(workload):
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--toy",
                        "--workload", workload, "--trace", "1", "--seed", "3", "--seconds", "1"],
                       capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values
    assert {name: v for name, v in values.items()
            if type(v) not in (int, float) or not math.isfinite(v)} == {}
