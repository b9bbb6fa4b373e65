import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    # --help runs after the script's imports, so a script left importing
    # deleted code fails here
    r = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                       text=True, env=ENV, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: ")


@pytest.mark.parametrize("args", [["--seeds", "0", "0"], ["--k", "1"]],
                         ids=["repeated-seed", "k-1"])
def test_replication_refuses_bad_arguments_before_writing(tmp_path, args):
    # exit 1 with one line, as the clseg CLI does, and no cohort generated
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_replication.py"),
                        "--workdir", str(tmp_path / "work"), *args],
                       capture_output=True, text=True, env=ENV, timeout=120)
    assert r.returncode == 1, r.stderr
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: "), r.stderr
    assert not (tmp_path / "work" / "seed_0").exists()
