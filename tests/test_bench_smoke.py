"""Smoke test for the benchmark: one short traced run of each workload.

The run checks every report against the benchmark's closed forms, and its
tracer looks up the public functions of the package by name, so this test
fails when either the answers or those names change.  It runs a copy of
src/ and perfbench/, so the results and spans of the run land in the
copy's .perfbench/, not the checkout's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def copy_root(tmp_path_factory):
    """A copy of src/ and perfbench/; run.py resolves its paths from its own
    location and refuses a symlinked src/, so the trees are copied."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.skipif(not RUNNER.is_file(), reason="no perfbench/ in this checkout")
@pytest.mark.parametrize("workload", ["classical", "tori", "crosscheck"])
def test_traced_run_is_correct(copy_root, workload):
    proc = subprocess.run(
        [sys.executable, str(copy_root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=copy_root,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "components.split_lattices.calls" in result["metrics"]
