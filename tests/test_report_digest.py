"""Every report of the benchmark ladders stays byte-identical.

``tools/report_digest.py`` renders each report of the ``classical``,
``tori`` and ``crosscheck`` ladders (seeds 1-3) and of a fixed list of
presets as text, as JSON and with its generator names, and prints one
sha256 over all of them.  A change to any answer or to any byte of its
rendering changes the digest.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "448 reports, sha256 8aa3dac9f31d3e2cf8c3088dee4b0d3a225d7cd2ed1f26bd59a85d78c8255bd3"


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ in this checkout")
def test_reports_are_byte_identical():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [DIGEST]
