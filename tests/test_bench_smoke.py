"""The benchmark's own smoke check (``bench/smoke.py``) passes.

It runs every benchmark workload at 256 bins, checks that no operation fails
and that every metric is emitted, and that corrupted command output is
caught. A change that breaks the benchmark's checks fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_check_passes():
    result = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
