"""The benchmark's own self-check passes on the program as it stands.

``perfbench/selfcheck.py`` runs every workload's tiny instance untraced
and traced and checks the metrics each run reports and its counts, so a
host-side change that breaks a benchmark run fails here. It writes its
temporary edge lists inside the checkout and runs in a subprocess of its
own, since a traced run rebinds module functions for the whole process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selfcheck: ok")
