"""The benchmark's digit_files workload runs on this checkout and its own output checks pass.

It reads datasets the way outside code does (row views, whole splits handed
to make_batch), so this guards that contract end to end.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_digit_files_benchmark_runs_correct():
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "digit_files", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
