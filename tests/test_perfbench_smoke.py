"""One short traced benchmark run: the tracer still wraps every layer,
and traced and untraced passes answer byte for byte the same."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sections_run():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sections",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
