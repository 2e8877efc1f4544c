"""scripts/output_digests.py runs its fixed command list, with its repeat
and schema-1 self-checks, and prints one digest line per output file."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "output_digests.py")


def test_output_digests_passes_its_self_checks():
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 33
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
