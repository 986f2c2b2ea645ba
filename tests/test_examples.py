"""Smoke tests: every example script runs to completion.

Examples assert their own claims internally (linearizability, zero
false suspicions, crossovers), so a clean exit is a real check, not
just an import test.
"""

import glob
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = sorted(
    os.path.basename(path) for path in glob.glob(os.path.join(EXAMPLES_DIR, "*.py"))
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    completed = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, (
        f"{script} failed:\n{completed.stdout}\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{script} produced no output"
