"""Smoke tests for the runnable scripts under scripts/."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_pipeline_promotes_and_repeats_exactly():
    first = run_script("demo_pipeline.py")
    assert first.returncode == 0, first.stderr
    assert any(line.strip().endswith("promoted (round 2)") for line in first.stdout.splitlines())
    second = run_script("demo_pipeline.py")
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
