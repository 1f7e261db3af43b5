"""The benchmark runner's command line renders its own help."""

import os
import subprocess
import sys

RUN_ALL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "run_all.py")


def test_help_names_the_compare_threshold():
    result = subprocess.run(
        [sys.executable, RUN_ALL, "--help"], capture_output=True, text=True, check=True, timeout=60
    )
    text = " ".join(result.stdout.split())
    assert "exit 1 on any op >20% slower" in text
    assert "option_strings" not in text
