"""Smoke tests: every bundled example runs to completion.

Each example is executed as a subprocess (the way a user would run it)
with a generous timeout; exit code 0 and non-empty output are the
contract.  Long experiments run in their ``--quick`` mode.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def _example_env():
    """Subprocess environment with the package importable from src."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src + os.pathsep + existing) if existing else src
    return env

# (script, extra args, substring the output must contain)
CASES = [
    ("quickstart.py", [], "squares computed by the ISS"),
    ("chaos_resilience.py", [], "chaos run recovered bit-identical"),
    ("checkpoint_resume.py", [],
     "save, verify, restore and recovery all byte-identical"),
    ("router_cosim.py", ["driver-kernel"], "co-simulation metrics"),
    ("router_cosim.py", ["gdb-wrapper"], "traffic:"),
    ("table1_performance.py", ["--quick"], "Speedup vs gdb-wrapper"),
    ("fig7_forwarding_sweep.py", ["--quick"], "minimum delay"),
    ("debugger_session.py", [], "fibonacci table read over RSP"),
    ("interrupt_latency.py", [], "Latency grows with the RTOS cost"),
    ("mpsoc_heterogeneous.py", [], "core1 running sum"),
    ("sw_timing_analysis.py", [], "guest cycle profile by function"),
    ("waveform_trace.py", ["{tmp}/router.vcd"], "wrote"),
]


@pytest.mark.parametrize(
    "script,args,expected",
    CASES,
    ids=["%s%s" % (script, "-" + args[0].strip("-{}/")
                   if args else "") for script, args, __ in CASES])
def test_example_runs(script, args, expected, tmp_path):
    resolved = [arg.format(tmp=tmp_path) for arg in args]
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)] + resolved,
        capture_output=True, text=True, timeout=300,
        cwd=str(tmp_path), env=_example_env())
    assert result.returncode == 0, result.stderr[-2000:]
    assert expected in result.stdout


def test_all_examples_are_covered():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    covered = {script for script, __, __ in CASES}
    assert scripts == covered, (
        "examples without a smoke test: %s" % (scripts - covered))
