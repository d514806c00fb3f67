"""Smoke tests for scripts/: each one runs as a subprocess at a small size."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import realrank2

SRC = Path(realrank2.__file__).resolve().parents[1]
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("verdict_census.py", ["--samples", "20"]),
    ("tangential_quadrics_report.py", ["--nmax", "3", "--dmax", "5", "--spot-checks", "2"]),
    ("scan_crossing_path.py", ["--nsamples", "5"]),
    # the census exits 1 when the Hankel route and the tensor route disagree
    ("verdict_census.py", ["--samples", "20", "--degree", "3"]),
    ("verdict_census.py", ["--samples", "20", "--degree", "5"]),
    ("verdict_census.py", ["--samples", "20", "--degree", "6"]),
])
def test_script_runs_at_small_size(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_stdout_digest_usage_on_wrong_argument_count():
    done = run_script("stdout_digest.py", "only-one-argument")
    assert done.returncode == 2
    assert "python3 scripts/stdout_digest.py <checkout> <seed>" in done.stderr
    assert done.stdout == ""


def test_stdout_digest_prints_one_digest_per_request_of_every_workload():
    done = run_script("stdout_digest.py", str(SCRIPTS.parent), "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64} -?\d+ [a-z-]+/.+", line) for line in lines)
    assert {line.split(" ", 2)[2].split("/")[0] for line in lines} == {"tensor-float", "exact-forms", "curve-scan"}
