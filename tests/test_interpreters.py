"""The package under the other Python interpreters this machine can start.

`pyproject.toml` asks for Python 3.10 or later.  For each other interpreter found, version
3.10 or later, a child process compiles every module under `src`, `bench` and `tests`, and
runs `python -m bigmcg repro all --json --seed 1`, whose names, verdicts and details must
equal the running interpreter's.  Interpreters are found without a file-system search:
`python3.N` on `PATH` for N in 10..13, and `$PYENV_ROOT/versions/*/bin/python`.  With none
found the test skips, as a CI matrix job may: the matrix runs each version in its own job.
"""

import ast
import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bigmcg import acceptance

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# Compile without running or writing bytecode: the syntax and compile-time checks of the
# interpreter, on every module its CI job would import.
COMPILE_ALL = """
import pathlib, sys
for top in sys.argv[1:]:
    for path in sorted(pathlib.Path(top).rglob("*.py")):
        compile(path.read_bytes(), str(path), "exec")
"""


def version_of(exe):
    """The (major, minor) an interpreter answers with, or None when it does not start,
    as a pyenv shim for a version that is not selected."""
    try:
        proc = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return ast.literal_eval(proc.stdout.strip())


def other_interpreters():
    """One interpreter per version from 3.10 on, the running one's version left out."""
    candidates = [shutil.which(f"python3.{n}") for n in range(10, 14)]
    if pyenv_root := os.environ.get("PYENV_ROOT"):
        candidates += sorted(glob.glob(os.path.join(pyenv_root, "versions", "*", "bin", "python")))
    running = sys.version_info[:2]
    found = {}
    for exe in filter(None, candidates):
        version = version_of(exe)
        if version is not None and version >= (3, 10) and version != running:
            found.setdefault(version, exe)
    return found


def test_other_interpreters_give_the_same_answers():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10+ interpreter found; a CI matrix runs each version")
    want = [
        (spec.name, res.passed, res.detail)
        for spec in acceptance.CHECKS
        for res in [acceptance.run_check(spec.name, SEED)]
    ]
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    for version, exe in sorted(interpreters.items()):
        compiled = subprocess.run(
            [exe, "-c", COMPILE_ALL, "src", "bench", "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert compiled.returncode == 0, (version, compiled.stderr)
        proc = subprocess.run(
            [exe, "-m", "bigmcg", "repro", "all", "--json", "--seed", str(SEED)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (version, proc.stderr)
        got = [(c["name"], c["passed"], c["detail"]) for c in json.loads(proc.stdout)]
        assert got == want, version
