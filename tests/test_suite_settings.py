"""The suite's own settings in pyproject.toml, run on throwaway test files."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(n):
    assert n < 10


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path, child_env):
    # hypothesis imports libcst to report a failing example, and libcst
    # raises a DeprecationWarning that the suite's settings once turned into
    # an INTERNALERROR ending the whole run at the first failing property
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_fails" in out
    assert "1 failed, 1 passed" in out
