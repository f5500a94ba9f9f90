"""The suite's own settings in pyproject.toml, run on throwaway test files,
and the mutation ledger's references into the code and the suite."""

import subprocess
import sys
from pathlib import Path

import mutants

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


def test_every_mutant_names_a_snippet_found_once_and_tests_that_exist(child_env):
    # a ledger whose snippets or test names went stale would report nothing
    for mutant in mutants.MUTANTS:
        count = (mutants.ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
        assert count == 1, f"{mutant.name}: the snippet occurs {count} times in {mutant.path}"
    ids = sorted({test for mutant in mutants.MUTANTS for test in mutant.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        capture_output=True, text=True, cwd=mutants.ROOT, env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(ids)} tests collected" in proc.stdout, proc.stdout
