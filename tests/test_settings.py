"""The pytest settings of pyproject.toml, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MIXED_OUTCOMES = '''
from hypothesis import given, strategies as st


def test_plain_fails():
    assert 1 == 2


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import; the
    # warnings-as-errors setting must still let the run report every test.
    (tmp_path / "test_mixed.py").write_text(MIXED_OUTCOMES)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_mixed.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert run.returncode == 1
