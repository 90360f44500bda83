"""The repository's pytest settings: a failing test is reported as itself."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 3))
def test_never_negative(x):
    assert x < 0, "x is never negative"
'''


def test_a_failing_given_test_shows_its_name_and_assertion(tmp_path):
    # On a failure hypothesis's pytest plugin may import libcst, which warns;
    # under filterwarnings = error that warning must not hide the failure
    # behind an INTERNALERROR.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = run.stdout + run.stderr
    assert run.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "FAILED test_fails.py::test_never_negative - AssertionError: x is never negative" in report
