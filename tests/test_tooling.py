"""The test configuration itself: a failing test must be reported as one
failure among the others' results, not end the session."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

INNER_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 1


def test_first():
    pass


def test_second():
    pass
'''


def test_a_failing_property_leaves_the_other_tests_reported(tmp_path):
    # an inner session under this repository's pytest configuration (its
    # warning filters among it), whose one property test fails
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_inner.py").write_text(INNER_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 2 passed" in proc.stdout.splitlines()[-1]
