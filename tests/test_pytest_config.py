"""The suite's warning filters let a failing property test fail on its own.

Under ``filterwarnings = ["error"]`` the Hypothesis plugin raised a
DeprecationWarning while it reported a failing ``@given`` test; pytest then
stopped the session with an INTERNALERROR and ran no later test.  This runs
pytest on a failing property test and a passing test, with the repo's own
filters, and expects both outcomes to be reported.
"""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_failing_property_test_leaves_the_session_running(tmp_path):
    config = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    filters = "".join(f"\n    {f}" for f in config["filterwarnings"])
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings ={filters}\n")
    (tmp_path / "test_probe.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
