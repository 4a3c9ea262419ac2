"""The suite's configuration lets a failing or hanging test fail on its own.

Under ``filterwarnings = ["error"]`` the Hypothesis plugin raised a
DeprecationWarning while it reported a failing ``@given`` test; pytest then
stopped the session with an INTERNALERROR and ran no later test.  The first
probe runs pytest on a failing property test and a passing test, with the
repo's own filters, and expects both outcomes to be reported.  The second
runs the suite's root ``conftest.py``, its time limit cut to 1 s, on a test
that sleeps past it and a passing test; the third does the same with the
suite's ``testpaths``, the sleeping test outside ``tests/``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent.parent / "conftest.py"

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


HANGING = '''
import time


def test_sleeps():
    time.sleep(5)


def test_passes():
    assert True
'''


def _cut_down_conftest(root):
    conftest = CONFTEST.read_text()
    assert "\nLIMIT_S = 120\n" in conftest
    (root / "conftest.py").write_text(conftest.replace("\nLIMIT_S = 120\n", "\nLIMIT_S = 1\n"))


def test_a_test_past_the_time_limit_fails_by_name(tmp_path):
    _cut_down_conftest(tmp_path)
    (tmp_path / "test_probe.py").write_text(HANGING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert "1 failed, 1 passed" in run.stdout
    assert "test_probe.py::test_sleeps still running after the 1 s limit" in run.stdout
    assert run.returncode == 1


def test_a_test_outside_tests_is_stopped_at_the_limit_too(tmp_path):
    # the suite also collects perfbench/: the root conftest.py covers it
    testpaths = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["testpaths"]
    assert testpaths == ["tests", "perfbench"]
    _cut_down_conftest(tmp_path)
    (tmp_path / "pytest.ini").write_text(f"[pytest]\ntestpaths = {' '.join(testpaths)}\n")
    for path, body in (("tests/test_quick.py", "def test_quick():\n    assert True\n"),
                       ("perfbench/test_probe.py", HANGING)):
        (tmp_path / path).parent.mkdir()
        (tmp_path / path).write_text(body)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert "1 failed, 2 passed" in run.stdout
    assert "perfbench/test_probe.py::test_sleeps still running after the 1 s limit" in run.stdout
    assert run.returncode == 1
