"""The repo's pytest settings report every failure of a red run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # A failing @given test makes hypothesis' pytest plugin emit a
    # DeprecationWarning in pytest's report hook; with every warning an error
    # and no ignore entry for it, pytest stopped with INTERNALERROR (exit 3)
    # and never ran the next test.
    test_file = tmp_path / "test_red.py"
    test_file.write_text(FAILING_PROPERTY_THEN_PASSING)
    ini = ROOT / "pyproject.toml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ini), str(test_file)]
    run = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
