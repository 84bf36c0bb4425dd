import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 5
"""


def test_falsified_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under the suite's warning filters a falsified @given test fails as a
    # test: exit 1 and a FAILED line, with the falsifying example printed.
    # Hypothesis's report of it imports optional modules (libcst, where it is
    # installed) whose import-time DeprecationWarning, turned into an error,
    # used to crash the session instead (exit 3, INTERNALERROR).  The session
    # loads hypothesis's pytest plugin, which makes that report, and no other
    # installed plugin: their start-up is most of its time.
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "_hypothesis_pytestplugin",
         "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_falsified.py::test_falsified" in done.stdout
    assert "Falsifying example" in done.stdout
    if importlib.util.find_spec("libcst") is not None:
        # The plugin wrote the failing example as a patch, through libcst.
        assert "to add failing examples to your code" in done.stdout
