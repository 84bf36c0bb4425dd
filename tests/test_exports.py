import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import weakamp


def _imported_public_names():
    """The public names that ``weakamp/__init__.py`` imports from its modules."""
    names = []
    for node in ast.parse(inspect.getsource(weakamp)).body:
        if isinstance(node, ast.ImportFrom):
            names += [a.asname or a.name for a in node.names if not a.name.startswith("_")]
    return names


def test_every_exported_name_resolves():
    for name in weakamp.__all__:
        assert hasattr(weakamp, name), name


def test_all_is_exactly_the_imported_names():
    imported = _imported_public_names()
    assert len(set(imported)) == len(imported)
    assert len(set(weakamp.__all__)) == len(weakamp.__all__)
    assert set(weakamp.__all__) == set(imported)


def test_star_import_runs_without_warnings():
    # A fresh interpreter: this process has imported weakamp already.
    path = [str(Path(weakamp.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "from weakamp import *; import weakamp; assert set(weakamp.__all__) <= set(globals())"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
