import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

#: Nine code lines: the import, the def, the three lines of its code string,
#: its return, the class, its attribute and the call that follows a comment.
SAMPLE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


def f(x):
    """Function docstring."""

    # A comment on its own line.
    text = """a code string
over
three lines"""
    return x


class C:
    """Class docstring
    over two lines."""

    z = 1

# A comment before a statement.
f(math.pi)
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_counts_code_lines_only(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    script = _script()
    assert script.code_lines(str(path)) == 9
    empty = tmp_path / "empty.py"
    empty.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert script.code_lines(str(empty)) == 0
    script.main([str(path), str(empty)])
    assert capsys.readouterr().out == f"9 {path}\n0 {empty}\n9 total\n"
