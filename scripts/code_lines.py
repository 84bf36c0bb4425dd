"""Count the code lines of Python source files, as ``wc -l`` counts lines.

A code line holds a token other than a comment and is not part of a
docstring, so blank lines, comments and docstrings do not count.  Prints
each file's count and the total:

    python scripts/code_lines.py src/weakamp/*.py
"""

from __future__ import annotations

import ast
import sys
import tokenize

#: Tokens that are no code: comments, line ends and indentation.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of code lines in the Python file at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
        fh.seek(0)
        lines = {row for token in tokenize.tokenize(fh.readline) if token.type not in _LAYOUT
                 for row in range(token.start[0], token.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source, path)))


def main(paths: list[str]) -> None:
    counts = [(code_lines(path), path) for path in paths]
    total = sum(count for count, _ in counts)
    width = len(str(total))
    for count, path in counts:
        print(f"{count:>{width}} {path}")
    print(f"{total:>{width}} total")


if __name__ == "__main__":
    main(sys.argv[1:])
