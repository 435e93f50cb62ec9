"""Total and code lines of Python files, the counts ROADMAP's size rule reads.

    python3 tools/code_lines.py FILE...

For each file it prints the total lines, the code lines and the path, then
the two sums over every file.  Code lines leave out blank lines,
comment-only lines and the docstrings of the module and of every class and
function, found with `ast`.  It uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one file's source."""
    lines = text.splitlines()
    skipped = {number for number, line in enumerate(lines, start=1)
               if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            skipped.update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines), len(lines) - len(skipped)


def main(paths) -> int:
    total = code = 0
    for path in paths:
        file_total, file_code = counts(Path(path).read_text(encoding="utf-8"))
        total, code = total + file_total, code + file_code
        print(f"{file_total:6} {file_code:6}  {path}")
    print(f"{total:6} {code:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
