"""The code lines of each module of ``src/localsmith``, and their total.

A code line is a line that is not blank, not a comment line and not part of
a module, class or function docstring (found with ``ast``). This is the
count that ROADMAP.md's "least code" aim reads; it gates nothing.

Usage (from any directory):

    python3 tools/code_lines.py

It prints one ``<count> src/localsmith/<module>.py`` line per module, in
path order, and a ``<count> total`` line, each count right-aligned in six
columns.
"""

import ast
from pathlib import Path


def code_lines(text: str) -> int:
    """The lines of ``text`` that are neither blank, comments nor docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(text.splitlines(), 1)
    return sum(1 for i, line in lines if line.strip()[:1] not in ("", "#") and i not in docs)


def main() -> None:
    root, total = Path(__file__).resolve().parent.parent, 0
    for path in sorted((root / "src" / "localsmith").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path.relative_to(root).as_posix()}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main()
