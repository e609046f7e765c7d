"""The code lines and AST nodes of each module of ``src/localsmith``, and their
totals.

A code line is a line that is not blank, not a comment line and not part of
a module, class or function docstring (found with ``ast``). This is the
count that ROADMAP.md's "least code" aim reads. The node count is the number
of nodes ``ast.walk`` visits in the module's tree: compile time follows it,
and it shows an expression that was only made denser, which the line count
does not. Neither gates anything.

Usage (from any directory):

    python3 tools/code_lines.py

It prints one ``<count> src/localsmith/<module>.py <nodes> nodes`` line per
module, in path order, and a ``<count> total <nodes> nodes`` line. Each code
line count is right-aligned in six columns, the names are padded to one
width, and each node count is right-aligned in seven columns.
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


def ast_nodes(text: str) -> int:
    """The number of nodes in the syntax tree of ``text``."""
    return sum(1 for _ in ast.walk(ast.parse(text)))


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    rows = []
    for path in sorted((root / "src" / "localsmith").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((code_lines(text), path.relative_to(root).as_posix(), ast_nodes(text)))
    rows.append((sum(r[0] for r in rows), "total", sum(r[2] for r in rows)))
    width = max(len(name) for _, name, _ in rows)
    for count, name, nodes in rows:
        print(f"{count:6} {name:<{width}} {nodes:7} nodes")


if __name__ == "__main__":
    main()
