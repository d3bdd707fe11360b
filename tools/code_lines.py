"""Count a directory's code lines: non-blank lines of its Python modules
that are neither comments nor docstrings. A docstring is a string
literal that opens a module, class or function body (found with
``ast``); each of its lines is left out. A comment line is one whose
first non-blank character is ``#``.

Usage: ``python tools/code_lines.py src/scpnum`` prints one
``<module> <count>`` line per module, sorted by name, then
``total <count>``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of a module spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = {p.stem: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(Path(argv[0]).glob("*.py"))}
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
