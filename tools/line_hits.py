"""List the statements of a directory's modules that a run never executes.

Usage: ``python tools/line_hits.py <dir> -m <module> [args...]``, for
example ``python tools/line_hits.py src/scpnum -m pytest -q tests``.

The module after ``-m`` runs in this process, as ``python -m`` would run
it, under ``sys.settrace`` and ``threading.settrace``; only code in files
under ``<dir>`` is traced line by line. A ``SystemExit`` from the module
is caught. Then each statement of ``<dir>``'s modules whose first line
never ran is printed as ``<module>:<line>: <source>``, sorted, followed
by ``total <count>``. Docstrings and ``global`` and ``nonlocal``
statements are left out: they compile to no bytecode, so no line event
can mark them as run.

The tracer keeps only file names and line numbers. The tier-1 suite
passes under it (``python tools/line_hits.py src/scpnum -m pytest -q
tests``), the three ``test_grid_search_leaves_no_reference_cycles``
cases, which count what the garbage collector finds, included; a run
whose module fails is listed all the same.
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
import threading
from pathlib import Path

from code_lines import docstring_lines


def statements(source: str) -> dict[int, str]:
    """{first line: its source text} of each statement of a module that
    compiles to bytecode."""
    tree, lines = ast.parse(source), source.splitlines()
    skip = docstring_lines(tree)
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node.lineno not in skip
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def run_traced(root: str, module: str, args: list[str]) -> dict[str, set[int]]:
    """Run ``module`` with ``args`` as its argv; the lines it ran, per
    file under ``root``."""
    hits: dict[str, set[int]] = {}
    under: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in under:
            under[name] = os.path.realpath(name).startswith(root + os.sep)
        return on_line if under[name] else None

    sys.argv = [module, *args]
    sys.path[0] = os.getcwd()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {os.path.realpath(name): lines for name, lines in hits.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "-m":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.realpath(argv[0])
    hits = run_traced(root, argv[2], argv[3:])
    missed = []
    for path in sorted(Path(root).glob("*.py")):
        ran = hits.get(str(path), set())
        missed += [f"{path.stem}:{n}: {text}"
                   for n, text in sorted(statements(path.read_text(encoding="utf-8")).items())
                   if n not in ran]
    print("\n".join([*missed, f"total {len(missed)}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
