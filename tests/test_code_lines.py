"""``tools/code_lines.py``: the count of non-blank lines that are neither
comments nor docstrings, per module and in total."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 8 code lines: the import, the class, x, the def, its return, the async
# def and its two lines; a string that opens no body is code
MODULE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment keeps its line


class Point:
    """Class docstring."""

    x = 1.0

    def norm(self):
        """Function
        docstring."""
        # an indented comment
        return math.hypot(self.x, 0.0)


async def later():
    """Async docstring."""
    text = """not a docstring"""
    return text
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("\n# only a comment\nx = 1\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert out == "a 8\nb 1\ntotal 9\n"
