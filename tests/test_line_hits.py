"""``tools/line_hits.py``: the statements of a directory's modules that a
run never executes."""

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_hits.py"

# the run calls used(True) in the main thread and used(False) in another,
# never unused(); the docstrings and the global statement compile to no
# bytecode and are not listed
MODULE = textwrap.dedent('''\
    """Module docstring."""

    COUNT = 0


    def used(flag):
        """Function docstring."""
        global COUNT
        COUNT += 1
        if flag:
            return "main"
        return "thread"


    def unused():
        return None
    ''')

RUNNER = textwrap.dedent('''\
    import threading

    from pkg import mod

    mod.used(True)
    worker = threading.Thread(target=mod.used, args=(False,))
    worker.start()
    worker.join()
    raise SystemExit(3)
    ''')


def test_lists_the_statements_a_run_never_executes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "run_pkg.py").write_text(RUNNER, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), "pkg", "-m", "run_pkg"], cwd=tmp_path,
                         check=True, capture_output=True, text=True).stdout
    assert out == "mod:16: return None\ntotal 1\n"
