"""scpnum benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload builtin-run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The measurement runs in a child
process, started fresh for every invocation so that one workload's
memory high-water mark cannot leak into another's, with the numpy/BLAS
thread pools pinned to one thread before numpy is imported. The child
prints readable lines and, as the last line of stdout, one JSON object;
see perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# every run must end within 180 s; the child gets a little less
CHILD_TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "scpnum" / "__init__.py").is_file():
        print(f"error: no scpnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_POOL_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the oracle's perturbation seed is an input; keep it at its default
    env.pop("SCPNUM_SEED", None)
    cmd = [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]]
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    raise SystemExit(main())
