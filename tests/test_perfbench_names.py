"""The names the benchmark in perfbench/ reads from the package.

The tier-1 smoke test runs one workload only, so a name that perfbench
looks up and the package no longer has would first show as a crashed
benchmark run. These checks catch it here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from scpnum import SolverConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    """perfbench/tracer.py's TARGETS: (span, module, function, namespaces)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("home,func", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_every_traced_function_exists(home, func):
    assert callable(getattr(importlib.import_module(f"scpnum.{home}"), func, None))


def test_the_feasibility_tolerance_reads_from_a_config():
    # the mesh-1k output check reads config.feas_tol
    assert SolverConfig().feas_tol == 0.5
