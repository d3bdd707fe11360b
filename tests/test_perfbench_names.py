"""The names and counters the benchmark in perfbench/ reads from the package.

The tier-1 smoke test runs one workload only, so a name that perfbench
looks up and the package no longer has would first show as a crashed
benchmark run. These checks catch it here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from scpnum import GridSpec, SolverConfig, load_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py, whose TARGETS are (span, module, function,
    namespaces) and whose COUNTERS read counts off a traced call's
    positional arguments and return value, keyed by span."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = load_tracer()
TARGETS = TRACER_MODULE.TARGETS
COUNTERS = TRACER_MODULE.COUNTERS


@pytest.mark.parametrize("home,func", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_every_traced_function_exists(home, func):
    assert callable(getattr(importlib.import_module(f"scpnum.{home}"), func, None))


@pytest.mark.parametrize("span", sorted(COUNTERS))
def test_every_counter_reads_a_real_call(span):
    net, utilities, config = load_scenario("chain-3")
    # positional, as perfbench's worker calls them
    args = {"engine.solve": (net, utilities, config),
            "agents.run_to_convergence": (net, utilities, config),
            "oracle.grid_search": (net, utilities, GridSpec())}[span]
    home, func = next(t[1:3] for t in TARGETS if t[0] == span)
    ret = getattr(importlib.import_module(f"scpnum.{home}"), func)(*args)
    counts = COUNTERS[span](args, ret)
    assert counts and all(type(n) is int and n > 0 for n in counts.values())


def test_the_feasibility_tolerance_reads_from_a_config():
    # the mesh-1k output check reads config.feas_tol
    assert SolverConfig().feas_tol == 0.5
