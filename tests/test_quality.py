"""The engine's quality counts on two fixed sets of runs, pinned.

Each set is solved in full, and the test counts how many runs end
``collapsed``, ``converged`` or ``max_iter`` and how many iterations they
take in all:

- the two-source family: one link shared by two sources (r = 256,
  c1 = 6, c2 = 2), its capacity at 27 points from 40 to 300 Kbps, mu0 at
  7 points from 1e-3 to 1e-1, gamma 1e-4 and epsilon 1e-6, from the
  window midpoints;
- ``SolverConfig()`` on the first 40 ``gen_instance`` draws and on the
  built-in scenarios.

The number of runs is pinned exactly. The ``collapsed`` and ``max_iter``
counts and the iteration total are upper bounds: a pin is never raised,
and a change that lowers a count lowers its pin.
"""

from collections import Counter

import numpy as np
import pytest

from helpers import INSTANCE_SEED, gen_instance
from scpnum import (BUILT_IN_SCENARIOS, SCurveUtility, SolverConfig, build_network,
                    load_scenario, solve)


def two_source_family():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    for capacity in np.linspace(40.0, 300.0, 27):
        net = build_network([(1, float(capacity))], [(1, (1,)), (2, (1,))])
        for mu0 in np.logspace(-3.0, -1.0, 7):
            yield net, (u, u), SolverConfig(gamma=1e-4, epsilon=1e-6, mu0=float(mu0))


def default_config_set():
    rng = np.random.default_rng(INSTANCE_SEED)
    instances = [gen_instance(rng) for _ in range(40)]
    instances += [load_scenario(name)[:2] for name in BUILT_IN_SCENARIOS]
    for net, utilities in instances:
        yield net, utilities, SolverConfig()


# set: (runs, most collapsed, most max_iter, most iterations in all)
PINS = {
    "two_source_family": (two_source_family, 189, 158, 0, 1770),
    "default_config": (default_config_set, 43, 43, 0, 86),
}


@pytest.mark.parametrize("name", PINS)
def test_quality_counts_stay_within_their_pins(name):
    runs, n_runs, collapsed, max_iter, iterations = PINS[name]
    stops, total = Counter(), 0
    for net, utilities, config in runs():
        res = solve(net, utilities, config)
        stops[res.stop_reason] += 1
        total += res.iterations
    assert sum(stops.values()) == n_runs
    assert stops["collapsed"] <= collapsed
    assert stops["max_iter"] <= max_iter
    assert total <= iterations
