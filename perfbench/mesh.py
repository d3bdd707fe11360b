"""Seeded random meshes for the mesh-1k workload, as scenario documents.

Each seed gives MESHES_PER_SEED independent meshes. Iteration counts
differ from mesh to mesh, so one op set solves all of them and no single
instance sets the number. Each mesh has S sources over L links, each
source routed over 1 to 3 distinct links taken from the least-loaded
ones, ties broken at random, so every link carries about 2S/L sources.

The parameters are fixed from the method's domain, not tuned per seed:

- every source has the same S-curve shape (c1=6, c2=4, one of the
  paper's five curves) at an encoding rate drawn from [128, 384] Kbps;
- each link's capacity is KNEE_HEADROOM times the summed knee
  (inflection) rates of its sources. That leaves room above every knee,
  where the dual iteration is stable, while keeping the capacity below
  the summed encoding rates, so every link binds and is priced;
- each source starts above its knee and below its capacity share, the
  initialization recipe of the acceptance tests.

The generator computes knees from the closed form itself, so the
program under test receives only the finished document.
"""

from __future__ import annotations

import numpy as np

N_SOURCES = 1000
N_LINKS = 100
MAX_ROUTE = 3
C1 = 6.0
C2 = 4.0
RATE_RANGE_KBPS = (128.0, 384.0)
KNEE_HEADROOM = 1.6
MESHES_PER_SEED = 3
SOLVER = {"gamma": 3e-7, "epsilon": 1e-3, "mu0": 1e-5, "max_iter": 600}


def knee(r: float, c1: float = C1, c2: float = C2) -> float:
    """Inflection rate of U(x) = (1 - exp(-c1 (x/r)^c2)) / (1 - exp(-c1))."""
    return r * ((c2 - 1.0) / (c1 * c2)) ** (1.0 / c2)


def generate(seed: int, k: int) -> dict:
    """Scenario document (links, sources, solver) of mesh k of a seed."""
    # a negative seed maps to its 64-bit two's complement: numpy takes no negatives
    rng = np.random.default_rng([seed % 2**64, k])
    n_sources, n_links = N_SOURCES, N_LINKS
    load = np.zeros(n_links, dtype=np.int64)
    routes = []
    for _ in range(n_sources):
        k = int(rng.integers(1, MAX_ROUTE + 1))
        chosen = np.lexsort((rng.random(n_links), load))[:k]
        load[chosen] += 1
        routes.append(sorted(int(i) + 1 for i in chosen))
    rates = rng.uniform(*RATE_RANGE_KBPS, size=n_sources)

    on_link = [[] for _ in range(n_links)]
    for j, route in enumerate(routes):
        for lid in route:
            on_link[lid - 1].append(j)
    capacities = [KNEE_HEADROOM * sum(knee(rates[j]) for j in members)
                  for members in on_link]

    x0 = []
    for j, route in enumerate(routes):
        share = min(capacities[lid - 1] / len(on_link[lid - 1]) for lid in route)
        v = max(1.05 * knee(rates[j]), 0.45 * share)
        # 1 Kbps above the default minimum rate m = 1 Kbps
        x0.append(float(np.clip(v, 2.0, 0.95 * rates[j])))

    return {
        "links": [{"id": i + 1, "capacity_kbps": float(c)} for i, c in enumerate(capacities)],
        "sources": [
            {"id": j + 1, "r_kbps": float(rates[j]), "c1": C1, "c2": C2, "route": routes[j]}
            for j in range(n_sources)
        ],
        "solver": dict(SOLVER, x0=x0),
    }
