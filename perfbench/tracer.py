"""Spans around calls into scpnum's public functions, recorded from outside.

A traced function is wrapped by swapping its attribute in every loaded
``scpnum`` module that holds it: the defining module and each module that
imported it by name. Calls made inside the package therefore go through
the wrapper too, while the package itself is not edited. ``restore`` puts
the original objects back.

Each span records its name, start, end, parent span and op id. Spans are
kept in flat in-memory arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, defining module, function, namespaces to patch or None for all).
# rate_step is one function called from two schedulers, so each call site
# gets its own span name.
TARGETS = (
    ("scenario.load_scenario", "scenario", "load_scenario", None),
    ("scenario.parse_scenario", "scenario", "parse_scenario", None),
    ("network.build_network", "network", "build_network", None),
    ("network.is_feasible", "network", "is_feasible", None),
    ("utility.transformed_bounds", "utility", "transformed_bounds", None),
    ("utility.eval_scurve", "utility", "eval_scurve", None),
    ("engine.solve", "engine", "solve", None),
    ("engine.update_prices", "engine", "update_prices", None),
    ("engine.update_rates", "engine", "update_rates", None),
    ("engine.path_prices", "engine", "path_prices", None),
    ("engine.g_true", "engine", "g_true", None),
    ("engine.g_hat", "engine", "g_hat", None),
    ("engine.rate_step", "engine", "rate_step", ("engine",)),
    ("engine.kkt_residual", "engine", "kkt_residual", None),
    ("engine.steady_state_check", "engine", "steady_state_check", None),
    ("agents.build_agents", "agents", "build_agents", None),
    ("agents.run_round", "agents", "run_round", None),
    ("agents.rate_step", "engine", "rate_step", ("agents",)),
    ("agents.run_to_convergence", "agents", "run_to_convergence", None),
    ("agents.export_messages", "agents", "export_messages", None),
    ("agents.audit_locality", "agents", "audit_locality", None),
    ("oracle.grid_search", "oracle", "grid_search", None),
    ("oracle.local_opt_test", "oracle", "local_opt_test", None),
    ("oracle.total_utility", "oracle", "total_utility", None),
    ("cli.main", "cli", "main", None),
    ("cli.write_trace", "cli", "write_trace", None),
    ("cli.write_result", "cli", "write_result", None),
    ("cli.write_equivalence", "cli", "write_equivalence", None),
)

# counts read off return values, keyed by span name
COUNTERS = {
    "engine.solve": lambda args, ret: {
        "engine.iterations": ret.iterations,
        "engine.incidence_iters": ret.iterations * args[0].nnz,
    },
    "agents.run_to_convergence": lambda args, ret: {
        "agents.rounds": ret[0].iterations,
        "agents.messages": len(ret[1]),
    },
    "oracle.grid_search": lambda args, ret: {"oracle.evaluations": ret.evaluations},
}

SETUP_OP = -1
CHECK_OP = -2


class Tracer:
    """Span recorder; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op_of = array("q")
        self.counts: dict[tuple[str, int], int] = {}
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        k = (key, self.op)
        self.counts[k] = self.counts.get(k, 0) + n

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, n in counter(args, ret).items():
                    self.count(key, n)
            return ret

        return traced

    def install(self) -> None:
        """Swap every target for its traced wrapper in each scpnum namespace."""
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("scpnum.") and mod is not None}
        originals = {(home, func): getattr(modules[home], func)
                     for _, home, func, _ in TARGETS}
        for span_name, home, func, only in TARGETS:
            original = originals[home, func]
            wrapper = self.wrap(span_name, original)
            for short, mod in modules.items():
                if only is not None and short not in only:
                    continue
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def restore(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns plus per-span self time.

        Spans nest on one thread, so a span's children never overlap and
        the time they cover is the sum of their durations.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {
            "start": start, "end": end, "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op_of, dtype=np.int64),
            "dur": dur, "self": dur - covered,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **{
            k: cols[k] for k in ("start", "end", "parent", "name", "op")})


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one span, in seconds: a traced call with arguments
    that makes one traced call of its own, against the same pair untraced."""
    tracer = Tracer()

    def inner(a):
        return a

    def outer(a, b):
        return fn_inner(a), b

    fn_inner = inner
    t0 = time.perf_counter()
    for i in range(n):
        outer(i, 1.0)
    bare = time.perf_counter() - t0
    fn_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    t0 = time.perf_counter()
    for i in range(n):
        traced_outer(i, 1.0)
    return max(0.0, (time.perf_counter() - t0 - bare) / (2 * n))
