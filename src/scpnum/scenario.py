"""Scenario documents: JSON ingestion, validation, and built-in models.

A scenario is a JSON object with ``links``, ``sources``, and an
optional ``solver`` block:

    {
      "links":   [{"id": 1, "capacity_kbps": 1000.0}],
      "sources": [{"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0,
                   "m_kbps": 1.0, "big_m_kbps": 256.0, "route": [1]}],
      "solver":  {"gamma": 1e-4, "epsilon": 0.1, "max_iter": 10000,
                  "mu0": 0.01, "x0": [200.0]}
    }

The optional fields and their defaults: ``m_kbps`` 1 and ``big_m_kbps``
the source's ``r_kbps``; in ``solver``, ``SolverConfig``'s: ``gamma``
1e-4, ``epsilon`` 0.1, ``max_iter`` 10000, ``mu0`` 1.0, and ``x0`` the
midpoints of the rate windows. Every other field is required. ``mu0``
is a scalar or a per-link list (ascending link id); ``x0`` is a
per-source list (ascending source id), each rate inside its source's
window. Whether the start fits the network is the one check
``engine.start_misfit``, which ``solve`` also makes; the parser reports
its misfit at ``solver.x0``, ``solver.x0[i]`` or ``solver.mu0``. Rates
and capacities are Kbps. The solver's feasibility tolerance is fixed at
0.5 Kbps; no field sets it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import SolverConfig, start_misfit
from .network import Network, build_network
from .utility import SCurveUtility

__all__ = [
    "ParseError",
    "ScenarioValidationError",
    "BUILT_IN_SCENARIOS",
    "built_in_scenario",
    "parse_scenario",
    "load_scenario",
    "scenario_to_json",
]


class ParseError(ValueError):
    """Malformed scenario text; carries the source line and column."""

    def __init__(self, origin: str, line: int, column: int, reason: str):
        self.origin = origin
        self.line = line
        self.column = column
        super().__init__(f"{origin}:{line}:{column}: {reason}")


class ScenarioValidationError(ValueError):
    """Well-formed JSON that does not describe a valid model; carries
    the offending field path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        super().__init__(f"{path}: {reason}")


def _paper_scenario_1() -> dict:
    return {
        "links": [{"id": 1, "capacity_kbps": 1000.0}],
        "sources": [
            {"id": s, "r_kbps": 256.0, "c1": 6.0, "c2": float(c2), "route": [1]}
            for s, c2 in zip(range(1, 6), (2, 4, 6, 8, 10))
        ],
        "solver": {
            "gamma": 1e-4,
            "epsilon": 0.1,
            "mu0": 0.01,
            "x0": [200.0] * 5,
        },
    }


def _chain_3() -> dict:
    # one long flow across all three links plus one short flow per link;
    # links 1 and 3 end up saturated, the middle source rides at its cap
    return {
        "links": [
            {"id": 1, "capacity_kbps": 420.0},
            {"id": 2, "capacity_kbps": 450.0},
            {"id": 3, "capacity_kbps": 400.0},
        ],
        "sources": [
            {"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 4.0, "route": [1, 2, 3]},
            {"id": 2, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0, "route": [1]},
            {"id": 3, "r_kbps": 256.0, "c1": 6.0, "c2": 6.0, "route": [2]},
            {"id": 4, "r_kbps": 256.0, "c1": 6.0, "c2": 8.0, "route": [3]},
        ],
        "solver": {
            "gamma": 1e-5,
            "epsilon": 1e-6,
            "mu0": 0.002,
            "x0": [168.0, 168.0, 180.0, 160.0],
        },
    }


def _single_source() -> dict:
    return {
        "links": [{"id": 1, "capacity_kbps": 100.0}],
        "sources": [{"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0, "route": [1]}],
        "solver": {
            "gamma": 1e-4,
            "epsilon": 1e-6,
            "mu0": 0.008,
            "x0": [90.0],
        },
    }


BUILT_IN_SCENARIOS = {
    "paper-scenario-1": _paper_scenario_1,
    "chain-3": _chain_3,
    "single-source": _single_source,
}


def built_in_scenario(name: str) -> dict:
    """The raw document of a built-in scenario."""
    try:
        return BUILT_IN_SCENARIOS[name]()
    except KeyError:
        known = ", ".join(sorted(BUILT_IN_SCENARIOS))
        raise ScenarioValidationError("name", f"unknown built-in {name!r} (have: {known})")


def _number(val, *where) -> float:
    """The one conversion of a numeric field to float. Like each reader, it
    joins ``where`` into the field's path only when it rejects the value."""
    if type(val) is float:
        return val
    if type(val) is not int:  # JSON gives int, float, str, bool, None, list or dict
        raise ScenarioValidationError(".".join(where), f"expected number, got {type(val).__name__}")
    try:
        return float(val)
    except OverflowError:
        raise ScenarioValidationError(".".join(where), "integer too large for a float") from None


def _integer(val, *where) -> int:
    if type(val) is not int:
        raise ScenarioValidationError(".".join(where),
                                      f"expected integer, got {type(val).__name__}")
    return val


def _route(val, *where) -> tuple:
    if type(val) is not list or not val or not all(type(lid) is int for lid in val):
        raise ScenarioValidationError(".".join(where), "expected nonempty list of link ids")
    return tuple(val)


def _numbers(val, *where) -> tuple:
    path = ".".join(where)
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(val))


def _prices(val, *where):
    return _numbers(val, *where) if isinstance(val, list) else _number(val, *where)


def _rates(val, *where) -> tuple:
    # anything but a list holds no rates, which start_misfit rejects by count
    return _numbers(val, *where) if isinstance(val, list) else ()


REQUIRED = object()  # the default of a field that must be present

# The fields of a link, a source and the solver block: JSON key ->
# (attribute, reader, default). The parser reads by these tables,
# scenario_to_json writes by them.
LINK_FIELDS = {
    "id": ("id", _integer, REQUIRED),
    "capacity_kbps": ("capacity", _number, REQUIRED),
}
SOURCE_FIELDS = {
    "id": ("id", _integer, REQUIRED),
    "r_kbps": ("r", _number, REQUIRED),
    "c1": ("c1", _number, REQUIRED),
    "c2": ("c2", _number, REQUIRED),
    "m_kbps": ("m", _number, SCurveUtility.m),
    "big_m_kbps": ("big_m", _number, SCurveUtility.big_m),
    "route": ("route", _route, REQUIRED),
}
SOLVER_FIELDS = {
    "gamma": ("gamma", _number, SolverConfig.gamma),
    "epsilon": ("epsilon", _number, SolverConfig.epsilon),
    "max_iter": ("max_iter", _integer, SolverConfig.max_iter),
    "mu0": ("mu0", _prices, SolverConfig.mu0),
    "x0": ("x0", _rates, SolverConfig.x0),
}


def _read(entry, path: str, table: dict) -> dict:
    """One document object as {attribute: value}, by its field table."""
    if not isinstance(entry, dict):
        raise ScenarioValidationError(path, f"expected object, got {type(entry).__name__}")
    record = {}
    for key, (attr, reader, default) in table.items():
        if key in entry:
            record[attr] = reader(entry[key], path, key)
        elif default is REQUIRED:
            raise ScenarioValidationError(f"{path}.{key}", "missing required field")
        else:
            record[attr] = default
    for key in entry:
        if key not in table:
            raise ScenarioValidationError(f"{path}.{key}", "unknown field")
    return record


def _at(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError it raises reported at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioValidationError(path, str(exc))


def _model_from_doc(doc: dict):
    """Validate a parsed document and build (Network, utilities, config)."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError("$", f"expected object, got {type(doc).__name__}")
    for key in doc:
        if key not in ("links", "sources", "solver"):
            raise ScenarioValidationError(key, "unknown top-level field")
    for key in ("links", "sources"):
        if not isinstance(doc.get(key), list):
            raise ScenarioValidationError(
                f"$.{key}", "expected list" if key in doc else "missing required field")

    links = [(rec["id"], rec["capacity"]) for rec in
             (_read(entry, f"links[{i}]", LINK_FIELDS) for i, entry in enumerate(doc["links"]))]
    routes, utilities = [], {}
    for i, entry in enumerate(doc["sources"]):
        path = f"sources[{i}]"
        rec = _read(entry, path, SOURCE_FIELDS)
        sid, route = rec.pop("id"), rec.pop("route")
        try:  # not _at: once per source, and _at would repack the keywords
            utilities[sid] = SCurveUtility(**rec)
        except ValueError as exc:
            raise ScenarioValidationError(path, str(exc))
        routes.append((sid, route))

    net = _at("$", build_network, links, routes)
    utils = tuple(utilities[sid] for sid in net.source_ids)

    solver = _read(doc.get("solver", {}), "solver", SOLVER_FIELDS)
    # before SolverConfig, which would reject a NaN rate without its index
    misfit = start_misfit(solver["x0"], solver["mu0"], [u.m for u in utils],
                          [u.big_m for u in utils], net.n_links)
    if misfit:
        raise ScenarioValidationError(f"solver.{misfit[0]}", misfit[1])
    return net, utils, _at("solver", SolverConfig, **solver)


def parse_scenario(text: str, origin: str = "<string>"):
    """Parse and validate scenario JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(origin, exc.lineno, exc.colno, exc.msg)
    return _model_from_doc(doc)


def load_scenario(src):
    """Load a scenario from a built-in name or a path to a UTF-8 JSON
    file. A file that cannot be read, or is not UTF-8 text, raises
    ScenarioValidationError at ``$``."""
    name = str(src)
    if name in BUILT_IN_SCENARIOS:
        return _model_from_doc(built_in_scenario(name))
    path = Path(src)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioValidationError("$", f"cannot read scenario {name!r}: {exc}")
    return parse_scenario(text, origin=str(path))


def scenario_to_json(net: Network, utilities, config: SolverConfig) -> str:
    """Serialize a model back to scenario JSON, writing every field that
    is set. Reloading the output reproduces the same Network, utilities,
    and SolverConfig."""
    sections = {
        "links": (LINK_FIELDS, [{"id": lid, "capacity": cap}
                                for lid, cap in zip(net.link_ids, net.capacities)]),
        "sources": (SOURCE_FIELDS, [dict(vars(u), id=sid, route=route) for sid, route, u
                                    in zip(net.source_ids, net.routes, utilities)]),
    }
    doc = {section: [{key: rec[attr] for key, (attr, _, _) in table.items()} for rec in records]
           for section, (table, records) in sections.items()}
    doc["solver"] = {key: value for key, (attr, _, _) in SOLVER_FIELDS.items()
                     if (value := getattr(config, attr)) is not None}
    return json.dumps(doc, indent=2)
