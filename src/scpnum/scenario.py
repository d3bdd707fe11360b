"""Scenario documents: JSON ingestion, validation, and built-in models.

A scenario is a JSON object with ``links``, ``sources``, and an
optional ``solver`` block:

    {
      "links":   [{"id": 1, "capacity_kbps": 1000.0}],
      "sources": [{"id": 1, "r_kbps": 256.0, "c1": 6.0, "c2": 2.0,
                   "m_kbps": 1.0, "big_m_kbps": 256.0, "route": [1]}],
      "solver":  {"gamma": 1e-4, "epsilon": 0.1, "max_iter": 10000,
                  "mu0": 0.01, "x0": [200.0], "price_lag": "fresh"}
    }

``m_kbps``, ``big_m_kbps``, and every solver field are optional.
``mu0`` is a scalar or a per-link list (ascending link id); ``x0`` is
per-source (ascending source id). Rates and capacities are Kbps.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import SolverConfig
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


def _require(doc: dict, key: str, types, path: str):
    if key not in doc:
        raise ScenarioValidationError(f"{path}.{key}", "missing required field")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ScenarioValidationError(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
    return val


def _number(val, path: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ScenarioValidationError(path, f"expected number, got {type(val).__name__}")
    return float(val)


def _optional_number(doc: dict, key: str, path: str, default=None):
    if key not in doc:
        return default
    return _number(doc[key], f"{path}.{key}")


def _model_from_doc(doc: dict):
    """Validate a parsed document and build (Network, utilities, config)."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError("$", f"expected object, got {type(doc).__name__}")
    for key in doc:
        if key not in ("links", "sources", "solver"):
            raise ScenarioValidationError(key, "unknown top-level field")

    links_doc = _require(doc, "links", list, "$")
    links = []
    for i, entry in enumerate(links_doc):
        path = f"links[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError(path, "expected object")
        lid = _require(entry, "id", int, path)
        cap = float(_require(entry, "capacity_kbps", (int, float), path))
        for key in entry:
            if key not in ("id", "capacity_kbps"):
                raise ScenarioValidationError(f"{path}.{key}", "unknown field")
        links.append((lid, cap))

    sources_doc = _require(doc, "sources", list, "$")
    routes = []
    utilities = {}
    for i, entry in enumerate(sources_doc):
        path = f"sources[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError(path, "expected object")
        sid = _require(entry, "id", int, path)
        r = float(_require(entry, "r_kbps", (int, float), path))
        c1 = float(_require(entry, "c1", (int, float), path))
        c2 = float(_require(entry, "c2", (int, float), path))
        m = _optional_number(entry, "m_kbps", path, 1.0)
        big_m = _optional_number(entry, "big_m_kbps", path, None)
        route = _require(entry, "route", list, path)
        if not route or not all(isinstance(l, int) and not isinstance(l, bool) for l in route):
            raise ScenarioValidationError(f"{path}.route", "expected nonempty list of link ids")
        for key in entry:
            if key not in ("id", "r_kbps", "c1", "c2", "m_kbps", "big_m_kbps", "route"):
                raise ScenarioValidationError(f"{path}.{key}", "unknown field")
        try:
            utilities[sid] = SCurveUtility(r=r, c1=c1, c2=c2, m=m, big_m=big_m)
        except ValueError as exc:
            raise ScenarioValidationError(path, str(exc))
        routes.append((sid, tuple(route)))

    try:
        net = build_network(links, routes)
    except ValueError as exc:
        raise ScenarioValidationError("$", str(exc))
    utils = tuple(utilities[sid] for sid in net.source_ids)

    solver_doc = doc.get("solver", {})
    if not isinstance(solver_doc, dict):
        raise ScenarioValidationError("solver", f"expected object, got {type(solver_doc).__name__}")
    kwargs = {}
    spath = "solver"
    for key in solver_doc:
        if key not in ("gamma", "epsilon", "max_iter", "mu0", "x0", "price_lag"):
            raise ScenarioValidationError(f"{spath}.{key}", "unknown field")
    for key in ("gamma", "epsilon"):
        val = _optional_number(solver_doc, key, spath)
        if val is not None:
            kwargs[key] = val
    if "max_iter" in solver_doc:
        val = solver_doc["max_iter"]
        if not isinstance(val, int) or isinstance(val, bool):
            raise ScenarioValidationError(f"{spath}.max_iter", "expected integer")
        kwargs["max_iter"] = val
    if "mu0" in solver_doc:
        val = solver_doc["mu0"]
        if isinstance(val, list):
            if len(val) != net.n_links:
                raise ScenarioValidationError(
                    f"{spath}.mu0", f"expected {net.n_links} entries, got {len(val)}")
            kwargs["mu0"] = tuple(_number(v, f"{spath}.mu0[{i}]") for i, v in enumerate(val))
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            kwargs["mu0"] = float(val)
        else:
            raise ScenarioValidationError(f"{spath}.mu0", "expected number or list")
    if "x0" in solver_doc:
        val = solver_doc["x0"]
        if not isinstance(val, list) or len(val) != net.n_sources:
            raise ScenarioValidationError(
                f"{spath}.x0", f"expected list of {net.n_sources} rates")
        kwargs["x0"] = tuple(_number(v, f"{spath}.x0[{i}]") for i, v in enumerate(val))
    if "price_lag" in solver_doc:
        val = solver_doc["price_lag"]
        if not isinstance(val, str):
            raise ScenarioValidationError(f"{spath}.price_lag", "expected string")
        kwargs["price_lag"] = val
    try:
        config = SolverConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioValidationError(spath, str(exc))
    return net, utils, config


def parse_scenario(text: str, origin: str = "<string>"):
    """Parse and validate scenario JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(origin, exc.lineno, exc.colno, exc.msg)
    return _model_from_doc(doc)


def load_scenario(src):
    """Load a scenario from a built-in name or a JSON file path."""
    name = str(src)
    if name in BUILT_IN_SCENARIOS:
        return _model_from_doc(built_in_scenario(name))
    path = Path(src)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioValidationError("$", f"cannot read scenario {name!r}: {exc}")
    return parse_scenario(text, origin=str(path))


def scenario_to_json(net: Network, utilities, config: SolverConfig) -> str:
    """Serialize a model back to scenario JSON. Reloading the output
    reproduces the same Network, utilities, and SolverConfig."""
    doc = {
        "links": [
            {"id": lid, "capacity_kbps": net.capacities[i]}
            for i, lid in enumerate(net.link_ids)
        ],
        "sources": [
            {
                "id": sid,
                "r_kbps": utilities[j].r,
                "c1": utilities[j].c1,
                "c2": utilities[j].c2,
                "m_kbps": utilities[j].m,
                "big_m_kbps": utilities[j].big_m,
                "route": list(net.routes[j]),
            }
            for j, sid in enumerate(net.source_ids)
        ],
        "solver": {
            "gamma": config.gamma,
            "epsilon": config.epsilon,
            "max_iter": config.max_iter,
            "mu0": list(config.mu0) if isinstance(config.mu0, tuple) else config.mu0,
            "price_lag": config.price_lag,
        },
    }
    if config.x0 is not None:
        doc["solver"]["x0"] = list(config.x0)
    return json.dumps(doc, indent=2)
