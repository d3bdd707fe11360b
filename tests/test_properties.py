"""Property tests: a number that is not a finite number is rejected at the
boundary, by the scenario parser and by the validating constructors; an
entry point that applies an input rule either returns or raises the
rule's exception; and any valid scenario document survives a write and a
reload."""

import contextlib
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# hypothesis writes a failing example as a patch through libcst, whose
# import raises a DeprecationWarning; with warnings as errors that turns
# a failed property into an INTERNALERROR that ends the session, so the
# module is imported once here with that warning silenced
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: E402,F401

from helpers import DOMAIN_RULES, domain_entries  # noqa: E402
from scpnum import (  # noqa: E402
    BUILT_IN_SCENARIOS,
    SCurveUtility,
    ScenarioValidationError,
    SolverConfig,
    built_in_scenario,
    parse_scenario,
    scenario_to_json,
)

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# integers too large for a float; they are valid ids and iteration caps
HUGE_INTEGERS = st.sampled_from([10 ** 400, -10 ** 400])
INTEGER_FIELDS = {"id", "route", "max_iter"}
NOT_A_NUMBER = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.text(max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), min_size=1, max_size=2),
    HUGE_INTEGERS,
)


def numeric_fields(doc: dict) -> list[tuple]:
    """Paths of every numeric field of a scenario document, optional
    fields included; ("solver", "mu0", i) is entry i of a per-link list."""
    n_links, n_sources = len(doc["links"]), len(doc["sources"])
    paths = [("links", i, key) for i in range(n_links) for key in ("id", "capacity_kbps")]
    paths += [("sources", j, key) for j in range(n_sources)
              for key in ("id", "r_kbps", "c1", "c2", "m_kbps", "big_m_kbps")]
    paths += [("sources", j, "route", 0) for j in range(n_sources)]
    paths += [("solver", key) for key in ("gamma", "epsilon", "max_iter", "mu0")]
    paths += [("solver", "mu0", i) for i in range(n_links)]
    paths += [("solver", "x0", j) for j in range(n_sources)]
    return paths


def with_value(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    if path[:2] == ("solver", "mu0") and len(path) == 3:
        doc["solver"]["mu0"] = [doc["solver"]["mu0"]] * len(doc["links"])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@PROPERTY
@given(data=st.data(), name=st.sampled_from(sorted(BUILT_IN_SCENARIOS)),
       value=st.one_of(NON_FINITE, NOT_A_NUMBER))
def test_parser_rejects_every_bad_number(data, name, value):
    doc = built_in_scenario(name)
    fields = numeric_fields(doc)
    if type(value) is int:
        fields = [path for path in fields if not INTEGER_FIELDS.intersection(path)]
    path = data.draw(st.sampled_from(fields), label="path")
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(with_value(doc, path, value)))


@PROPERTY
@given(field=st.sampled_from(["r", "c1", "c2", "m", "big_m"]), value=NON_FINITE,
       r=st.floats(2.0, 1e4), c1=st.floats(0.1, 20.0), c2=st.floats(1.0, 20.0))
def test_scurve_rejects_every_nonfinite_field(field, value, r, c1, c2):
    params = dict(r=r, c1=c1, c2=c2, m=1.0, big_m=r)
    params[field] = value
    with pytest.raises(ValueError):
        SCurveUtility(**params)


@PROPERTY
@given(data=st.data(), value=NON_FINITE,
       field=st.sampled_from(["gamma", "epsilon", "mu0", "mu0[i]", "x0[i]"]),
       n=st.integers(1, 4))
def test_solver_config_rejects_every_nonfinite_field(data, value, field, n):
    positive = st.floats(1e-9, 10.0)
    params = dict(gamma=data.draw(positive), epsilon=data.draw(positive),
                  mu0=data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
                  x0=data.draw(st.lists(st.floats(1.0, 256.0), min_size=n, max_size=n)))
    if field.endswith("[i]"):
        params[field[:-3]][data.draw(st.integers(0, n - 1))] = value
    else:
        params[field] = value
    with pytest.raises(ValueError):
        SolverConfig(**params)


DOMAIN_ENTRIES = domain_entries()


@pytest.mark.parametrize("name", sorted(DOMAIN_ENTRIES))
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_entry_point_returns_or_raises_its_rule(data, name):
    # only the checked argument varies; a RuntimeWarning is an error
    _, rule, call = DOMAIN_ENTRIES[name]
    error, bound, _ = DOMAIN_RULES[rule]
    value = data.draw(st.floats(-bound, bound), label="value")
    with contextlib.suppress(error):
        call(value)


def optional(draw, doc: dict, key: str, strategy):
    """Draw a value for an optional field, or leave it out."""
    if draw(st.booleans()):
        doc[key] = draw(strategy)
    return doc.get(key)


@st.composite
def scenario_docs(draw):
    """Valid documents: 1-4 links, some of which no route may cross, and
    1-5 sources, ids in any order, each optional field present or not."""
    link_ids = draw(st.lists(st.integers(-99, 99), min_size=1, max_size=4, unique=True))
    source_ids = draw(st.lists(st.integers(-99, 99), min_size=1, max_size=5, unique=True))
    doc = {"links": [{"id": lid, "capacity_kbps": draw(st.floats(0.5, 1e4))}
                     for lid in link_ids],
           "sources": []}
    windows = {}
    for sid in source_ids:
        r = draw(st.floats(2.0, 1e4))
        source = {"id": sid, "r_kbps": r, "c1": draw(st.floats(0.1, 20.0)),
                  "c2": draw(st.floats(1.0, 12.0)),
                  "route": draw(st.lists(st.sampled_from(link_ids), min_size=1, unique=True))}
        m = optional(draw, source, "m_kbps", st.floats(0.01, 0.9 * r)) or 1.0
        big_m = optional(draw, source, "big_m_kbps", st.floats(1.01, 100.0).map(m.__mul__)) or r
        windows[sid] = (m, big_m)
        doc["sources"].append(source)
    solver = {}
    optional(draw, solver, "gamma", st.floats(1e-9, 1.0))
    optional(draw, solver, "epsilon", st.floats(1e-9, 10.0))
    optional(draw, solver, "max_iter", st.integers(1, 10 ** 6))
    optional(draw, solver, "mu0", st.floats(0.0, 10.0)
             | st.lists(st.floats(0.0, 10.0), min_size=len(link_ids), max_size=len(link_ids)))
    if draw(st.booleans()):
        solver["x0"] = [draw(st.floats(*windows[sid])) for sid in sorted(windows)]
    if solver or draw(st.booleans()):
        doc["solver"] = solver
    return doc


# drawing a document costs more than the other properties' examples; 120
# of them keep this at about a second
@settings(PROPERTY, max_examples=120)
@given(doc=scenario_docs())
def test_every_valid_document_round_trips(doc):
    model = parse_scenario(json.dumps(doc))
    text = scenario_to_json(*model)
    again = parse_scenario(text)
    assert again == model
    assert scenario_to_json(*again) == text
