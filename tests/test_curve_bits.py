"""The curve functions' exact bits, pinned.

``curve_bits.json`` holds, as ``float.hex`` strings, what
``eval_scurve``, ``transform``, ``inverse_transform`` (of transform's
value) and ``transformed_utility`` returned on the built-in scenarios'
curves and one concave curve (c2 = 1), and what ``kkt_residual``
returned on each built-in's solve result, all computed before the curve
kernels moved into ``scpnum.utility``. The other utility tests compare
within tolerances; these compare bits, so a change to where or how a
curve formula is evaluated cannot shift a last bit unseen.

Each curve is evaluated at m, its knee (when c2 > 1), r and big_m, given
as Python floats, as 0-d arrays and as one 1-d array. Printing the table
for the current code: ``PYTHONPATH=src python tests/test_curve_bits.py``.
A difference is a changed result, not a stale table.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from scpnum import (
    SCurveUtility,
    eval_scurve,
    inflection_point,
    inverse_transform,
    kkt_residual,
    load_scenario,
    solve,
    transform,
    transformed_utility,
)

BUILT_INS = ("chain-3", "paper-scenario-1", "single-source")
CONCAVE = SCurveUtility(r=300.0, c1=3.5, c2=1.0, m=2.0, big_m=290.0)
TABLE = Path(__file__).with_name("curve_bits.json")

# each input form, and the type every curve function returns for it;
# the 1-d form is one array of all the curve's points
FORMS = {
    "float": (float, float),
    "0d": (np.asarray, float),
    "1d": (np.array, np.ndarray),
}


def _curves() -> dict:
    curves = {u: None for name in BUILT_INS for u in load_scenario(name)[1]}
    return {repr(u): u for u in (*curves, CONCAVE)}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def curve_values(u: SCurveUtility) -> dict:
    """{form: {output: [hex per point]}} for one curve."""
    points = [u.m] + ([inflection_point(u)] if u.c2 > 1.0 else []) + [u.r, u.big_m]
    table = {}
    for form, (make, returns) in FORMS.items():
        calls = [(make, points)] if form == "1d" else [(make, p) for p in points]
        out = {k: [] for k in ("eval_scurve", "transform", "inverse_transform",
                               "value", "d1", "d2")}
        for wrap, arg in calls:
            y = transform(u, wrap(arg))
            results = {
                "eval_scurve": eval_scurve(u, wrap(arg)),
                "transform": y,
                "inverse_transform": inverse_transform(u, wrap(y)),
            }
            results.update(zip(("value", "d1", "d2"), transformed_utility(u, wrap(y))))
            for k, v in results.items():
                assert type(v) is returns, (form, k, type(v))
                out[k] += _hex(v)
        table[form] = out
    return table


def kkt_values(name: str) -> dict:
    net, utilities, config = load_scenario(name)
    res = solve(net, utilities, config)
    kkt = kkt_residual(net, utilities, res.x_tilde, res.x_tilde_prev, res.mu)
    return {f: _hex(getattr(kkt, f)) for f in
            ("stationarity", "stationarity_normalized", "slack", "slack_normalized")}


def table() -> dict:
    return {"curves": {k: curve_values(u) for k, u in _curves().items()},
            "kkt_residual": {name: kkt_values(name) for name in BUILT_INS}}


@pytest.fixture(scope="module")
def stored():
    return json.loads(TABLE.read_text())


def test_table_covers_the_curves(stored):
    assert sorted(stored["curves"]) == sorted(_curves())
    assert sorted(stored["kkt_residual"]) == sorted(BUILT_INS)


@pytest.mark.parametrize("key", sorted(_curves()))
def test_curve_functions_keep_their_bits(stored, key):
    assert curve_values(_curves()[key]) == stored["curves"][key]


@pytest.mark.parametrize("name", BUILT_INS)
def test_kkt_residual_keeps_its_bits(stored, name):
    assert kkt_values(name) == stored["kkt_residual"][name]


if __name__ == "__main__":
    print(json.dumps(table(), indent=1))
