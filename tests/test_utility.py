"""Utility curves: values, shape, transforms, and derivative formulas."""

import math

import numpy as np
import pytest

from scpnum import (
    NegativeTransformedRateError,
    SCurveUtility,
    eval_scurve,
    inflection_point,
    inverse_transform,
    transform,
    transformed_bounds,
    transformed_utility,
)


def test_scurve_normalization_points():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    assert eval_scurve(u, 0.0) == 0.0
    assert eval_scurve(u, 256.0) == pytest.approx(1.0, abs=1e-15)


def test_scurve_half_rate_value():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    expect = (1.0 - math.exp(-6.0 * 0.25)) / (1.0 - math.exp(-6.0))
    assert eval_scurve(u, 128.0) == pytest.approx(expect, rel=1e-14)


def test_scurve_monotone_increasing():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = SCurveUtility(r=float(rng.uniform(64, 512)),
                          c1=float(rng.uniform(1, 10)),
                          c2=float(rng.integers(1, 11)))
        xs = np.linspace(u.m, u.big_m, 400)
        vals = eval_scurve(u, xs)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] > 0.0 and vals[-1] <= 1.0 + 1e-15


def test_scurve_accepts_arrays():
    u = SCurveUtility(r=256.0, c1=6.0, c2=4.0)
    xs = np.array([64.0, 128.0, 256.0])
    vals = eval_scurve(u, xs)
    assert vals.shape == (3,)
    assert vals[2] == pytest.approx(1.0, abs=1e-15)


def test_scurve_parameter_validation():
    with pytest.raises(ValueError, match=r"^r must be > 0, got 0\.0$"):
        SCurveUtility(r=0.0, c1=6.0, c2=2.0)
    with pytest.raises(ValueError, match=r"^c1 must be > 0, got 0\.0$"):
        SCurveUtility(r=256.0, c1=0.0, c2=2.0)
    with pytest.raises(ValueError, match=r"^c2 must be >= 1, got 0\.5$"):
        SCurveUtility(r=256.0, c1=6.0, c2=0.5)
    with pytest.raises(ValueError, match=r"^need 0 < m < big_m, got m=300\.0, big_m=256\.0$"):
        SCurveUtility(r=256.0, c1=6.0, c2=2.0, m=300.0)
    with pytest.raises(ValueError, match=r"^need 0 < m < big_m, got m=0\.0, big_m=256\.0$"):
        SCurveUtility(r=256.0, c1=6.0, c2=2.0, m=0.0)


@pytest.mark.parametrize("field,value", [
    ("r", math.inf), ("c1", math.nan), ("c1", math.inf), ("c2", math.nan),
    ("c2", math.inf), ("big_m", math.inf),
    # not numbers: a str or a bool
    ("r", "256"), ("c1", True),
])
def test_scurve_rejects_nonfinite(field, value):
    params = dict(r=256.0, c1=6.0, c2=2.0)
    params[field] = value
    with pytest.raises(ValueError):
        SCurveUtility(**params)


def test_big_m_defaults_to_encoding_rate():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    assert u.big_m == 256.0
    u2 = SCurveUtility(r=256.0, c1=6.0, c2=2.0, big_m=200.0)
    assert u2.big_m == 200.0


def test_inflection_point_closed_form():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    assert inflection_point(u) == pytest.approx(256.0 * math.sqrt(1.0 / 12.0), rel=1e-14)


def test_inflection_point_matches_curvature_sign_change():
    u = SCurveUtility(r=256.0, c1=6.0, c2=4.0)
    xi = inflection_point(u)
    h = 1e-3

    def second_diff(x):
        return (eval_scurve(u, x + h) - 2.0 * eval_scurve(u, x)
                + eval_scurve(u, x - h)) / (h * h)

    assert second_diff(xi * 0.9) > 0.0
    assert second_diff(xi * 1.1) < 0.0


def test_concave_curve_has_no_inflection():
    u = SCurveUtility(r=256.0, c1=6.0, c2=1.0)
    assert inflection_point(u) == 0.0


def test_transform_values():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    assert transform(u, 256.0) == 1.0
    assert transform(u, 128.0) == pytest.approx(0.25, rel=1e-15)
    assert inverse_transform(u, 0.25) == pytest.approx(128.0, rel=1e-15)


def test_transform_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = SCurveUtility(r=float(rng.uniform(64, 512)),
                          c1=float(rng.uniform(1, 10)),
                          c2=float(rng.integers(1, 11)))
        xs = rng.uniform(u.m, u.big_m, size=200)
        back = inverse_transform(u, transform(u, xs))
        assert np.max(np.abs(back - xs) / xs) <= 1e-12


def test_transform_rejects_negative_rate():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    with pytest.raises(ValueError):
        transform(u, -1.0)


def test_inverse_transform_rejects_negative():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    with pytest.raises(NegativeTransformedRateError):
        inverse_transform(u, -1e-9)


def test_transformed_bounds_order():
    u = SCurveUtility(r=256.0, c1=6.0, c2=3.0, m=10.0)
    lo, hi = transformed_bounds(u)
    assert 0.0 < lo < hi == 1.0
    assert lo == pytest.approx((10.0 / 256.0) ** 3.0, rel=1e-15)


def test_transformed_utility_matches_composition():
    # value in transformed space equals the curve at the mapped-back rate
    u = SCurveUtility(r=256.0, c1=6.0, c2=5.0)
    ys = np.linspace(1e-3, 1.0, 50)
    val, _, _ = transformed_utility(u, ys)
    direct = eval_scurve(u, inverse_transform(u, ys))
    assert np.max(np.abs(val - direct)) <= 1e-14


def test_transformed_utility_concave_increasing():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = SCurveUtility(r=float(rng.uniform(64, 512)),
                          c1=float(rng.uniform(1, 10)),
                          c2=float(rng.integers(1, 11)))
        ys = rng.uniform(1e-6, 1.0, size=100)
        _, d1, d2 = transformed_utility(u, ys)
        assert np.all(d1 > 0.0)
        assert np.all(d2 < 0.0)


def test_transformed_utility_derivatives_match_differences():
    u = SCurveUtility(r=256.0, c1=6.0, c2=2.0)
    h = 1e-6
    for y in np.linspace(0.05, 0.95, 19):
        val_p, d1_p, _ = transformed_utility(u, y + h)
        val_m, d1_m, _ = transformed_utility(u, y - h)
        _, d1, d2 = transformed_utility(u, y)
        assert d1 == pytest.approx((val_p - val_m) / (2.0 * h), rel=1e-8)
        assert d2 == pytest.approx((d1_p - d1_m) / (2.0 * h), rel=1e-8)

