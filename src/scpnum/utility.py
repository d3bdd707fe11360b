"""Streaming-quality utility curves and the concavifying rate transform.

An S-curve maps a rate x (Kbps) to perceived quality in [0, 1]. It is
convex below its inflection point and concave above, which makes the
allocation problem non-concave. Substituting y = (x/r)**c2 turns every
S-curve into a strictly concave function of y; the engine works in that
transformed space and maps back at the end.

All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCurveUtility",
    "eval_scurve",
    "inflection_point",
    "transform",
    "inverse_transform",
    "transformed_bounds",
    "transformed_utility",
    "NegativeTransformedRateError",
]


class NegativeTransformedRateError(ValueError):
    """Transformed rate must be non-negative to map back to Kbps."""


def finite_real(name: str, value, index: int | None = None,
                gt: float | None = None, ge: float | None = None) -> float:
    """The one check of a real library argument: a finite real number,
    Python or numpy, returned as a float, and ``> gt`` or ``>= ge`` when
    given. Anything else, a bool or a str included, raises ValueError
    naming the argument, as ``name[index]`` for an entry of a sequence."""
    if (type(value) is float and math.isfinite(value)
            and (gt is None or value > gt) and (ge is None or value >= ge)):
        return value  # skips the slower ABC check
    label = name if index is None else f"{name}[{index}]"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{label} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{label} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    if gt is not None and value <= gt:
        raise ValueError(f"{label} must be > {gt:g}, got {value}")
    if ge is not None and value < ge:
        raise ValueError(f"{label} must be >= {ge:g}, got {value}")
    return value


def finite_reals(name: str, values, ge: float | None = None) -> tuple[float, ...]:
    """A tuple, list or 1-d array of finite_real entries, each ``>= ge``
    when given, as a tuple; a str or a scalar is not a sequence."""
    if not isinstance(values, (tuple, list, np.ndarray)) or getattr(values, "ndim", 1) != 1:
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    return tuple(finite_real(name, v, i, None, ge) for i, v in enumerate(values))


def integer(name: str, value, ge: int | None = None) -> int:
    """The one check of an integer library argument: a Python or numpy
    integer (not a bool), returned as an int, and ``>= ge`` when given."""
    if type(value) is not int:  # skips the slower ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if ge is not None and value < ge:
        raise ValueError(f"{name} must be >= {ge}, got {value}")
    return value


def per_item(name: str, values, *shape: int) -> np.ndarray:
    """The one check of a per-source or per-link array argument:
    ``values`` as a float array of exactly ``shape``, such as (S,) or
    (L,), from integers or floats, Python or numpy. A mis-sized argument,
    or one that holds a bool, None, a str, bytes or a complex number,
    raises ValueError naming it. The values are not checked, so a NaN or
    an inf passes."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of shape {shape}: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    return a.astype(float, copy=False)


@dataclass(frozen=True)
class SCurveUtility:
    """S-shaped utility U(x) = (1 - exp(-c1*(x/r)**c2)) / (1 - exp(-c1)).

    Parameters
    ----------
    r : float
        Encoding rate in Kbps; U(r) = 1.
    c1 : float
        Saturation sharpness, > 0.
    c2 : float
        Inflection shape, >= 1. c2 == 1 gives a concave curve.
    m, big_m : float
        Allowed rate window [m, big_m] in Kbps, 0 < m < big_m.
        big_m defaults to r.

    Each is a finite real number, Python or numpy (not a bool or a str),
    stored as a float.
    """

    r: float
    c1: float
    c2: float
    m: float = 1.0
    big_m: float | None = None

    def __post_init__(self):
        if self.big_m is None:
            object.__setattr__(self, "big_m", self.r)
        for name, gt, ge in (("r", 0.0, None), ("c1", 0.0, None), ("c2", None, 1.0),
                             ("m", None, None), ("big_m", None, None)):
            object.__setattr__(self, name, finite_real(name, getattr(self, name), None, gt, ge))
        if not 0.0 < self.m < self.big_m:
            raise ValueError(f"need 0 < m < big_m, got m={self.m}, big_m={self.big_m}")


def eval_scurve(u: SCurveUtility, x):
    """Utility of rate x (Kbps); U(0) = 0 and U(r) = 1."""
    t = np.power(np.asarray(x, dtype=float) / u.r, u.c2)
    val = np.expm1(-u.c1 * t) / np.expm1(-u.c1)
    return val if val.ndim else float(val)


def inflection_point(u: SCurveUtility) -> float:
    """Rate at which curvature changes sign: r*((c2-1)/(c1*c2))**(1/c2).

    Zero when c2 == 1 (the curve is concave everywhere).
    """
    if u.c2 == 1.0:
        return 0.0
    return u.r * ((u.c2 - 1.0) / (u.c1 * u.c2)) ** (1.0 / u.c2)


def transform(u: SCurveUtility, x):
    """Concavifying change of variable y = (x/r)**c2; requires x >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("rate must be >= 0")
    y = np.power(xa / u.r, u.c2)
    return y if y.ndim else float(y)


def inverse_transform(u: SCurveUtility, y):
    """Back to Kbps: x = r * y**(1/c2).

    Raises
    ------
    NegativeTransformedRateError
        If any component of y is negative.
    """
    ya = np.asarray(y, dtype=float)
    if np.any(ya < 0.0):
        raise NegativeTransformedRateError(f"transformed rate must be >= 0, got {y}")
    x = u.r * np.power(ya, 1.0 / u.c2)
    return x if x.ndim else float(x)


def transformed_bounds(u: SCurveUtility) -> tuple[float, float]:
    """Rate window [m, big_m] mapped into transformed space."""
    return transform(u, u.m), transform(u, u.big_m)


def transformed_utility(u: SCurveUtility, y):
    """Utility in transformed space with first and second derivatives.

    Returns (value, d1, d2) where value = (1 - exp(-c1*y)) / (1 - exp(-c1)).
    d1 is strictly positive and d2 strictly negative for every y, which is
    what makes the transformed problem concave in y.
    """
    ya = np.asarray(y, dtype=float)
    denom = np.expm1(-u.c1)  # -(1 - exp(-c1)), negative
    val = np.expm1(-u.c1 * ya) / denom
    ex = np.exp(-u.c1 * ya)
    d1 = -u.c1 * ex / denom
    d2 = u.c1 * u.c1 * ex / denom
    if val.ndim:
        return val, d1, d2
    return float(val), float(d1), float(d2)
