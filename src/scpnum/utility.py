"""Streaming-quality utility curves and the concavifying rate transform.

An S-curve maps a rate x (Kbps) to perceived quality in [0, 1]. It is
convex below its inflection point and concave above, which makes the
allocation problem non-concave. Substituting y = (x/r)**c2 turns every
S-curve into a strictly concave function of y; the engine works in that
transformed space and maps back at the end.

This module is the one home of the curve arithmetic. Each curve formula
is one elementwise kernel: :func:`y_of_x`, :func:`x_of_y`,
:func:`u_of_y` and :func:`du_of_y`. They take their parameters as
scalars or as per-source arrays, so the scalar functions over one
:class:`SCurveUtility` (``eval_scurve``, ``transform`` and the rest) and
the engine, over the per-source arrays of :class:`Curves`, evaluate the
same expressions. The scalar functions return a float for a scalar or a
0-d array, and an array for an array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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


class Curves(NamedTuple):
    """The array form of a list of :class:`SCurveUtility`: one array per
    field, aligned with the list (the engine passes its sources in
    ascending id order). Besides the curve parameters it holds the
    constants the engine's kernels read: the load exponent p = 1/c2,
    the transformed window [lo, hi],
    log_k = log(c1*c2 / (r*(1 - exp(-c1)))), and the exponents 1 - p of
    the rate step and p - 1 of the tangent's slope."""

    r: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    p: np.ndarray
    m: np.ndarray
    big_m: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    log_k: np.ndarray
    one_minus_p: np.ndarray
    p_minus_1: np.ndarray

    @classmethod
    def of(cls, utilities) -> "Curves":
        r, c1, c2, m, big_m = (np.fromiter(map(attrgetter(f), utilities), dtype=float)
                               for f in ("r", "c1", "c2", "m", "big_m"))
        log_k = np.log(c1 * c2 / (r * -np.expm1(-c1)))
        p = 1.0 / c2
        return cls(r, c1, c2, p, m, big_m, y_of_x(r, c2, m), y_of_x(r, c2, big_m),
                   log_k, 1.0 - p, p - 1.0)


def y_of_x(r, c2, x):
    """The transform y = (x/r)**c2, elementwise."""
    return np.power(x / r, c2)


def x_of_y(r, p, y):
    """Back to Kbps, x = r * y**p with p = 1/c2, elementwise; in the
    engine, a source's true-load term."""
    return r * np.power(y, p)


def u_of_y(c1, y):
    """The utility in transformed space, U(y) = (1 - exp(-c1*y)) /
    (1 - exp(-c1)), elementwise."""
    return np.expm1(-c1 * y) / np.expm1(-c1)


def du_of_y(c1, y, order: int = 1):
    """U'(y) (order 1) or U''(y) (order 2) in transformed space,
    (-c1)**order * exp(-c1*y) / (exp(-c1) - 1), elementwise."""
    return (-c1 if order == 1 else c1 * c1) * np.exp(-c1 * y) / np.expm1(-c1)


def eval_scurve(u: SCurveUtility, x):
    """Utility of rate x (Kbps); U(0) = 0 and U(r) = 1. The rate goes
    through :func:`transform`, so a negative one raises its ValueError."""
    val = u_of_y(u.c1, transform(u, x))
    return val if val.ndim else float(val)


def inflection_point(u: SCurveUtility) -> float:
    """Rate at which curvature changes sign: r*((c2-1)/(c1*c2))**(1/c2).

    Zero when c2 == 1 (the curve is concave everywhere).
    """
    if u.c2 == 1.0:
        return 0.0
    return u.r * ((u.c2 - 1.0) / (u.c1 * u.c2)) ** (1.0 / u.c2)


def transform(u: SCurveUtility, x):
    """Concavifying change of variable y = (x/r)**c2. The one check of a
    rate: ValueError("rate must be >= 0") if an entry of x is negative;
    a NaN entry passes."""
    xa = np.asarray(x, dtype=float)
    # fmin skips NaN, so a NaN entry passes as it does an elementwise test
    if np.fmin.reduce(xa, axis=None, initial=np.inf) < 0.0:
        raise ValueError("rate must be >= 0")
    y = y_of_x(u.r, u.c2, xa)
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
    x = x_of_y(u.r, 1.0 / u.c2, ya)
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
    val, d1, d2 = u_of_y(u.c1, ya), du_of_y(u.c1, ya), du_of_y(u.c1, ya, 2)
    if val.ndim:
        return val, d1, d2
    return float(val), float(d1), float(d2)
