"""Plain recursive reference evaluators for expression trees.

They walk an expression as a tree, with no memo and no evaluation plan,
applying per node the float operations the library documents, in the same
order: numpy's ufuncs for the elementary functions, right-to-left binary
powering for integer powers, and for a sum ``math.fsum``'s value (where
math.fsum raises, the exact sum of finite terms, correctly rounded, and
otherwise the IEEE sum, left to right from 0.0), taken one row at a time
on arrays.  The differential tests require the library's DAG
evaluation to reproduce these values bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from transdist import expr as ex

_UFUNCS = {ex.Exp: np.exp, ex.Sin: np.sin, ex.Cos: np.cos}


def sum_of(values) -> float:
    """math.fsum's value; where it raises, the exact sum of finite values,
    correctly rounded (an infinity beyond the float range), else the IEEE
    sum from 0.0."""
    try:
        return math.fsum(values) + 0.0
    except (ValueError, OverflowError):
        if all(map(math.isfinite, values)):
            exact = sum(map(Fraction, values))
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf
        total = 0.0
        for v in values:
            total = total + v
        return total


def power(v, n: int):
    """The product, lowest bit first, of v^(2^i) over the set bits i of n."""
    squares = [v]
    while len(squares) < n.bit_length():
        squares.append(squares[-1] * squares[-1])
    picked = [sq for i, sq in enumerate(squares) if n >> i & 1]
    acc = picked[0]
    for sq in picked[1:]:
        acc = acc * sq
    return acc


def ref_eval(e, point) -> float:
    """Scalar value of e at a tuple of floats."""
    if isinstance(e, ex.Const):
        return float(e.value)
    if isinstance(e, ex.NamedConst):
        return math.pi
    if isinstance(e, ex.Var):
        return point[e.slot]
    if isinstance(e, ex.Sum):
        return sum_of([ref_eval(t, point) for t in e.terms])
    if isinstance(e, ex.Product):
        vals = [ref_eval(f, point) for f in e.factors]
        if any(v == 0.0 for v in vals):
            return 0.0
        acc = 1.0
        for v in vals:
            acc *= v
        return acc
    if isinstance(e, ex.IntPow):
        return power(ref_eval(e.base, point), e.exponent)
    if type(e) in _UFUNCS:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_UFUNCS[type(e)](ref_eval(e.arg, point)))
    if isinstance(e, ex.BumpRat):
        u = ref_eval(e.arg, point)
        if abs(u) >= 1.0:
            return 0.0
        s = 1.0 - u * u
        r = float(np.exp(-1.0 / s))
        for _ in range(e.pole_order):
            r /= s
        p = 0.0
        for c in reversed(e.coeffs):
            p = p * u + float(c)
        return r * p
    raise TypeError(f"unknown node {type(e).__name__}")


def ref_eval_array(e, pts: np.ndarray) -> np.ndarray:
    """Values of e on an (N, dim) float array, shape (N,)."""
    n = pts.shape[0]
    if isinstance(e, ex.Const):
        return np.full(n, float(e.value))
    if isinstance(e, ex.NamedConst):
        return np.full(n, math.pi)
    if isinstance(e, ex.Var):
        return pts[:, e.slot]
    if isinstance(e, ex.Sum):
        cols = [ref_eval_array(t, pts) for t in e.terms]
        return np.array([sum_of([c[i] for c in cols]) for i in range(n)], dtype=float)
    if isinstance(e, ex.Product):
        vals = [ref_eval_array(f, pts) for f in e.factors]
        with np.errstate(invalid="ignore", over="ignore"):
            acc = np.ones(n)
            for v in vals:
                acc = acc * v
        zero = np.zeros(n, dtype=bool)
        for v in vals:
            zero |= v == 0.0
        acc[zero] = 0.0
        return acc
    if isinstance(e, ex.IntPow):
        with np.errstate(over="ignore", invalid="ignore"):
            return power(ref_eval_array(e.base, pts), e.exponent)
    if type(e) in _UFUNCS:
        with np.errstate(over="ignore", invalid="ignore"):
            return _UFUNCS[type(e)](ref_eval_array(e.arg, pts))
    if isinstance(e, ex.BumpRat):
        u = ref_eval_array(e.arg, pts)
        outside = np.abs(u) >= 1.0  # NaN is not outside: it stays NaN
        s = np.where(outside, 1.0, 1.0 - u * u)
        r = np.exp(-1.0 / s)
        for _ in range(e.pole_order):
            r = r / s
        p = np.zeros_like(u)
        for c in reversed(e.coeffs):
            p = p * u + float(c)
        out = r * p
        out[outside] = 0.0
        return out
    raise TypeError(f"unknown node {type(e).__name__}")
