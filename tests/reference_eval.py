"""Plain recursive reference evaluators for expression trees.

They walk an expression as a tree, with no memo and no evaluation plan,
applying per node the float operations the library documents, in the same
order.  The differential tests require the library's DAG evaluation to
reproduce these values bit for bit.
"""

import math

import numpy as np

from transdist import expr as ex


def ref_eval(e, point) -> float:
    """Scalar value of e at a tuple of floats."""
    if isinstance(e, ex.Const):
        return float(e.value)
    if isinstance(e, ex.NamedConst):
        return math.pi
    if isinstance(e, ex.Var):
        return point[e.slot]
    if isinstance(e, ex.Sum):
        return math.fsum(ref_eval(t, point) for t in e.terms)
    if isinstance(e, ex.Product):
        vals = [ref_eval(f, point) for f in e.factors]
        if any(v == 0.0 for v in vals):
            return 0.0
        acc = 1.0
        for v in vals:
            acc *= v
        return acc
    if isinstance(e, ex.IntPow):
        v = ref_eval(e.base, point)
        try:
            return v ** e.exponent
        except OverflowError:
            return (-1.0 if v < 0 and e.exponent % 2 == 1 else 1.0) * math.inf
    if isinstance(e, ex.Exp):
        u = ref_eval(e.arg, point)
        return math.exp(u) if u < 709.0 else math.inf
    if isinstance(e, ex.Sin):
        return math.sin(ref_eval(e.arg, point))
    if isinstance(e, ex.Cos):
        return math.cos(ref_eval(e.arg, point))
    if isinstance(e, ex.BumpRat):
        u = ref_eval(e.arg, point)
        if abs(u) >= 1.0:
            return 0.0
        s = 1.0 - u * u
        r = math.exp(-1.0 / s)
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
        acc = np.zeros(n)
        for t in e.terms:
            acc = acc + ref_eval_array(t, pts)
        return acc
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
        return ref_eval_array(e.base, pts) ** e.exponent
    if isinstance(e, (ex.Exp, ex.Sin, ex.Cos)):
        fn = {ex.Exp: np.exp, ex.Sin: np.sin, ex.Cos: np.cos}[type(e)]
        with np.errstate(over="ignore"):
            return fn(ref_eval_array(e.arg, pts))
    if isinstance(e, ex.BumpRat):
        u = ref_eval_array(e.arg, pts)
        inside = np.abs(u) < 1.0
        s = np.where(inside, 1.0 - u * u, 1.0)
        r = np.exp(-1.0 / s)
        for _ in range(e.pole_order):
            r = r / s
        p = np.zeros_like(u)
        for c in reversed(e.coeffs):
            p = p * u + float(c)
        out = r * p
        out[~inside] = 0.0
        return out
    raise TypeError(f"unknown node {type(e).__name__}")
