"""Plain-math references for the benchmark's output checks.

Nothing here imports transdist or numpy: the closed forms and fibre
integrals the benchmark compares against are computed with ``math`` alone,
so a defect shared by the library's evaluator and its quadrature cannot
hide itself.  Gauss-Legendre nodes are found by Newton iteration on the
three-term Legendre recurrence, at an order the library does not use.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Library quadrature runs at order 64; a different order keeps the two
# integrals independent.  Bump integrands converge well before either.
REF_ORDER = 48

# Relative tolerance of every reference comparison.  The order-48 bump
# integral is within 3e-10 (relative) of the true value; closed forms agree
# to rounding.
REL_TOL = 1e-7


def bump(t: float) -> float:
    """exp(-1/(1-t^2)) on |t| < 1, else 0."""
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


_NAMESPACE = {"__builtins__": {}, "bump": bump, "exp": math.exp,
              "sin": math.sin, "cos": math.cos}


def formula(text: str):
    """Compile a generated closed form in ``x0, x1, y`` into a callable."""
    code = compile(text, "<formula>", "eval")

    def fn(**values):
        return eval(code, _NAMESPACE, values)  # noqa: S307 - generator-written text

    return fn


def _legendre(n: int, x: float):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            x -= p / dp
            if abs(p / dp) < 1e-16:
                break
        _, dp = _legendre(n, x)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def integrate(fn, lo: float = -1.0, hi: float = 1.0, n: int = REF_ORDER) -> float:
    """Integral of fn over [lo, hi], summed with math.fsum."""
    nodes, weights = gauss_legendre(n)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return half * math.fsum(w * fn(mid + half * x) for x, w in zip(nodes, weights))


def rel_err(got: float, want: float) -> float:
    """|got - want| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(got), abs(want))
    if scale == 0.0:
        return 0.0
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / scale


def t_of_f(ref: dict, x) -> float:
    """Reference T(F)(x) from a generated record.

    ``ref`` holds a base factor, separable fibre terms ``[coef, f0, f1]``
    (each fibre factor integrated against bump(y) over [-1, 1]) and an
    optional Dirac closed form ``f(x) * D^beta F(x, sigma(x))``.
    """
    point = {f"x{i}": float(c) for i, c in enumerate(x)}
    total = 0.0
    if ref.get("separable"):
        fibre = 0.0
        for coef, *factors in ref["separable"]:
            prod = float(eval(coef, _NAMESPACE, {}))  # noqa: S307
            for text in factors:
                g = formula(text)
                prod *= integrate(lambda y, g=g: bump(y) * g(y=y, **point))
            fibre += prod
        total += formula(ref["base"])(**point) * fibre
    if ref.get("dirac"):
        total += formula(ref["dirac"])(**point)
    return total
