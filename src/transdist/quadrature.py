"""Deterministic tensor-product Gauss-Legendre quadrature over boxes.

Fixed order, no adaptivity: the integrands that arise here (compactly
supported smooth kernels) converge fast, and reruns are bit-identical.
The integration domain is always a finite box; density integrands carry
their own support boxes.

"Bit-identical" covers everything this module computes.  The nodes and
weights are the correctly rounded Gauss-Legendre values, computed here in
``decimal`` arithmetic rather than taken from a LAPACK eigensolver, and
every weighted sum is correctly rounded (``math.fsum``'s value), so it does
not depend on a BLAS kernel's order of accumulation.  A quadrature result
is therefore a function of the integrand values alone.  Those values are
not covered: numpy's vectorized elementary functions (``exp``, ``sin``, ...)
may differ in the last ulp between builds and CPUs.

A rule keeps its per-axis nodes (``axes``) beside their tensor grid, so an
expression integrand is evaluated with ``Expr.eval_grid`` on the axes and
a factor of one coordinate runs once per node of that axis.  The sum of a
short list, and the hard cases of a long one, go to ``expr.fsum_list``,
the sum that a ``Sum`` node takes, so both follow one rule where
``math.fsum`` raises.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache

import numpy as np

from . import expr

DEFAULT_ORDER = 64
# The rule budget, checked before a rule is built.  _gauss_nodes costs about
# order^2 decimal operations: 0.8 s at order 800 on an x86-64 VM (0.3 s at
# 500, 1.3 s at 1000).  A k-dimensional rule holds order^k points; the
# point budget is twice a 3-d fibre at order 64 (262,144 points, 8 MB).
MAX_ORDER = 800
MAX_RULE_POINTS = 524_288

# The one-dimensional integral of bump over [-1, 1] as computed by this
# module at order 64: correctly rounded nodes, weights and sum.  It lies
# 8.9e-13 above the true integral, 0.4439938161680794; the order-96 rule
# gives 0.44399381616807965 (see tests).
BUMP_INTEGRAL = 0.44399381616896866

# Working precision of the node computation, in significant digits (two
# 19-digit words in CPython's decimal, a quarter faster than 40).  The
# recurrence loses about log10(order) digits, far inside the margin that
# _certified_float checks; an uncertified rounding retries at twice this.
_DIGITS = 38

# From this many terms on, fsum's vectorized extraction beats math.fsum
# over a list: on an x86-64 VM with numpy 2.4 the two cross near 400
# terms, and at 512 they take about 22 and 27 us.
_VECTOR_MIN = 512
# Rows per pass wherever many base points share one fibre grid: a pass
# evaluates at most this many joined (x, z) rows, 2 MB of 2+2 points, where
# a whole 2-d order-64 pair grid (4096 x 4096 rows) would take 0.5 GB.
PAIR_BLOCK = 65_536


def _legendre_pair(q: int, x, a, b):
    """(P_q(x), P_{q-1}(x)) by the three-term recurrence.

    ``a[k] = (2k+1)/(k+1)`` and ``b[k] = k/(k+1)``, precomputed in the
    arithmetic of ``x`` (float or Decimal).
    """
    p_prev, p = 1, x
    for k in range(1, q):
        p_prev, p = p, a[k] * x * p - b[k] * p_prev
    return p, p_prev


def _certified_float(v: decimal.Decimal, tol: decimal.Decimal) -> float | None:
    """float(v), provided every value within tol*|v| of v rounds the same."""
    margin = tol * abs(v)
    lo, hi = float(v - margin), float(v + margin)
    return lo if lo == hi else None


@lru_cache(maxsize=None)
def _gauss_nodes(q: int, digits: int = _DIGITS):
    """Correctly rounded Gauss-Legendre nodes (ascending) and weights.

    Each positive node is found by Newton's method on P_q, started from
    Tricomi's asymptotic guess and polished in floats, then refined in
    ``decimal`` at ``digits`` significant digits until the step is below
    half that precision, so quadratic convergence leaves an error near the
    working precision.  The weight is ``2 (1 - x^2) / (q P_{q-1}(x))^2``.
    Each value is rounded to float once; the negative half mirrors the
    positive one, and an odd order has the node 0 exactly.  The rounding
    is certified against a margin of 10^(10 - digits), and the whole rule
    is recomputed at twice the digits if any value sits inside it.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        a = [None] + [D(2 * k + 1) / (k + 1) for k in range(1, q)]
        b = [None] + [D(k) / (k + 1) for k in range(1, q)]
        af = [None] + [float(c) for c in a[1:]]
        bf = [None] + [float(c) for c in b[1:]]
        step_tol = D(10) ** -(digits // 2)
        roots = []
        for k in range(q // 2, 0, -1):  # positive nodes, ascending
            theta = math.pi * (4 * k - 1) / (4 * q + 2)
            xf = (1 - (q - 1) / (8 * q ** 3)
                  - (39 - 28 / math.sin(theta) ** 2) / (384 * q ** 4)) * math.cos(theta)
            for _ in range(3):
                p, p_prev = _legendre_pair(q, xf, af, bf)
                xf -= p * (xf * xf - 1) / (q * (xf * p - p_prev))
            x = D(xf)
            for _ in range(8):
                p, p_prev = _legendre_pair(q, x, a, b)
                dx = p * (x * x - 1) / (q * (x * p - p_prev))
                x -= dx
                if abs(dx) < step_tol:
                    break
            else:
                raise ArithmeticError(f"Gauss-Legendre node {k} of order {q} "
                                      "did not converge")
            roots.append(x)
        if q % 2:
            roots.insert(0, D(0))
        values = []
        for x in roots:
            _, p_prev = _legendre_pair(q, x, a, b)
            values += [x, 2 * (1 - x * x) / (q * p_prev) ** 2]
        tol = D(10) ** (10 - digits)
        rounded = [_certified_float(v, tol) for v in values]
    if None in rounded:
        return _gauss_nodes(q, 2 * digits)
    xs, ws = rounded[0::2], rounded[1::2]
    mid = q % 2
    x = np.array([-v for v in reversed(xs[mid:])] + xs)
    w = np.array(list(reversed(ws[mid:])) + ws)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def fsum(p: np.ndarray) -> float:
    """The correctly rounded sum of a 1-d float array: ``math.fsum``'s value.

    A long array is split at a common power of two sigma = 2^s >= 2 n
    max|p| (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008): the
    high parts ``(p + sigma) - sigma`` are multiples of u = 2^(s-53) whose
    every partial sum stays within sigma, so ``ndarray.sum`` adds them
    exactly in any order, and the low parts are the exact remainders, each
    at most u in magnitude.  Their float sum is then off by less than
    2 n^2 2^-53 u.  When both ends of that bracket, added to the exact high
    sum, round to the same float, that float is the correctly rounded
    total, because rounding is monotone.  An array antisymmetric under
    reversal, as odd integrands on the symmetric rules give, sums to
    exactly zero.  A short array, and any other case (a near tie, a
    non-finite or out-of-range maximum), goes to ``expr.fsum_list``: the
    exact sum of finite terms, an infinity only beyond the float range, and
    the IEEE sum, NaN or an infinity, where a term is not finite.
    """
    n = p.shape[0]
    if n < _VECTOR_MIN:
        return expr.fsum_list(p.tolist())
    lo, hi = float(p.min()), float(p.max())
    mu = max(hi, -lo)
    if mu == 0.0:
        return 0.0
    s = math.frexp(mu)[1] + (2 * n).bit_length()
    if -math.inf < lo <= hi < math.inf and -900 <= s <= 1023:  # err normal, sigma finite
        sigma = math.ldexp(1.0, s)
        high = (p + sigma) - sigma
        total = float(high.sum())
        approx = float((p - high).sum())
        err = math.ldexp(2 * n * n, s - 106)
        down = total + math.nextafter(approx - err, -math.inf)
        if down == total + math.nextafter(approx + err, math.inf):
            return down + 0.0
        if not np.any(p + p[::-1]):
            return 0.0
    return expr.fsum_list(p.tolist())


def tensor_grid(axes) -> np.ndarray:
    """Every point of the product of 1-d coordinate arrays, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class QuadratureRule:
    """Nodes and weights of order q per axis, mapped affinely onto a box.

    ``axes`` holds each axis's nodes as a (q, 1) block and ``points`` their
    tensor grid, in the order of ``weights``.  The arrays are read-only, so
    callers can share one rule (see ``rule``).
    """

    def __init__(self, box: expr.Box, order: int):
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        if box.is_empty or not box.is_bounded:
            raise ValueError("quadrature requires a nonempty bounded box")
        self.box = box
        self.order = order
        x, w = _gauss_nodes(order)
        axes_pts, axes_wts = [], []
        for lo, hi in box.intervals:
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            axes_pts.append(mid + half * x)
            axes_wts.append(half * w)
        self.points = tensor_grid(axes_pts)
        wt = axes_wts[0]
        for aw in axes_wts[1:]:
            wt = np.multiply.outer(wt, aw)
        self.weights = wt.ravel()
        for a in (self.points, self.weights, *axes_pts):
            a.flags.writeable = False
        self.axes = tuple(a[:, None] for a in axes_pts)  # read-only views

    def integrate_values(self, values: np.ndarray) -> float:
        """The correctly rounded sum of ``weights * values`` (see fsum)."""
        return fsum(self.weights * values)


# A few boxes and orders are live at a time: one fibre box per term while a
# base function is evaluated point by point.  A 3-d fibre rule at order 64
# holds about 8 MB, so the cache keeps only the most recent few.
@lru_cache(maxsize=8)
def _cached_rule(box: expr.Box, order: int) -> QuadratureRule:
    return QuadratureRule(box, order)


def rule(box: expr.Box, order: int | None = None) -> QuadratureRule:
    """The shared, read-only rule on a box; None means DEFAULT_ORDER.

    An over-budget order or point count raises ExprError before any build.
    """
    order = DEFAULT_ORDER if order is None else order
    if order > MAX_ORDER:
        raise expr.ExprError(f"quadrature order {order} is over the budget of {MAX_ORDER}")
    if order ** box.dim > MAX_RULE_POINTS:
        raise expr.ExprError(f"{order}^{box.dim} quadrature points are over the budget "
                        f"of {MAX_RULE_POINTS}")
    return _cached_rule(box, order)


def integrate(f, box: expr.Box, order: int | None = None) -> float:
    """Integrate an Expr or callable over a box.

    Degenerate and empty boxes integrate to 0 by convention.  An Expr is
    evaluated on the rule's axes (``Expr.eval_grid``); callables must accept
    an (N, dim) array of points and return N values.
    """
    fn = (lambda r: f.eval_grid(r.axes)) if isinstance(f, expr.Expr) else lambda r: f(r.points)
    return float(integrate_rows(lambda i, j, r: np.asarray(fn(r), dtype=float)[None],
                                box, 1, order)[0])


def integrate_rows(values_fn, box: expr.Box, count: int,
                   order: int | None = None) -> np.ndarray:
    """The integrals over one box of ``count`` integrands at once.

    ``values_fn(i, j, rule)`` returns integrands i..j-1 at the rule's
    points, one row each; it is called on the blocks of ``row_blocks``.
    Each row is summed by ``integrate_values``, so every integral equals
    that of its integrand alone, bit for bit.  Degenerate and empty boxes
    give zeros.
    """
    out = np.zeros(count)
    if box.volume() == 0.0:
        return out
    r = rule(box, order)
    for i, j in row_blocks(count, r.points.shape[0]):
        out[i:j] = [r.integrate_values(v) for v in values_fn(i, j, r)]
    return out


def row_blocks(count: int, width: int):
    """(i, j) ranges covering ``range(count)`` in order, each of at least one
    row and of at most ``PAIR_BLOCK`` values at ``width`` values per row."""
    step = max(PAIR_BLOCK // width, 1)
    return zip(range(0, count, step), [*range(step, count, step), count])


def grid_key(a: np.ndarray) -> tuple:
    """An array's exact content as a key: shape, dtype and bytes.  Not its
    ``id`` (it may change in place), nor ``np.array_equal`` (-0.0 == 0.0)."""
    return a.shape, a.dtype.str, a.tobytes()


def kept(memo: dict, name: str, key, build):
    """The value ``build()``, kept with ``key`` as ``memo[name]`` and returned
    again, uncopied, while the stored key compares equal (``!=`` is false):
    the package's one last-entry cache.  Arrays, alone or in a tuple, are
    made read-only.  No lock: the entry is read once and replaced by one
    assignment, so racing threads build an equal value twice at worst."""
    entry = memo.get(name)  # read once: another thread may replace it
    if entry is None or entry[0] != key:
        entry = (key, build())
        for a in entry[1] if isinstance(entry[1], tuple) else entry[1:]:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        memo[name] = entry
    return entry[1]
