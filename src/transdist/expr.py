"""Symbolic scalar expressions on R^n, closed under exact differentiation.

The node vocabulary is deliberately small: exact rational constants, the
named constant pi, indexed coordinates, sums, products, integer powers,
exp, sin, cos, and a compactly supported bump primitive

    bump(t) = exp(-1/(1 - t^2))  for |t| < 1,   0 otherwise.

Derivatives of bump stay inside the class because every derivative has the
shape bump(t) * p(t) / (1 - t^2)^q with p a polynomial; the ``BumpRat``
node stores that shape and guards the whole product to 0 for |t| >= 1, so
evaluation is total and exactly zero outside the support.

Division is accepted by the surface grammar but desugared at construction:
a denominator must fold to a nonzero rational constant, which is absorbed
as an exact reciprocal factor.  There is therefore no quotient node that
could ever divide by zero.

Nodes are immutable and freely shared, so an expression is a DAG: the
derivative rules reuse the node being differentiated and its children, and
a high-order derivative has far fewer distinct nodes than its tree has
paths.  The code treats it as one.  ``diff1``, ``support_box`` and a
fibre function's extension to a bundle's total space are memoized on each
node, so ``D^alpha`` reuses ``D^(alpha - e_i)`` and asking again returns
the identical object.  Evaluation (scalar and array),
substitution and the bump-boundary scan walk a per-node plan
that lists every distinct node once, children first; ``interval`` keeps
a per-call memo.  Each node still applies the same float operation, in the
same order, to the same child values as a tree walk would, so results do
not depend on how much is shared.  The memos hold only values that are pure
functions of their node and die with it (so does the last fibre
integral that ``distribution.QuadPart.values`` keeps on an integrand
node); there is no intern table, so structurally equal nodes built
separately stay distinct objects.

Array evaluation is grid evaluation: ``eval_grid`` takes point blocks
whose columns broadcast along one axis each, so every node runs at the
broadcast shape of the coordinates it reads (``bump(x0)`` once per x0 on a
lattice), and ``eval_array`` is its one-block case.  Broadcasting repeats
operands but never changes an operation, so each grid entry equals the
``eval_array`` row of its point bit for bit.  Scalar evaluation is the
one-row case of array evaluation, bit for bit: ``e.evaluate(p)`` equals
every row of ``e.eval_array`` that holds p.  Both paths apply the same
IEEE operations per node: exp, sin and cos come from numpy's ufuncs on
floats and arrays alike, an integer power is one multiplication ladder,
and a sum of three or more terms is correctly rounded (``math.fsum``'s
value) on both, through ``quadrature.fsum_list`` and its row-wise form
``quadrature.row_fsum``.  A two-term sum is one IEEE addition, which is
already correctly rounded.  Where fsum would raise
(inf + -inf, or an overflow), both take the IEEE sum, so a sum is NaN or
infinite there rather than an error.  An array pass silences numpy's
overflow and invalid warnings once, around its whole walk of the plan, so
it is as quiet as the scalar path where a value saturates.  A product
builds its zero mask only from the factors that hold an exact zero, and
returns its IEEE product as it is when none does.

Expression equality is structural only in the trivial sense (identical
trees compare equal); semantic equality is always tested extensionally on
grids, since simplification beyond constant folding is out of scope.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from . import quadrature

MultiIndex = tuple  # tuple[int, ...], one derivative order per coordinate

_INF = float("inf")


class _memo:
    """``functools.cached_property`` without its lock.

    The value goes into the instance ``__dict__``, which then shadows this
    descriptor.  Python 3.11's ``cached_property`` takes one process-wide
    lock on every miss; the values memoized here are pure functions of an
    immutable node, so two threads that race only compute one twice, and
    ``setdefault`` makes the first write the one both of them see.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.fn(obj))


class ExprError(ValueError):
    """Base class for expression construction and evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class DimensionError(ExprError):
    pass


def order(alpha) -> int:
    """|alpha| of a multi-index."""
    return sum(alpha)


def check_multi_index(alpha, dim: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise DimensionError(f"multi-index length {len(alpha)} != ambient dimension {dim}")
    if any(a < 0 for a in alpha):
        raise ExprError(f"multi-index entries must be nonnegative: {alpha}")
    return alpha


def multi_indices_below(beta) -> list:
    """All gamma <= beta componentwise, lexicographically (first slot slowest)."""
    return list(itertools.product(*(range(b + 1) for b in beta)))


def multi_binomial(alpha, beta) -> int:
    """The multi-index binomial coefficient: the product of C(alpha_i, beta_i)."""
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def multi_indices_up_to(dim: int, m: int) -> list:
    """All multi-indices of length dim with |alpha| <= m, by order, then lexicographically."""
    out = []
    for total in range(m + 1):
        for alpha in itertools.product(range(total + 1), repeat=dim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals, possibly empty or infinite.

    ``intervals is None`` represents the empty set.  Individual bounds may
    be +-inf; ``is_bounded`` tells whether the box is compact.
    """

    dim: int
    intervals: tuple | None

    def __post_init__(self):
        if self.intervals is not None:
            if len(self.intervals) != self.dim:
                raise DimensionError("box interval count mismatched with dimension")
            for lo, hi in self.intervals:
                if not lo <= hi:
                    raise ExprError(f"invalid interval [{lo}, {hi}]")

    @classmethod
    def of(cls, intervals) -> "Box":
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        return cls(len(ivs), ivs)

    @classmethod
    @cache
    def empty(cls, dim: int) -> "Box":
        """The empty box of R^dim, one shared instance per dim."""
        return cls(dim, None)

    @classmethod
    @cache
    def whole(cls, dim: int) -> "Box":
        """R^dim as a box, one shared instance per dim."""
        return cls(dim, tuple((-_INF, _INF) for _ in range(dim)))

    @classmethod
    def cube(cls, radius: float, dim: int) -> "Box":
        return cls.of([(-radius, radius)] * dim)

    @property
    def is_empty(self) -> bool:
        return self.intervals is None

    @property
    def is_bounded(self) -> bool:
        if self.is_empty:
            return True
        return all(lo > -_INF and hi < _INF for lo, hi in self.intervals)

    def hull(self, other: "Box") -> "Box":
        if self.dim != other.dim:
            raise DimensionError("box dimensions differ")
        whole = Box.whole(self.dim).intervals
        if self.is_empty or other.intervals == whole:
            return other
        if other.is_empty or self.intervals in (other.intervals, whole):
            return self
        return Box(self.dim, tuple(
            (min(a[0], b[0]), max(a[1], b[1]))
            for a, b in zip(self.intervals, other.intervals)))

    def intersect(self, other: "Box") -> "Box":
        """The common part of two boxes.  An operand comes back as it is
        when the other one is the whole space or has the same intervals,
        which is the box the interval-by-interval loop would build:

        >>> a = Box.of([(0, 1), (-2, 2)])
        >>> a.intersect(Box.whole(2)) is a, Box.whole(2).intersect(a) is a
        (True, True)
        >>> a.intersect(Box.of([(0, 1), (-2, 2)])) is a
        True
        >>> a.intersect(Box.of([(2, 3), (0, 1)])).is_empty
        True
        """
        if self.dim != other.dim:
            raise DimensionError("box dimensions differ")
        if self.is_empty or other.is_empty:
            return Box.empty(self.dim)
        whole = Box.whole(self.dim).intervals
        if other.intervals in (self.intervals, whole):
            return self
        if self.intervals == whole:
            return other
        ivs = []
        for a, b in zip(self.intervals, other.intervals):
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo > hi:
                return Box.empty(self.dim)
            ivs.append((lo, hi))
        return Box(self.dim, tuple(ivs))

    def project(self, slots) -> "Box":
        slots = tuple(slots)
        if self.is_empty:
            return Box.empty(len(slots))
        return Box(len(slots), tuple(self.intervals[s] for s in slots))

    def times(self, other: "Box") -> "Box":
        if self.is_empty or other.is_empty:
            return Box.empty(self.dim + other.dim)
        return Box(self.dim + other.dim, self.intervals + other.intervals)

    def pad(self, margin: float) -> "Box":
        if self.is_empty:
            return self
        return Box(self.dim, tuple((lo - margin, hi + margin) for lo, hi in self.intervals))

    def volume(self) -> float:
        if self.is_empty:
            return 0.0
        v = 1.0
        for lo, hi in self.intervals:
            v *= hi - lo
        return v


# ---------------------------------------------------------------------------
# Polynomial helpers on coefficient tuples (low degree first, Fractions)


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_diff(a):
    return _poly_trim(a[i] * i for i in range(1, len(a)))


def _poly_eval_float(coeffs_float, u):
    acc = 0.0
    for c in reversed(coeffs_float):
        acc = acc * u + c
    return acc


# ---------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True)
class Expr:
    dim: int

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point) -> float:
        return _values_at(self._plan, self, _float_point(point, self.dim))[-1]

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, dim) array of points, returning shape (N,)."""
        return self.eval_grid((pts,))

    def eval_grid(self, blocks) -> np.ndarray:
        """The value at every combination of rows of (n_i, d_i) point blocks
        whose widths sum to ``dim``, in C order with the first block slowest
        (as ``quadrature.tensor_grid`` orders them).
        Block i's columns broadcast along axis i, so each node runs at the
        shape of the blocks it reads: a factor of x0 alone runs n_0 times."""
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        if any(b.ndim != 2 for b in blocks) or sum(b.shape[1] for b in blocks) != self.dim:
            raise DimensionError(f"expected point blocks of total width {self.dim}")
        ones = (1,) * len(blocks)
        cols = [np.ascontiguousarray(c).reshape(ones[:i] + (-1,) + ones[i + 1:])
                for i, b in enumerate(blocks) for c in b.T]
        value = _values_over(self._plan, self, cols)[-1]
        shape = tuple(b.shape[0] for b in blocks)
        if np.shape(value) == shape and self._children():
            return value.reshape(-1)  # this pass's own array; a leaf's may be a caller's column
        return np.broadcast_to(value, shape).flatten()

    def _eval(self, point, vals, args):
        """This node's value; its children's values are ``vals[i] for i in args``."""
        raise NotImplementedError

    def _eval_arr(self, cols, vals, args):
        """This node's value over broadcast coordinate columns ``cols``."""
        raise NotImplementedError

    def _jet(self, jets, vals, args):
        """This node's Taylor coefficients, a ``_Jets`` array (see ``taylor``)."""
        raise NotImplementedError

    @_memo
    def _plan(self) -> tuple:
        """Every distinct node of this DAG once, children before parents.

        Entries are ``(node, args, dead)``: ``args`` are the plan positions
        of the node's children and ``dead`` the positions it reads last.
        The root comes last, with ``None`` for its node, so that the plan
        does not keep its own node alive through a reference cycle.  Passes
        that walk the plan handle a node shared by many paths once, where a
        recursive pass would expand the DAG into its tree.
        """
        nodes, args, at = _number((self,))
        nodes[-1] = None
        return tuple(zip(nodes, args, _dead(args, at)))

    # -- calculus -----------------------------------------------------------

    def diff1(self, slot: int) -> "Expr":
        """d/dx_slot, memoized on the node."""
        memo = self._derivatives
        d = memo.get(slot)
        if d is None:
            d = memo.setdefault(slot, self._diff1(slot))
        return d

    @_memo
    def _derivatives(self) -> dict:
        return {}

    @_memo
    def _extensions(self) -> dict:
        """``bundle.extend_function`` of this fibre function, by bundle."""
        return {}

    def _diff1(self, slot):
        raise NotImplementedError

    def diff(self, alpha) -> "Expr":
        """Exact mixed partial derivative D^alpha, one ``diff1`` per order.

        ``diff1`` is memoized on every node, so D^alpha reuses
        D^(alpha - e_i), and asking again returns the identical object:

        >>> e = parse("bump(x0)*exp(sin(x0))", 1)
        >>> e.diff((3,)) is e.diff((3,))
        True
        >>> e.diff((3,)) is e.diff((2,)).diff1(0)
        True
        """
        alpha = check_multi_index(alpha, self.dim)
        out = self
        for slot, n in enumerate(alpha):
            for _ in range(n):
                out = out.diff1(slot)
        return out

    def substitute(self, images, dim: int | None = None) -> "Expr":
        """This expression with coordinates replaced, as an expression on R^dim.

        ``images`` maps slots to expressions on R^dim, or to an int t for
        coordinate t of R^dim under the replaced variable's own name.
        ``dim`` defaults to this expression's ambient; under a change of
        ambient every free slot needs an image, and constants move along.
        The DAG is rebuilt once, whatever the images:

        >>> e = parse("x0*y0 + 1", 2, base_dim=1)
        >>> print(e.substitute({0: parse("x0^2", 2)}))
        x0^2*y0 + 1
        >>> f = e.substitute({0: const(3, 1), 1: 0}, dim=1)
        >>> f.dim, str(f)
        (1, '3*y0 + 1')
        """
        dim = self.dim if dim is None else dim
        missing = sorted(self.free_slots - set(images)) if dim != self.dim else None
        if missing:
            raise DimensionError(f"substitution into R^{dim} misses slots {missing}")
        for slot, image in images.items():
            if not 0 <= slot < self.dim:
                raise DimensionError(f"substituted slot {slot} outside ambient {self.dim}")
            if isinstance(image, Expr) and image.dim != dim:
                raise DimensionError(
                    f"replacement for slot {slot} has ambient {image.dim}, expected {dim}")
            if not isinstance(image, Expr) and not 0 <= image < dim:
                raise DimensionError(f"slot {slot} sent to {image}, outside ambient {dim}")

        def leaf_fn(leaf):
            if isinstance(leaf, Var):
                image = images.get(leaf.slot, leaf)
                return image if isinstance(image, Expr) else Var(dim, image, leaf.name)
            return leaf if dim == self.dim else replace(leaf, dim=dim)

        return self._map_leaves(leaf_fn)

    def _map_leaves(self, leaf_fn) -> "Expr":
        """Rebuild the DAG bottom-up with each leaf replaced by leaf_fn(leaf)."""
        out = []
        for node, args, _ in self._plan:
            node = node or self
            out.append(node._rebuild([out[i] for i in args]) if args else leaf_fn(node))
        return out[-1]

    def _rebuild(self, args):
        """This interior node over new children, through the smart constructor."""
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    @_memo
    def free_slots(self) -> frozenset:
        return frozenset().union(*(c.free_slots for c in self._children()))

    @_memo
    def _affine(self):
        """``as_affine(self)``, shared by every bump of this argument."""
        return as_affine(self)

    def support_box(self) -> Box:
        """A box outside of which the expression is identically zero.

        Conservative: may overestimate the support, never underestimates.
        Unbounded directions are reported as infinite intervals.  Memoized
        on the node.
        """
        return self._support_box

    @_memo
    def _support_box(self) -> Box:
        return self._support()

    def _support(self) -> Box:
        return Box.whole(self.dim)

    def interval(self, box: Box):
        """Crude interval enclosure of the range over a box (outward rounded)."""
        if box.dim != self.dim:
            raise DimensionError("box dimension mismatched with expression")
        if box.is_empty:
            return (0.0, 0.0)
        return self._iv(box, {})

    def _iv(self, box, memo):
        """This node's interval, computed once per ``interval`` call."""
        iv = memo.get(id(self))
        if iv is None:
            iv = memo[id(self)] = self._interval(box, memo)
        return iv

    def _interval(self, box, memo):
        raise NotImplementedError

    def bump_boundary_distance(self, point) -> float:
        """Distance of the point to the nearest bump transition |arg| = 1.

        Used to exclude evaluation points where finite differences of bump
        expressions degrade; returns inf when no bump node is present.
        """
        nodes = [node or self for node, _, _ in self._plan]
        bump_args = {id(n.arg): n.arg for n in nodes if isinstance(n, BumpRat)}
        d = _INF
        for arg in bump_args.values():
            u = arg.evaluate(point)
            d = min(d, abs(abs(u) - 1.0))
        return d

    def _children(self):
        return ()

    def __str__(self):
        return self._text(0)

    def _text(self, prec: int) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    @_memo
    def _float(self):
        return float(self.value)

    def _eval(self, point, vals, args):
        return self._float

    def _eval_arr(self, cols, vals, args):
        return self._float

    def _jet(self, jets, vals, args):
        return jets.const(self._float)

    def _diff1(self, slot):
        return Const(self.dim, Fraction(0))

    def _support(self):
        return Box.empty(self.dim) if self.value == 0 else Box.whole(self.dim)

    def _interval(self, box, memo):
        return (self._float, self._float)

    def _text(self, prec):
        v = self.value
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            s = f"{v.numerator}/{v.denominator}"
        if v < 0 and prec > 0:
            return f"({s})"
        return s


@dataclass(frozen=True)
class NamedConst(Expr):
    name: str  # only "pi" currently

    @_memo
    def _float(self):
        return math.pi

    def _eval(self, point, vals, args):
        return self._float

    def _eval_arr(self, cols, vals, args):
        return self._float

    def _jet(self, jets, vals, args):
        return jets.const(self._float)

    def _diff1(self, slot):
        return Const(self.dim, Fraction(0))

    def _interval(self, box, memo):
        return _round_out(self._float, self._float)

    def _text(self, prec):
        return self.name


@dataclass(frozen=True)
class Var(Expr):
    slot: int
    name: str

    def __post_init__(self):
        if not 0 <= self.slot < self.dim:
            raise DimensionError(f"variable slot {self.slot} outside ambient {self.dim}")

    def _eval(self, point, vals, args):
        return point[self.slot]

    def _eval_arr(self, cols, vals, args):
        return cols[self.slot]

    def _jet(self, jets, vals, args):
        return jets.var(self.slot)

    def _diff1(self, slot):
        return Const(self.dim, Fraction(1 if slot == self.slot else 0))

    @_memo
    def free_slots(self) -> frozenset:
        return frozenset((self.slot,))

    def _interval(self, box, memo):
        return box.intervals[self.slot]

    def _text(self, prec):
        return self.name


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def _eval(self, point, vals, args):
        if len(args) == 2:
            return 0.0 + vals[args[0]] + vals[args[1]]
        return quadrature.fsum_list([vals[i] for i in args])

    def _eval_arr(self, cols, vals, args):
        if len(args) == 2:
            return 0.0 + vals[args[0]] + vals[args[1]]
        return quadrature.row_fsum([vals[i] for i in args])

    _jet = _eval_arr  # coefficients add as values do

    def _diff1(self, slot):
        return add(*(t.diff1(slot) for t in self.terms))

    def _rebuild(self, args):
        return add(*args)

    def _support(self):
        box = Box.empty(self.dim)
        for t in self.terms:
            box = box.hull(t.support_box())
        return box

    def _interval(self, box, memo):
        lo, hi = 0.0, 0.0
        for t in self.terms:
            a, b = t._iv(box, memo)
            lo, hi = lo + a, hi + b
        return _round_out(lo, hi)

    def _children(self):
        return self.terms

    def _text(self, prec):
        parts = [self.terms[0]._text(1)]
        for t in self.terms[1:]:
            sign, mag = _split_sign(t)
            parts.append(f" - {mag._text(1)}" if sign < 0 else f" + {mag._text(1)}")
        s = "".join(parts)
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple

    def _eval(self, point, vals, args):
        acc, zero = 1.0, False
        for i in args:
            v = vals[i]
            zero = zero or v == 0.0
            acc *= v
        # exact zero factors annihilate, even alongside overflowed ones
        return 0.0 if zero else acc

    def _eval_arr(self, cols, vals, args):
        # an exact zero factor annihilates, even where another is inf (inf * 0
        # is NaN); only a factor holding a +-0 (``all()`` false) joins the mask
        acc, zero = 1.0, False
        for i in args:
            v = vals[i]
            acc = acc * v
            if not (v.all() if isinstance(v, np.ndarray) else v):
                zero = zero | (v == 0.0)
        return acc if zero is False else np.where(zero, 0.0, acc)

    def _jet(self, jets, vals, args):
        return reduce(jets.mul, [vals[i] for i in args])

    def _diff1(self, slot):
        # Term i is mul(*fs[:i], fs[i].diff1(slot), *fs[i + 1:]), spliced: mul
        # leaves at most one Const in a product, first, so the only constants
        # to fold are fs[0] and the derivative's leading one.  A factor free
        # of the slot differentiates to 0, which mul would fold away.
        fs = self.factors
        start = 1 if isinstance(fs[0], Const) else 0
        terms = []
        for i, f in enumerate(fs):
            if slot in f.free_slots:
                d = f.diff1(slot)
                ds = d.factors if isinstance(d, Product) else (d,)
                lead = 1 if isinstance(ds[0], Const) else 0
                terms.append(_product(self.dim, [*fs[start:i], *ds[lead:], *fs[i + 1:]],
                                      [*fs[:start], *ds[:lead]]))
        return add(*terms) if terms else Const(self.dim, Fraction(0))

    def _rebuild(self, args):
        return mul(*args)

    def _support(self):
        box = Box.whole(self.dim)
        for f in self.factors:
            box = box.intersect(f.support_box())
            if box.is_empty:
                break
        return box

    def _interval(self, box, memo):
        lo, hi = 1.0, 1.0
        for f in self.factors:
            a, b = f._iv(box, memo)
            cands = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(cands), max(cands)
        return _round_out(lo, hi)

    def _children(self):
        return self.factors

    def _text(self, prec):
        s = "*".join(f._text(2) for f in self.factors)
        return f"({s})" if prec > 2 else s


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    exponent: int

    def _eval(self, point, vals, args):
        return _power(vals[args[0]], self.exponent)

    def _eval_arr(self, cols, vals, args):
        return _power(vals[args[0]], self.exponent)

    def _jet(self, jets, vals, args):
        return _power(vals[args[0]], self.exponent, jets.mul)

    def _diff1(self, slot):
        n = self.exponent
        return mul(const(n, self.dim), int_pow(self.base, n - 1), self.base.diff1(slot))

    def _rebuild(self, args):
        return int_pow(args[0], self.exponent)

    def _support(self):
        return self.base.support_box()

    def _interval(self, box, memo):
        a, b = self.base._iv(box, memo)
        n = self.exponent
        if n % 2 == 1:
            return _round_out(a**n, b**n)
        hi = max(a**n, b**n)
        lo = 0.0 if a <= 0.0 <= b else min(a**n, b**n)
        return _round_out(lo, hi)

    def _children(self):
        return (self.base,)

    def _text(self, prec):
        return f"{self.base._text(3)}^{self.exponent}"


def _power(v, n: int, times=operator.mul):
    """v**n by binary powering: the same multiplications on a float or an
    array, or the same ``times`` products on a jet."""
    out = None
    while True:
        if n & 1:
            out = v if out is None else times(out, v)
        n >>= 1
        if not n:
            return out
        v = times(v, v)


class _Unary(Expr):
    _np_fn = None  # a numpy ufunc, applied to floats and arrays alike
    _name = ""

    def _eval(self, point, vals, args):
        u = vals[args[0]]
        if abs(u) < 709.0:  # nothing overflows, nothing is invalid
            return float(type(self)._np_fn(u))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(type(self)._np_fn(u))

    def _eval_arr(self, cols, vals, args):
        return type(self)._np_fn(vals[args[0]])

    def _rebuild(self, args):
        return type(self)(args[0].dim, args[0])

    def _children(self):
        return (self.arg,)

    def _text(self, prec):
        return f"{self._name}({self.arg._text(0)})"


def _exp_or_inf(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return _INF


@dataclass(frozen=True)
class Exp(_Unary):
    arg: Expr
    _np_fn = np.exp
    _name = "exp"

    def _jet(self, jets, vals, args):
        return jets.exp(vals[args[0]])

    def _diff1(self, slot):
        return mul(self, self.arg.diff1(slot))

    def _interval(self, box, memo):
        a, b = self.arg._iv(box, memo)
        return _round_out(_exp_or_inf(a), _exp_or_inf(b))


@dataclass(frozen=True)
class Sin(_Unary):
    arg: Expr
    _np_fn = np.sin
    _name = "sin"

    def _jet(self, jets, vals, args):
        return jets.sin_cos(vals[args[0]])[0]

    def _diff1(self, slot):
        return mul(Cos(self.dim, self.arg), self.arg.diff1(slot))

    def _interval(self, box, memo):
        return (-1.0, 1.0)


@dataclass(frozen=True)
class Cos(_Unary):
    arg: Expr
    _np_fn = np.cos
    _name = "cos"

    def _jet(self, jets, vals, args):
        return jets.sin_cos(vals[args[0]])[1]

    def _diff1(self, slot):
        return mul(const(-1, self.dim), Sin(self.dim, self.arg), self.arg.diff1(slot))

    def _interval(self, box, memo):
        return (-1.0, 1.0)


@dataclass(frozen=True)
class BumpRat(Expr):
    """bump(u) * p(u) / (1 - u^2)^q at u = arg, guarded to 0 for |u| >= 1."""

    arg: Expr
    coeffs: tuple  # polynomial p, Fractions, low degree first
    pole_order: int  # q

    @_memo
    def _coeffs_float(self):
        return tuple(float(c) for c in self.coeffs)

    def _eval(self, point, vals, args):
        u = vals[args[0]]
        if abs(u) >= 1.0:
            return 0.0
        s = 1.0 - u * u
        r = float(np.exp(-1.0 / s))
        for _ in range(self.pole_order):
            r /= s
        return r * _poly_eval_float(self._coeffs_float, u)

    def _eval_arr(self, cols, vals, args):
        u = vals[args[0]]
        inside = ~(np.abs(u) >= 1.0)  # a NaN argument stays NaN, as on floats
        s = np.where(inside, 1.0 - u * u, 1.0)
        r = np.exp(-1.0 / s)
        for _ in range(self.pole_order):
            r = r / s
        if self._coeffs_float == (1.0,):  # p(u) = 0.0 * u + 1.0 is 1.0 inside
            return np.where(inside, r, 0.0)
        p = 0.0
        for c in reversed(self._coeffs_float):
            p = p * u + c
        return np.where(inside, r * p, 0.0)

    def _jet(self, jets, vals, args):
        # the steps of _eval_arr on jets, with 1/s by the reciprocal recurrence
        u = vals[args[0]]
        inside = ~(np.abs(u[0]) >= 1.0)
        u = np.where(inside, u, 0.0)
        s = -jets.mul(u, u)
        s[0] += 1.0
        r = jets.exp(-jets.div(jets.const(1.0), s))
        for _ in range(self.pole_order):
            r = jets.div(r, s)
        coeffs = self._coeffs_float
        p = jets.const(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            p = jets.mul(p, u)
            p[0] += c
        return np.where(inside, jets.mul(r, p), 0.0)

    def _diff1(self, slot):
        # d/du [bump(u) p(u) (1-u^2)^-q]
        #   = bump(u) [p'(u)(1-u^2)^2 - 2u p(u) + 2qu(1-u^2)p(u)] (1-u^2)^-(q+2)
        p = self.coeffs
        one_minus_u2 = (Fraction(1), Fraction(0), Fraction(-1))
        term1 = _poly_mul(_poly_diff(p), _poly_mul(one_minus_u2, one_minus_u2))
        term2 = _poly_mul((Fraction(0), Fraction(-2)), p)
        term3 = _poly_mul((Fraction(0), Fraction(2 * self.pole_order)),
                          _poly_mul(one_minus_u2, p))
        ptilde = _poly_add(_poly_add(term1, term2), term3)
        dself = bump_rat(self.arg, ptilde, self.pole_order + 2)
        return mul(dself, self.arg.diff1(slot))

    def _rebuild(self, args):
        return bump_rat(args[0], self.coeffs, self.pole_order)

    def _support(self):
        if not self.coeffs:
            return Box.empty(self.dim)
        affine = self.arg._affine
        if affine is not None:
            slots = [s for s in affine if s >= 0 and affine[s] != 0]
            if len(slots) == 1:
                s = slots[0]
                a, b = affine[s], affine.get(-1, Fraction(0))
                lo, hi = sorted(((-1 - b) / a, (1 - b) / a))
                ivs = [(-_INF, _INF)] * self.dim
                ivs[s] = (float(lo), float(hi))
                return Box(self.dim, tuple(ivs))
        return Box.whole(self.dim)

    def _interval(self, box, memo):
        a, b = self.arg._iv(box, memo)
        if b <= -1.0 or a >= 1.0:
            return (0.0, 0.0)
        # |p(u)| <= sum |c| for |u| < 1, and exp(-1/s) / s^q peaks at s = 1
        # (q = 0) or s = 1/q.  In floats e and q / e are rounded (an error
        # the power multiplies by q), and so are exp or pow, the sum and both
        # products: under 2q + 7 units of roundoff in all.  Widen by 4q + 8.
        q = self.pole_order
        envelope = math.exp(-1.0) if q == 0 else (q / math.e) ** q
        m = float(sum(map(abs, self.coeffs))) * envelope * (1.0 + (q + 2) * 2.0 ** -51)
        m = math.nextafter(m, _INF)
        return (-m, m)

    def _children(self):
        return (self.arg,)

    def _text(self, prec):
        if self.coeffs == (Fraction(1),) and self.pole_order == 0:
            return f"bump({self.arg._text(0)})"
        # debug form: not part of the surface grammar
        poly = " + ".join(f"{c}*u^{i}" for i, c in enumerate(self.coeffs) if c != 0)
        return f"bumprat({self.arg._text(0)}; {poly or '0'}; {self.pole_order})"


_ARRAY_MIN_ROWS = 32  # evaluate_many's crossover; see there


def evaluate_many(roots, points) -> np.ndarray:
    """``[[r.evaluate(p) for p in points] for r in roots]`` as an array, for
    an (M, dim) array or a sequence of points, over one plan: the union of
    the roots' DAGs, numbered once, so the nodes they share are listed once
    (a lone root's is its memoized ``_plan``).

    Under ``_ARRAY_MIN_ROWS`` points each point runs through the nodes'
    scalar ``_eval``, from there up one ``_eval_arr`` pass takes them all;
    the two cost the same at about 6 points on a 7-node weight, 26 on a
    93-node table of derivatives and 30 on a 246-node one.  Either way every
    entry equals ``r.evaluate(p)`` bit for bit:

    >>> e = parse("x0*exp(x0)", 1)
    >>> evaluate_many([e, e.diff1(0)], [(0.0,), (1.0,)]).tolist()
    [[0.0, 2.718281828459045], [1.0, 5.43656365691809]]
    """
    roots = tuple(roots)
    if not roots:
        return np.empty((0, len(points)))
    dim = roots[0].dim
    if any(r.dim != dim for r in roots):
        raise DimensionError("roots over mixed ambient dimensions")
    X = (points.astype(float, copy=False) if isinstance(points, np.ndarray)
         else np.array([_float_point(p, dim) for p in points], dtype=float).reshape(-1, dim))
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionError(f"point has {X.shape[-1]} coordinates, ambient is {dim}")
    scalar = X.shape[0] < _ARRAY_MIN_ROWS
    if len(roots) == 1:
        root, plan = roots[0], roots[0]._plan
        at = [len(plan) - 1]
    else:
        root, (nodes, args, at) = None, _number(roots)
        plan = tuple(zip(nodes, args, itertools.repeat(()) if scalar else _dead(args, at)))
    out = np.empty((len(roots), X.shape[0]))
    if scalar:
        for m, point in enumerate(X.tolist()):
            vals = _values_at(plan, root, tuple(point))
            out[:, m] = [vals[i] for i in at]
    else:
        vals = _values_over(plan, root, [np.ascontiguousarray(c) for c in X.T])
        for row, i in zip(out, at):
            row[:] = vals[i]
    return out


def taylor(e: Expr, X, order: int) -> np.ndarray:
    """The Taylor coefficients D^alpha e / alpha! at every row of an (M, dim)
    array, for every alpha of ``multi_indices_up_to(e.dim, order)`` in that
    order, as one (n_alpha, M) array.

    Truncated Taylor arithmetic (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 13): one ``_jet`` pass over the
    plan, children first, so no derivative DAG is built and a shared node
    is expanded once.  Products are Cauchy products; exp, sin and cos, and
    the 1/s of a ``BumpRat``, follow the standard recurrences.  A
    coefficient product with an exactly zero factor is +0.0, as in
    ``Product._eval``, so a weight whose jet vanishes at a row zeroes the
    product's jet there whatever the other factor holds; a ``BumpRat``'s jet
    is 0 where its argument has |u| >= 1, and a NaN argument stays NaN.
    Coefficient times alpha! equals ``e.diff(alpha).evaluate(x)`` to
    rounding, not bit for bit:

    >>> e = parse("x0*exp(x0)", 1)
    >>> taylor(e, [[0.0], [1.0]], 2).tolist()
    [[0.0, 2.718281828459045], [1.0, 5.43656365691809], [1.0, 4.077422742688568]]
    >>> e.diff((2,)).evaluate((1.0,)) / 2
    4.077422742688568
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.dim:
        raise DimensionError(f"expected points of shape (M, {e.dim})")
    if order < 0:
        raise ExprError(f"Taylor order must be nonnegative, got {order}")
    jets = _Jets(X, order)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        return _values_over(e._plan, e, jets, "_jet")[-1]


def _times(a, b):
    """a * b, +0.0 wherever a factor is exactly zero (``Product._eval``)."""
    product = a * b
    product[(a == 0.0) | (b == 0.0)] = 0.0
    return product


class _Jets:
    """The multi-index tables of one ``taylor`` call and the arithmetic of
    its jets: (n_alpha, M) arrays whose row k holds the coefficient of
    ``alphas[k]`` at every point."""

    def __init__(self, X, order: int):
        self.X = X
        alphas = multi_indices_up_to(X.shape[1], order)
        self.shape = (len(alphas), X.shape[0])
        index = {a: k for k, a in enumerate(alphas)}
        self.unit = {a.index(1): k for a, k in index.items() if sum(a) == 1}
        # per alpha, each (beta, alpha - beta) pair with beta <= alpha
        pairs = [[(index[b], index[tuple(map(operator.sub, a, b))])
                  for b in multi_indices_below(a)] for a in alphas]
        self.left, self.right = map(np.array, zip(*itertools.chain(*pairs)))
        self.starts = np.cumsum([0] + [len(p) for p in pairs[:-1]])
        # per alpha != 0: the pairs with beta != 0 (the reciprocal), and
        # those with beta_s > 0 for the first slot s that alpha_s > 0, each
        # weighted beta_s / alpha_s (d/dx_s h = h' du/dx_s of exp, sin, cos)
        self.nonzero, self.along = [], []
        for a, ps in zip(alphas[1:], pairs[1:]):
            s = next(i for i, n in enumerate(a) if n)
            self.nonzero.append(tuple(map(np.array, zip(*ps[1:]))))
            ps = [(i, j) for i, j in ps if alphas[i][s]]
            w = np.array([[alphas[i][s] / a[s]] for i, _ in ps])
            self.along.append((*map(np.array, zip(*ps)), w))

    def const(self, value: float) -> np.ndarray:
        jet = np.zeros(self.shape)
        jet[0] = value
        return jet

    def var(self, slot: int) -> np.ndarray:
        jet = self.const(self.X[:, slot])
        if slot in self.unit:
            jet[self.unit[slot]] = 1.0
        return jet

    def mul(self, f, g) -> np.ndarray:
        """The Cauchy product: coefficient alpha sums f_beta g_(alpha - beta)."""
        return np.add.reduceat(_times(f[self.left], g[self.right]), self.starts, axis=0)

    def div(self, f, g) -> np.ndarray:
        """f / g, each coefficient solved from g * (f / g) = f; an exactly
        zero one stays +0.0 even where g_0 is 0 or NaN."""
        q = np.empty(self.shape)
        q[0] = f[0] / g[0]
        for k, (b, rest) in enumerate(self.nonzero, 1):
            top = f[k] - _times(g[b], q[rest]).sum(axis=0)
            q[k] = np.where(top == 0.0, 0.0, top / g[0])
        return q

    def exp(self, u) -> np.ndarray:
        h = np.empty(self.shape)
        h[0] = np.exp(u[0])
        for k, (b, rest, w) in enumerate(self.along, 1):
            h[k] = _times(w * u[b], h[rest]).sum(axis=0)
        return h

    def sin_cos(self, u):
        s, c = np.empty(self.shape), np.empty(self.shape)
        s[0], c[0] = np.sin(u[0]), np.cos(u[0])
        for k, (b, rest, w) in enumerate(self.along, 1):
            du = w * u[b]
            s[k] = _times(du, c[rest]).sum(axis=0)
            c[k] = -_times(du, s[rest]).sum(axis=0)
        return s, c


def _float_point(point, dim: int) -> tuple:
    if len(point) != dim:
        raise DimensionError(f"point has {len(point)} coordinates, ambient is {dim}")
    return tuple(float(c) for c in point)


def _values_at(plan, root, point) -> list:
    """The value of every plan entry at a point of floats, children first;
    a ``None`` node stands for ``root``."""
    vals = []
    append = vals.append
    for node, args, _ in plan:
        append((node or root)._eval(point, vals, args))
    return vals


def _values_over(plan, root, cols, method="_eval_arr") -> list:
    """``_values_at`` over contiguous coordinate columns (numpy's exp on a
    reversed one can differ in the last bit), each value dropped after its
    last consumer; ``taylor`` passes its ``_Jets`` and ``"_jet"`` instead."""
    vals = []
    append = vals.append
    with np.errstate(over="ignore", invalid="ignore"):
        for node, args, dead in plan:
            append(getattr(node or root, method)(cols, vals, args))
            for i in dead:
                vals[i] = None
    return vals


def _dead(args, roots):
    """For each plan position, the positions it is the last to read, so
    their values can be dropped after it runs; never a root's."""
    last = [None] * len(args)
    for pos, kids in enumerate(args):
        for i in kids:
            last[i] = pos
    for i in roots:
        last[i] = None
    dead = [[] for _ in args]
    for i, pos in enumerate(last):
        if pos is not None:
            dead[pos].append(i)
    return map(tuple, dead)


def _number(roots):
    """Number every distinct node of the roots' DAGs once, children first:
    the nodes in that order, their children's positions, each root's position."""
    index, nodes, args = {}, [], []
    at = [index[id(r)] if id(r) in index else _number_nodes(r, index, nodes, args)
          for r in roots]
    return nodes, args, at


def _number_nodes(node, index, nodes, args) -> int:
    """Number a node not yet in ``index`` after its children (``_number``)."""
    kids = []
    for k in node._children():
        pos = index.get(id(k))
        kids.append(_number_nodes(k, index, nodes, args) if pos is None else pos)
    pos = index[id(node)] = len(nodes)
    nodes.append(node)
    args.append(tuple(kids))
    return pos


def _round_out(lo: float, hi: float):
    return (math.nextafter(lo, -_INF), math.nextafter(hi, _INF))


def _split_sign(e: Expr):
    """Split off a leading minus sign for printing purposes."""
    if isinstance(e, Const) and e.value < 0:
        return -1, Const(e.dim, -e.value)
    if isinstance(e, Product):
        f0 = e.factors[0]
        if isinstance(f0, Const) and f0.value < 0:
            if f0.value == -1 and len(e.factors) > 1:
                return -1, mul(*e.factors[1:])
            return -1, mul(Const(e.dim, -f0.value), *e.factors[1:])
    return 1, e


# ---------------------------------------------------------------------------
# Smart constructors (the only supported way to build nodes)


def const(value, dim: int) -> Expr:
    if isinstance(value, float) and not value.is_integer():
        value = Fraction(value)  # exact binary value
    return Const(dim, Fraction(value))


def var(slot: int, dim: int, name: str | None = None) -> Expr:
    return Var(dim, slot, name if name is not None else f"x{slot}")


def pi(dim: int) -> Expr:
    return NamedConst(dim, "pi")


def add(*terms) -> Expr:
    if not terms:
        raise ExprError("empty sum")
    dim = terms[0].dim
    flat, consts = [], []
    for t in terms:
        if t.dim != dim:
            raise DimensionError("sum over mixed ambient dimensions")
        for item in t.terms if isinstance(t, Sum) else (t,):
            (consts if isinstance(item, Const) else flat).append(item)
    if consts:
        c = _fold(consts, operator.add, dim)
        if c.value != 0 or not flat:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return Sum(dim, tuple(flat))


def neg(e: Expr) -> Expr:
    return mul(const(-1, e.dim), e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(*factors) -> Expr:
    if not factors:
        raise ExprError("empty product")
    dim = factors[0].dim
    flat, consts = [], []
    for f in factors:
        if f.dim != dim:
            raise DimensionError("product over mixed ambient dimensions")
        for item in f.factors if isinstance(f, Product) else (f,):
            (consts if isinstance(item, Const) else flat).append(item)
    return _product(dim, flat, consts)


def _product(dim: int, flat: list, consts: list) -> Expr:
    """``mul``'s node for its non-constant factors ``flat`` and its constants."""
    if consts:
        c = _fold(consts, operator.mul, dim)
        if c.value == 0:
            return c
        if c.value != 1 or not flat:
            flat.insert(0, c)
    if len(flat) == 1:
        return flat[0]
    return Product(dim, tuple(flat))


def _fold(consts, fold, dim: int) -> Const:
    """The constants of a sum or product as one ``Const``; a lone one is reused.
    The fold starts from the first value: an int seed would take Fraction's
    slow reflected operators."""
    return consts[0] if len(consts) == 1 else Const(dim, reduce(fold, [c.value for c in consts]))


def div(num: Expr, den: Expr) -> Expr:
    c = constant_value(den)
    if c is None:
        raise ExprError("denominator must fold to a constant (nonvanishing by construction)")
    if c == 0:
        raise ExprError("division by zero constant")
    return mul(Const(num.dim, 1 / c), num)


def int_pow(base: Expr, n) -> Expr:
    if not isinstance(n, int):
        raise ExprError(f"exponents must be integers, got {n!r}")
    c = constant_value(base)
    if c is not None:
        if n < 0 and c == 0:
            raise ExprError("zero raised to a negative power")
        return Const(base.dim, c ** n)
    if n < 0:
        raise ExprError("negative powers require a nonzero constant base")
    if n == 0:
        return Const(base.dim, Fraction(1))
    if n == 1:
        return base
    if isinstance(base, IntPow):
        return IntPow(base.dim, base.base, base.exponent * n)
    return IntPow(base.dim, base, n)


def exp(arg: Expr) -> Expr:
    return Exp(arg.dim, arg)


def sin(arg: Expr) -> Expr:
    return Sin(arg.dim, arg)


def cos(arg: Expr) -> Expr:
    return Cos(arg.dim, arg)


def bump(arg: Expr) -> Expr:
    return bump_rat(arg, (Fraction(1),), 0)


def bump_rat(arg: Expr, coeffs, pole_order: int) -> Expr:
    coeffs = _poly_trim(Fraction(c) for c in coeffs)
    if not coeffs:
        return Const(arg.dim, Fraction(0))
    c = constant_value(arg)
    if c is not None and abs(c) >= 1:
        return Const(arg.dim, Fraction(0))
    return BumpRat(arg.dim, arg, coeffs, pole_order)


def constant_value(e: Expr):
    """The exact rational value of a constant expression, else None."""
    if isinstance(e, Const):
        return e.value
    return None


# ---------------------------------------------------------------------------
# Polynomial view (used by Hadamard factorization)


def as_affine(e: Expr):
    """Write e as sum of coeff * x_slot plus constant; None if not affine.

    Returned dict maps slot -> Fraction coefficient, with key -1 for the
    constant term.
    """
    p = as_polynomial(e)
    if p is None:
        return None
    out = {}
    for mono, c in p.items():
        if order(mono) == 0:
            out[-1] = out.get(-1, Fraction(0)) + c
        elif order(mono) == 1:
            slot = mono.index(1)
            out[slot] = out.get(slot, Fraction(0)) + c
        else:
            return None
    return out


def as_polynomial(e: Expr):
    """Exact dict {exponent tuple: Fraction} for polynomial expressions, else None."""
    if isinstance(e, Const):
        return {(0,) * e.dim: e.value} if e.value != 0 else {}
    if isinstance(e, Var):
        mono = tuple(1 if i == e.slot else 0 for i in range(e.dim))
        return {mono: Fraction(1)}
    if isinstance(e, Sum):
        out = {}
        for t in e.terms:
            p = as_polynomial(t)
            if p is None:
                return None
            for mono, c in p.items():
                out[mono] = out.get(mono, Fraction(0)) + c
        return {m: c for m, c in out.items() if c != 0}
    if isinstance(e, (Product, IntPow)):
        power = 1 if isinstance(e, Product) else e.exponent
        out = {(0,) * e.dim: Fraction(1)}
        for f in e._children():
            p = as_polynomial(f)
            if p is None:
                return None
            for _ in range(power):
                nxt = {}
                for m1, c1 in out.items():
                    for m2, c2 in p.items():
                        m = tuple(a + b for a, b in zip(m1, m2))
                        nxt[m] = nxt.get(m, Fraction(0)) + c1 * c2
                out = nxt
        return {m: c for m, c in out.items() if c != 0}
    return None


def polynomial_to_expr(poly, dim: int, names=None) -> Expr:
    if not poly:
        return Const(dim, Fraction(0))
    terms = []
    for mono, c in sorted(poly.items()):
        factors = [Const(dim, c)]
        for slot, n in enumerate(mono):
            if n:
                name = names[slot] if names else f"x{slot}"
                factors.append(int_pow(Var(dim, slot, name), n))
        terms.append(mul(*factors))
    return add(*terms)


# ---------------------------------------------------------------------------
# Parser for the surface grammar
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' INT)?
#   base   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')' | 'pi'
#   VAR    := ('x'|'y') INT        FUNC := 'exp'|'sin'|'cos'|'bump'

_FUNCS = {"exp": exp, "sin": sin, "cos": cos, "bump": bump}


# One token per match, of the kind named by the group that matched; the last
# is "end".  Tokens are ASCII and any whitespace between them is skipped.  A
# stray character is a token too, so its error is raised only when reached.
_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9.]+)|(?P<name>[A-Za-z]+[0-9]*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>\S)|(?P<end>\Z))")


class _Parser:
    def __init__(self, text: str, ambient_dim: int, base_dim):
        self.tokens = _TOKEN.finditer(text)
        self.ambient = ambient_dim
        self.base_dim = base_dim
        self.advance()

    def advance(self):
        m = next(self.tokens)
        kind = m.lastgroup
        val, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {val!r}", pos)
        if kind == "number" and val.count(".") > 1:
            raise ExprSyntaxError(f"malformed number {val!r}", pos)
        self.current = (kind, val, pos)

    def expect_op(self, op: str):
        kind, val, pos = self.current
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.parse_expr()
        kind, val, pos = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
        return e

    def parse_expr(self) -> Expr:
        negate_head = False
        kind, val, _ = self.current
        if kind == "op" and val == "-":
            negate_head = True
            self.advance()
        e = self.parse_term()
        if negate_head:
            e = neg(e)
        while True:
            kind, val, _ = self.current
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, val, pos = self.current
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                try:
                    e = mul(e, rhs) if val == "*" else div(e, rhs)
                except ExprError as err:
                    raise ExprSyntaxError(str(err), pos) from err
            else:
                return e

    def parse_factor(self) -> Expr:
        e = self.parse_base()
        kind, val, pos = self.current
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.current
            sign = 1
            if kind == "op" and val == "-":
                sign = -1
                self.advance()
                kind, val, pos = self.current
            if kind != "number" or "." in val:
                raise ExprSyntaxError("expected an integer exponent", pos)
            self.advance()
            try:
                return int_pow(e, sign * int(val))
            except ExprError as err:
                raise ExprSyntaxError(str(err), pos) from err
        return e

    def parse_base(self) -> Expr:
        kind, val, pos = self.current
        if kind == "number":
            self.advance()
            lit = "0" + val if val.startswith(".") else val
            return Const(self.ambient, Fraction(lit))
        if kind == "op" and val == "(":
            self.advance()
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if kind == "name":
            letters = val.rstrip("0123456789")
            digits = val[len(letters):]
            if letters in _FUNCS and not digits:
                self.advance()
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _FUNCS[letters](arg)
            if letters == "pi" and not digits:
                self.advance()
                return NamedConst(self.ambient, "pi")
            if letters in ("x", "y") and digits:
                self.advance()
                return self._make_var(letters, int(digits), pos)
            raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
        raise ExprSyntaxError("expected a term", pos)

    def _make_var(self, kind: str, index: int, pos: int) -> Expr:
        base_dim = self.ambient if self.base_dim is None else self.base_dim
        part, size, first = (("base", base_dim, 0) if kind == "x"
                             else ("fibre", self.ambient - base_dim, base_dim))
        if index >= size:
            raise ExprSyntaxError(
                f"variable {kind}{index} out of range ({part} dimension {size})", pos)
        return Var(self.ambient, first + index, f"{kind}{index}")


def parse(text: str, ambient_dim: int, base_dim: int | None = None) -> Expr:
    """Parse the surface grammar into an expression on R^ambient_dim.

    ``base_dim`` splits the coordinates between x-variables (slots
    0..base_dim-1) and y-variables (slots base_dim..ambient_dim-1); by
    default every coordinate is an x-variable.
    """
    if ambient_dim < 0:
        raise DimensionError("ambient dimension must be nonnegative")
    if base_dim is not None and not 0 <= base_dim <= ambient_dim:
        raise DimensionError("base dimension must lie within the ambient dimension")
    return _Parser(text, ambient_dim, base_dim).parse()
