"""Symbolic scalar expressions on R^n, closed under exact differentiation.

The node vocabulary is deliberately small: exact rational constants, the
named constant pi, indexed coordinates, sums, products, integer powers,
exp, sin, cos, and a compactly supported bump primitive

    bump(t) = exp(-1/(1 - t^2))  for |t| < 1,   0 otherwise.

Derivatives of bump stay inside the class because every derivative has the
shape bump(t) * p(t) / (1 - t^2)^q with p a polynomial; the ``BumpRat``
node stores that shape and guards the whole product to 0 for |t| >= 1, so
evaluation is total and exactly zero outside the support.  Its derivative
is bump(t) * r(t) / (1 - t^2)^(q+2) by the three-term recurrence
r_k = (k+1) p_{k+1} + 2(q-k) p_{k-1} + (k-3-2q) p_{k-3}, taken exactly on
the integer numerators of p over their common denominator.

Division is accepted by the surface grammar but desugared at construction:
a denominator must fold to a nonzero rational constant, which is absorbed
as an exact reciprocal factor.  There is therefore no quotient node that
could ever divide by zero.

Nodes are immutable and freely shared, so an expression is a DAG: the
derivative rules reuse the node being differentiated and its children, and
a high-order derivative has far fewer distinct nodes than its tree has
paths.  The code treats it as one.  ``diff1`` and ``support_box`` are
memoized on each node, so ``D^alpha`` reuses ``D^(alpha - e_i)`` and
asking again returns the identical object.  Evaluation (scalar and array),
substitution and the bump-boundary scan walk a per-node plan
that lists every distinct node once, children first; ``interval`` keeps
a per-call memo.  Each node still applies the same float operation, in the
same order, to the same child values as a tree walk would, so results do
not depend on how much is shared.  The memos hold only values that are pure
functions of their node and die with it (so do the last values that
``quadrature.kept`` keeps on a node: a fibre integral, an extension to a
bundle, a restriction to a fibre).

Structurally equal nodes are one object, however they were built: every
node comes from ``_node``, which interns it, so a product rule that meets
a term twice builds and differentiates it once, and the memos serve every
equal construction.  So equality is identity: ``==`` and ``hash`` are
``object``'s, and neither walks a tree.  Pickling and copying go through
the smart constructors too (``Expr.__reduce__``), so they return the
table's node, and no memo travels.  The intern table maps a flat key to a
weak reference to the node.  The key is the class, the dimension, the
children's ids and the other fields as ints and strings (a constant's
numerator and denominator, a bump's pole order and coefficient integers),
so no lookup hashes a Fraction or a subtree.  An entry dies with its node,
and the ids in a key stay unique while the node lives, as it holds its
children.  There is no lock: two threads that miss together may both
build the node, and, as in every memo, the first write wins; the other
thread drops its copy and returns the table's node.

Array evaluation is grid evaluation: ``eval_grid`` takes point blocks
whose columns broadcast along one axis each, so every node runs at the
broadcast shape of the coordinates it reads (``bump(x0)`` once per x0 on a
lattice), and ``eval_array`` is its one-block case.  ``eval_grid`` in
turn is the one-root case of ``grid_values``, one pass over many roots'
shared plan.  Broadcasting repeats operands but never changes an
operation, so each grid entry equals the ``eval_array`` row of its point
bit for bit.  Scalar evaluation is the one-row case of array evaluation,
bit for bit: ``e.evaluate(p)`` equals every row of ``e.eval_array`` that
holds p.  Both paths apply the same IEEE operations per node: exp, sin
and cos come from numpy's ufuncs on floats and arrays alike, an integer
power is one multiplication ladder, and a sum of three or more terms is
correctly rounded (``math.fsum``'s value) on both, through ``fsum_list``
and its row-wise form ``row_fsum``; ``Sum.interval`` takes its ends from
``fsum_list`` too.  A two-term sum is one IEEE addition, which is already
correctly rounded.  Where fsum would raise on an overflow of finite terms,
both take the exact sum, correctly rounded; on an inf or NaN term, the
IEEE sum, so a sum is NaN or infinite there rather than an error.  An array
pass silences numpy's overflow and invalid warnings once per root it
hands out, around its walk of the plan up to that root, so it is as
quiet as the scalar path where a value saturates.  A product builds its
zero mask only from the factors that hold an exact zero, and returns its
IEEE product as it is when none does.

Semantic equality is tested extensionally on grids, since simplification
beyond constant folding is out of scope.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

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
# Polynomial evaluation on float coefficient tuples (low degree first)


def _poly_eval_float(coeffs_float, u):
    acc = 0.0
    for c in reversed(coeffs_float):
        acc = acc * u + c
    return acc


# ---------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True, eq=False)
class Expr:
    dim: int

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point) -> float:
        return _values_at(self._plan, self, _float_point(point, self.dim))[-1]

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, dim) array of points, returning shape (N,)."""
        return self.eval_grid((pts,))

    def eval_grid(self, blocks, keep=None) -> np.ndarray:
        """The value at every combination of rows of (n_i, d_i) point blocks
        whose widths sum to ``dim``, in C order with the first block slowest
        (as ``quadrature.tensor_grid`` orders them): the one-root case of
        ``grid_values``.  Block i's columns broadcast along axis i, so each
        node runs at the shape of the blocks it reads: a factor of x0 alone
        runs n_0 times."""
        ((_, value),) = grid_values((self,), blocks, keep)
        return value

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
        of the node's children and ``dead`` the positions to drop after it
        (``_dead``).
        The root comes last, with ``None`` for its node, so that the plan
        does not keep its own node alive through a reference cycle.  Passes
        that walk the plan handle a node shared by many paths once, where a
        recursive pass would expand the DAG into its tree.
        """
        nodes, args, _ = _number((self,))
        nodes[-1] = None
        return tuple(zip(nodes, args, _dead(args)))

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
                return image if isinstance(image, Expr) else var(image, dim, leaf.name)
            if dim == self.dim:
                return leaf
            return _const(dim, leaf.value) if isinstance(leaf, Const) else pi(dim)

        return self._map_leaves(leaf_fn)

    def _map_leaves(self, leaf_fn) -> "Expr":
        """Rebuild the DAG bottom-up, a leaf as leaf_fn(leaf), other nodes by their ``__reduce__``."""
        out = []
        for node, args, _ in self._plan:
            node = node or self
            make, fields = node.__reduce__()
            out.append(make(*[out[i] for i in args], *fields[len(args):]) if args
                       else leaf_fn(node))
        return out[-1]

    def __reduce__(self):
        """The smart constructor and the arguments, children first, that make
        this node: ``pickle`` and ``copy`` return the interned node itself,
        and no memo travels with it."""
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    @_memo
    def free_slots(self) -> frozenset:
        return frozenset().union(*(c.free_slots for c in self._children()))

    @_memo
    def _affine(self):
        """``as_affine(self)``, shared by every bump of this argument and
        read by the forms of its parents."""
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
        iv = memo.get(self)
        if iv is None:
            iv = memo[self] = self._interval(box, memo)
        return iv

    def _interval(self, box, memo):
        raise NotImplementedError

    def bump_boundary_distance(self, point) -> float:
        """Distance of the point to the nearest bump transition |arg| = 1.

        Used to exclude evaluation points where finite differences of bump
        expressions degrade; returns inf when no bump node is present.
        """
        nodes = [node or self for node, _, _ in self._plan]
        d = _INF
        for arg in {n.arg for n in nodes if isinstance(n, BumpRat)}:
            u = arg.evaluate(point)
            d = min(d, abs(abs(u) - 1.0))
        return d

    def _children(self):
        return ()

    def __str__(self):
        return self._text(0)

    def _text(self, prec: int) -> str:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: Fraction

    @_memo
    def _float(self):
        v = self.value  # float(v) divides the same way, through numbers.Rational
        try:
            return v.numerator / v.denominator
        except OverflowError:
            scale = math.log10(abs(v.numerator)) - math.log10(v.denominator)
            raise ExprError(f"constant of magnitude about 10^{scale:.0f} is beyond "
                            "the float range") from None

    def _eval_arr(self, cols, vals, args):
        return self._float

    _eval = _eval_arr

    def _jet(self, jets, vals, args):
        return jets.const(self._float)

    def _diff1(self, slot):
        return _const(self.dim, _ZERO)

    def __reduce__(self):
        return _const, (self.dim, self.value)

    def _support(self):
        return Box.empty(self.dim) if self.value == 0 else Box.whole(self.dim)

    def _interval(self, box, memo):
        f = self._float  # the value itself, or else an ulp either side holds it
        exact = f.as_integer_ratio() == self.value.as_integer_ratio()
        return (f, f) if exact else _round_out(f, f)

    def _text(self, prec):
        v = self.value
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            s = f"{v.numerator}/{v.denominator}"
        if v < 0 and prec > 0:
            return f"({s})"
        return s


@dataclass(frozen=True, eq=False)
class NamedConst(Expr):
    name: str  # only "pi" currently

    @_memo
    def _float(self):
        return math.pi

    def _eval_arr(self, cols, vals, args):
        return self._float

    _eval = _eval_arr

    def _jet(self, jets, vals, args):
        return jets.const(self._float)

    def _diff1(self, slot):
        return _const(self.dim, _ZERO)

    def __reduce__(self):
        return pi, (self.dim,)

    def _interval(self, box, memo):
        return _round_out(self._float, self._float)

    def _text(self, prec):
        return self.name


@dataclass(frozen=True, eq=False)
class Var(Expr):
    slot: int
    name: str

    def __post_init__(self):
        if not 0 <= self.slot < self.dim:
            raise DimensionError(f"variable slot {self.slot} outside ambient {self.dim}")

    def _eval_arr(self, cols, vals, args):
        return cols[self.slot]

    _eval = _eval_arr  # a point's coordinates, or the columns

    def _jet(self, jets, vals, args):
        return jets.var(self.slot)

    def _diff1(self, slot):
        return _const(self.dim, _ONE if slot == self.slot else _ZERO)

    def __reduce__(self):
        return var, (self.slot, self.dim, self.name)

    @_memo
    def free_slots(self) -> frozenset:
        return frozenset((self.slot,))

    def _interval(self, box, memo):
        return box.intervals[self.slot]

    def _text(self, prec):
        return self.name


# Rows per pass of row_fsum: its temporaries stay a few arrays of 32 kB.
# Cutting it by quadrature.row_blocks instead made lattice-scan slower in
# every run: op_p50_s +25% over 5 alternating pairs (2-vCPU x86-64 VM).
_ROW_BLOCK = 4096


def fsum_list(values: list) -> float:
    """``math.fsum(values)``, an exact zero as +0.0.  Where math.fsum raises,
    the exact sum if every value is finite, correctly rounded (an infinity
    only beyond the float range), else the IEEE sum taken left to right
    from 0.0: NaN, or the infinity among the values."""
    try:
        return math.fsum(values) + 0.0
    except (ValueError, OverflowError):
        if all(map(math.isfinite, values)):
            exact = sum(map(Fraction, values))
            return _float_or(exact, _INF if exact > 0 else -_INF)
        total = 0.0
        for v in values:
            total += v
        return total


def _two_sum_cascade(cols):
    """The left-to-right float sum of the columns and the exact rounding
    error of each addition (Knuth's TwoSum): the float sum plus every error
    is the exact sum of the row, barring overflow."""
    s, errors = cols[0], []
    for c in cols[1:]:
        t = s + c
        z = t - s
        errors.append((s - (t - z)) + (c - z))
        s = t
    return s, errors


def row_fsum(cols) -> np.ndarray:
    """``fsum_list`` of every row of two or more columns, at their broadcast
    shape: row r holds entry r of each column broadcast to that shape.

    Cascaded TwoSum (Ogita, Rump & Oishi, "Accurate sum and dot product",
    SIAM J. Sci. Comput. 26(6), 2005) splits each row's exact sum into its
    float sum s and the exact errors e_j; a second cascade splits those into
    their float sum t and exact errors f_j.  Where every f_j is zero, s + t
    is the exact sum, so its one rounding is the correctly rounded total,
    ties included.  Elsewhere the exact sum lies within sum |f_j| of s + t,
    and a row is certified when both ends of that bracket, widened outward
    by an ulp, round to the same float, as rounding is monotone.  The rows
    left (near ties, and every row with an inf, a NaN or an overflow) get
    ``fsum_list``.  Rows go in blocks of ``_ROW_BLOCK``.
    """
    shape = np.broadcast_shapes(*map(np.shape, cols))
    cols = [np.broadcast_to(c, shape).ravel() for c in cols]
    n, k = cols[0].shape[0], len(cols)
    out = np.empty(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, _ROW_BLOCK):
            block = [c[lo:lo + _ROW_BLOCK] for c in cols]
            s, errors = _two_sum_cascade(block)
            t, errors2 = _two_sum_cascade(errors)
            total = s + t
            spread = sum((np.abs(f) for f in errors2), np.zeros_like(s))
            # bracket only the rows whose second errors do not vanish
            hard = np.flatnonzero((spread != 0.0) | ~np.isfinite(total))
            if hard.size:
                width = spread[hard] * (1.0 + k * 2.0 ** -50) + k * 5e-324
                down = s[hard] + np.nextafter(t[hard] - width, -math.inf)
                up = s[hard] + np.nextafter(t[hard] + width, math.inf)
                certified = (down == up) & np.isfinite(down)
                total[hard[certified]] = down[certified]
                for i in hard[~certified].tolist():
                    total[i] = fsum_list([c[i] for c in block])
            out[lo:lo + _ROW_BLOCK] = total + 0.0
    return out.reshape(shape)


@dataclass(frozen=True, eq=False)
class Sum(Expr):
    terms: tuple

    def _eval(self, point, vals, args):
        if len(args) == 2:
            return 0.0 + vals[args[0]] + vals[args[1]]
        return fsum_list([vals[i] for i in args])

    def _eval_arr(self, cols, vals, args):
        if len(args) == 2:
            return 0.0 + vals[args[0]] + vals[args[1]]
        return row_fsum([vals[i] for i in args])

    _jet = _eval_arr  # coefficients add as values do

    def _diff1(self, slot):
        return add(*(t.diff1(slot) for t in self.terms))

    def __reduce__(self):
        return add, self.terms

    def _support(self):
        box = Box.empty(self.dim)
        for t in self.terms:
            box = box.hull(t.support_box())
        return box

    def _interval(self, box, memo):
        # each end correctly rounded (one rounding), then widened by an ulp
        ends = [t._iv(box, memo) for t in self.terms]
        lo = fsum_list([a for a, _ in ends])
        hi = fsum_list([b for _, b in ends])
        # a NaN end (inf + -inf) bounds nothing on its side
        return _round_out(-_INF if math.isnan(lo) else lo, _INF if math.isnan(hi) else hi)

    def _children(self):
        return self.terms

    def _text(self, prec):
        parts = [self.terms[0]._text(1)]
        for t in self.terms[1:]:
            sign, mag = _split_sign(t)
            parts.append(f" - {mag._text(1)}" if sign < 0 else f" + {mag._text(1)}")
        s = "".join(parts)
        return f"({s})" if prec > 1 else s


@dataclass(frozen=True, eq=False)
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
        return add(*terms) if terms else _const(self.dim, _ZERO)

    def __reduce__(self):
        return mul, self.factors

    def _support(self):
        box = Box.whole(self.dim)
        for f in self.factors:
            box = box.intersect(f.support_box())
            if box.is_empty:
                break
        return box

    def _interval(self, box, memo):
        return reduce(_iv_mul, (f._iv(box, memo) for f in self.factors))

    def _children(self):
        return self.factors

    def _text(self, prec):
        s = "*".join(f._text(2) for f in self.factors)
        return f"({s})" if prec > 2 else s


@dataclass(frozen=True, eq=False)
class IntPow(Expr):
    base: Expr
    exponent: int

    def _eval_arr(self, cols, vals, args):
        return _power(vals[args[0]], self.exponent)

    _eval = _eval_arr

    def _jet(self, jets, vals, args):
        return _power(vals[args[0]], self.exponent, jets.mul)

    def _diff1(self, slot):
        n = self.exponent
        return mul(const(n, self.dim), int_pow(self.base, n - 1), self.base.diff1(slot))

    def __reduce__(self):
        return int_pow, (self.base, self.exponent)

    def _support(self):
        return self.base.support_box()

    def _interval(self, box, memo):
        # _power's ladder over each end, every product rounded outward, holds
        # the end's exact power and evaluate()'s; both powers are monotone in
        # x for odd n and in |x| for even n
        a, b = self.base._iv(box, memo)
        (lo_a, hi_a), (lo_b, hi_b) = (_power((x, x), self.exponent, _iv_mul) for x in (a, b))
        if self.exponent % 2 == 1:
            return lo_a, hi_b
        return (0.0 if a <= 0.0 <= b else min(lo_a, lo_b)), max(hi_a, hi_b)

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

    def __reduce__(self):
        return _FUNCS[self._name], (self.arg,)

    def _children(self):
        return (self.arg,)

    def _text(self, prec):
        return f"{self._name}({self.arg._text(0)})"


def _exp_or_inf(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return _INF


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Sin(_Unary):
    arg: Expr
    _np_fn = np.sin
    _name = "sin"

    def _jet(self, jets, vals, args):
        return jets.sin_cos(vals[args[0]])[0]

    def _diff1(self, slot):
        return mul(cos(self.arg), self.arg.diff1(slot))

    def _interval(self, box, memo):
        return (-1.0, 1.0)


@dataclass(frozen=True, eq=False)
class Cos(_Unary):
    arg: Expr
    _np_fn = np.cos
    _name = "cos"

    def _jet(self, jets, vals, args):
        return jets.sin_cos(vals[args[0]])[1]

    def _diff1(self, slot):
        return mul(const(-1, self.dim), sin(self.arg), self.arg.diff1(slot))

    def _interval(self, box, memo):
        return (-1.0, 1.0)


@dataclass(frozen=True, eq=False)
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
        #   = bump(u) [p'(u)(1-u^2)^2 - 2u p(u) + 2qu(1-u^2)p(u)] (1-u^2)^-(q+2),
        # whose u^k coefficient is the module docstring's r_k
        q, den = self.pole_order, math.lcm(*(c.denominator for c in self.coeffs))
        p = [0, 0, 0, *(c.numerator * (den // c.denominator) for c in self.coeffs), 0, 0, 0, 0]
        r = [(k + 1) * p[k + 4] + 2 * (q - k) * p[k + 2] + (k - 3 - 2 * q) * p[k]
             for k in range(len(self.coeffs) + 3)]
        dself = bump_rat(self.arg, r if den == 1 else [Fraction(c, den) for c in r], q + 2)
        return mul(dself, self.arg.diff1(slot))

    def __reduce__(self):
        return bump_rat, (self.arg, self.coeffs, self.pole_order)

    def _support(self):
        affine = self.arg._affine
        if affine is not None:
            slots = [s for s in affine if s >= 0 and affine[s] != 0]
            if len(slots) == 1:
                s = slots[0]
                a, b = affine[s], affine.get(-1, _ZERO)
                lo, hi = sorted(((-1 - b) / a, (1 - b) / a))
                ivs = [(-_INF, _INF)] * self.dim
                ivs[s] = (_float_or(lo, -_INF), _float_or(hi, _INF))
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


def grid_values(roots, blocks, keep=None):
    """Yield ``(k, roots[k].eval_grid(blocks))`` for every k, in plan order,
    each as soon as one ``_eval_arr`` pass over the union of the roots'
    DAGs computes it.  A value is dropped once nothing later reads it, so a
    caller that reduces each root as it comes holds one grid at a time
    beside the shared nodes still to be read.  A root's array is writable
    only if nothing else sees it: one handed out twice or read by a later
    node is read-only, and a coordinate's is a copy.

    A one-row block is read as floats, so a node that reads only such
    blocks runs its scalar ``_eval``.  With ``keep``, a lone root over a
    one-row block 0 takes its fibre-only frontier from ``keep(build)``.

    >>> e = parse("x0*exp(x1)", 2)
    >>> [(k, v.tolist()) for k, v in grid_values([e, e.diff1(0)], [[[0.0], [1.0]], [[0.0]]])]
    [(1, [1.0, 1.0]), (0, [0.0, 1.0])]
    """
    roots, blocks = tuple(roots), [np.asarray(b, dtype=float) for b in blocks]
    if any(r.dim != roots[0].dim for r in roots):
        raise DimensionError("roots over mixed ambient dimensions")
    if roots and (any(b.ndim != 2 for b in blocks)
                  or sum(b.shape[1] for b in blocks) != roots[0].dim):
        raise DimensionError(f"expected point blocks of total width {roots[0].dim}")
    ones = (1,) * len(blocks)
    cols = [c.item() if len(c) == 1 else np.ascontiguousarray(c).reshape(
        ones[:i] + (-1,) + ones[i + 1:]) for i, b in enumerate(blocks) for c in b.T]
    shape = tuple(b.shape[0] for b in blocks)
    plan, root, at = _plan_of(roots, dead=True)
    ks = {}
    for k, pos in enumerate(at):
        ks.setdefault(pos, []).append(k)
    method, fixed = "_eval_arr", (None,)
    if 1 in shape:
        width = blocks[0].shape[1] if keep and root is not None and shape[0] == 1 else 0
        method, frontier, build = _schedule(plan, root, cols, width)
        if frontier:
            fixed = (*keep(lambda: tuple(v for _, v, _ in _values_over(
                plan, root, cols, frontier, build))), None)
    for pos, value, kept in _values_over(plan, root, cols, ks, method, fixed):
        shared = len(ks[pos]) > 1
        if np.shape(value) == shape and plan[pos][1]:  # a leaf's may be a caller's column
            value = value.reshape(-1)
            shared = shared or kept
        else:
            value = np.broadcast_to(value, shape).flatten()
        if shared:
            value.flags.writeable = False
        for k in ks[pos]:
            yield k, value


_ARRAY_MIN_ROWS = 32  # evaluate_many's crossover; see there


def evaluate_many(roots, points) -> np.ndarray:
    """``[[r.evaluate(p) for p in points] for r in roots]`` as an array, for
    an (M, dim) array or a sequence of points, over one plan: the union of
    the roots' DAGs, numbered once, so the nodes they share are listed once
    (a lone root's is its memoized ``_plan``).

    Under ``_ARRAY_MIN_ROWS`` points each point runs through the nodes'
    scalar ``_eval``; from there up the points are one block of
    ``grid_values``.  The two cost the same at about 6 points on a 7-node
    weight, 26 on a 93-node table of derivatives and 30 on a 246-node one.
    Either way every entry equals ``r.evaluate(p)`` bit for bit:

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
    out = np.empty((len(roots), X.shape[0]))
    if X.shape[0] >= _ARRAY_MIN_ROWS:
        for k, value in grid_values(roots, (X,)):
            out[k] = value
        return out
    plan, root, at = _plan_of(roots, dead=False)
    for m, point in enumerate(X.tolist()):
        vals = _values_at(plan, root, tuple(point))
        out[:, m] = [vals[i] for i in at]
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
    plan = e._plan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        ((_, value, _),) = _values_over(plan, e, jets, (len(plan) - 1,), "_jet")
    return value


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


def _values_over(plan, root, cols, at, method="_eval_arr", fixed=(None,)):
    """Yield ``(position, value, kept)`` for each plan position in ``at`` as
    the walk of ``_values_at`` over contiguous columns (numpy's exp on a
    reversed one can differ in the last bit) reaches it; ``kept``: a later
    node reads it.  Each value is dropped after its last reader, a root's
    after it is handed out.  Warnings are silenced while nodes run, not
    while the caller holds a value.  ``method`` names every node's evaluator
    (``taylor`` passes ``"_jet"``), or holds a name or a ``fixed`` index per node."""
    vals = []
    append = vals.append
    for stop in sorted(at):
        with np.errstate(over="ignore", invalid="ignore"):
            if type(method) is str:
                for node, args, dead in plan[len(vals):stop + 1]:
                    append(value := getattr(node or root, method)(cols, vals, args))
                    for i in dead:
                        vals[i] = None
            else:
                for (node, args, dead), how in zip(plan[len(vals):stop + 1], method[len(vals):]):
                    append(value := fixed[how] if type(how) is int
                           else getattr(node or root, how)(cols, vals, args))
                    for i in dead:
                        vals[i] = None
        yield stop, value, stop not in dead


def _dead(args):
    """For each plan position, the positions whose values can be dropped
    once it has run: those it is the last to read, and itself when nothing
    reads it (a root, after it is handed out)."""
    last = list(range(len(args)))
    for pos, kids in enumerate(args):
        for i in kids:
            last[i] = pos
    dead = [[] for _ in args]
    for i, pos in enumerate(last):
        dead[pos].append(i)
    return map(tuple, dead)


def _schedule(plan, root, cols, width):
    """``(method, frontier, build)`` for ``grid_values``, memoized on a lone
    root: ``_eval`` for a node that reads only float columns.  Given block
    0's ``width``, the interior array nodes that read none of its slots are
    fibre-only; those read by one that does (or the root) are the frontier,
    the k-th taking ``fixed[k]``, the rest -1, as ``build`` gives block 0's
    readers."""
    lone = frozenset(s for s, c in enumerate(cols) if type(c) is float)
    memo = {} if root is None else vars(root).setdefault("_schedules", {})
    if (lone, width) not in memo:
        reads = [(node or root).free_slots for node, _, _ in plan]
        method = ["_eval" if r <= lone else "_eval_arr" for r in reads]
        build = [-1 if not r.isdisjoint(range(width)) else m for r, m in zip(reads, method)]
        read = {len(plan) - 1}.union(*(args for (_, args, _), b in zip(plan, build) if b == -1))
        fibre = {p for p, b in enumerate(build) if width and b == "_eval_arr" and plan[p][1]}
        index = dict(zip(sorted(fibre & read), itertools.count()))
        method = [index.get(p, -1) if p in fibre else m for p, m in enumerate(method)]
        memo.setdefault((lone, width), (method, list(index), build))
    return memo[(lone, width)]


def _plan_of(roots, dead: bool):
    """The roots' plan, the node its ``None`` stands for, and each root's
    position; ``dead=False`` leaves ``dead`` empty (the scalar walk)."""
    if len(roots) == 1:
        plan = roots[0]._plan
        return plan, roots[0], [len(plan) - 1]
    nodes, args, at = _number(roots)
    return tuple(zip(nodes, args, _dead(args) if dead else itertools.repeat(()))), None, at


def _number(roots):
    """Number every distinct node of the roots' DAGs once, children first:
    the nodes in that order, their children's positions, each root's position."""
    index, nodes, args = {}, [], []
    at = [index[r] if r in index else _number_nodes(r, index, nodes, args) for r in roots]
    return nodes, args, at


def _number_nodes(node, index, nodes, args) -> int:
    """Number a node not yet in ``index`` after its children (``_number``)."""
    kids = []
    for k in node._children():
        pos = index.get(k)
        kids.append(_number_nodes(k, index, nodes, args) if pos is None else pos)
    pos = index[node] = len(nodes)
    nodes.append(node)
    args.append(tuple(kids))
    return pos


def _round_out(lo: float, hi: float):
    return (math.nextafter(lo, -_INF), math.nextafter(hi, _INF))


def _iv_mul(p, q):
    """The product of two intervals, each end rounded, then widened by an ulp."""
    cands = (p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1])
    return _round_out(min(cands), max(cands))


def _float_or(v: Fraction, beyond: float) -> float:
    """float(v), or ``beyond`` where v is beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return beyond


def _split_sign(e: Expr):
    """Split off a leading minus sign for printing purposes."""
    if isinstance(e, Const) and e.value < 0:
        return -1, _const(e.dim, -e.value)
    if isinstance(e, Product):
        f0 = e.factors[0]
        if isinstance(f0, Const) and f0.value < 0:
            if f0.value == -1 and len(e.factors) > 1:
                return -1, mul(*e.factors[1:])
            return -1, mul(_const(e.dim, -f0.value), *e.factors[1:])
    return 1, e


# ---------------------------------------------------------------------------
# Smart constructors (the only supported way to build nodes)

_ZERO, _ONE = Fraction(0), Fraction(1)
_NODES: dict = {}  # the intern table: key -> _Entry of the one live node (``_node``)


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _forget(entry, nodes=_NODES, remove=_remove_dead_weakref):
    """Drop a dead node's entry, in one step that keeps an entry ``_node``
    has already replaced (``remove`` deletes a key only while it maps to a
    dead reference, as ``weakref.WeakValueDictionary`` does).  The
    arguments are bound early, as interpreter exit may clear the globals."""
    remove(nodes, entry.key)


def _node(key: tuple, *fields) -> Expr:
    """The one live node ``key[0](*fields)``, built on a miss.  ``key`` is the
    class, the dimension, the children's ids and the other fields as ints
    and strings, each class's made in one smart constructor.  The first
    write wins: a node built on a miss gives way to one another thread
    published meanwhile.  A dead node's entry is removed in one step and
    the publication retried, so two threads that find it both publish
    through ``setdefault`` and return one node."""
    entry = _NODES.get(key)
    node = None if entry is None else entry()
    if node is None:
        built = key[0](*fields)
        ours = _Entry(built, _forget)
        ours.key = key
        while (node := _NODES.setdefault(key, ours)()) is None:  # a dead node's entry
            _remove_dead_weakref(_NODES, key)
    return node


def _const(dim: int, value: Fraction) -> Expr:
    return _node((Const, dim, value.numerator, value.denominator), dim, value)


def const(value, dim: int) -> Expr:
    """The constant ``Fraction(value)``: a float's exact binary value."""
    return _const(dim, value if type(value) is Fraction else Fraction(value))


def var(slot: int, dim: int, name: str | None = None) -> Expr:
    name = name if name is not None else f"x{slot}"
    return _node((Var, dim, slot, name), dim, slot, name)


def pi(dim: int) -> Expr:
    return _node((NamedConst, dim, "pi"), dim, "pi")


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
        if c.value.numerator != 0 or not flat:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return _node((Sum, dim, *map(id, flat)), dim, tuple(flat))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return _const(e.dim, -e.value)
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
        n, d = c.value.numerator, c.value.denominator  # the integers, not Fraction's ==
        if n == 0:
            return c
        if n != d or not flat:
            flat.insert(0, c)
    if len(flat) == 1:
        return flat[0]
    return _node((Product, dim, *map(id, flat)), dim, tuple(flat))


def _fold(consts, fold, dim: int) -> Const:
    """The constants of a sum or product as one ``Const``; a lone one is reused.
    A product multiplies the numerators and the denominators as integers and
    normalizes once.  A sum starts from the first value: an int seed takes
    Fraction's slow reflected operators."""
    if len(consts) == 1:
        return consts[0]
    if fold is operator.mul:
        num = den = 1
        for c in consts:
            n, d = c.value.as_integer_ratio()
            num *= n
            den *= d
        return _const(dim, Fraction(num, den))
    return _const(dim, reduce(fold, [c.value for c in consts]))


def div(num: Expr, den: Expr) -> Expr:
    c = constant_value(den)
    if c is None:
        raise ExprError("denominator must fold to a constant (nonvanishing by construction)")
    if c == 0:
        raise ExprError("division by zero constant")
    return mul(_const(num.dim, 1 / c), num)


def int_pow(base: Expr, n) -> Expr:
    if not isinstance(n, int):
        raise ExprError(f"exponents must be integers, got {n!r}")
    c = constant_value(base)
    if c is not None:
        if n < 0 and c == 0:
            raise ExprError("zero raised to a negative power")
        return _const(base.dim, c ** n)
    if n < 0:
        raise ExprError("negative powers require a nonzero constant base")
    if n == 0:
        return _const(base.dim, _ONE)
    if n == 1:
        return base
    if isinstance(base, IntPow):
        base, n = base.base, base.exponent * n
    return _node((IntPow, base.dim, id(base), n), base.dim, base, n)


def _unary(cls, arg: Expr) -> Expr:
    return _node((cls, arg.dim, id(arg)), arg.dim, arg)


def exp(arg: Expr) -> Expr:
    return _unary(Exp, arg)


def sin(arg: Expr) -> Expr:
    return _unary(Sin, arg)


def cos(arg: Expr) -> Expr:
    return _unary(Cos, arg)


def bump(arg: Expr) -> Expr:
    return bump_rat(arg, (_ONE,), 0)


def bump_rat(arg: Expr, coeffs, pole_order: int) -> Expr:
    if type(pole_order) is not int or pole_order < 0:
        raise ExprError(f"pole order must be a nonnegative int, got {pole_order!r}")
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return _const(arg.dim, _ZERO)
    c = constant_value(arg)
    if c is not None and abs(c) >= 1:
        return _const(arg.dim, _ZERO)
    key = (BumpRat, arg.dim, id(arg), pole_order,
           *[c.numerator for c in coeffs], *[c.denominator for c in coeffs])
    return _node(key, arg.dim, arg, tuple(coeffs), pole_order)


def constant_value(e: Expr):
    """The exact rational value of a constant expression, else None."""
    if isinstance(e, Const):
        return e.value
    return None


# ---------------------------------------------------------------------------
# Affine view (bump supports, section inversion) and polynomial view
# (Hadamard factorization)


def as_affine(e: Expr):
    """e as sum of coeff * x_slot plus a constant, read from its children's
    memoized forms (``Expr._affine``); None if it is not affine that way.

    The dict maps slot -> nonzero Fraction coefficient, with key -1 for the
    constant term.  A product takes the form of its one non-constant factor
    times its constant ones, and an integer power needs a constant base, so
    an affine polynomial written through a nonlinear term, such as
    ``(x0 - x0)*x0^2``, has no form here.
    """
    if isinstance(e, Const):
        return {-1: e.value} if e.value else {}
    if isinstance(e, Var):
        return {e.slot: _ONE}
    if not isinstance(e, (Sum, Product, IntPow)):
        return None
    forms = [c._affine for c in e._children()]
    if any(f is None for f in forms):
        return None
    if isinstance(e, Sum):
        out = {}
        for form in forms:
            for k, c in form.items():
                out[k] = out[k] + c if k in out else c
        return {k: c for k, c in out.items() if c}
    scale, linear = _ONE, None
    for form in forms:
        if form.keys() - {-1}:
            if linear is not None or isinstance(e, IntPow):
                return None
            linear = form
        else:
            scale *= form.get(-1, _ZERO)
    if isinstance(e, IntPow):
        scale **= e.exponent
    if not scale:
        return {}
    return {-1: scale} if linear is None else {k: scale * c for k, c in linear.items()}


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


def polynomial_to_expr(poly, dim: int) -> Expr:
    if not poly:
        return _const(dim, _ZERO)
    terms = []
    for mono, c in sorted(poly.items()):
        factors = [_const(dim, c)]
        for slot, n in enumerate(mono):
            if n:
                factors.append(int_pow(var(slot, dim), n))
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
            return _const(self.ambient, Fraction(lit))
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
                return pi(self.ambient)
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
        return var(first + index, self.ambient, f"{kind}{index}")


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
