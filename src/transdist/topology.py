"""Seminorms and neighbourhood-basis membership checks.

Suprema are taken over a global lattice of pitch 2/(density-1), so the
grid of a box is literally a subset of the grid of any enclosing box and
the monotonicity of the seminorms in (K, m) holds as implemented, not
just in the limit.  A box thinner than the pitch may hold no lattice point
on some axis; its grid is then empty and its supremum 0.  Grid suprema are
lower bounds of the true suprema; failed membership checks come with an
exact witness (point, multi-index, shell index).

Every scan takes its points in batches.  A seminorm reduces each
derivative to its max |.| as it comes out of one ``expr.grid_values``
pass over the lattice axes.  A membership scan takes a shell's lattice
points in the blocks of ``quadrature.row_blocks``, each block with
every multi-index still in play: ``distribution.values_at`` of the
derivatives, or one ``distribution.restriction_table`` of the family
derivatives.  Both equal the pointwise values bit for bit.  Verdicts,
witnesses and errors are those of a scan multi-index by multi-index,
block by block and point by point, which stops at the first point that
fails: after a failure at alpha_k in a block, later blocks evaluate only
the multi-indices before alpha_k.  A NaN at a lattice point is an error
(``ExprError``, naming the point and the multi-index), never a skipped
value or a rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .distribution import (BaseFunction, PointDistribution, TransversalDistribution,
                           base_support, family_derivatives, pair, restriction_table,
                           values_at)
from .expr import Box, DimensionError, Expr, ExprError, grid_values, multi_indices_up_to
from .quadrature import tensor_grid

DEFAULT_GRID_DENSITY = 33

# The most points one lattice may hold: over 100x the largest lattice the
# benchmark scans (73 x 17 x 33), and 120 MB of 3-d coordinates.
MAX_LATTICE_POINTS = 5_000_000


def lattice_pitch(density: int | None = None) -> float:
    """2/(density-1); None means DEFAULT_GRID_DENSITY, and a density is at least 3."""
    density = DEFAULT_GRID_DENSITY if density is None else density
    if density < 3:
        raise ValueError(f"grid density must be at least 3, got {density}")
    return 2.0 / (density - 1)


def lattice_axis(lo: float, hi: float, pitch: float) -> np.ndarray:
    """Lattice multiples of pitch inside [lo, hi]; empty if there are none."""
    i_min = math.ceil(lo / pitch - 1e-9)
    i_max = math.floor(hi / pitch + 1e-9)
    return np.arange(i_min, i_max + 1) * pitch


def lattice_axes(box: Box, density: int | None = None) -> list:
    """The lattice coordinates of a nonempty box, one 1-d array per axis."""
    pitch = lattice_pitch(density)
    bound = math.prod((hi - lo) / pitch + 1.0 for lo, hi in box.intervals)
    if not bound <= MAX_LATTICE_POINTS:
        raise ExprError(f"lattice over {box.intervals} at pitch {pitch:g} "
                        f"exceeds {MAX_LATTICE_POINTS} points")
    return [lattice_axis(lo, hi, pitch) for lo, hi in box.intervals]


def lattice_points(box: Box, density: int | None = None) -> np.ndarray:
    """All lattice points of a box, shape (N, dim): the tensor grid of its axes."""
    if box.is_empty:
        return np.empty((0, box.dim))
    return tensor_grid(lattice_axes(box, density))


@dataclass(frozen=True)
class Seminorm:
    """sup over K of all partial derivatives up to order m."""

    box: Box
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("seminorm order must be nonnegative")
        if self.box.is_empty:
            raise ValueError("seminorm box must be nonempty")
        if not self.box.is_bounded:
            raise ValueError("seminorm box must be compact")


def seminorm_eval(p: Seminorm, F: Expr, density: int | None = None) -> float:
    """Grid supremum realizing the seminorm; a lower bound of the true sup.
    A NaN raises for the first multi-index, in ``multi_indices_up_to``
    order, that has one, at its first lattice point in C order."""
    if F.dim != p.box.dim:
        raise DimensionError("expression and box dimensions differ")
    axes = lattice_axes(p.box, density)
    alphas = multi_indices_up_to(F.dim, p.order)
    peaks, nans = [0.0] * len(alphas), {}
    for k, vals in grid_values([F.diff(alpha) for alpha in alphas], [a[:, None] for a in axes]):
        peaks[k] = float(np.abs(vals).max(initial=0.0))
        if math.isnan(peaks[k]):  # max propagates a NaN
            nans[k] = np.unravel_index(np.flatnonzero(np.isnan(vals))[0], [a.size for a in axes])
    if nans:
        k = min(nans)
        _raise_nan(np.array([a[i] for a, i in zip(axes, nans[k])]), alphas[k], "seminorm")
    return max(peaks)


def _raise_nan(point, alpha, what: str):
    raise ExprError(f"{what}: NaN at lattice point {tuple(point.tolist())} "
                    f"for multi-index {alpha}")


@dataclass(frozen=True)
class BoundedFamily:
    """Finite family of fibre functions standing in for a bounded set."""

    fibre_dim: int
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("bounded family must be nonempty")
        for g in self.members:
            if g.dim != self.fibre_dim:
                raise DimensionError("family member has the wrong fibre dimension")


def pB_eval(B: BoundedFamily, v: PointDistribution, order: int | None = None) -> float:
    """sup over the family of |v(g)|."""
    if B.fibre_dim != v.fibre_dim:
        raise DimensionError("family and point distribution dimensions differ")
    best = 0.0
    for g in B.members:
        val = abs(pair(v, g, order))
        if math.isnan(val):
            raise ExprError(f"pairing with family member {g} is NaN")
        if val > best:
            best = val
    return best


@dataclass(frozen=True)
class LFProfile:
    """Finite truncation of an LF neighbourhood: shells K_n = [-n, n]^l.

    Orders m must be nondecreasing and tolerances eps decreasing positive,
    one entry per shell up to the truncation depth.
    """

    base_dim: int
    orders: tuple  # m_1 <= m_2 <= ...
    epsilons: tuple  # eps_1 > eps_2 > ... > 0

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if len(self.orders) != len(self.epsilons) or not self.orders:
            raise ValueError("profile needs matching nonempty order/epsilon sequences")
        if any(m < 0 for m in self.orders):
            raise ValueError("orders must be nonnegative")
        if any(a > b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("orders must be nondecreasing")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly decreasing")

    @property
    def depth(self) -> int:
        return len(self.orders)

    def shell(self, n: int) -> Box:
        return Box.cube(float(n), self.base_dim)


@dataclass(frozen=True)
class MembershipResult:
    accepted: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _shell_points(profile: LFProfile, n: int, supp: Box,
                  density: int | None) -> np.ndarray:
    """Lattice points of (K_n minus K_{n-1}) intersected with the support box."""
    region = profile.shell(n).intersect(supp)
    if region.is_empty:
        return np.empty((0, profile.base_dim))
    pts = lattice_points(region, density)
    if n > 1:
        inner = float(n - 1)
        outside = np.max(np.abs(pts), axis=1) > inner + 1e-12
        pts = pts[outside]
    return pts


def _scan(profile: LFProfile, supp: Box, density: int | None, what: str,
          term, values) -> MembershipResult:
    """A membership scan, shell by shell (see the module docstring): the
    first row whose |value| is not below the shell's epsilon rejects.
    ``values(terms, block)`` gives one row per ``term(n, alpha)``.  A term
    that cannot be built ends the shell's list, and its error is raised
    once every earlier multi-index has passed the shell."""
    for n in range(1, profile.depth + 1):
        pts = _shell_points(profile, n, supp, density)
        if not pts.shape[0]:
            continue
        alphas = multi_indices_up_to(profile.base_dim, profile.orders[n - 1])
        terms, error = [], None
        for alpha in alphas:
            try:
                terms.append(term(n, alpha))
            except ExprError as e:
                error = e
                break
        eps, witness = profile.epsilons[n - 1], None
        for lo, hi in quadrature.row_blocks(pts.shape[0], 1):
            if not terms:
                break
            block = pts[lo:hi]
            vals = values(terms, block)
            bad = ~(np.abs(vals) < eps)
            for k in np.flatnonzero(bad.any(axis=1))[:1]:  # the first failing multi-index
                i = np.flatnonzero(bad[k])[0]
                witness = (alphas[k], block[i], vals[k, i])
                del terms[k:]
        if witness is not None:
            alpha, point, value = witness
            if np.isnan(value):
                _raise_nan(point, alpha, what)
            return MembershipResult(False, {
                "shell": n, "point": tuple(point.tolist()),
                "alpha": alpha, "value": float(value), "epsilon": eps})
        if error is not None:
            raise error
    return MembershipResult(True)


def lf_membership(profile: LFProfile, f: BaseFunction,
                  density: int | None = None) -> MembershipResult:
    """Grid-certified membership of f in the LF neighbourhood V_{m, e}."""
    lattice_pitch(density)  # a bad density is an error even where nothing is scanned
    supp = f.support_box()
    if supp.is_empty:
        return MembershipResult(True)
    if f.bundle.base_dim != profile.base_dim:
        raise DimensionError("profile and function base dimensions differ")
    return _scan(profile, supp, density, "lf_membership",
                 lambda n, alpha: f.derivative(alpha),
                 lambda derivatives, block: values_at(block, *derivatives))


def lfB_membership(profile: LFProfile, families, u: TransversalDistribution,
                   density: int | None = None,
                   order: int | None = None) -> MembershipResult:
    """Membership of a distribution in V_{B, m, e} via family seminorms.

    ``families`` lists one BoundedFamily per shell (n-th entry used on the
    n-th shell); the derivatives of the family come from one
    ``family_derivatives`` tower and are restricted at the lattice points
    and paired with the family in batches (``restriction_table``).  The
    value at a point is ``pB_eval`` of the restriction there.
    """
    lattice_pitch(density)  # a bad density is an error even where nothing is scanned
    families = tuple(families)
    if len(families) < profile.depth:
        raise ValueError("need one bounded family per shell")
    supp = base_support(u)
    if supp.is_empty:
        return MembershipResult(True)
    derivatives = family_derivatives(u, max(profile.orders))
    return _scan(profile, supp, density, "lfB_membership",
                 lambda n, alpha: (derivatives[alpha], families[n - 1].members),
                 lambda pairs, block: np.abs(  # pB_eval's; NaN if any pairing is
                     restriction_table(pairs, block, order)).max(axis=1))
