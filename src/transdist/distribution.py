"""Transversal distributions with compact support on a trivial bundle.

A distribution is a finite sum of terms (``Term``) of two kinds:

* with a section sigma, a base weight f and a fibre multi-index beta,
  acting on a total-space function F by  f(x) * (D_y^beta F)(x, sigma(x));
* without a section, a density: a total-space weight phi with beta zero,
  acting by  integral of phi(x, y) F(x, y) dy.

Restricting at a base point x yields a point distribution on the fibre:
finitely many derivative-evaluation atoms plus a smooth density.  Atoms
pair with a fibre function g as coefficient * (D^beta g)(point) with no
distributional sign factor, matching the weighted-derivative convention
of the Dirac section action above.

Compactness of supports is a constructor invariant: weights must have
bounded support boxes, so every value of the calculus stays a compactly
supported smooth function of the base point.  The public constructors
compute each box and check it, and a term keeps the box it was checked
against.  The terms of a family derivative, whose weights vanish wherever
their parent's does, are checked against the parent's kept box instead,
without walking their new weight DAGs.

Equal fibre integrals are computed once, through ``quadrature.kept``, one
entry each, with no lock.  A term keeps its last integrand
(``Term.integrand``) keyed on a weak reference to F, which compares by
identity while F lives, so every base function built from it shares the
integrand's plan, support box and derivatives.  The integrand node keeps
its last row (``QuadPart.values``, keyed on the box, order and base grid)
and its fibre-only frontier for the last rule (``expr.grid_values``); a
``NumericPart`` keeps its fibre function on the last rule's axes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import quadrature
from .bundle import (Section, TrivialBundle, extend_base_function, extend_function,
                     pullback_along_section, restrict_function, section_graph_support)
from .expr import Box, DimensionError, Expr, ExprError

# The most terms a family derivative step may build.  A Dirac term whose
# section moves with x doubles at every step, so D^alpha T of one such term
# has 2^|alpha| terms: 4,096 at |alpha| = 12 (1.2 MB of ``transdist derive``
# output), and 468 MB of output at 20.  The largest tower entry the tests
# build has 32 terms.  A step over the budget raises ``ExprError`` before it
# builds any term.
MAX_TOWER_TERMS = 4096

ZERO_GRID_POINTS = 9  # is_numerically_zero's density samples per axis,
ZERO_TOL = 0.0  # and the largest magnitude it takes for zero


@dataclass(frozen=True)
class Term:
    """A Dirac section term with a section, a density term without one."""

    bundle: TrivialBundle
    weight: Expr  # compactly supported: a base function f, or a density phi
    section: Section | None = None
    beta: tuple | None = None  # fibre multi-index, zero when None
    # the checked box outside which the weight vanishes
    _bound: Box = field(init=False, repr=False, compare=False)
    # (a weak reference to the last F this term met, its integrand)
    _product: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check(self.weight.support_box())

    def _check(self, bound: Box):
        """Check the term against a box holding its weight's support, and keep it."""
        b, section = self.bundle, self.section
        if section is None and self.weight.dim != b.total_dim:
            raise DimensionError("density must be a total-space function")
        if section is not None and (section.bundle != b or self.weight.dim != b.base_dim):
            raise DimensionError("Dirac weight must be a base function of the section's bundle")
        beta = b.zero_fibre_beta() if self.beta is None else self.beta
        object.__setattr__(self, "beta", ex.check_multi_index(beta, b.fibre_dim))
        if section is None and any(self.beta):
            raise ExprError("a density term takes no fibre derivative")
        if not bound.is_bounded:
            kind = "density" if section is None else "Dirac weight"
            raise ExprError(f"{kind} must have a bounded support box")
        if section is not None and section.domain is not None and not bound.is_empty:
            if bound.intersect(section.domain) != bound:
                raise ExprError("Dirac weight must be supported inside the section domain")
        object.__setattr__(self, "_bound", bound)

    def _derived(self, weight: Expr, beta) -> "Term":
        """A term of this kind, on this section, whose weight vanishes wherever
        this one's does, checked against this term's box: its DAG is not walked."""
        term = object.__new__(Term)
        vars(term).update(bundle=self.bundle, weight=weight, section=self.section, beta=beta)
        term._check(self._bound)
        return term

    def integrand(self, F: Expr) -> Expr:
        """f * (D^beta F) o sigma, or phi * F: the same node again while this
        term meets the same F, kept with a weak reference to F as its key
        (while F lives the reference compares as F does, by identity)."""
        def build():
            if self.section is None:
                return ex.mul(self.weight, F)
            dF = F.diff(self.bundle.fibre_beta_to_total(self.beta))
            return ex.mul(self.weight, pullback_along_section(self.bundle, dF, self.section))
        return quadrature.kept(vars(self), "_product", weakref.ref(F), build)

    def __getstate__(self):
        return {**vars(self), "_product": None}  # a weak reference does not pickle


@dataclass(frozen=True)
class TransversalDistribution:
    bundle: TrivialBundle
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if t.bundle != self.bundle:
                raise DimensionError("all terms must live on the same bundle")

    def __add__(self, other: "TransversalDistribution") -> "TransversalDistribution":
        if other.bundle != self.bundle:
            raise DimensionError("cannot add distributions on different bundles")
        return TransversalDistribution(self.bundle, self.terms + other.terms)


def zero_distribution(bundle: TrivialBundle) -> TransversalDistribution:
    return TransversalDistribution(bundle, ())


def dirac_section(section: Section, weight: Expr, beta=None) -> TransversalDistribution:
    return TransversalDistribution(section.bundle, (Term(section.bundle, weight, section, beta),))


def density(bundle: TrivialBundle, phi: Expr) -> TransversalDistribution:
    return TransversalDistribution(bundle, (Term(bundle, phi),))


@dataclass(frozen=True)
class PointDistribution:
    """Finite-order compactly supported distribution on a fibre R^k.

    Atoms (point, beta, coefficient) pair with g as c * (D^beta g)(point);
    the optional density part pairs by integration against g.
    """

    fibre_dim: int
    atoms: tuple = ()  # ((point, beta, coefficient), ...)
    density: Expr | None = None

    def __post_init__(self):
        cleaned = []
        for point, beta, c in self.atoms:
            point = tuple(float(p) for p in point)
            if len(point) != self.fibre_dim:
                raise DimensionError("atom point dimension mismatched with fibre")
            beta = ex.check_multi_index(beta, self.fibre_dim)
            cleaned.append((point, beta, float(c)))
        object.__setattr__(self, "atoms", tuple(cleaned))
        if self.density is not None:
            if self.density.dim != self.fibre_dim:
                raise DimensionError("point-distribution density must be a fibre function")
            if not self.density.support_box().is_bounded:
                raise ExprError("point-distribution density must be compactly supported")

    def is_numerically_zero(self) -> bool:
        """Exact-zero test on atoms plus a grid-zero test on the density; NaN is not zero."""
        if any(not abs(c) <= ZERO_TOL for _, _, c in self.atoms):
            return False
        if self.density is not None:
            box = self.density.support_box()
            if not box.is_empty:
                axes = [np.linspace(lo, hi, ZERO_GRID_POINTS)[:, None]
                        for lo, hi in box.pad(1e-3).intervals]
                if not np.all(np.abs(self.density.eval_grid(axes)) <= ZERO_TOL):
                    return False
        return True


def dirac_at(point, fibre_dim: int, beta=None) -> PointDistribution:
    beta = (0,) * fibre_dim if beta is None else beta
    return PointDistribution(fibre_dim, ((tuple(point), beta, 1.0),))


def pair(v: PointDistribution, g: Expr, order: int | None = None) -> float:
    """Apply a point distribution to a fibre function."""
    if g.dim != v.fibre_dim:
        raise DimensionError("fibre function dimension mismatched with point distribution")
    total = 0.0
    for point, beta, c in v.atoms:
        if c == 0.0:
            continue
        total += c * g.diff(beta).evaluate(point)
    if v.density is not None:
        integrand = ex.mul(v.density, g)
        total += quadrature.integrate(integrand, integrand.support_box(), order)
    return total


def restriction_table(pairs, X, order: int | None = None) -> list:
    """``pair(restrict(T, x), g, order)`` for every (T, members) of
    ``pairs``, every row x of an (M, l) array and every fibre function g
    in ``members``: a list of (len(members), M) arrays.

    The Dirac terms of all pairs are one ``pair_table`` of the members
    extended to the total space.  Density terms are restricted and paired
    point by point and added after the atoms, as ``pair`` adds its density
    part, so every entry equals the pointwise pairing bit for bit.
    """
    pairs = [(T, tuple(members)) for T, members in pairs]
    out = pair_table([(_only(T, dirac=True), [extend_function(T.bundle, g) for g in members])
                      for T, members in pairs], X, order)
    for values, (T, members) in zip(out, pairs):
        T_density = _only(T, dirac=False)
        if T_density.terms:
            for i, x in enumerate(np.asarray(X, dtype=float).tolist()):
                v = restrict(T_density, x)
                for j, g in enumerate(members):
                    values[j, i] += pair(v, g, order)
    return out


def pair_table(pairs, X, order: int | None = None) -> list:
    """T_x(F(x, .)) for every (T, members) of ``pairs``, every row x of an
    (M, l) array and every total-space function F in ``members``: a list of
    (len(members), M) arrays, in the order of ``pairs``.  The entries equal
    ``pair(restrict(T, x), restrict_function(T.bundle, F, x), order)`` to
    rounding wherever the two fibre boxes coincide.

    Nothing is restricted: fibre derivatives commute with restriction, so a
    Dirac term reads each member's D^(0,beta) F, memoized on the member's
    DAG, at (x, sigma(x)).  One ``ex.evaluate_many`` pass evaluates the
    weights of every pair's Dirac terms, and per section one its components
    and one the union of the (beta, member) derivatives its terms read, at
    the rows where some weight of the section is not zero.  Each pair adds
    its terms in term order, each as ``pair`` adds an atom; a zero weight
    adds +0.0, which changes no sum, as ``pair`` skips zero coefficients
    (an infinite derivative there is not multiplied).  Density terms are
    integrated as ``evaluate`` integrates them, over all rows in one pass,
    and added after the atoms.
    """
    pairs = [(T, tuple(members)) for T, members in pairs]
    X = np.asarray(X, dtype=float)
    for T, members in pairs:
        b = T.bundle
        if X.ndim != 2 or X.shape[1] != b.base_dim:
            raise DimensionError(f"expected base points of shape (M, {b.base_dim})")
        if any(F.dim != b.total_dim for F in members):
            raise DimensionError("pair_table expects total-space functions")
    diracs = [(p, t) for p, (T, _) in enumerate(pairs)
              for t in T.terms if t.section is not None]
    weights = ex.evaluate_many([t.weight for _, t in diracs], X)
    keys = [(t.section, t.bundle.fibre_beta_to_total(t.beta)) for _, t in diracs]
    by_section = {}  # section -> [term index, ...]
    for k, (section, _) in enumerate(keys):
        by_section.setdefault(section, []).append(k)
    paired = {}  # (section, beta, F) -> values, 0 off the live rows
    for section, ks in by_section.items():
        live = np.flatnonzero((weights[ks] != 0.0).any(axis=0))
        if not live.size:
            continue
        rows = X[live]
        at = np.concatenate([rows, ex.evaluate_many(section.components, rows).T], axis=1)
        roots = {(*keys[k], F): (F, keys[k][1]) for k in ks for F in pairs[diracs[k][0]][1]}
        values = np.zeros((len(roots), X.shape[0]))
        values[:, live] = ex.evaluate_many([F.diff(beta) for F, beta in roots.values()], at)
        paired.update(zip(roots, values))
    out = [np.zeros((len(members), X.shape[0])) for _, members in pairs]
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf and inf - inf, quietly
        for (p, _), key, w in zip(diracs, keys, weights):
            members = pairs[p][1]
            if members and (*key, members[0]) in paired:  # else every weight is 0 here
                v = np.array([paired[(*key, F)] for F in members])
                out[p] += np.where(w != 0.0, w * v, 0.0)
        for values, (T, members) in zip(out, pairs):
            D = _only(T, dirac=False)
            if D.terms:
                values += values_at(X, *(evaluate(D, F, order) for F in members))
    return out


def _only(T: TransversalDistribution, dirac: bool) -> TransversalDistribution:
    """T's Dirac terms, or its density terms."""
    return TransversalDistribution(T.bundle, [t for t in T.terms if (t.section is None) != dirac])


# ---------------------------------------------------------------------------
# The smooth compactly supported base function T(F)


@dataclass(frozen=True)
class QuadPart:
    bundle: TrivialBundle
    integrand: Expr  # total-space function with bounded support
    fibre_box: Box  # fixed fibre integration box

    def values(self, X: np.ndarray, order) -> np.ndarray:
        """The fibre integral at each row of an (M, l) array of base points;
        the integrand keeps it and its frontier (see the module docstring)."""
        memo = vars(self.integrand)
        return quadrature.kept(
            memo, "_fibre_integral", (self.fibre_box, order, quadrature.grid_key(X)),
            lambda: quadrature.integrate_rows(
                lambda i, j, r: self.integrand.eval_grid((X[i:j], *r.axes), lambda build: (
                    quadrature.kept(memo, "_fibre_nodes", (r.box, r.order), build))
                ).reshape(j - i, -1), self.fibre_box, X.shape[0], order))

    def diff_base(self, alpha) -> "QuadPart":
        total_alpha = self.bundle.base_alpha_to_total(alpha)
        return QuadPart(self.bundle, self.integrand.diff(total_alpha), self.fibre_box)


@dataclass(frozen=True)
class NumericPart:
    """A numeric kernel term (see operators) applied to a fibre function g."""

    term: object  # NumericKernelTerm: values_fn(X, Z) -> kernel values, (M, N)
    g: Expr  # fibre function
    box: Box  # fibre integration box: the term's fibre box within g's support
    support_box: Box  # base box outside which the value vanishes

    def values(self, X: np.ndarray, order) -> np.ndarray:
        """The integral against g at each row of an (M, l) array of base
        points; the part keeps g on the last rule's axes."""
        return quadrature.integrate_rows(
            lambda i, j, r: self.term.values_fn(X[i:j], r.points) * quadrature.kept(
                vars(self), "_g_grid", (r.box, r.order), lambda: self.g.eval_grid(r.axes)),
            self.box, X.shape[0], order)


@dataclass(frozen=True)
class BaseFunction:
    """A smooth compactly supported function of the base point.

    Sum of an exact symbolic part, quadrature parts with differentiation
    under the integral sign, and (for composed numeric kernels) opaque
    numeric parts that support evaluation only.  ``values(X)`` evaluates
    at many base points in array passes, and ``value(x)`` is its one-row
    case: the two agree bit for bit.
    """

    bundle: TrivialBundle
    symbolic: Expr | None = None
    quad_parts: tuple = ()
    numeric_parts: tuple = ()  # NumericPart objects
    order: int | None = None

    def __post_init__(self):
        if self.symbolic is not None and self.symbolic.dim != self.bundle.base_dim:
            raise DimensionError("symbolic part must be a base function")

    def value(self, x) -> float:
        if len(x) != self.bundle.base_dim:
            raise DimensionError("base point dimension mismatched with bundle")
        x = tuple(float(c) for c in x)
        total = self.symbolic.evaluate(x) if self.symbolic is not None else 0.0
        parts = self.quad_parts + self.numeric_parts
        if parts:
            X = np.array([x])
            for part in parts:
                total += float(part.values(X, self.order)[0])
        return total

    def values(self, X) -> np.ndarray:
        """The value at each row of an (M, l) array of base points, each
        equal to ``value`` at its row, bit for bit (``values_at``)."""
        return values_at(X, self)[0]

    def derivative(self, alpha) -> "BaseFunction":
        alpha = ex.check_multi_index(alpha, self.bundle.base_dim)
        if self.numeric_parts and any(alpha):
            raise ExprError("numeric kernel parts support pointwise evaluation only")
        sym = self.symbolic.diff(alpha) if self.symbolic is not None else None
        quads = tuple(p.diff_base(alpha) for p in self.quad_parts)
        return BaseFunction(self.bundle, sym, quads, self.numeric_parts, self.order)

    def support_box(self) -> Box:
        box = Box.empty(self.bundle.base_dim)
        if self.symbolic is not None:
            box = box.hull(self.symbolic.support_box())
        for part in self.quad_parts:
            base_box = part.integrand.support_box().project(part.bundle.base_slots)
            box = box.hull(base_box)
        for part in self.numeric_parts:
            box = box.hull(part.support_box)
        return box

    def bump_boundary_distance(self, x) -> float:
        """Smallest |.|-distance of symbolic bump arguments to their cutover."""
        if self.symbolic is None:
            return math.inf
        return self.symbolic.bump_boundary_distance(tuple(float(c) for c in x))


def values_at(X, *bfs) -> np.ndarray:
    """``bf.values(X)`` for each base function, shape (len(bfs), M): the
    symbolic parts of all of them in one ``ex.evaluate_many`` pass, each
    quadrature or numeric part in one ``integrate_rows`` pass.  Each entry
    equals ``bf.value(x)`` bit for bit."""
    X = np.asarray(X, dtype=float)
    for bf in bfs:
        if X.ndim != 2 or X.shape[1] != bf.bundle.base_dim:
            raise DimensionError(f"expected base points of shape (M, {bf.bundle.base_dim})")
    out = np.zeros((len(bfs), len(X)))
    symbolic = [k for k, bf in enumerate(bfs) if bf.symbolic is not None]
    out[symbolic] = ex.evaluate_many([bfs[k].symbolic for k in symbolic], X)
    for row, bf in zip(out, bfs):
        for part in bf.quad_parts + bf.numeric_parts:
            row += part.values(X, bf.order)
    return out


# ---------------------------------------------------------------------------
# Core operations


def evaluate(T: TransversalDistribution, F: Expr,
             order: int | None = None) -> BaseFunction:
    """T applied to a total-space function, as a function of the base point."""
    b = T.bundle
    if F.dim != b.total_dim:
        raise DimensionError("evaluate expects a total-space function")
    symbolic_terms = []
    quad_parts = []
    for term in T.terms:
        integrand = term.integrand(F)
        if term.section is not None:
            symbolic_terms.append(integrand)
        else:
            fibre_box = integrand.support_box().project(b.fibre_slots)
            quad_parts.append(QuadPart(b, integrand, fibre_box))
    sym = ex.add(*symbolic_terms) if symbolic_terms else None
    return BaseFunction(b, sym, tuple(quad_parts), order=order)


def restrict(T: TransversalDistribution, x) -> PointDistribution:
    """The fibre restriction T_x as a point distribution on R^k."""
    b = T.bundle
    if len(x) != b.base_dim:
        raise DimensionError("base point dimension mismatched with bundle")
    x = tuple(float(c) for c in x)
    atoms = []
    dens = None
    for term in T.terms:
        if term.section is not None:
            atoms.append((term.section.value(x), term.beta, term.weight.evaluate(x)))
        else:
            g = restrict_function(b, term.weight, x)
            dens = g if dens is None else ex.add(dens, g)
    return PointDistribution(b.fibre_dim, tuple(atoms), dens)


def family_derivative(T: TransversalDistribution, alpha) -> TransversalDistribution:
    """The derivative of the family x -> T_x, in the same finite-order class.

    For one base direction, a Dirac term (sigma, f, beta) maps to
    (sigma, df, beta) plus sum_j (sigma, f * d sigma_j, beta + e_j), and a
    density term phi maps to d phi; higher orders iterate in slot order.
    """
    b = T.bundle
    alpha = ex.check_multi_index(alpha, b.base_dim)
    out = T
    for slot, n in enumerate(alpha):
        for _ in range(n):
            out = _family_derivative_1(out, slot)
    return out


def family_derivatives(T: TransversalDistribution, alpha_max: int) -> dict:
    """``family_derivative(T, beta)`` for every beta of
    ``multi_indices_up_to(base_dim, alpha_max)``, keyed by beta.

    Each is one step from the D^(beta - e_s) T before it, s the last slot
    with beta_s > 0: the step ``family_derivative`` takes last.  So every
    entry has the same terms in the same order, and the tower builds each
    product weight once instead of once per higher beta.
    """
    out = {}
    for beta in ex.multi_indices_up_to(T.bundle.base_dim, alpha_max):
        s = max((i for i, n in enumerate(beta) if n), default=None)
        out[beta] = T if s is None else _family_derivative_1(
            out[beta[:s] + (beta[s] - 1,) + beta[s + 1:]], s)
    return out


def _family_derivative_1(T: TransversalDistribution, slot: int) -> TransversalDistribution:
    moves = []  # per term, each section component j that moves along the slot
    for term in T.terms:
        dcomps = [c.diff1(slot) for c in (() if term.section is None else term.section.components)]
        moves.append([(j, d) for j, d in enumerate(dcomps) if ex.constant_value(d) != 0])
    count = len(T.terms) + sum(map(len, moves))
    if count > MAX_TOWER_TERMS:
        raise ExprError(f"a family derivative step would build {count} terms, over the "
                        f"budget MAX_TOWER_TERMS = {MAX_TOWER_TERMS}")
    new_terms = []
    for term, moved in zip(T.terms, moves):
        # every new weight vanishes wherever term.weight does
        new_terms.append(term._derived(term.weight.diff1(slot), term.beta))
        for j, dcomp in moved:
            beta_j = tuple(bb + (1 if idx == j else 0) for idx, bb in enumerate(term.beta))
            new_terms.append(term._derived(ex.mul(term.weight, dcomp), beta_j))
    return TransversalDistribution(T.bundle, tuple(new_terms))


def module_action_base(f: Expr, T: TransversalDistribution) -> TransversalDistribution:
    """(f . T)(G) = T((f o pi) G): multiply weights by f, densities by f o pi."""
    b = T.bundle
    if f.dim != b.base_dim:
        raise DimensionError("base action expects a base function")
    new_terms = []
    for term in T.terms:
        g = f if term.section is not None else extend_base_function(b, f)
        new_terms.append(replace(term, weight=ex.mul(g, term.weight)))
    return TransversalDistribution(b, tuple(new_terms))


def module_action_total(F: Expr, T: TransversalDistribution) -> TransversalDistribution:
    """(F . T)(G) = T(F G), expanded through the fibre Leibniz rule on atoms."""
    b = T.bundle
    if F.dim != b.total_dim:
        raise DimensionError("total action expects a total-space function")
    new_terms = []
    for term in T.terms:
        if term.section is None:
            new_terms.append(replace(term, weight=ex.mul(F, term.weight)))
            continue
        for gamma in ex.multi_indices_below(term.beta):
            coeff = ex.multi_binomial(term.beta, gamma)
            remainder = tuple(bi - gi for bi, gi in zip(term.beta, gamma))
            dF = F.diff(b.fibre_beta_to_total(remainder))
            factor = pullback_along_section(b, dF, term.section)
            weight = ex.mul(ex.const(coeff, b.base_dim), term.weight, factor)
            new_terms.append(replace(term, weight=weight, beta=gamma))
    return TransversalDistribution(b, tuple(new_terms))


# ---------------------------------------------------------------------------
# Supports


def term_support(term: Term) -> Box:
    """Conservative total-space box outside which a term vanishes: the
    section's graph over the weight's box, or a density's own box."""
    box = term.weight.support_box()
    return box if term.section is None else section_graph_support(term.section, box)


def total_support(T: TransversalDistribution) -> Box:
    """Conservative bounding box of the support inside the total space."""
    box = Box.empty(T.bundle.total_dim)
    for term in T.terms:
        box = box.hull(term_support(term))
    return box


def base_support(T: TransversalDistribution) -> Box:
    """Base projection of the total support (box arithmetic, exact)."""
    return total_support(T).project(T.bundle.base_slots)


# ---------------------------------------------------------------------------
# Hadamard factorization and localization


def hadamard_factor(f: Expr, a):
    """Write a polynomial f exactly as f(a) + sum_i (x_i - a_i) g_i.

    Returns (f(a) as a Fraction, [(slot, g_i as Expr), ...]); rejects
    non-polynomial input.
    """
    poly = ex.as_polynomial(f)
    if poly is None:
        raise ExprError("Hadamard factorization requires a polynomial expression")
    dim = f.dim
    if len(a) != dim:
        raise DimensionError("anchor point dimension mismatched with expression")
    a = [Fraction(float(c)) for c in a]
    factors = []
    current = dict(poly)
    for slot in range(dim):
        # split off everything with positive degree in x_slot:
        #   h(x) - h|_{x_slot = a_slot}  =  (x_slot - a_slot) * g_slot
        g = {}
        pinned = {}
        for mono, c in current.items():
            n = mono[slot]
            if n == 0:
                pinned[mono] = pinned.get(mono, Fraction(0)) + c
                continue
            # x^n - a^n = (x - a) * sum_{j=0}^{n-1} a^(n-1-j) x^j
            base = mono[:slot] + (0,) + mono[slot + 1:]
            for j in range(n):
                gm = base[:slot] + (j,) + base[slot + 1:]
                g[gm] = g.get(gm, Fraction(0)) + c * a[slot] ** (n - 1 - j)
            pinned[base] = pinned.get(base, Fraction(0)) + c * a[slot] ** n
        g = {m: c for m, c in g.items() if c != 0}
        if g:
            factors.append((slot, ex.polynomial_to_expr(g, dim)))
        current = {m: c for m, c in pinned.items() if c != 0}
    constant = current.get((0,) * dim, Fraction(0))
    return constant, factors


def localize_decompose(T: TransversalDistribution, x):
    """Decompose T with T_x = 0 as a finite sum of f_i . T_i with f_i(x) = 0.

    Each Dirac weight or density splits into a Hadamard part, its polynomial
    factors in base variables alone (constants count as base), and an
    envelope, its other factors: fibre polynomials first, then the rest,
    each group in factor order.  The Hadamard part must vanish at x, and
    T_i = g_i . E with g_i its Hadamard quotients and E the term with the
    envelope for its weight or density; raises otherwise.
    """
    b = T.bundle
    if len(x) != b.base_dim:
        raise DimensionError("base point dimension mismatched with bundle")
    vx = restrict(T, x)
    if not vx.is_numerically_zero():
        raise ExprError("localization requires the restriction at x to vanish")
    x = tuple(float(c) for c in x)
    pieces = []
    for term in T.terms:
        base_polys, fibre_polys, rest = [], [], []
        for f in term.weight.factors if isinstance(term.weight, ex.Product) else (term.weight,):
            if ex.as_polynomial(f) is None:
                rest.append(f)
            else:
                (base_polys if all(s < b.base_dim for s in f.free_slots)
                 else fibre_polys).append(f)
        if not (base_polys or fibre_polys):
            raise ExprError("unsupported weight form: expected polynomial times envelope")
        if not base_polys:
            raise ExprError("unsupported weight form: no base polynomial factor")
        poly = ex.mul(*base_polys).substitute({s: s for s in b.base_slots}, b.base_dim)
        value_at_x, factors = hadamard_factor(poly, x)
        if value_at_x != 0:
            raise ExprError("unsupported weight form: polynomial part does not vanish at x")
        # a constant 1 is dropped by mul, and stands for an empty envelope
        envelope = ex.mul(ex.const(1, term.weight.dim), *fibre_polys, *rest)
        for slot, g in factors:
            f_i = ex.sub(ex.var(slot, b.base_dim), ex.const(Fraction(x[slot]), b.base_dim))
            E = TransversalDistribution(b, (replace(term, weight=envelope),))
            pieces.append((f_i, module_action_base(g, E)))
    return pieces


def recompose(pieces, bundle: TrivialBundle) -> TransversalDistribution:
    """Sum f_i . T_i of a localization decomposition."""
    out = zero_distribution(bundle)
    for f_i, T_i in pieces:
        out = out + module_action_base(f_i, T_i)
    return out


# ---------------------------------------------------------------------------
# Probing


def separating_probe(F: Expr, G: Expr, grid, bundle: TrivialBundle) -> bool:
    """True when Dirac probes through every grid point see F equal to G.

    Each grid entry is a (base point, fibre point) pair; the probe at such
    an entry is the Dirac functional at the fibre point applied to the
    fibre restrictions of F and G.  A False result exhibits a probe that
    distinguishes the two functions; True only certifies agreement, within
    1e-12, on the given grid.
    """
    for base_pt, fibre_pt in grid:
        v = dirac_at(fibre_pt, bundle.fibre_dim)
        a = pair(v, restrict_function(bundle, F, base_pt))
        c = pair(v, restrict_function(bundle, G, base_pt))
        if abs(a - c) > 1e-12:
            return False
    return True
