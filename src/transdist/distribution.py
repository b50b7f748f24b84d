"""Transversal distributions with compact support on a trivial bundle.

A distribution is a finite sum of two kinds of terms:

* Dirac section terms (section sigma, weight f, fibre multi-index beta),
  acting on a total-space function F by  f(x) * (D_y^beta F)(x, sigma(x));
* density terms phi, acting by  integral of phi(x, y) F(x, y) dy.

Restricting at a base point x yields a point distribution on the fibre:
finitely many derivative-evaluation atoms plus a smooth density.  Atoms
pair with a fibre function g as coefficient * (D^beta g)(point) with no
distributional sign factor, matching the weighted-derivative convention
of the Dirac section action above.

Compactness of supports is a constructor invariant: weights and densities
must have bounded support boxes, so every value of the calculus stays a
compactly supported smooth function of the base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import quadrature
from .bundle import (Section, TrivialBundle, extend_base_function,
                     pullback_along_section, restrict_function, section_graph_support)
from .expr import Box, DimensionError, Expr, ExprError


@dataclass(frozen=True)
class DiracSectionTerm:
    section: Section
    weight: Expr  # base variables, compactly supported
    beta: tuple  # fibre multi-index

    def __post_init__(self):
        b = self.section.bundle
        if self.weight.dim != b.base_dim:
            raise DimensionError("Dirac weight must be a base function")
        object.__setattr__(self, "beta", ex.check_multi_index(self.beta, b.fibre_dim))
        wbox = self.weight.support_box()
        if not wbox.is_bounded:
            raise ExprError("Dirac weight must have a bounded support box")
        if self.section.domain is not None and not wbox.is_empty:
            if wbox.intersect(self.section.domain) != wbox:
                raise ExprError("Dirac weight must be supported inside the section domain")

    @property
    def bundle(self) -> TrivialBundle:
        return self.section.bundle


@dataclass(frozen=True)
class DensityTerm:
    bundle: TrivialBundle
    phi: Expr  # total-space function, compactly supported

    def __post_init__(self):
        if self.phi.dim != self.bundle.total_dim:
            raise DimensionError("density must be a total-space function")
        if not self.phi.support_box().is_bounded:
            raise ExprError("density must have a bounded support box")


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
    b = section.bundle
    beta = b.zero_fibre_beta() if beta is None else beta
    return TransversalDistribution(b, (DiracSectionTerm(section, weight, beta),))


def density(bundle: TrivialBundle, phi: Expr) -> TransversalDistribution:
    return TransversalDistribution(bundle, (DensityTerm(bundle, phi),))


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

    def is_numerically_zero(self, grid_points_per_axis: int = 9, tol: float = 0.0) -> bool:
        """Exact-zero test on atoms plus a grid-zero test on the density part."""
        if any(abs(c) > tol for _, _, c in self.atoms):
            return False
        if self.density is not None:
            box = self.density.support_box()
            if not box.is_empty:
                axes = [np.linspace(lo, hi, grid_points_per_axis)[:, None]
                        for lo, hi in box.pad(1e-3).intervals]
                if np.any(np.abs(self.density.eval_grid(axes)) > tol):
                    return False
        return True


def dirac_at(point, fibre_dim: int, beta=None, coefficient: float = 1.0) -> PointDistribution:
    beta = (0,) * fibre_dim if beta is None else beta
    return PointDistribution(fibre_dim, ((tuple(point), beta, coefficient),))


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


def pair_restrictions(T: TransversalDistribution, X, members,
                      order: int | None = None) -> np.ndarray:
    """``pair(restrict(T, x), g, order)`` for every row x of an (M, l) array
    and every fibre function g in ``members``, shape (len(members), M).

    Dirac terms go as array passes over the rows: the weight, then the
    section components and each member's fibre derivative at the rows whose
    weight is not zero (``pair`` skips zero coefficients).  Density terms
    are restricted and paired point by point and added after the atoms, as
    ``pair`` adds its density part, so every entry equals the pointwise
    pairing bit for bit.
    """
    b = T.bundle
    X = np.asarray(X, dtype=float)
    out = np.zeros((len(members), X.shape[0]))
    densities = []
    for term in T.terms:
        if isinstance(term, DensityTerm):
            densities.append(term)
            continue
        w = term.weight.eval_array(X)
        live = np.flatnonzero(w != 0.0)
        if live.size == 0:
            continue
        w, at = w[live], X[live]
        S = np.stack([c.eval_array(at) for c in term.section.components], axis=-1)
        for j, g in enumerate(members):
            out[j, live] += w * g.diff(term.beta).eval_array(S)
    if densities:
        T_density = TransversalDistribution(b, tuple(densities))
        for i, x in enumerate(X.tolist()):
            v = restrict(T_density, x)
            for j, g in enumerate(members):
                out[j, i] += pair(v, g, order)
    return out


def pair_at(T: TransversalDistribution, X, members,
            order: int | None = None) -> np.ndarray:
    """T_x(F(x, .)) for every row x of an (M, l) array and every total-space
    function F in ``members``, shape (len(members), M).

    Nothing is restricted: fibre derivatives commute with restriction, so a
    Dirac term reads each member's D^(0,beta) F, memoized on the member's
    DAG, at (x, sigma(x)).  One ``ex.evaluate_many`` pass evaluates every
    weight, and per section one its components and one every (beta, member)
    derivative, at the rows where some weight of the section is not zero;
    a zero weight adds nothing, as ``pair`` skips zero coefficients.
    Density terms are integrated as ``evaluate`` integrates them, over all
    rows in one pass, and added after the atoms.  The entries equal
    ``pair(restrict(T, x), restrict_function(T.bundle, F, x), order)`` to
    rounding wherever the two fibre boxes coincide.
    """
    b = T.bundle
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != b.base_dim:
        raise DimensionError(f"expected base points of shape (M, {b.base_dim})")
    if any(F.dim != b.total_dim for F in members):
        raise DimensionError("pair_at expects total-space functions")
    rows = X.tolist()
    out = [[0.0] * len(rows) for _ in members]
    diracs = [t for t in T.terms if isinstance(t, DiracSectionTerm)]
    densities = [t for t in T.terms if isinstance(t, DensityTerm)]
    weights = ex.evaluate_many([t.weight for t in diracs], rows)
    by_section = {}  # id(section) -> [term index, ...]
    for k, term in enumerate(diracs):
        by_section.setdefault(id(term.section), []).append(k)
    paired = {}  # (id(section), total beta) -> (row -> live position, values per member)
    for ks in by_section.values():
        section = diracs[ks[0]].section
        live = [i for i in range(len(rows)) if any(weights[k][i] != 0.0 for k in ks)]
        if not live:
            continue
        comps = ex.evaluate_many(section.components, [rows[i] for i in live])
        at = [tuple(rows[i]) + s for i, s in zip(live, zip(*comps))]
        where = {i: n for n, i in enumerate(live)}
        betas = list(dict.fromkeys(b.fibre_beta_to_total(diracs[k].beta) for k in ks))
        values = ex.evaluate_many([F.diff(beta) for beta in betas for F in members], at)
        for n, beta in enumerate(betas):
            paired[id(section), beta] = where, values[n * len(members):(n + 1) * len(members)]
    for term, w in zip(diracs, weights):
        key = id(term.section), b.fibre_beta_to_total(term.beta)
        for i, c in enumerate(w):
            if c != 0.0:
                where, values = paired[key]
                for row, v in zip(out, values):
                    row[i] += c * v[where[i]]
    if densities:
        D = TransversalDistribution(b, tuple(densities))
        for row, F in zip(out, members):
            row[:] = [a + v for a, v in zip(row, evaluate(D, F, order).values(X).tolist())]
    return np.array(out).reshape(len(members), len(rows))


# ---------------------------------------------------------------------------
# The smooth compactly supported base function T(F)


@dataclass(frozen=True)
class QuadPart:
    bundle: TrivialBundle
    integrand: Expr  # total-space function with bounded support
    fibre_box: Box  # fixed fibre integration box

    def values(self, X: np.ndarray, order) -> np.ndarray:
        """The fibre integral at each row of an (M, l) array of base points."""
        return quadrature.integrate_rows(
            lambda i, j, r: self.integrand.eval_grid((X[i:j], *r.axes)).reshape(j - i, -1),
            self.fibre_box, X.shape[0], order)

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
        """The integral against g at each row of an (M, l) array of base points."""
        return quadrature.integrate_rows(
            lambda i, j, r: self.term.values_fn(X[i:j], r.points) * self.g.eval_grid(r.axes),
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
        """The value at each row of an (M, l) array of base points.

        One ``eval_array`` for the symbolic part and one grid pass per
        block of base points for each quadrature or numeric part; each entry
        equals ``value`` at its row, bit for bit.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.bundle.base_dim:
            raise DimensionError(f"expected base points of shape (M, {self.bundle.base_dim})")
        total = (self.symbolic.eval_array(X) if self.symbolic is not None
                 else np.zeros(X.shape[0]))
        for part in self.quad_parts + self.numeric_parts:
            total = total + part.values(X, self.order)
        return total

    def __call__(self, x) -> float:
        return self.value(x)

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

    def plus(self, other: "BaseFunction") -> "BaseFunction":
        if other.bundle != self.bundle:
            raise DimensionError("cannot add base functions on different bundles")
        if self.symbolic is None:
            sym = other.symbolic
        elif other.symbolic is None:
            sym = self.symbolic
        else:
            sym = ex.add(self.symbolic, other.symbolic)
        return BaseFunction(self.bundle, sym,
                            self.quad_parts + other.quad_parts,
                            self.numeric_parts + other.numeric_parts,
                            self.order or other.order)


def base_function_from_expr(bundle: TrivialBundle, f: Expr) -> BaseFunction:
    return BaseFunction(bundle, symbolic=f)


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
        if isinstance(term, DiracSectionTerm):
            dF = F.diff(b.fibre_beta_to_total(term.beta))
            symbolic_terms.append(ex.mul(term.weight,
                                         pullback_along_section(b, dF, term.section)))
        else:
            integrand = ex.mul(term.phi, F)
            fibre_box = integrand.support_box().project(b.fibre_slots)
            quad_parts.append(QuadPart(b, integrand, fibre_box))
    sym = ex.add(*symbolic_terms) if symbolic_terms else None
    return BaseFunction(b, sym, tuple(quad_parts), order=order)


def hat_pair(F: Expr, T: TransversalDistribution,
             order: int | None = None) -> BaseFunction:
    """The duality pairing F-hat applied to T; identical to evaluate(T, F)."""
    return evaluate(T, F, order=order)


def restrict(T: TransversalDistribution, x) -> PointDistribution:
    """The fibre restriction T_x as a point distribution on R^k."""
    b = T.bundle
    if len(x) != b.base_dim:
        raise DimensionError("base point dimension mismatched with bundle")
    x = tuple(float(c) for c in x)
    atoms = []
    dens = None
    for term in T.terms:
        if isinstance(term, DiracSectionTerm):
            atoms.append((term.section.value(x), term.beta, term.weight.evaluate(x)))
        else:
            g = restrict_function(b, term.phi, x)
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


def _family_derivative_1(T: TransversalDistribution, slot: int) -> TransversalDistribution:
    b = T.bundle
    new_terms = []
    for term in T.terms:
        if isinstance(term, DiracSectionTerm):
            new_terms.append(DiracSectionTerm(term.section,
                                              term.weight.diff1(slot), term.beta))
            for j, comp in enumerate(term.section.components):
                dcomp = comp.diff1(slot)
                if ex.constant_value(dcomp) == 0:
                    continue
                beta_j = tuple(bb + (1 if idx == j else 0)
                               for idx, bb in enumerate(term.beta))
                new_terms.append(DiracSectionTerm(term.section,
                                                  ex.mul(term.weight, dcomp), beta_j))
        else:
            new_terms.append(DensityTerm(b, term.phi.diff1(slot)))
    return TransversalDistribution(b, tuple(new_terms))


def module_action_base(f: Expr, T: TransversalDistribution) -> TransversalDistribution:
    """(f . T)(G) = T((f o pi) G): multiply weights by f, densities by f o pi."""
    b = T.bundle
    if f.dim != b.base_dim:
        raise DimensionError("base action expects a base function")
    new_terms = []
    for term in T.terms:
        if isinstance(term, DiracSectionTerm):
            new_terms.append(DiracSectionTerm(term.section,
                                              ex.mul(f, term.weight), term.beta))
        else:
            new_terms.append(DensityTerm(b, ex.mul(extend_base_function(b, f), term.phi)))
    return TransversalDistribution(b, tuple(new_terms))


def module_action_total(F: Expr, T: TransversalDistribution) -> TransversalDistribution:
    """(F . T)(G) = T(F G), expanded through the fibre Leibniz rule on atoms."""
    b = T.bundle
    if F.dim != b.total_dim:
        raise DimensionError("total action expects a total-space function")
    new_terms = []
    for term in T.terms:
        if isinstance(term, DensityTerm):
            new_terms.append(DensityTerm(b, ex.mul(F, term.phi)))
            continue
        for gamma in ex.multi_indices_below(term.beta):
            coeff = ex.multi_binomial(term.beta, gamma)
            remainder = tuple(bi - gi for bi, gi in zip(term.beta, gamma))
            dF = F.diff(b.fibre_beta_to_total(remainder))
            factor = pullback_along_section(b, dF, term.section)
            weight = ex.mul(ex.const(coeff, b.base_dim), term.weight, factor)
            new_terms.append(DiracSectionTerm(term.section, weight, gamma))
    return TransversalDistribution(b, tuple(new_terms))


# ---------------------------------------------------------------------------
# Supports


def total_support(T: TransversalDistribution) -> Box:
    """Conservative bounding box of the support inside the total space."""
    b = T.bundle
    box = Box.empty(b.total_dim)
    for term in T.terms:
        if isinstance(term, DiracSectionTerm):
            box = box.hull(section_graph_support(term.section,
                                                 term.weight.support_box()))
        else:
            box = box.hull(term.phi.support_box())
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


def _split_polynomial_envelope(weight: Expr):
    """Factor a weight as (polynomial part, envelope part or None)."""
    if ex.as_polynomial(weight) is not None:
        return weight, None
    if isinstance(weight, ex.Product):
        polys, envelope = [], []
        for f in weight.factors:
            (polys if ex.as_polynomial(f) is not None else envelope).append(f)
        if polys:
            return ex.mul(*polys), ex.mul(*envelope)
    return None, None


def localize_decompose(T: TransversalDistribution, x, tol: float = 0.0):
    """Decompose T with T_x = 0 as a finite sum of f_i . T_i with f_i(x) = 0.

    Requires every weight and density to factor as polynomial times an
    envelope, with the polynomial part vanishing at x; raises otherwise.
    """
    b = T.bundle
    if len(x) != b.base_dim:
        raise DimensionError("base point dimension mismatched with bundle")
    vx = restrict(T, x)
    if not vx.is_numerically_zero(tol=tol):
        raise ExprError("localization requires the restriction at x to vanish")
    x = tuple(float(c) for c in x)
    pieces = []
    for term in T.terms:
        if isinstance(term, DiracSectionTerm):
            weight = term.weight
        else:
            weight = term.phi
        poly_part, envelope = _split_polynomial_envelope(weight)
        if poly_part is None:
            raise ExprError("unsupported weight form: expected polynomial times envelope")
        if isinstance(term, DensityTerm):
            # the vanishing must come from base-variable factors
            if any(s >= b.base_dim for s in poly_part.free_slots):
                base_polys, fibre_polys = [], []
                if isinstance(poly_part, ex.Product):
                    for f in poly_part.factors:
                        (base_polys if all(s < b.base_dim for s in f.free_slots)
                         else fibre_polys).append(f)
                if not base_polys:
                    raise ExprError("unsupported weight form: no base polynomial factor")
                poly_part = ex.mul(*base_polys)
                extra = ex.mul(*fibre_polys)
                envelope = extra if envelope is None else ex.mul(extra, envelope)
            poly_base = poly_part.substitute({s: s for s in poly_part.free_slots}, b.base_dim)
        else:
            poly_base = poly_part
        value_at_x, factors = hadamard_factor(poly_base, x)
        if value_at_x != 0:
            raise ExprError("unsupported weight form: polynomial part does not vanish at x")
        for slot, g in factors:
            f_i = ex.sub(ex.var(slot, b.base_dim), ex.const(Fraction(x[slot]), b.base_dim))
            if isinstance(term, DiracSectionTerm):
                new_weight = g if envelope is None else ex.mul(g, envelope)
                T_i = TransversalDistribution(
                    b, (DiracSectionTerm(term.section, new_weight, term.beta),))
            else:
                g_total = extend_base_function(b, g)
                new_phi = g_total if envelope is None else ex.mul(g_total, envelope)
                T_i = TransversalDistribution(b, (DensityTerm(b, new_phi),))
            pieces.append((f_i, T_i))
    return pieces


def recompose(pieces, bundle: TrivialBundle) -> TransversalDistribution:
    """Sum f_i . T_i of a localization decomposition."""
    out = zero_distribution(bundle)
    for f_i, T_i in pieces:
        out = out + module_action_base(f_i, T_i)
    return out


# ---------------------------------------------------------------------------
# Probing


def separating_probe(F: Expr, G: Expr, grid, tol: float = 1e-12,
                     bundle: TrivialBundle | None = None) -> bool:
    """True when Dirac probes through every grid point see F equal to G.

    Each grid entry is a (base point, fibre point) pair; the probe at such
    an entry is the Dirac functional at the fibre point applied to the
    fibre restrictions of F and G.  A False result exhibits a probe that
    distinguishes the two functions; True only certifies agreement on the
    given grid.
    """
    if bundle is None:
        raise DimensionError("separating_probe requires the bundle")
    for base_pt, fibre_pt in grid:
        v = dirac_at(fibre_pt, bundle.fibre_dim)
        a = pair(v, restrict_function(bundle, F, base_pt))
        c = pair(v, restrict_function(bundle, G, base_pt))
        if abs(a - c) > tol:
            return False
    return True
