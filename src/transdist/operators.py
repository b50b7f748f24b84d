"""Schwartz-kernel operators on the pair bundle R^l x R^l -> R^l.

A kernel operator acts on a function g of the fibre by pairing its
distribution with (x, y) -> g(y).  Composition is kernel convolution,
with compose(K1, K2) meaning "K1 after K2": apply(compose(K1, K2), g)
agrees with apply(K1, apply(K2, g)).

Term-by-term composition rules, chosen by the two terms' kinds (``_classify``):

* graph(sigma1, f1) o graph(sigma2, f2) = graph(sigma2 o sigma1,
  f1 * (f2 o sigma1)); sections compose in reversed operator order, the
  pullback contravariance of graph kernels.
* graph o density substitutes sigma1 into the base argument of phi2.
* density o graph needs the inverse of sigma2, so it is supported for
  affine invertible sections only (exact rational inversion, constant
  Jacobian) and rejected otherwise.
* density o density has no closed form here and becomes a
  quadrature-backed numeric kernel; one further composition with such a
  kernel is allowed, after which composition is rejected.

Density and numeric kernels are evaluated over whole pair grids:
``pair_values(term, Y, Z)`` gives psi(y_i, z_j) for base points Y and fibre
points Z in ``eval_grid`` passes over the blocks of ``quadrature.row_blocks``.
A numeric kernel keeps its inner factor for the last fibre grid
(``quadrature.kept``) and contracts row by row, so its values do not depend
on how many base points are asked for at once.

Dirac terms carrying fibre derivatives (beta != 0) are applied but never
composed; the jet expansion that composition would need is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import quadrature
from .bundle import (Section, TrivialBundle, extend_base_function, extend_function,
                     section_graph_support)
from .distribution import (BaseFunction, NumericPart, Term, TransversalDistribution, evaluate,
                           term_support)
from .expr import Box, DimensionError, Expr, ExprError

MAX_NUMERIC_DEPTH = 2


@dataclass(frozen=True, eq=False)
class NumericKernelTerm:
    """Quadrature-backed kernel: pointwise values, no symbolic form."""

    bundle: TrivialBundle
    base_box: Box
    fibre_box: Box
    depth: int
    values_fn: object  # callable (Y: (M, l), Z: (N, l)) -> (M, N) kernel values

    def values(self, x, Z: np.ndarray) -> np.ndarray:
        return pair_values(self, np.asarray([x], dtype=float), np.asarray(Z, dtype=float))[0]


def pair_values(term, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Kernel values psi(y_i, z_j) of a density or numeric term, shape (M, N)."""
    if not (len(Y) and len(Z)):
        return np.zeros((len(Y), len(Z)))
    if isinstance(term, NumericKernelTerm):
        return term.values_fn(Y, Z)
    return np.concatenate([term.weight.eval_grid((Y[i:j], Z), lambda build: quadrature.kept(
        vars(term.weight), "_fibre_nodes", quadrature.grid_key(Z), build)).reshape(-1, len(Z))
        for i, j in quadrature.row_blocks(len(Y), len(Z))])


def _classify(term) -> str:
    if isinstance(term, NumericKernelTerm):
        return "numeric"
    if term.section is None:
        return "density"
    return "dirac" if not any(term.beta) else "dirac_derivative"


@dataclass(frozen=True, eq=False)
class KernelOperator:
    bundle: TrivialBundle
    terms: tuple

    def __post_init__(self):
        if self.bundle.base_dim != self.bundle.fibre_dim:
            raise DimensionError("kernel operators need equal base and fibre dimensions")
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "kinds", tuple(_classify(t) for t in self.terms))

    @classmethod
    def from_distribution(cls, T: TransversalDistribution) -> "KernelOperator":
        return cls(T.bundle, T.terms)

    def distribution(self) -> TransversalDistribution:
        """The underlying distribution; defined for symbolic terms only."""
        if any(k == "numeric" for k in self.kinds):
            raise ExprError("composed numeric kernels have no symbolic distribution")
        return TransversalDistribution(self.bundle, self.terms)


def graph_kernel(section: Section, weight: Expr, beta=None) -> KernelOperator:
    return KernelOperator(section.bundle, (Term(section.bundle, weight, section, beta),))


def density_kernel(bundle: TrivialBundle, phi: Expr) -> KernelOperator:
    return KernelOperator(bundle, (Term(bundle, phi),))


def apply(K: KernelOperator, g: Expr, order: int | None = None) -> BaseFunction:
    """The operator applied to a function of the fibre: evaluate on g o pr2."""
    b = K.bundle
    if g.dim != b.fibre_dim:
        raise DimensionError("apply expects a function of the fibre variables")
    symbolic_terms = tuple(t for t in K.terms if not isinstance(t, NumericKernelTerm))
    out = evaluate(TransversalDistribution(b, symbolic_terms),
                   extend_function(b, g), order=order)
    numeric_parts = []
    for term in K.terms:
        if isinstance(term, NumericKernelTerm):
            box = term.fibre_box.intersect(g.support_box())
            support = term.base_box if box.volume() > 0.0 else Box.empty(b.base_dim)
            numeric_parts.append(NumericPart(term, g, box, support))
    return replace(out, numeric_parts=tuple(numeric_parts))


def apply_to_values(K: KernelOperator, fn, fn_support: Box,
                    order: int | None = None):
    """Apply the operator to a pointwise-evaluable fibre function.

    ``fn`` maps a fibre point tuple to a float and vanishes outside
    ``fn_support``.  Only derivative-free terms are supported; this is the
    reinterpretation step of the composition contract, where the inner
    operator value is not symbolic.
    """
    b = K.bundle
    if any(k == "dirac_derivative" for k in K.kinds):
        raise ExprError("pointwise application needs derivative-free terms")
    # Dirac terms as None; density and numeric terms as their fibre box
    fibre_boxes = [None if kind == "dirac" else _term_boxes(t, b)[1].intersect(fn_support)
                   for t, kind in zip(K.terms, K.kinds)]

    def fn_values(Z):
        return np.array([fn(tuple(z)) for z in Z])

    def value(x):
        x = tuple(float(c) for c in x)
        X = np.asarray([x])
        total = 0.0
        for term, box in zip(K.terms, fibre_boxes):
            if box is None:
                w = term.weight.evaluate(x)
                if w != 0.0:
                    total += w * fn(term.section.value(x))
            else:
                total += quadrature.integrate(
                    lambda Z: pair_values(term, X, Z)[0] * fn_values(Z), box, order)
        return total

    return value


def compose(K1: KernelOperator, K2: KernelOperator,
            order: int | None = None) -> KernelOperator:
    """Kernel convolution; K1 acts after K2."""
    if K1.bundle != K2.bundle:
        raise DimensionError("cannot compose kernels on different bundles")
    if "dirac_derivative" in K1.kinds + K2.kinds:
        raise ExprError("composition of Dirac terms with fibre derivatives is not supported")
    out_terms = []
    for t1 in K1.terms:
        for t2 in K2.terms:
            out_terms.append(_compose_terms(t1, t2, K1.bundle, order))
    return KernelOperator(K1.bundle, tuple(out_terms))


def _compose_terms(t1, t2, b: TrivialBundle, order):
    kinds = _classify(t1), _classify(t2)
    if kinds == ("dirac", "dirac"):
        section = _compose_sections(t2.section, t1.section)
        weight = ex.mul(t1.weight, t2.weight.substitute(dict(enumerate(t1.section.components))))
        return Term(b, weight, section)
    if kinds == ("dirac", "density"):
        # psi(x, z) = f1(x) * phi2(sigma1(x), z)
        lifted = {i: extend_base_function(b, c)
                  for i, c in enumerate(t1.section.components)}
        phi = t2.weight.substitute(lifted)
        try:
            return Term(b, ex.mul(extend_base_function(b, t1.weight), phi))
        except ExprError:
            return _compose_numeric(t1, t2, b, order)
    if kinds == ("density", "dirac"):
        # psi(x, z) = phi1(x, S(z)) * f2(S(z)) / |det A| with S the inverse
        # of the affine section sigma2
        inverse, jac = _invert_affine_section(t2.section)
        S = [extend_function(b, Sj) for Sj in inverse]
        phi = t1.weight.substitute({b.base_dim + j: Sj for j, Sj in enumerate(S)})
        factor = t2.weight.substitute(dict(enumerate(S)), b.total_dim)
        try:
            return Term(b, ex.mul(phi, factor, ex.const(1 / jac, b.total_dim)))
        except ExprError:
            # support analysis of multi-variable bump arguments lost the
            # bound; keep the kernel with explicit geometric boxes instead
            return _compose_numeric(t1, t2, b, order)
    return _compose_numeric(t1, t2, b, order)


def _compose_sections(outer: Section, inner: Section) -> Section:
    """x -> outer(inner(x)); domains are left global, weights localize."""
    images = dict(enumerate(inner.components))
    return Section(inner.bundle, tuple(c.substitute(images) for c in outer.components), None)


def _invert_affine_section(section: Section):
    """Exact inverse of an affine section, plus |det| of its linear part."""
    b = section.bundle
    k = b.fibre_dim
    rows = []
    offset = []
    for comp in section.components:
        aff = ex.as_affine(comp)
        if aff is None:
            raise ExprError("density o graph composition needs an affine section")
        rows.append([aff.get(i, Fraction(0)) for i in range(k)])
        offset.append(aff.get(-1, Fraction(0)))
    inv, det = _invert_matrix(rows)
    if det == 0:
        raise ExprError("density o graph composition needs an invertible section")
    # S(z) = A^-1 (z - b), expressed in fibre variables z0..z(k-1)
    comps = []
    for i in range(k):
        terms = [ex.const(-sum(inv[i][j] * offset[j] for j in range(k)), k)]
        for j in range(k):
            if inv[i][j] != 0:
                terms.append(ex.mul(ex.const(inv[i][j], k),
                                    ex.var(j, k, name=f"y{j}")))
        comps.append(ex.add(*terms))
    return tuple(comps), abs(det)


def _invert_matrix(rows):
    """Gauss-Jordan over Fractions; returns (inverse, determinant)."""
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return inv, Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [v / p for v in a[col]]
        inv[col] = [v / p for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv, det


def _term_boxes(term, b: TrivialBundle):
    """(base box, fibre box) of a term; a numeric term keeps its own two, as
    its fibre box may be empty while its base box is not."""
    if isinstance(term, NumericKernelTerm):
        return term.base_box, term.fibre_box
    box = term_support(term)
    return box.project(b.base_slots), box.project(b.fibre_slots)


def _compose_numeric(t1, t2, b: TrivialBundle, order):
    depth1 = t1.depth if isinstance(t1, NumericKernelTerm) else 0
    depth2 = t2.depth if isinstance(t2, NumericKernelTerm) else 0
    if _classify(t1) == "dirac":
        # f1(x) * psi2(sigma1(x), z): reindex, no extra quadrature level
        section, weight = t1.section, t1.weight

        def fn(Y, Z, _t2=t2, _section=section, _weight=weight):
            out = np.zeros((Y.shape[0], Z.shape[0]))
            w = _weight.eval_array(Y)
            rows = w != 0.0  # zero-weight rows stay exactly 0
            if rows.any():
                S = np.stack([c.eval_array(Y[rows]) for c in _section.components], axis=-1)
                out[rows] = w[rows, None] * pair_values(_t2, S, Z)
            return out

        base1, _ = _term_boxes(t1, b)
        _, fibre2 = _term_boxes(t2, b)
        return NumericKernelTerm(b, base1, fibre2, depth2, fn)
    if _classify(t2) == "dirac":
        inverse, jac = _invert_affine_section(t2.section)
        scale, memo = 1.0 / float(jac), {}  # a dict of its own, as below

        def fn(Y, Z, _t1=t1, _inv=inverse, _f2=t2.weight, _scale=scale):
            # S(Z), base points (l = k), and _scale * f2(S): kept for the last Z
            S, factor = quadrature.kept(memo, "S", quadrature.grid_key(Z), lambda: (
                S := np.stack([c.eval_array(Z) for c in _inv], axis=-1),
                _scale * _f2.eval_array(S)))
            return factor * pair_values(_t1, Y, S)

        base1, fibre1 = _term_boxes(t1, b)
        pre_image = t2.weight.support_box().intersect(fibre1)
        if pre_image.is_empty:
            fibre2 = Box.empty(b.fibre_dim)
        else:
            fibre2 = section_graph_support(t2.section, pre_image).project(b.fibre_slots)
        return NumericKernelTerm(b, base1, fibre2, depth1, fn)
    # density-like o density-like: one more quadrature level
    depth = max(depth1, depth2) + 1
    if depth > MAX_NUMERIC_DEPTH:
        raise ExprError("composition depth of numeric kernels exceeded")
    _, fibre1 = _term_boxes(t1, b)
    base2, fibre2 = _term_boxes(t2, b)
    mid_box = fibre1.intersect(base2)
    base1, _ = _term_boxes(t1, b)
    if mid_box.volume() == 0.0:  # empty or degenerate
        return NumericKernelTerm(b, base1, fibre2, depth,
                                 lambda Y, Z: np.zeros((Y.shape[0], Z.shape[0])))
    # a dict of its own: kept in fn's __dict__, psi2 would put fn in a cycle
    rule, memo = quadrature.rule(mid_box, order), {}

    def fn(Y, Z, _t1=t1, _t2=t2, _rule=rule):
        left = pair_values(_t1, Y, _rule.points)  # psi1(x, y_i), one row per x
        # psi2(y_i, z_j), free of x, kept for the last fibre grid Z
        right = quadrature.kept(memo, "psi2", quadrature.grid_key(Z),
                                lambda: pair_values(_t2, _rule.points, Z))
        # one vector-matrix product per row: a matrix-matrix product may
        # accumulate in another order
        return np.stack([(_rule.weights * row) @ right for row in left])

    return NumericKernelTerm(b, base1, fibre2, depth, fn)
