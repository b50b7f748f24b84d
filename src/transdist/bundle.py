"""Trivial bundle geometry: the projection R^l x R^k -> R^l.

Total-space coordinates split into base variables x0..x(l-1) occupying
slots 0..l-1 and fibre variables y0..y(k-1) occupying slots l..l+k-1.
Functions on a single fibre are re-indexed so the y-variables occupy
slots 0..k-1 of an ambient R^k; ``restrict_function`` and
``extend_function`` translate between the two indexings exactly.  Each
keeps its last result on the function it was given (``quadrature.kept``),
so a loop over base points holds one restriction of F at a time, and the
parts of it that do not read x outlive the step to the next point.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr
from .expr import Box, DimensionError, Expr
from .quadrature import kept


@dataclass(frozen=True)
class TrivialBundle:
    base_dim: int
    fibre_dim: int

    def __post_init__(self):
        if self.base_dim < 1 or self.fibre_dim < 1:
            raise DimensionError("base and fibre dimensions must be at least 1")

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.fibre_dim

    @property
    def base_slots(self):
        return range(self.base_dim)

    @property
    def fibre_slots(self):
        return range(self.base_dim, self.total_dim)

    # -- parsing helpers ------------------------------------------------

    def parse_total(self, text: str) -> Expr:
        """Function on the total space (x and y variables)."""
        return expr.parse(text, self.total_dim, base_dim=self.base_dim)

    def parse_base(self, text: str) -> Expr:
        """Function on the base (x variables only, ambient l)."""
        return expr.parse(text, self.base_dim)

    def parse_fibre(self, text: str) -> Expr:
        """Function on a fibre (y variables only, ambient k)."""
        return expr.parse(text, self.fibre_dim, base_dim=0)

    # -- multi-index embeddings -----------------------------------------

    def base_alpha_to_total(self, alpha):
        alpha = expr.check_multi_index(alpha, self.base_dim)
        return alpha + (0,) * self.fibre_dim

    def fibre_beta_to_total(self, beta):
        beta = expr.check_multi_index(beta, self.fibre_dim)
        return (0,) * self.base_dim + beta

    def zero_fibre_beta(self):
        return (0,) * self.fibre_dim


@dataclass(frozen=True)
class Section:
    """A smooth section x -> (x, sigma(x)) given by k componentwise formulas."""

    bundle: TrivialBundle
    components: tuple  # k expressions in base variables, ambient l
    domain: Box | None = None  # None means all of R^l

    def __post_init__(self):
        if len(self.components) != self.bundle.fibre_dim:
            raise DimensionError("section needs one component per fibre dimension")
        for c in self.components:
            if c.dim != self.bundle.base_dim:
                raise DimensionError("section components must be base functions")
        if self.domain is not None and self.domain.dim != self.bundle.base_dim:
            raise DimensionError("section domain must be a base box")

    def value(self, x) -> tuple:
        return tuple(c.evaluate(x) for c in self.components)


def section_from_strings(bundle: TrivialBundle, texts, domain: Box | None = None) -> Section:
    return Section(bundle, tuple(bundle.parse_base(t) for t in texts), domain)


def restrict_function(bundle: TrivialBundle, F: Expr, x) -> Expr:
    """F(x, .) as a function on the fibre R^k (exact substitution).

    F keeps its last one (``quadrature.kept``, keyed on the bundle and x
    as floats), so restricting F at x again returns the same DAG, and the
    restriction at the next point finds the nodes that do not read x, such
    as ``bump(y0)`` on R^k, still interned."""
    if F.dim != bundle.total_dim:
        raise DimensionError("restrict_function expects a total-space function")
    if len(x) != bundle.base_dim:
        raise DimensionError("base point dimension mismatched with bundle")
    x = tuple(map(float, x))
    images = dict(zip(bundle.fibre_slots, range(bundle.fibre_dim)))
    return kept(vars(F), "_restriction", (bundle, x), lambda: F.substitute(
        images | {i: expr.const(c, bundle.fibre_dim) for i, c in enumerate(x)}, bundle.fibre_dim))


def extend_function(bundle: TrivialBundle, g: Expr) -> Expr:
    """The base-constant extension of a fibre function to the total space.

    g keeps its last one (``quadrature.kept``, keyed on the bundle), so
    extending g to that bundle again returns the same DAG, with the
    derivatives already taken of it."""
    if g.dim != bundle.fibre_dim:
        raise DimensionError("extend_function expects a fibre function")
    return kept(vars(g), "_extension", bundle, lambda: g.substitute(
        {j: bundle.base_dim + j for j in range(bundle.fibre_dim)}, bundle.total_dim))


def extend_base_function(bundle: TrivialBundle, f: Expr) -> Expr:
    """f composed with the projection: a fibre-constant total-space function."""
    if f.dim != bundle.base_dim:
        raise DimensionError("extend_base_function expects a base function")
    return f.substitute({i: i for i in bundle.base_slots}, bundle.total_dim)


def pullback_along_section(bundle: TrivialBundle, F: Expr, section: Section) -> Expr:
    """x -> F(x, sigma(x)) as an exact base function."""
    if F.dim != bundle.total_dim:
        raise DimensionError("pullback expects a total-space function")
    images = {i: i for i in bundle.base_slots}
    images.update({bundle.base_dim + j: c for j, c in enumerate(section.components)})
    return F.substitute(images, bundle.base_dim)


def section_graph_support(section: Section, weight_support: Box) -> Box:
    """A total-space box containing the graph over the weight support.

    Uses interval evaluation of the components; conservative by design.
    """
    bundle = section.bundle
    if weight_support.dim != bundle.base_dim:
        raise DimensionError("weight support must be a base box")
    if weight_support.is_empty:
        return Box.empty(bundle.total_dim)
    if section.domain is not None and not section.domain.is_empty:
        base = weight_support.intersect(section.domain)
    else:
        base = weight_support
    if base.is_empty:
        return Box.empty(bundle.total_dim)
    fibre_ivs = tuple(c.interval(base) for c in section.components)
    return base.times(Box(bundle.fibre_dim, fibre_ivs))
