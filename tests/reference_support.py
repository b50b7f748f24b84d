"""A plain recursive reference for ``Expr.support_box``.

It walks an expression as a tree, with no memo and no fast path, and
builds every box interval by interval from the constructor: the hull of a
sum's terms, the intersection of all of a product's factors, an integer
power's base, and for a bump the preimage of [-1, 1] under an affine
argument in one variable.  Everything else is supported everywhere.
The affine form of a bump's argument is read off its exact polynomial
(``ref_affine``), not from ``Expr._affine``.
"""

from fractions import Fraction

from transdist import expr as ex

INF = float("inf")


def empty(dim: int) -> ex.Box:
    return ex.Box(dim, None)


def whole(dim: int) -> ex.Box:
    return ex.Box(dim, ((-INF, INF),) * dim)


def hull(a: ex.Box, b: ex.Box) -> ex.Box:
    if a.intervals is None:
        return b
    if b.intervals is None:
        return a
    return ex.Box(a.dim, tuple((min(p[0], q[0]), max(p[1], q[1]))
                               for p, q in zip(a.intervals, b.intervals)))


def intersect(a: ex.Box, b: ex.Box) -> ex.Box:
    if a.intervals is None or b.intervals is None:
        return empty(a.dim)
    ivs = []
    for p, q in zip(a.intervals, b.intervals):
        lo, hi = max(p[0], q[0]), min(p[1], q[1])
        if lo > hi:
            return empty(a.dim)
        ivs.append((lo, hi))
    return ex.Box(a.dim, tuple(ivs))


def ref_affine(e):
    """The affine form of e read off ``as_polynomial(e)``: slot -> coefficient,
    -1 for the constant term, or None.  As in ``as_affine``, a sum, product
    or power with a part that has no form has none either, even where its
    nonlinear terms cancel, as in ``(x0 - x0)*x0^2``."""
    if isinstance(e, (ex.Sum, ex.Product, ex.IntPow)) and any(
            ref_affine(c) is None for c in e._children()):
        return None
    poly = ex.as_polynomial(e)
    if poly is None or any(sum(mono) > 1 for mono in poly):
        return None
    return {mono.index(1) if any(mono) else -1: c for mono, c in poly.items()}


def ref_support(e) -> ex.Box:
    if isinstance(e, ex.Const):
        return empty(e.dim) if e.value == 0 else whole(e.dim)
    if isinstance(e, ex.Sum):
        box = empty(e.dim)
        for t in e.terms:
            box = hull(box, ref_support(t))
        return box
    if isinstance(e, ex.Product):
        box = whole(e.dim)
        for f in e.factors:
            box = intersect(box, ref_support(f))
        return box
    if isinstance(e, ex.IntPow):
        return ref_support(e.base)
    if isinstance(e, ex.BumpRat):
        if not e.coeffs:
            return empty(e.dim)
        affine = ref_affine(e.arg)
        slots = [s for s in affine or {} if s >= 0 and affine[s] != 0]
        if len(slots) == 1:
            a, b = affine[slots[0]], affine.get(-1, Fraction(0))
            lo, hi = sorted(((-1 - b) / a, (1 - b) / a))
            ivs = [(-INF, INF)] * e.dim
            ivs[slots[0]] = (float(lo), float(hi))
            return ex.Box(e.dim, tuple(ivs))
    return whole(e.dim)
