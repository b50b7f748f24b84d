"""Expressions as DAGs: memoized derivatives and one-visit-per-node passes."""

import copy
import gc
import math
import pickle
import sys
import threading
import warnings
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import each_engine
from reference_eval import ref_eval, ref_eval_array
from reference_support import ref_affine, ref_support
from transdist import expr as ex
from transdist import quadrature
from transdist.expr import Box

DIM = 2
REFERENCE = "bump(x0)*exp(sin(x0))*cos(x0^2)"


def distinct_nodes(root) -> int:
    """Node objects reachable from root, each counted once."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._children())
    return len(seen)


def _leaves():
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.one_of(
        st.integers(0, DIM - 1).map(lambda s: ex.var(s, DIM)),
        fractions.map(lambda c: ex.const(c, DIM)),
        st.just(ex.pi(DIM)),
    )


def _cancelling_sum(terms):
    """a + b + ... - a: a sum of three or more terms whose first one cancels."""
    return ex.add(*terms, ex.neg(terms[0]))


def _near_exp_overflow(e):
    """exp(e + 709.5): the argument straddles exp's overflow at 709.78."""
    return ex.exp(ex.add(e, ex.const(Fraction(1419, 2), DIM)))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: ex.add(*ab)),
        pairs.map(lambda ab: ex.sub(*ab)),
        pairs.map(lambda ab: ex.mul(*ab)),
        st.lists(children, min_size=2, max_size=4).map(_cancelling_sum),
        st.tuples(children, st.integers(2, 7)).map(lambda bn: ex.int_pow(*bn)),
        children.map(ex.exp),
        children.map(_near_exp_overflow),
        children.map(ex.sin),
        children.map(ex.cos),
        children.map(ex.bump),
    )


expressions = st.recursive(_leaves(), _extend, max_leaves=8)
coords = st.floats(-2.0, 2.0, allow_nan=False)
points = st.tuples(*[coords] * DIM)


def _differentiated(e, slots):
    """Repeated diff1: later derivatives share the memoized earlier ones."""
    for slot in slots:
        e = e.diff1(slot)
    return e


def _same(a: float, b: float) -> bool:
    """Bit for bit, except that any NaN matches any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(fn, *args):
    """A value, or the type of the exception raised computing it."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            return fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        return type(err)


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), max_size=3),
       st.lists(points, min_size=1, max_size=5))
def test_dag_evaluation_matches_tree_reference_bit_for_bit(e, slots, pts):
    d = _differentiated(e, slots)
    for p in pts:
        got, want = _outcome(d.evaluate, p), _outcome(ref_eval, d, p)
        if isinstance(want, type):
            assert got is want
        else:
            assert _same(got, want), (str(d), p, got, want)
    arr = np.array(pts, dtype=float)
    got, want = _outcome(d.eval_array, arr), _outcome(ref_eval_array, d, arr)
    assert np.array_equal(got, want, equal_nan=True), (str(d), pts, got, want)


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), max_size=2),
       st.lists(points, min_size=1, max_size=6))
def test_scalar_evaluation_is_the_one_row_case_of_eval_array(e, slots, pts):
    """evaluate(p) equals every row of a multi-row eval_array holding p.

    The rows hold each point twice, in both orders, as one column of a
    wider array, so the columns are strided views like a joined grid's."""
    d = _differentiated(e, slots)
    rows = pts + pts[::-1]
    wide = np.zeros((len(rows), 2 * DIM))
    wide[:, ::2] = rows
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        values = d.eval_array(wide[:, ::2])
        for p, got in zip(rows, values.tolist()):
            assert _same(d.evaluate(p), got), (str(d), p, d.evaluate(p), got)


# +-(1 - ulp), +-1 and +-(1 + ulp): both sides of bump's guard |u| >= 1
NEAR_ONE = [s * math.nextafter(1.0, t) for s in (1.0, -1.0) for t in (0.0, 1.0, 2.0)]
block_coords = st.one_of(coords, st.sampled_from(NEAR_ONE))


def _strided(values, width=1):
    """The values as an (n, width) block whose columns are strided views."""
    wide = np.zeros((len(values), 2 * width))
    wide[:, ::2] = np.reshape(values, (len(values), width))
    return wide[:, ::2]


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), max_size=2),
       st.lists(block_coords, max_size=5), st.lists(block_coords, max_size=5),
       st.lists(st.tuples(block_coords, block_coords), max_size=4))
def test_grid_evaluation_is_eval_array_of_the_joined_rows(e, slots, a, b, pts):
    """eval_grid over point blocks equals eval_array over the rows they
    combine, bit for bit: both 1+1 splits of the plane (either list as the
    slow block, against joined and tensor-grid rows) and the one-block
    case, on strided columns, with one-row and zero-row blocks."""
    d = _differentiated(e, slots)
    A, B = _strided(a), _strided(b)
    joined = np.hstack([np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1))])
    cases = [((A, B), joined),
             ((B, A), quadrature.tensor_grid([np.array(b), np.array(a)]).reshape(-1, 2)),
             ((_strided(pts, 2),), np.array(pts).reshape(-1, 2))]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for blocks, rows in cases:
            got, want = d.eval_grid(blocks), d.eval_array(rows)
            assert got.shape == want.shape == (rows.shape[0],)
            assert all(map(_same, got.tolist(), want.tolist())), (str(d), blocks, got, want)


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), max_size=2),
       st.lists(block_coords, min_size=1, max_size=4),
       st.lists(block_coords, min_size=2, max_size=5))
def test_one_row_passes_read_the_kept_fibre_frontier(e, slots, xs, zs):
    """Over a one-row block 0 and a fixed block, ``eval_grid`` with ``keep``
    equals ``eval_array`` over the joined rows at every x, bit for bit: the
    nodes of x0 alone run on floats, and the fibre-only frontier is built
    once, on the first x, and read at the others."""
    d = _differentiated(e, slots)
    Z, kept = _strided(zs), []

    def keep(build):
        if not kept:
            kept.append(build())
        return kept[0]

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for x in xs:
            got = d.eval_grid((np.array([[x]]), Z), keep)
            want = d.eval_array(np.hstack([np.full((len(zs), 1), x), Z]))
            assert list(map(_bits, got.tolist())) == list(map(_bits, want.tolist())), str(d)
    assert len(kept) <= 1


def _bits(v: float) -> str:
    """The float's exact bits, the sign of zero included; every NaN alike."""
    return "nan" if math.isnan(v) else v.hex()


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.lists(st.integers(0, DIM - 1), max_size=3), max_size=4),
       st.lists(st.tuples(block_coords, block_coords), max_size=6))
def test_evaluate_many_is_evaluate_of_each_root(e, derivatives, pts):
    """Over one plan for all roots, every entry equals ``root.evaluate``
    bit for bit, on the scalar and on the array engine.  The roots, an
    expression and several of its derivatives, share subDAGs; the points
    reach both sides of a bump's edge."""
    roots = [e] + [_differentiated(e, slots) for slots in derivatives]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        want = [[r.evaluate(p) for p in pts] for r in roots]
        for _ in each_engine():
            got = ex.evaluate_many(roots, pts).tolist()
            assert [list(map(_bits, row)) for row in got] == [list(map(_bits, row))
                                                             for row in want]


def _grid_pass(roots, blocks):
    """``grid_values`` collected into a list indexed by root, each root's
    array handed out once, and every writable one sharing no memory with
    the blocks or another root's."""
    got = [None] * len(roots)
    for k, value in ex.grid_values(roots, blocks):
        assert got[k] is None
        got[k] = value
    assert all(v is not None for v in got)
    writable = [v for v in got if v.flags.writeable]
    for v in writable:
        assert not any(np.shares_memory(v, b) for b in blocks)
        assert not any(np.shares_memory(v, w) for w in got if w is not v)
    return got


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.lists(st.integers(0, DIM - 1), max_size=3), max_size=3),
       st.lists(block_coords, min_size=1, max_size=4),
       st.lists(block_coords, min_size=1, max_size=4),
       st.lists(block_coords, min_size=1, max_size=3))
def test_grid_values_is_eval_grid_of_each_root(e, derivatives, a, b, c):
    """One pass over many roots gives each root's own ``eval_grid``, bit for
    bit, on one-, two- and three-block grids: with repeated roots, the
    children of a root (which the pass computes before it), a lone
    coordinate, and derivatives sharing subDAGs with the expression."""
    roots = [e, *e._children(), ex.var(0, DIM), e]
    roots += [_differentiated(e, slots) for slots in derivatives]
    lifted = [r.substitute({0: 0, 1: 2}, 3) for r in roots] + [ex.var(1, 3)]
    A, B, C = _strided(a), _strided(b), _strided(c)
    grids = [(roots, (np.hstack([A, A[::-1]]),)), (roots, (A, B)), (lifted, (A, B, C)),
             (lifted, (np.hstack([A, B[:1].repeat(len(A), axis=0)]), C))]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for rs, blocks in grids:
            got = _grid_pass(rs, blocks)
            want = [r.eval_grid(blocks) for r in rs]
            assert [list(map(_bits, v.tolist())) for v in got] == [
                list(map(_bits, v.tolist())) for v in want]


def test_grid_values_hands_out_a_coordinate_read_only():
    """A lone variable root is the caller's column: never handed out
    writable, and writing to what the pass hands out fails."""
    x0 = ex.var(0, 1)
    A = np.array([[0.5], [1.5], [-2.0]])
    for roots in ([x0, ex.exp(x0)], [x0, x0], [ex.exp(x0), ex.exp(x0)]):
        for _, v in ex.grid_values(roots, (A,)):
            if not v.flags.writeable:
                with pytest.raises(ValueError):
                    v[0] = 7.0
    assert A.tolist() == [[0.5], [1.5], [-2.0]]
    assert [k for k, _ in ex.grid_values([ex.exp(x0), x0], (A,))] == [1, 0]


def test_grid_values_lets_go_of_each_root_it_has_handed_out():
    """A root that nothing later reads is dropped once it is handed out, so
    a caller that reduces each root as it comes holds one grid at a time;
    a root that a later root reads is handed out read-only."""
    e = ex.parse("exp(x0)*sin(x0)", 1)
    roots = [e._children()[0], ex.parse("cos(x0)", 1), e]
    A = np.linspace(-1.0, 1.0, 5)[:, None]
    refs = {}
    for k, v in ex.grid_values(roots, (A,)):
        assert v.flags.writeable == (k != 0)
        refs[k] = weakref.ref(v if v.base is None else v.base)
        del v
        gc.collect()
        if k == 2:
            assert refs[1]() is None
    assert sorted(refs) == [0, 1, 2]


def test_evaluate_many_shapes_and_dimension_errors():
    e = ex.parse("x0*exp(x1)", DIM)
    roots = [e, e.diff1(0), e]
    assert ex.evaluate_many(roots, []).shape == (3, 0)
    assert ex.evaluate_many([], [(0.0,)]).shape == (0, 1)
    got = ex.evaluate_many(roots, np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert got.tolist() == [[1.0, 2.0], [1.0, 1.0], [1.0, 2.0]]
    with pytest.raises(ex.DimensionError, match="mixed ambient"):
        ex.evaluate_many([e, ex.parse("x0", 1)], [(0.0, 0.0)])
    for bad in ([(0.0, 0.0), (0.0,)], np.zeros((2, 3))):
        with pytest.raises(ex.DimensionError, match="coordinates, ambient is 2"):
            ex.evaluate_many(roots, bad)


# overflow in bump's u * u and in x0^2, which the scalar path meets silently
OVERFLOWING = ["bump(x0)", "x0^2", "bump(x0)*x0^3"]


@pytest.mark.parametrize("text", OVERFLOWING)
def test_array_evaluation_is_as_silent_as_scalar_evaluation(text):
    """Every array path returns ``evaluate``'s value bit for bit and, like
    it, raises no IEEE warning; evaluate_many takes its array engine."""
    e = ex.parse(text, 1)
    rows = np.array([[1e200], [-1e200], [0.5], [-0.25]] * 8)
    assert rows.shape[0] >= ex._ARRAY_MIN_ROWS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [_bits(e.evaluate(p)) for p in rows.tolist()]
        for got in (e.eval_array(rows), e.eval_grid((rows,)), ex.evaluate_many([e], rows)[0]):
            assert list(map(_bits, got.tolist())) == want
    assert want[:2] == (["0x0.0p+0"] * 2 if "bump" in text else ["inf"] * 2)


# x0 * exp(x1) meets 0 * inf and -0.0 * inf, x0 * x1 underflows to -0.0 from
# nonzero subnormals, and 2*pi multiplies Python floats
MASK_EXPRESSIONS = ["x0*exp(x1)", "x0*x1", "2*pi", "2*pi*x0*x1", "x1*exp(x1)*x0^2"]
MASK_X0 = [0.0, -0.0, math.nan, 5e-324, 1.5]
MASK_X1 = [800.0, -5e-324, math.nan, 0.5]


@pytest.mark.parametrize("text", MASK_EXPRESSIONS)
def test_product_zero_mask_matches_the_reference(text):
    """A product is 0 where a factor is exactly 0, even if another is inf;
    elsewhere it is the IEEE product: -0.0 by underflow, NaN from NaN.
    Grid blocks broadcast the factors against each other."""
    e = ex.parse(text, DIM)
    A, B = np.array(MASK_X0)[:, None], np.array(MASK_X1)[:, None]
    rows = np.hstack([np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1))])
    want = list(map(_bits, ref_eval_array(e, rows).tolist()))
    assert list(map(_bits, e.eval_array(rows).tolist())) == want
    assert list(map(_bits, e.eval_grid((A, B)).tolist())) == want
    assert [_bits(e.eval_array(rows[k:k + 1])[0]) for k in range(len(rows))] == want


def test_eval_grid_returns_an_array_of_its_own():
    """Neither a lone variable nor a product hands back memory that the
    points or a later evaluation share."""
    A, B = np.array([[0.5], [1.5], [-2.0]]), np.array([[3.0], [0.25]])
    for e, blocks in ((ex.parse("x0", 1), (A,)), (ex.parse("x0*x1", DIM), (A, B)),
                      (ex.parse("x0*x1", DIM), (np.hstack([A, A]),))):
        before = [b.copy() for b in blocks]
        first = e.eval_grid(blocks)
        want = first.copy()
        first[:] = 7.0
        assert all(np.array_equal(b, c) for b, c in zip(blocks, before))
        assert np.array_equal(e.eval_grid(blocks), want)


def _pre_change_product_diff1(self, slot):
    """The product rule as it was: every factor differentiated, and the
    terms of factors free of the slot, exactly 0, folded away by mul and add."""
    terms = []
    for i, f in enumerate(self.factors):
        df = f.diff1(slot)
        terms.append(ex.mul(*self.factors[:i], df, *self.factors[i + 1:]))
    return ex.add(*terms)


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), max_size=3))
def test_derivatives_print_as_the_pre_change_product_rule_builds_them(e, slots):
    """Skipping slot-free factors builds the same derivative, node for node."""
    copy = e._map_leaves(replace)  # the same DAG, with nothing memoized
    assert str(copy) == str(e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex.Product, "_diff1", _pre_change_product_diff1)
        want = [str(_differentiated(copy, slots[:n])) for n in range(len(slots) + 1)]
    assert [str(_differentiated(e, slots[:n])) for n in range(len(slots) + 1)] == want


CHILD_FIELDS = ("terms", "factors", "base", "arg")


def _signature(root) -> list:
    """The DAG as ``_number`` lists it: per node its type, its fields that
    are not children and its children's positions."""
    nodes, args, _ = ex._number((root,))
    return [(type(n).__name__,
             [(f.name, getattr(n, f.name)) for f in fields(n) if f.name not in CHILD_FIELDS],
             kids) for n, kids in zip(nodes, args)]


@settings(max_examples=150, deadline=None)
@given(expressions, st.integers(0, DIM - 1))
def test_product_rule_splices_the_terms_mul_would_build(e, slot):
    """For every product in the DAG, each product-rule term is the node
    structure ``mul(*factors[:i], factor_i', *factors[i + 1:])`` builds."""
    for node, _, _ in e._plan:
        p = node or e
        if isinstance(p, ex.Product):
            fs = p.factors
            terms = [ex.mul(*fs[:i], f.diff1(slot), *fs[i + 1:])
                     for i, f in enumerate(fs) if slot in f.free_slots]
            want = ex.add(*terms) if terms else ex.const(0, DIM)
            assert _signature(p.diff1(slot)) == _signature(want), str(p)


@pytest.mark.parametrize("text", ["x0^2*x1", "x0^3 - x1", "(x0 + x1/3)^4", "x0^5",
                                  "(x0 - x1)^6 + x1", "x1*x0^7", "exp(3*x0)*x1",
                                  "sin(5*x0 + x1)", "cos(x0*x1)", "bump(x0/2)*(x1 - 1/3)",
                                  "x0 + x1/3 - x0*x1 + x1^2/7"])
def test_scalar_and_array_paths_agree_on_random_points(text):
    """Each node kind on 2,000 random points: about 3% of them gave
    differing last bits when the scalar path used math.exp or v**n."""
    e = ex.parse(text, DIM)
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, (2000, DIM))
    values = e.eval_array(pts).tolist()
    assert [e.evaluate(tuple(p)) for p in pts.tolist()] == values


def test_reversed_rows_match_the_scalar_path():
    """numpy may take exp of a negatively strided array through another
    loop than of a contiguous one: on an AVX-512 x86-64 host, 50 of these
    2,000 reversed rows differed in the last bit when eval_array read its
    columns in place."""
    e = ex.parse("exp(x0)*sin(x1) + cos(x0*x1)", DIM)
    rows = np.random.default_rng(1).uniform(-5.0, 5.0, (2000, DIM))[::-1]
    assert e.eval_array(rows).tolist() == [e.evaluate(p) for p in rows.tolist()]


def test_repeated_diff1_returns_the_memoized_object():
    e = ex.parse("bump(x0)*sin(x0*x1)", 2)
    assert e.diff1(0) is e.diff1(0)
    assert e.diff((2, 1)) is e.diff1(0).diff1(0).diff1(1)
    assert e.support_box() is e.support_box()


def test_order_six_reference_derivative_is_a_compact_dag():
    d = ex.parse(REFERENCE, 1).diff((6,))
    assert distinct_nodes(d) <= 12_000
    assert len(d._plan) == 168  # equal nodes are one node: 9,582 before interning
    # the correctly rounded derivative (mpmath at 50 digits gives
    # 1138.24313634265043...), on the scalar and the array path alike
    value = 1138.2431363426504
    assert d.evaluate((0.3,)) == value
    assert d.eval_array(np.array([[0.3], [-0.2], [0.3]]))[[0, 2]].tolist() == [value] * 2


def test_plan_visits_each_node_once_and_releases_each_intermediate_once():
    d = ex.parse(REFERENCE, 1).diff((3,))
    plan = d._plan
    assert len(plan) == distinct_nodes(d)
    assert plan[-1][0] is None  # the root: no cycle through its own plan
    below = [node for node, _, _ in plan[:-1]]
    assert len({id(node) for node in below}) == len(below)
    assert all(node is not d for node in below)
    released = [i for _, _, dead in plan for i in dead]
    assert sorted(released) == list(range(len(plan)))
    assert len(plan) - 1 in plan[-1][2]  # the root, once it is handed out
    for pos, (_, args, dead) in enumerate(plan):
        assert all(i < pos for i in args)
        for i in dead:
            assert not any(i in later for _, later, _ in plan[pos + 1:])


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_affine_bumps = st.builds(
    lambda s, a, b: ex.bump(ex.add(ex.mul(ex.const(a, DIM), ex.var(s, DIM)),
                                   ex.const(b, DIM))),
    st.integers(0, DIM - 1), _fractions.filter(bool), _fractions)


def _support_extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(_affine_bumps, _affine_bumps, children).map(lambda fs: ex.mul(*fs)),
        pairs.map(lambda ab: ex.add(*ab)),
        pairs.map(lambda ab: ex.mul(*ab)),
        children.map(lambda c: ex.add(c, c)),
        pairs.map(lambda ab: ex.mul(ab[0], ex.add(*ab), ab[0])),
        st.tuples(children, st.integers(2, 4)).map(lambda bn: ex.int_pow(*bn)),
        children.map(ex.exp),
        children.map(ex.bump),
        st.tuples(children, st.integers(0, DIM - 1)).map(lambda cs: cs[0].diff1(cs[1])),
    )


def _box_bits(box):
    ivs = box.intervals
    return box.dim, ivs if ivs is None else tuple((lo.hex(), hi.hex()) for lo, hi in ivs)


supported_expressions = st.recursive(
    st.one_of(_leaves(), st.just(ex.const(0, DIM)), _affine_bumps), _support_extend, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(supported_expressions, st.lists(st.integers(0, DIM - 1), max_size=2))
def test_support_box_matches_tree_reference(e, slots):
    """Memoized support boxes with their fast paths equal a plain recursive
    walk, bit for bit, on DAGs with shared subtrees, zero constants and
    bumps of affine arguments, and on derivatives sharing their nodes."""
    d = e
    for slot in [None, *slots]:
        d = d if slot is None else d.diff1(slot)
        got, want = d.support_box(), ref_support(d)
        assert got == want and _box_bits(got) == _box_bits(want), (str(d), got, want)


def _inside(inner, outer) -> bool:
    return inner.intersect(outer) == inner


@settings(max_examples=100, deadline=None)
@given(st.one_of(expressions, supported_expressions),
       st.one_of(expressions, supported_expressions))
def test_derivatives_and_multiples_stay_inside_the_support_box(e, g):
    """What a family derivative's Dirac terms rely on to be checked against
    their parent's box: D_s e and e * g vanish wherever e does, and their
    computed boxes say so."""
    box = e.support_box()
    for s in range(DIM):
        assert _inside(e.diff1(s).support_box(), box), (str(e), s)
    assert _inside(ex.mul(e, g).support_box(), box), (str(e), str(g))


def test_bump_derivatives_share_their_argument_affine_form(monkeypatch):
    calls = []
    as_affine = ex.as_affine
    monkeypatch.setattr(ex, "as_affine", lambda e: calls.append(e) or as_affine(e))
    e = ex.parse("bump(2*x0 - 1/2)*exp(x0)", 1)
    e.support_box()
    assert len(calls) == distinct_nodes(e.factors[0].arg)  # one form per node
    first = list(calls)
    boxes = {e.diff((k,)).support_box() for k in range(5)}
    assert boxes == {Box.of([(-0.25, 0.75)])}
    assert calls == first


_AFFINE_PINS = {
    "x0 - x0": {},
    "(x0 - x0)*x1": {},
    "(x0 + 1)*(x0 - 1)": None,
    "2*(x0 + x1)/3 + 1": {0: Fraction(2, 3), 1: Fraction(2, 3), -1: 1},
    "(x0 - x0 + 2)^3*x1": {1: 8},
    "sin(x0)": None,
    # affine as polynomials, but written through nonlinear terms: no form,
    # so a bump of either is supported everywhere
    "(x0 - x0)*x0^2": None,
    "x0*x1 - x0*x1 + x0": None,
}


@pytest.mark.parametrize("text, form", _AFFINE_PINS.items())
def test_affine_forms_of_pinned_expressions(text, form):
    e = ex.parse(text, DIM)
    assert e._affine == form and ref_affine(e) == form
    assert all(type(c) is Fraction for c in (e._affine or {}).values())


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_affine_forms_match_the_polynomial_oracle(e):
    """Forms read from the children's forms equal the ones read off the
    exact polynomial, on random DAGs and their derivatives up to order 2."""
    for alpha in ex.multi_indices_up_to(DIM, 2):
        d = e.diff(alpha)
        assert d._affine == ref_affine(d), (str(d), d._affine)


def test_shared_substitution_stays_shared():
    d = ex.parse(REFERENCE, 2).diff((4, 0))
    sub = d.substitute({0: ex.parse("x0/2 + sin(x1)/3", 2)})
    assert distinct_nodes(sub) <= 2 * distinct_nodes(d)


def test_concurrent_differentiation_matches_sequential():
    grid = np.linspace(-0.9, 0.9, 7).reshape(-1, 1)

    def work(e):
        out = []
        for k in range(5):
            d = e.diff((k,))
            out.append((d.evaluate((0.3,)), d.eval_array(grid).tolist(),
                        d.support_box(), d.interval(ex.Box.of([(-0.5, 0.5)]))))
        return out

    expected = work(ex.parse(REFERENCE, 1))
    shared = ex.parse(REFERENCE, 1)
    results = [None] * 4

    def run(i):
        results[i] = work(shared)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


# ---------------------------------------------------------------------------
# The intern table: structurally equal nodes are one object

NODE_CLASSES = (ex.Const, ex.NamedConst, ex.Var, ex.Sum, ex.Product, ex.IntPow,
                ex.Exp, ex.Sin, ex.Cos, ex.BumpRat)


def _plan_nodes(root):
    return [node or root for node, _, _ in root._plan]


CHILD_FIELDS = {"terms", "factors", "base", "arg"}


def _structure(node, keys: dict):
    """The node's structure, built here and not by ``==``: the class, the
    dimension and the fields that are not nodes, then the children's
    structures, each memoized by id in ``keys``."""
    key = keys.get(id(node))
    if key is None:
        own = tuple(getattr(node, f.name) for f in fields(node) if f.name not in CHILD_FIELDS)
        key = keys[id(node)] = (type(node), own,
                                tuple(_structure(k, keys) for k in node._children()))
    return key


@settings(max_examples=150, deadline=None)
@given(st.lists(expressions.map(str), min_size=1, max_size=4))
def test_equal_structures_are_one_node(texts):
    """A text parsed twice is one object, and two nodes are one object
    exactly when their structures are equal: no two different structures
    share a node, and no structure has two."""
    roots = [ex.parse(t, DIM) for t in texts]
    assert all(ex.parse(t, DIM) is e for t, e in zip(texts, roots))
    nodes = [n for e in roots for n in _plan_nodes(e)]
    keys = {}
    for a in nodes:
        for b in nodes:
            assert (a is b) == (_structure(a, keys) == _structure(b, keys)), (str(a), str(b))


@settings(max_examples=150, deadline=None)
@given(expressions, st.lists(st.integers(0, DIM - 1), min_size=1, max_size=3))
def test_a_derivative_has_no_bump_argument_its_function_lacks(e, slots):
    """A bump's derivative keeps its argument node, and no rule makes a new
    one, so a function's bump-boundary scan covers its derivatives'."""
    def bump_args(root):
        return {n.arg for n in _plan_nodes(root) if isinstance(n, ex.BumpRat)}

    assert bump_args(_differentiated(e, slots)) <= bump_args(e)


def test_each_distinct_node_is_differentiated_once(monkeypatch):
    """Roots parsed apart are one node, so their derivatives are one object,
    and a product rule that meets a term twice differentiates it once."""
    text = "bump(x0/23)*exp(sin(x0/23))*cos(x0^2/23)"  # built by no other test
    seen = []
    for cls in NODE_CLASSES:
        diff1 = cls._diff1
        monkeypatch.setattr(cls, "_diff1",
                            lambda self, slot, diff1=diff1: seen.append(self) or diff1(self, slot))
    d = ex.parse(text, 1).diff((5,))
    assert ex.parse(text, 1).diff((5,)) is d
    assert len({id(n) for n in seen}) == len(seen) > 5
    assert {id(n) for n in seen} <= {id(n) for k in range(5)
                                     for n in _plan_nodes(ex.parse(text, 1).diff((k,)))}


def test_a_dead_node_leaves_the_intern_table():
    gc.collect()
    before = len(ex._NODES)
    e = ex.parse("exp(x0*29/31) + sin(x0*29/31)^2", 1)  # built by no other test
    key = (ex.Const, 1, 29, 31)
    assert ex._NODES[key]() is e.terms[0].arg.factors[0]
    assert len(ex._NODES) > before
    del e
    gc.collect()
    assert key not in ex._NODES
    assert len(ex._NODES) == before


def test_a_raced_entry_outlives_the_node_it_replaced():
    """A thread can replace an entry while the old one's callback is still
    to run (a thread switch after its node died); that callback leaves the
    new entry in place."""
    key = (ex.Const, 1, 37, 41)  # built by no other test
    first = ex.const(Fraction(37, 41), 1)
    stale = ex._NODES.pop(key)  # held, as a pending callback holds it
    second = ex.const(Fraction(37, 41), 1)
    assert second is not first and second != first  # equality is identity
    assert second.value == first.value
    assert second.evaluate((0.0,)).hex() == first.evaluate((0.0,)).hex()
    del first
    gc.collect()
    assert stale() is None
    assert ex._NODES[key]() is second and ex.const(Fraction(37, 41), 1) is second


def test_a_lost_race_returns_the_node_the_table_holds():
    """Two threads that miss one key together, replayed in one: the
    constructor first builds and publishes the key through a nested
    ``_node`` call.  The first write wins, so the outer call drops its own
    node and returns the published one, which the table keeps."""
    held = []

    def build(dim):
        if not held:
            held.append(None)
            held[0] = ex._node(key, dim)  # the other thread, publishing first
        return ex.Var(dim, 0, "x0")  # a fresh node, as the losing thread builds

    key = (build, 1, "a lost race")
    node = ex._node(key, 1)
    assert node is held[0]
    assert ex._NODES[key]() is node


class _Racing:
    """A part of an intern key whose hash, once ``steps`` hashes of the key
    have begun, runs ``race``: another thread's ``_node`` call taking the
    interpreter at that point of this thread's walk through the table."""

    def __init__(self):
        self.steps, self.race = 0, None

    def __hash__(self):
        self.steps -= 1
        if self.steps == 0:
            self.race()
        return 0


class _Built:
    """A node type of its own, so that its keys meet no other test's."""


def _dead_entry(key):
    """An entry of ``key`` whose node has died and whose callback is still
    to run, as after a thread switch."""
    entry = ex._Entry(_Built())
    entry.key = key
    ex._NODES[key] = entry
    return entry


@pytest.mark.parametrize("step", [1, 2, 3])
def test_forgetting_a_dead_entry_keeps_its_replacement(step):
    """A dead node's callback that races a thread replacing its entry, the
    other thread running at each point where the callback runs Python
    code (a hash of the key), or after it: the replacement stays."""
    part, won = _Racing(), []
    key = (_Built, part)
    part.race = lambda: won.append(ex._node(key))
    try:
        dead = _dead_entry(key)
        part.steps = step
        ex._forget(dead)
        if not won:
            won.append(ex._node(key))
        assert ex._NODES.get(key) is not None and ex._NODES[key]() is won[0]
    finally:
        ex._NODES.pop(key, None)


@pytest.mark.parametrize("step", [1, 2, 3, 4])
def test_two_misses_on_a_dead_entry_return_one_node(step):
    """Two threads that both find one dead node's entry, replayed in one:
    the second runs at each point where the first runs Python code (a hash
    of the key), or after it.  Both return the node the table holds."""
    part, won = _Racing(), []
    key = (_Built, part)
    part.race = lambda: won.append(ex._node(key))
    try:
        _dead_entry(key)
        part.steps = step
        node = ex._node(key)
        if not won:
            won.append(ex._node(key))
        assert node is won[0] is ex._NODES[key]()
    finally:
        ex._NODES.pop(key, None)


def test_threads_interning_together_match_one_thread():
    """Four threads build the same order-5 derivative from a fresh parse at
    once, so they race for the same table entries; every value equals the
    single-thread one bit for bit, the threads share one node, and no memo
    keeps a node the table does not hold: D^3 unpickles to itself."""
    grid = np.linspace(-0.9, 0.9, 7).reshape(-1, 1)

    def work():
        d = ex.parse(REFERENCE, 1).diff((5,))
        return d, [float.hex(v) for v in [d.evaluate((0.3,)), *d.eval_array(grid).tolist()]]

    expected = work()[1]
    gc.collect()
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def run(i):
        start.wait()
        results[i] = work()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [values for _, values in results] == [expected] * 4
    d = results[0][0]
    assert all(other is d for other, _ in results)
    d3 = ex.parse(REFERENCE, 1).diff((3,))
    assert pickle.loads(pickle.dumps(d3)) is d3


def test_an_unpickled_node_is_the_interned_node_and_evaluates_alike():
    grid = np.linspace(-0.9, 0.9, 7).reshape(-1, 1)
    d = ex.parse(REFERENCE, 1).diff((3,))
    unpickled = pickle.loads(pickle.dumps(d))
    assert unpickled is d
    assert ex.parse(REFERENCE, 1).diff((3,)) is d  # the table still holds d
    assert unpickled.evaluate((0.3,)).hex() == d.evaluate((0.3,)).hex()
    assert unpickled.eval_array(grid).tolist() == d.eval_array(grid).tolist()
    assert unpickled.diff1(0).evaluate((0.3,)).hex() == d.diff1(0).evaluate((0.3,)).hex()


def test_pickling_and_copying_return_the_interned_node():
    d = ex.parse(REFERENCE, 1).diff((3,))
    assert pickle.loads(pickle.dumps(d)) is d
    assert copy.deepcopy(d) is d and copy.copy(d) is d


def test_a_collected_node_unpickles_into_the_table():
    """Unpickling goes through the smart constructors, so a node whose
    entry died comes back interned, and parsing its text finds it."""
    text = "cos(x0*43/47)"  # built by no other test
    data = pickle.dumps(ex.parse(text, 1))
    gc.collect()
    key = (ex.Const, 1, 43, 47)
    assert key not in ex._NODES
    e = pickle.loads(data)
    assert ex._NODES[key]() is e.arg.factors[0]
    assert ex.parse(text, 1) is e


def test_a_pickle_carries_no_memo():
    """The bytes of a node's pickle do not grow as its memos fill."""
    e = ex.parse(REFERENCE, 1)
    before = pickle.dumps(e)
    e.diff((6,))
    e.eval_array(np.linspace(-0.9, 0.9, 7).reshape(-1, 1))
    assert pickle.dumps(e) == before


# ---------------------------------------------------------------------------
# Taylor jets against the symbolic derivatives

# Bound on |jet * alpha! - e.diff(alpha).evaluate(p)| / max(|either|, 1, S),
# where S is the largest finite |jet * beta!| over |beta| <= |alpha| at p.
# Without S this is the relative error check_leibniz measures.  The two sides
# multiply and add the same elementary values, grouped differently (a Cauchy
# product or a recurrence against an expanded product rule), so they differ
# by rounding alone, and this bound keeps that rounding at a tenth of
# check_leibniz's default tolerance of 1e-8: the jets may spend no more of
# the suite's error budget than that.  S is there because a recurrence adds
# lower-order terms: at the pinned example exp's adds 6.8e307 - 7e103 -
# 6.8e307, so the jet reads 0.0 where the derivative is -2.1e104, a
# difference far below one ulp of the terms.  On this strategy the
# differences measured stay under 1e-13 (4,000 examples), so a real fault (a
# wrong coefficient or recurrence weight moves an entry by a whole term)
# cannot hide under it.
JET_REL = 1e-9

near_edge = st.floats(0.9, 1.0, exclude_max=True).flatmap(lambda t: st.sampled_from((t, -t)))
jet_coords = st.one_of(coords, near_edge, st.sampled_from(NEAR_ONE))


def _factorial(alpha) -> int:
    return math.prod(map(math.factorial, alpha))


@settings(max_examples=60, deadline=None)
@given(expressions, st.integers(0, 6),
       st.lists(st.tuples(jet_coords, jet_coords), min_size=1, max_size=3))
@example(ex.parse("exp(sin(x0 + x0 - x0) + 1419/2)", DIM), 3, [(5.206557704890798e-205, 0.0)])
def test_taylor_coefficients_times_alpha_factorial_are_the_derivatives(e, order, pts):
    """Every coefficient up to order 6, at points on and near a bump's edge.

    Entries where a side is not finite are not compared: there an
    intermediate overflowed, and which side that happens on depends on the
    grouping (the symbolic 2*exp(x1^2 + 1419/2)*... passes the largest float
    where the jet's coefficient of the same derivative stays near 1e42).
    The non-finite cases that must agree have their own tests below."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        jets = ex.taylor(e, np.array(pts), order)
        alphas = ex.multi_indices_up_to(DIM, order)
        assert jets.shape == (len(alphas), len(pts))
        scaled = [[jet * _factorial(alpha) for jet in row]
                  for alpha, row in zip(alphas, jets.tolist())]
        for alpha, row in zip(alphas, scaled):
            d = e.diff(alpha)
            for k, (p, got) in enumerate(zip(pts, row)):
                want = d.evaluate(p)
                if math.isfinite(got) and math.isfinite(want):
                    scale = max(abs(r[k]) for beta, r in zip(alphas, scaled)
                            if ex.order(beta) <= ex.order(alpha) and math.isfinite(r[k]))
                    assert abs(got - want) <= JET_REL * max(abs(want), 1.0, scale), (
                        alpha, p, got, want)


def test_taylor_of_order_zero_is_the_value():
    e = ex.parse(REFERENCE + " + x1*sin(x0*x1)", DIM)
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, (7, DIM))
    jets = ex.taylor(e, pts, 0)
    assert jets.shape == (1, 7)
    assert jets[0].tolist() == e.eval_array(pts).tolist()


def test_taylor_of_a_constant_has_only_its_value():
    for e in (ex.parse("2*pi - 1/3", DIM), ex.const(0, DIM)):
        want = e.evaluate((0.0, 0.0))
        jets = ex.taylor(e, [[0.5, -1.0], [3.0, 2.0]], 4)
        assert jets[0].tolist() == [want, want]
        assert not jets[1:].any()


def test_taylor_in_three_dimensions():
    e = ex.parse("exp(x0*x1)*sin(x2) + bump(x0/2)*x2^3 - cos(x1 + x2)*x0^2", 3)
    pts = [(0.3, -0.4, 0.7), (-1.1, 0.2, 0.05)]
    jets = ex.taylor(e, pts, 4)
    alphas = ex.multi_indices_up_to(3, 4)
    assert jets.shape == (35, 2) and len(alphas) == 35
    for alpha, row in zip(alphas, jets.tolist()):
        for p, jet in zip(pts, row):
            want = e.diff(alpha).evaluate(p)
            assert abs(jet * _factorial(alpha) - want) <= 1e-13 * max(abs(want), 1.0)


def test_a_vanishing_weight_zeroes_an_overflowing_factor():
    """As in ``evaluate``: bump(x0) is 0 off (-1, 1), so the product's jet is
    0 there although exp(800*x1) is inf; inside the support it is not finite."""
    e = ex.parse("bump(x0)*exp(800*x1)", DIM)
    pts = [(1.5, 1.0), (0.5, 1.0)]
    with np.errstate(all="ignore"):
        jets = ex.taylor(e, pts, 3)
        want = [[e.diff(a).evaluate(p) for p in pts] for a in ex.multi_indices_up_to(DIM, 3)]
    assert [row[0] for row in want] == [0.0] * 10
    assert jets[:, 0].tolist() == [0.0] * 10
    assert not np.isfinite(jets[:, 1]).any()


def test_a_nan_argument_stays_nan():
    e = ex.parse("bump(x0)*exp(x1) + sin(x0)", DIM)
    jets = ex.taylor(e, [(math.nan, 0.5)], 3)
    for alpha, (jet,) in zip(ex.multi_indices_up_to(DIM, 3), jets.tolist()):
        assert math.isnan(jet) and math.isnan(e.diff(alpha).evaluate((math.nan, 0.5)))


def test_taylor_rejects_bad_shapes_and_orders():
    e = ex.parse("x0*x1", DIM)
    with pytest.raises(ex.DimensionError):
        ex.taylor(e, np.zeros((2, 3)), 2)
    with pytest.raises(ex.ExprError):
        ex.taylor(e, np.zeros((2, 2)), -1)
