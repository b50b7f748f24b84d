import decimal
import math
import operator
import sys
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_derivative, grid_points
from transdist import expr as ex
from transdist.expr import Box, DimensionError, ExprSyntaxError


class TestParse:
    def test_product_of_base_and_fibre_variable(self):
        e = ex.parse("x0^2 * y0", 2, base_dim=1)
        assert isinstance(e, ex.Product)
        assert e.evaluate((3.0, 2.0)) == 18.0

    def test_bump_primitive(self):
        e = ex.parse("bump(x0)", 1)
        assert isinstance(e, ex.BumpRat)

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("x0 +", 1)
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            ex.parse("foo(x0)", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            ex.parse("x2", 2)
        with pytest.raises(ExprSyntaxError, match="out of range"):
            ex.parse("y1", 2, base_dim=1)

    def test_decimal_literals_are_exact_rationals(self):
        e = ex.parse("0.1 + 0.2", 1)
        assert isinstance(e, ex.Const)
        assert e.value == Fraction(3, 10)

    def test_division_by_constant_folds(self):
        e = ex.parse("x0/2", 1)
        assert e.evaluate((3.0,)) == 1.5

    def test_division_by_variable_rejected(self):
        with pytest.raises(ExprSyntaxError, match="denominator"):
            ex.parse("1/(x0)", 1)

    def test_named_constant_pi(self):
        assert ex.parse("pi", 1).evaluate((0.0,)) == math.pi

    @pytest.mark.parametrize("text, dims, message, position", [
        ("x0 + $", (1,), "unexpected character '$'", 5),
        ("x0 + ) $", (1,), "expected a term", 5),  # errors are raised in reading order
        ("1.2.3", (1,), "malformed number '1.2.3'", 0),
        ("x0 + 1..", (1,), "malformed number '1..'", 5),
        ("exp x0", (1,), "expected '('", 4),
        ("exp(x0", (1,), "expected ')'", 6),
        ("(x0", (1,), "expected ')'", 3),
        ("", (1,), "expected a term", 0),
        ("  \t ", (1,), "expected a term", 4),
        ("x0 +", (1,), "expected a term", 4),
        ("x0 x0", (1,), "unexpected trailing input 'x0'", 3),
        ("1e400", (1,), "unexpected trailing input 'e400'", 1),
        ("0xy2", (1,), "unexpected trailing input 'xy2'", 1),
        ("2 x01", (2,), "unexpected trailing input 'x01'", 2),
        ("x0^y0", (2, 1), "expected an integer exponent", 3),
        ("x0^1.5", (1,), "expected an integer exponent", 3),
        ("x0^", (1,), "expected an integer exponent", 3),
        ("foo(x0)", (1,), "unknown identifier 'foo'", 0),
        ("pi2", (1,), "unknown identifier 'pi2'", 0),
        ("exp2(x0)", (1,), "unknown identifier 'exp2'", 0),
        ("x", (1,), "unknown identifier 'x'", 0),
        ("x2", (2,), "variable x2 out of range (base dimension 2)", 0),
        ("x01", (1,), "variable x1 out of range (base dimension 1)", 0),
        ("y1", (2, 1), "variable y1 out of range (fibre dimension 1)", 0),
        ("y0", (1,), "variable y0 out of range (fibre dimension 0)", 0),
        ("1/(x0)", (1,),
         "denominator must fold to a constant (nonvanishing by construction)", 1),
        ("0^-1", (1,), "zero raised to a negative power", 3),
        ("(0)^-2", (1,), "zero raised to a negative power", 5),
        # the grammar is ASCII: other digits, letters and symbols are stray characters
        ("²", (1,), "unexpected character '²'", 0),
        ("x0^²", (1,), "unexpected character '²'", 3),
        ("x0 + ５", (1,), "unexpected character '５'", 5),
        ("١ + x0", (1,), "unexpected character '١'", 0),
        ("x0 * é", (1,), "unexpected character 'é'", 5),
    ])
    def test_syntax_error_message_and_offset(self, text, dims, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(text, *dims)
        assert str(err.value) == f"{message} at offset {position}"
        assert err.value.position == position

    def test_whitespace_around_tokens_is_skipped(self):
        assert ex.parse(" x0\t+\n1 ", 1) == ex.parse("x0+1", 1)

    @pytest.mark.parametrize("text", [
        "x0^2 * y0", "bump(x0)", "1 + 2*x0 - x0^3", "sin(x0)*cos(y0) + exp(x0)",
        "bump(2*x0) * (y0 + 1/2)", "-x0 + (x0 - 3)^2",
    ])
    def test_print_parse_round_trip(self, text):
        e = ex.parse(text, 2, base_dim=1)
        again = ex.parse(str(e), 2, base_dim=1)
        pts = grid_points(Box.of([(-2, 2), (-2, 2)]), 7)
        assert np.allclose(e.eval_array(pts), again.eval_array(pts), rtol=0, atol=0)


class TestDifferentiate:
    def test_polynomial_mixed_partial(self):
        e = ex.parse("x0^2 * y0", 2, base_dim=1)
        d = e.diff((1, 1))
        for x in (-1.5, 0.0, 2.0):
            assert d.evaluate((x, 7.0)) == 2 * x

    def test_zero_order_is_identity(self):
        e = ex.parse("sin(x0)*bump(x0)", 1)
        assert e.diff((0,)) is e

    def test_bump_derivative_vanishes_at_zero(self):
        d = ex.parse("bump(x0)", 1).diff((1,))
        assert d.evaluate((0.0,)) == 0.0

    def test_bump_derivative_matches_finite_differences(self):
        b = ex.parse("bump(x0)", 1)
        d = b.diff((1,))
        oracle = fd_derivative(lambda p: b.evaluate(p), (0.5,), 0)
        assert d.evaluate((0.5,)) == pytest.approx(oracle, rel=1e-6)

    def test_derivative_composition_commutes(self):
        zoo = [
            ex.parse("bump(x0)*y0^2", 2, base_dim=1),
            ex.parse("sin(x0)*exp(y0/4)", 2, base_dim=1),
            ex.parse("x0^3*y0 + cos(x0*y0)", 2, base_dim=1),
        ]
        pts = grid_points(Box.of([(-2, 2), (-2, 2)]), 17)
        for e in zoo:
            for alpha, beta in (((1, 0), (0, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 1))):
                lhs = e.diff(alpha).diff(beta)
                rhs = e.diff(tuple(a + b for a, b in zip(alpha, beta)))
                diff = np.abs(lhs.eval_array(pts) - rhs.eval_array(pts))
                assert diff.max() < 1e-10

    def test_finite_difference_convergence_order(self):
        e = ex.parse("bump(x0)*sin(x0)", 1)
        d = e.diff((1,))
        for x in (-0.6, 0.1, 0.45):
            errs = []
            for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
                fd = (e.evaluate((x + h,)) - e.evaluate((x - h,))) / (2 * h)
                errs.append(abs(fd - d.evaluate((x,))))
            order = math.log(errs[0] / errs[-1]) / math.log(8.0)
            assert order >= 1.9

    def test_bump_derivatives_vanish_outside_support(self):
        e = ex.parse("bump(x0)", 1)
        for k in range(7):
            outside = [(-1.0,), (1.0,), (-1.5,), (2.0,), (-37.0,)]
            for p in outside:
                assert e.evaluate(p) == 0.0
            e = e.diff((1,))

    def test_bump_derivatives_continuous_across_boundary(self):
        e = ex.parse("bump(x0)", 1)
        for k in range(7):
            for side in (-1.0, 1.0):
                inner = e.evaluate((side - math.copysign(1e-4, side),))
                assert abs(inner) < 1e-8
            e = e.diff((1,))


class TestEvaluate:
    def test_bump_values(self):
        b = ex.parse("bump(x0)", 1)
        assert b.evaluate((0.0,)) == pytest.approx(math.exp(-1), abs=0)
        assert b.evaluate((1.0,)) == 0.0
        assert b.evaluate((0.5,)) == pytest.approx(math.exp(-4.0 / 3.0), abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ex.parse("x0", 1).evaluate((1.0, 2.0))

    def test_no_spurious_nan_from_overflow(self):
        # exp overflows to inf off-support; the zero bump factor must win
        e = ex.parse("exp(x0^2)*bump(x0)", 1)
        assert e.evaluate((40.0,)) == 0.0
        assert e.eval_array(np.array([[40.0], [0.0]]))[0] == 0.0

    def test_exp_is_finite_up_to_its_overflow(self):
        e = ex.parse("exp(x0)", 1)
        assert e.evaluate((709.5,)) == float(np.exp(709.5)) == 1.3549863193146328e308
        assert e.evaluate((710.0,)) == math.inf
        assert e.eval_array(np.array([[709.5], [710.0]])).tolist() == [
            1.3549863193146328e308, math.inf]

    def test_sum_of_opposite_infinities_is_nan_on_both_paths(self):
        e = ex.parse("1 + exp(exp(x0)) - exp(exp(x0))", 1)
        assert e.evaluate((2.0,)) == 1.0
        assert math.isnan(e.evaluate((7.0,)))  # exp(exp(7)) overflows
        assert np.isnan(e.eval_array(np.array([[2.0], [7.0]]))).tolist() == [False, True]

    def test_eval_array_matches_scalar(self):
        e = ex.parse("bump(x0)*sin(y0) + x0^2", 2, base_dim=1)
        pts = grid_points(Box.of([(-2, 2), (-2, 2)]), 9)
        arr = e.eval_array(pts)
        scalar = np.array([e.evaluate(tuple(p)) for p in pts])
        assert np.array_equal(arr, scalar)


class TestSubstitute:
    def test_basic_substitution(self):
        e = ex.parse("x0*y0", 2, base_dim=1)
        out = e.substitute({1: ex.var(0, 2, "x0")})
        pts = grid_points(Box.of([(-2, 2), (-2, 2)]), 5)
        target = ex.parse("x0^2", 2, base_dim=1)
        assert np.array_equal(out.eval_array(pts), target.eval_array(pts))

    def test_shifted_bump_hits_guard(self):
        e = ex.parse("bump(y0)", 2, base_dim=1)
        shifted = e.substitute({1: ex.parse("x0 + 1", 2, base_dim=1)})
        assert shifted.evaluate((0.0, 99.0)) == 0.0

    def test_chain_rule_against_finite_differences(self):
        e = ex.parse("bump(x0^2)", 1)
        d = e.diff((1,))
        oracle = fd_derivative(lambda p: e.evaluate(p), (0.6,), 0)
        assert d.evaluate((0.6,)) == pytest.approx(oracle, rel=1e-6)

    def test_dimension_mismatch(self):
        e = ex.parse("x0*y0", 2, base_dim=1)
        with pytest.raises(DimensionError):
            e.substitute({1: ex.var(0, 1)})

    def test_image_of_the_wrong_ambient_under_a_change_of_dim(self):
        e = ex.parse("x0*y0", 2, base_dim=1)
        with pytest.raises(DimensionError, match="ambient 2, expected 1"):
            e.substitute({0: ex.var(0, 2), 1: 0}, dim=1)
        with pytest.raises(DimensionError, match="outside ambient 1"):
            e.substitute({0: 0, 1: 1}, dim=1)

    def test_change_of_dim_needs_every_free_slot(self):
        e = ex.parse("x0*y0 + x1", 3, base_dim=2)
        with pytest.raises(DimensionError, match=r"misses slots \[1\]"):
            e.substitute({0: 0, 2: 1}, dim=2)
        # a slot the expression does not read needs no image
        assert str(ex.parse("y0 + 1", 3, base_dim=2).substitute({2: 0}, dim=1)) == "y0 + 1"

    def test_int_image_keeps_the_variable_name(self):
        e = ex.parse("x0 - 2*y0", 2, base_dim=1)
        swapped = e.substitute({0: 1, 1: 0})
        assert str(swapped) == "x0 - 2*y0"
        assert swapped.evaluate((1.0, 10.0)) == 8.0
        moved = e.substitute({0: 2, 1: 0}, dim=3)
        assert [n.name for n, _, _ in moved._plan if isinstance(n, ex.Var)] == ["x0", "y0"]
        assert moved.evaluate((1.0, 99.0, 10.0)) == 8.0

    def test_constants_move_to_the_new_ambient(self):
        e = ex.parse("pi*x0 + 3", 1)
        out = e.substitute({0: 1}, dim=2)
        assert all((node or out).dim == 2 for node, _, _ in out._plan)
        assert out.evaluate((7.0, 2.0)) == math.pi * 2.0 + 3.0


class TestSupportBox:
    def test_bump_support(self):
        assert ex.parse("bump(x0)", 1).support_box().intervals == ((-1.0, 1.0),)

    def test_affine_preimage(self):
        assert ex.parse("bump(2*x0)", 1).support_box().intervals == ((-0.5, 0.5),)

    def test_unbounded(self):
        box = ex.parse("x0^2", 1).support_box()
        assert not box.is_bounded

    def test_shifted_argument(self):
        box = ex.parse("bump(x0 - 3)", 1).support_box()
        assert box.intervals == ((2.0, 4.0),)

    def test_soundness_on_random_outside_points(self):
        rng = np.random.default_rng(7)
        exprs = [
            ex.parse("bump(x0)*exp(x0)", 1),
            ex.parse("bump(2*x0 - 1)*(x0^3 + 2)", 1),
            ex.parse("bump(x0)*bump(y0)*sin(x0*y0)", 2, base_dim=1),
            ex.parse("bump(x0/2) + bump(x0 - 1)", 1),
        ]
        for e in exprs:
            box = e.support_box()
            assert box.is_bounded and not box.is_empty
            hits = 0
            while hits < 64:
                p = tuple(rng.uniform(-8, 8) for _ in range(e.dim))
                if all(lo <= c <= hi for c, (lo, hi) in zip(p, box.intervals)):
                    continue
                hits += 1
                assert e.evaluate(p) == 0.0

    def test_zero_constant_has_empty_support(self):
        assert ex.const(0, 1).support_box().is_empty

    def test_disjoint_factors_have_empty_support(self):
        assert ex.parse("bump(x0)*bump(x0 - 3)*exp(x0)", 1).support_box().is_empty

    def test_sum_takes_hull_product_takes_intersection(self):
        s = ex.parse("bump(x0) + bump(x0 - 1)", 1).support_box()
        assert s.intervals == ((-1.0, 2.0),)
        p = ex.parse("bump(x0) * bump(x0 - 1)", 1).support_box()
        assert p.intervals == ((0.0, 1.0),)

    @pytest.mark.parametrize("text, want", [
        ("bump(x0/10^400)", ((-math.inf, math.inf),)),
        ("bump(x0/10^400 + 3)", ((-math.inf, math.inf),)),  # [-4e400, -2e400]
        ("bump(x0/10^300 + 3)", ((-4e300, -2e300),)),
        ("bump(10^400*x0)", ((0.0, 0.0),))])
    def test_an_end_beyond_the_float_range_is_unbounded(self, text, want):
        assert ex.parse(text, 1).support_box().intervals == want


def _exact(e, point):
    """The exact rational value of a sum-product expression at a point."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return Fraction(point[e.slot])
    values = [_exact(c, point) for c in e._children()]
    return sum(values) if isinstance(e, ex.Sum) else reduce(operator.mul, values)


IV_DIM = 4
# small rationals of any denominator: most are not floats, and the exact
# value is the one of the rationals and the float inputs
_rationals = st.builds(lambda n, d: ex.const(Fraction(n, d), IV_DIM),
                       st.integers(-8, 8), st.integers(1, 12))
_iv_leaves = st.one_of(st.integers(0, IV_DIM - 1).map(lambda s: ex.var(s, IV_DIM)), _rationals)
sum_products = st.recursive(
    _iv_leaves,
    lambda children: st.one_of(st.lists(children, min_size=2, max_size=6).map(lambda c: ex.add(*c)),
                               st.lists(children, min_size=2, max_size=6).map(lambda c: ex.mul(*c))),
    max_leaves=12)
iv_coords = st.one_of(st.floats(-2.0, 2.0), st.floats(1.0, 2.0),
                      st.sampled_from([1.0, 2.0 ** -53, -(2.0 ** -53), 1.0 + 2.0 ** -52]))

# Terms near the float range's ends, sometimes with an inf or a NaN among them.
overflow_terms = st.one_of(st.floats(1e307, sys.float_info.max),
                           st.floats(-sys.float_info.max, -1e307),
                           st.sampled_from([1e308, -1e308, 1.0, -0.0, math.inf, -math.inf,
                                            math.nan]))


class TestIntervalEnclosure:
    """``Expr.interval`` rounds outward at every rounding step."""

    def test_a_four_term_sum_over_a_point_box(self):
        e = ex.parse("x0 + x1 + x2 + x3", 4)
        point = (1.0,) + (2.0 ** -53,) * 3
        lo, hi = e.interval(Box.of([(c, c) for c in point]))
        assert lo <= 1 + Fraction(3, 2 ** 53) <= hi
        assert lo <= e.evaluate(point) <= hi

    def test_a_constant_that_is_not_a_float_is_held(self):
        lo, hi = ex.const(Fraction(1, 3), 1).interval(Box.of([(0.0, 1.0)]))
        assert lo < Fraction(1, 3) < hi

    def test_a_float_constant_keeps_its_point_interval(self):
        assert ex.const(Fraction(1, 4), 1).interval(Box.of([(0.0, 1.0)])) == (0.25, 0.25)

    def test_six_factor_products_over_point_boxes(self):
        e = ex.parse("x0*x1*x2*x3*x4*x5", 6)
        rng = np.random.default_rng(11)
        for point in rng.uniform(1.0, 2.0, (2000, 6)).tolist():
            lo, hi = e.interval(Box.of([(c, c) for c in point]))
            assert lo <= reduce(operator.mul, map(Fraction, point)) <= hi

    @settings(max_examples=200, deadline=None)
    @given(sum_products, st.tuples(*[iv_coords] * IV_DIM))
    def test_a_point_box_holds_the_exact_value(self, e, point):
        lo, hi = e.interval(Box.of([(c, c) for c in point]))
        assert lo <= _exact(e, point) <= hi

    @settings(max_examples=200, deadline=None)
    @given(sum_products, st.lists(st.tuples(iv_coords, iv_coords).map(sorted),
                                  min_size=IV_DIM, max_size=IV_DIM),
           st.lists(st.tuples(*[st.floats(0.0, 1.0)] * IV_DIM), min_size=1, max_size=8))
    def test_a_box_holds_the_values_at_its_points(self, e, intervals, ts):
        lo, hi = e.interval(Box.of(intervals))
        for t in ts:
            point = tuple(min(a + u * (b - a), b) for u, (a, b) in zip(t, intervals))
            assert lo <= e.evaluate(point) <= hi
            assert lo <= _exact(e, point) <= hi

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(iv_coords, iv_coords).map(sorted), min_size=2, max_size=2))
    def test_two_terms_and_two_factors_widen_once(self, intervals):
        """One rounding, then one ulp outward, as before every step widened."""
        (a, b), (c, d) = intervals
        box = Box.of(intervals + [(0.0, 0.0)] * (IV_DIM - 2))
        x0, x1 = ex.var(0, IV_DIM), ex.var(1, IV_DIM)
        assert ex.add(x0, x1).interval(box) == ex._round_out(a + c, b + d)
        cands = (a * c, a * d, b * c, b * d)
        assert ex.mul(x0, x1).interval(box) == ex._round_out(min(cands), max(cands))


    @pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
    def test_an_integer_power_holds_evaluate_and_the_exact_power(self, n):
        """The interval walks the multiplication ladder ``evaluate`` takes,
        rounding outward after every product."""
        e = ex.parse(f"x0^{n}", 1)
        for x in np.random.default_rng(n).uniform(1.0, 2.0, 5000).tolist():
            lo, hi = e.interval(Box.of([(x, x)]))
            assert lo <= e.evaluate((x,)) <= hi
            assert lo <= Fraction(x) ** n <= hi

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_an_integer_power_holds_its_values_across_zero(self, n):
        e = ex.parse(f"x0^{n}", 1)
        rng = np.random.default_rng(100 + n)
        for a, b in np.sort(rng.uniform(-2.0, 2.0, (300, 2)), axis=1).tolist():
            lo, hi = e.interval(Box.of([(a, b)]))
            assert n % 2 == 1 or (lo == 0.0) == (a <= 0.0 <= b)
            for x in (a, b, (a + b) / 2, 0.0 if a <= 0.0 <= b else a):
                assert lo <= e.evaluate((x,)) <= hi
                assert lo <= Fraction(x) ** n <= hi

    def test_an_overflowing_power_is_unbounded_above(self):
        lo, hi = ex.parse("x0^2", 1).interval(Box.of([(1e200, 1e200)]))
        assert hi == math.inf and 1e308 < lo < math.inf

    def test_an_overflowing_sum_takes_its_ends_from_the_exact_sum(self):
        """So does its value, on the scalar and the array path."""
        e = ex.parse("x0 + x1 - x2", 3)
        lo, hi = e.interval(Box.of([(1e308, 1e308)] * 3))
        assert lo <= Fraction(1e308) <= hi
        assert hi < math.inf
        assert e.evaluate((1e308,) * 3) == 1e308
        assert e.eval_array(np.full((2, 3), 1e308)).tolist() == [1e308, 1e308]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(overflow_terms, min_size=3, max_size=6))
    def test_a_sum_has_one_overflow_rule(self, terms):
        """``Sum.evaluate``, its ``eval_array`` row, ``row_fsum`` and
        ``fsum_list`` agree bit for bit: the exact sum where every term is
        finite, and the interval of the point box, where there is one, holds
        that value."""
        n = len(terms)
        e = ex.add(*(ex.var(i, n) for i in range(n)))
        value = e.evaluate(tuple(terms))
        got = [e.eval_array(np.array([terms]))[0],
               ex.row_fsum([np.array([t]) for t in terms])[0], ex.fsum_list(terms)]
        assert [g.hex() for g in got] == [value.hex()] * 3 or all(map(math.isnan, got + [value]))
        if all(map(math.isfinite, terms)):
            exact = sum(map(Fraction, terms))
            if abs(exact) < 2 ** 1024 - 2 ** 970:  # within the float range once rounded
                assert value.hex() == float(exact).hex()
        if not any(map(math.isnan, terms)):  # no box holds a NaN
            lo, hi = e.interval(Box.of([(t, t) for t in terms]))
            assert lo <= value <= hi or (math.isnan(value) and (lo, hi) == (-math.inf, math.inf))

    def test_a_sum_with_an_infinite_term_keeps_that_end_infinite(self):
        e = ex.parse("x0 + x1 + x2", 3)
        lo, hi = e.interval(Box.of([(1e308, 1e308), (1e308, 1e308), (-math.inf, 1e308)]))
        assert (lo, hi) == (-math.inf, math.inf)  # not NaN
        lo, hi = e.interval(Box.of([(1.0, 2.0), (3.0, 4.0), (-math.inf, 0.0)]))
        assert lo == -math.inf and 6.0 < hi < 6.0 + 1e-12


class TestBoxArithmetic:
    def test_intersect_disjoint_is_empty(self):
        a = Box.of([(0, 1)])
        b = Box.of([(2, 3)])
        assert a.intersect(b).is_empty

    def test_hull(self):
        a = Box.of([(0, 1)])
        b = Box.of([(2, 3)])
        assert a.hull(b).intervals == ((0.0, 3.0),)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ex.ExprError):
            Box.of([(1, 0)])

    def test_project_and_times(self):
        b = Box.of([(0, 1), (2, 3)])
        assert b.project([1]).intervals == ((2.0, 3.0),)
        assert b.project([0]).times(b.project([1])) == b

    def test_empty_and_whole_are_shared(self):
        assert Box.whole(2) is Box.whole(2)
        assert Box.empty(2) is Box.empty(2)
        assert Box.whole(2) == Box.of([(-math.inf, math.inf)] * 2)
        assert Box.whole(1) != Box.whole(2) and Box.empty(0).is_empty

    def test_intersect_and_hull_operand_cases(self):
        a, b = Box.of([(0, 1), (-2, 2)]), Box.of([(0.5, 3), (1, 4)])
        whole, empty = Box.whole(2), Box.empty(2)
        for x in (a, whole, empty):
            assert x.intersect(empty).is_empty and empty.intersect(x).is_empty
            assert x.hull(empty) is x and empty.hull(x) is x
        for x in (a, whole):
            assert x.intersect(whole) is x and whole.intersect(x) is x
            assert x.hull(whole) is whole and whole.hull(x) is whole
        twin = Box.of([(0, 1), (-2, 2)])
        assert a.intersect(twin) is a and a.hull(twin) is a
        open_whole = Box.of([(-math.inf, math.inf)] * 2)
        assert a.intersect(open_whole) is a and open_whole.intersect(a) is a
        assert a.intersect(b) == Box.of([(0.5, 1), (1, 2)])
        assert a.hull(b) == Box.of([(0, 3), (-2, 4)])
        disjoint = Box.of([(2, 3), (-2, 2)])
        assert a.intersect(disjoint).is_empty
        assert a.hull(disjoint) == Box.of([(0, 3), (-2, 2)])
        with pytest.raises(DimensionError):
            a.intersect(Box.whole(1))
        with pytest.raises(DimensionError):
            a.hull(Box.empty(3))


class TestBumpEnvelope:
    """The interval of a bump node is a guaranteed bound of its values."""

    @pytest.mark.parametrize("coeffs", [
        (1,),  # unwidened, the float bound of the next two falls below the exact one
        (Fraction(-35, 32), Fraction(47, 29), Fraction(5, 21)),
        (Fraction(25, 7), Fraction(-19, 16), Fraction(-47, 58), Fraction(-1, 28))])
    @pytest.mark.parametrize("q", range(7))
    def test_bound_lies_above_the_exact_envelope(self, q, coeffs):
        with decimal.localcontext(decimal.Context(prec=40)):
            one = decimal.Decimal(1)
            peak = (-one).exp() if q == 0 else (q / one.exp()) ** q
            scale = sum(decimal.Decimal(abs(c.numerator)) / c.denominator
                        for c in map(Fraction, coeffs))
            exact = scale * peak
            e = ex.bump_rat(ex.var(0, 1), coeffs, q)
            lo, hi = e.interval(Box.of([(-0.5, 0.5)]))
            assert lo == -hi
            assert exact < decimal.Decimal(hi) < exact * (1 + decimal.Decimal("1e-13"))

    @pytest.mark.parametrize("k", range(4))
    def test_enclosure_contains_derivative_samples(self, k):
        d = ex.parse("bump(x0)", 1).diff((k,))
        box = Box.of([(-0.95, 0.8)])
        lo, hi = d.interval(box)
        values = d.eval_array(np.linspace(-0.95, 0.8, 2001).reshape(-1, 1))
        assert np.abs(values).max() > 0.0
        assert lo <= values.min() and values.max() <= hi


def _poly_mul(a, b):
    """The Fraction polynomial product the bump derivative was once built from."""
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _reference_bump_diff(p, q):
    """p'(1-u^2)^2 - 2u p + 2qu(1-u^2) p, the numerator over (1-u^2)^(q+2)."""
    one_minus_u2 = (Fraction(1), Fraction(0), Fraction(-1))
    dp = tuple(p[i] * i for i in range(1, len(p)))
    terms = (_poly_mul(dp, _poly_mul(one_minus_u2, one_minus_u2)),
             _poly_mul((Fraction(0), Fraction(-2)), p),
             _poly_mul((Fraction(0), Fraction(2 * q)), _poly_mul(one_minus_u2, p)))
    out = [sum(t[i] for t in terms if i < len(t)) for i in range(max(map(len, terms)))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestBumpDerivative:
    """d/du [bump(u) p(u) (1-u^2)^-q] is bump(u) r(u) (1-u^2)^-(q+2), exactly."""

    @pytest.mark.parametrize("k, coeffs, q", [
        (1, (0, -2), 2),
        (2, (-2, 0, 0, 0, 6), 4),
        (3, (0, -12, 0, 40, 0, -12, 0, -24), 6),
        (4, (-12, 0, 24, 0, 232, 0, -528, 0, 180, 0, 120), 8),
        (5, (0, -120, 0, 1360, 0, -2112, 0, -2400, 0, 6120, 0, -2160, 0, -720), 10),
        (6, (-120, 0, 2160, 0, 8040, 0, -56816, 0, 77160, 0, 7440, 0, -68040, 0,
             25200, 0, 5040), 12)])
    def test_bump_derivative_table(self, k, coeffs, q):
        d = ex.parse("bump(x0)", 1).diff((k,))
        assert (d.coeffs, d.pole_order) == (coeffs, q)
        assert all(type(c) is Fraction for c in d.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=60), min_size=1, max_size=9).filter(any),
           st.integers(min_value=0, max_value=8))
    def test_recurrence_matches_the_polynomial_products(self, coeffs, q):
        b = ex.bump_rat(ex.var(0, 1), coeffs, q)
        d = b.diff1(0)
        assert d.coeffs == _reference_bump_diff(b.coeffs, q)
        assert d.pole_order == q + 2
        assert all(type(c) is Fraction for c in d.coeffs)

    @pytest.mark.parametrize("q", [-1, 1.5, True])
    def test_pole_order_must_be_a_nonnegative_int(self, q):
        with pytest.raises(ex.ExprError, match="pole order"):
            ex.bump_rat(ex.var(0, 1), (1,), q)


# exact rationals around 0, 1, the integers and both ends of the float range
_EDGE_VALUES = [0, 1, -1, 2, -3, Fraction(1, 2**1074), Fraction(-1, 2**1074),
                Fraction(1, 2**1075), Fraction(3, 2**1076), Fraction(1, 2**1076),
                2**1024 - 2**971, 2**1024 - 2**970, -(2**1024 - 2**971), 2**1024,
                Fraction(2**2000 + 1, 2**976), Fraction(2**2000 + 1, 3**1300)]
rationals = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.integers(),
    st.fractions(),
    st.builds(Fraction, st.integers(-2**1100, 2**1100), st.integers(1, 2**1100)),
).map(Fraction)


class TestExactConstants:
    """Constant folding is exact and a constant's float is ``float(value)``."""

    @settings(max_examples=300, deadline=None)
    @given(rationals)
    def test_float_is_the_correctly_rounded_value(self, v):
        try:
            want = float(v)
        except OverflowError:
            with pytest.raises(ex.ExprError, match="beyond the float range"):
                ex.const(v, 1)._float
            return
        assert ex.const(v, 1)._float.hex() == want.hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6),
           st.sampled_from([operator.mul, operator.add]))
    def test_fold_is_the_exact_reduction(self, values, fold):
        consts = [ex.const(v, 1) for v in values]
        got = ex._fold(consts, fold, 1)
        assert got.value == reduce(fold, values)
        assert type(got.value) is Fraction
        # the interned constant of the value, even where an input holds it (0*0)
        assert got is ex.const(reduce(fold, values), 1)
        assert len(consts) > 1 or got is consts[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_evaluation_is_deterministic_and_finite(x, y):
    e = ex.parse("bump(x0)*y0^2 + sin(x0*y0)", 2, base_dim=1)
    v1 = e.evaluate((x, y))
    v2 = e.evaluate((x, y))
    assert v1 == v2
    assert math.isfinite(v1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_derivative_orders_add(m, n):
    e = ex.parse("x0^4 + bump(x0)", 1)
    lhs = e.diff((m,)).diff((n,))
    rhs = e.diff((m + n,))
    for x in (-0.7, 0.0, 0.3, 0.9):
        assert lhs.evaluate((x,)) == pytest.approx(rhs.evaluate((x,)), abs=1e-10)
