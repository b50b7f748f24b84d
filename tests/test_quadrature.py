import math
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_polynomial
from transdist import expr as ex
from transdist import operators as op
from transdist import quadrature as qd
from transdist.expr import Box


def exact_polynomial_integral(poly_expr, box: Box) -> Fraction:
    """Independent oracle: integrate the monomial dictionary exactly."""
    poly = ex.as_polynomial(poly_expr)
    assert poly is not None
    total = Fraction(0)
    for mono, c in poly.items():
        piece = c
        for n, (lo, hi) in zip(mono, box.intervals):
            lo_f, hi_f = Fraction(lo), Fraction(hi)
            piece *= (hi_f ** (n + 1) - lo_f ** (n + 1)) / (n + 1)
        total += piece
    return total


class TestIntegrate:
    def test_linear_is_exact_at_minimal_order(self):
        assert qd.integrate(ex.parse("x0", 1), Box.of([(0, 1)]), 2) == 0.5

    def test_degenerate_box_is_zero(self):
        assert qd.integrate(ex.parse("bump(x0)", 1), Box.of([(1, 1)]), 8) == 0.0

    def test_empty_box_is_zero(self):
        assert qd.integrate(ex.parse("x0", 1), Box.empty(1), 8) == 0.0

    def test_bump_reference_constant(self):
        i64 = qd.integrate(ex.parse("bump(x0)", 1), Box.of([(-1, 1)]), 64)
        i96 = qd.integrate(ex.parse("bump(x0)", 1), Box.of([(-1, 1)]), 96)
        assert abs(i64 - i96) < 1e-12
        assert i64 == qd.BUMP_INTEGRAL

    def test_callable_integrand(self):
        val = qd.integrate(lambda pts: pts[:, 0] ** 2, Box.of([(0, 2)]), 4)
        assert val == pytest.approx(8.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_polynomial_exactness_up_to_degree_2q_minus_1(self, q):
        rng = np.random.default_rng(42 + q)
        box = Box.of([(-1.0, 1.5)])
        for _ in range(5):
            coeffs = rng.integers(-4, 5, size=2 * q)
            e = ex.add(*(ex.mul(ex.const(int(c), 1), ex.int_pow(ex.var(0, 1), n))
                         for n, c in enumerate(coeffs)))
            exact = float(exact_polynomial_integral(e, box))
            got = qd.integrate(e, box, q)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_tensor_product_polynomial_exactness(self):
        rng = np.random.default_rng(3)
        box = Box.of([(-1, 1), (0, 2)])
        e = random_polynomial(rng, 2, max_degree=3)
        exact = float(exact_polynomial_integral(e, box))
        got = qd.integrate(e, box, 8)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_self_convergence_decreases_monotonically(self):
        e = ex.parse("bump(x0)", 1)
        box = Box.of([(-1, 1)])
        gaps = []
        for q in (8, 16, 32, 64):
            gaps.append(abs(qd.integrate(e, box, q) - qd.integrate(e, box, 2 * q)))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-13


class TestRule:
    def test_weights_sum_to_axis_lengths(self):
        rule = qd.QuadratureRule(Box.of([(0, 3), (-1, 1)]), 16)
        assert rule.weights.sum() == pytest.approx(6.0, rel=1e-13)
        assert np.all(rule.weights > 0)

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            qd.QuadratureRule(Box.whole(1), 8)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            qd.QuadratureRule(Box.of([(0, 1)]), 1)


class TestGaussLegendre:
    @staticmethod
    def decimal_float(f):
        """float of a decimal computation at 50 digits, rounded once."""
        with localcontext() as ctx:
            ctx.prec = 50
            return float(f())

    def test_order_2_is_closed_form(self):
        r = self.decimal_float(lambda: 1 / Decimal(3).sqrt())
        x, w = qd._gauss_nodes(2)
        assert x.tolist() == [-r, r]
        assert w.tolist() == [1.0, 1.0]

    def test_order_3_is_closed_form(self):
        r = self.decimal_float(lambda: (Decimal(3) / 5).sqrt())
        x, w = qd._gauss_nodes(3)
        assert x.tolist() == [-r, 0.0, r]
        assert w.tolist() == [float(Fraction(5, 9)), float(Fraction(8, 9)),
                              float(Fraction(5, 9))]

    ORDERS = list(range(2, 65)) + [96, 127, 128]

    @pytest.mark.parametrize("q", ORDERS)
    def test_nodes_ascend_and_rule_is_symmetric(self, q):
        x, w = qd._gauss_nodes(q)
        assert x.shape == w.shape == (q,)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1]) and np.all(w > 0)

    @pytest.mark.parametrize("q", ORDERS)
    def test_agrees_with_eigensolver_rule(self, q):
        # leggauss (LAPACK) is only a loose independent check: its weights
        # are off by up to 2e-11 relative, so they are compared on the
        # scale of their total, 2.
        from numpy.polynomial.legendre import leggauss
        x, w = qd._gauss_nodes(q)
        lx, lw = leggauss(q)
        np.testing.assert_allclose(x, lx, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(w, lw, rtol=0, atol=2e-13)

    def test_rule_is_read_only(self):
        x, w = qd._gauss_nodes(8)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


def wide_array(n, seed, spread, cancel, mirror=False):
    """n finite floats with exponents in [-spread, spread]; a share
    `cancel` of them are exact negatives of others, so the sum cancels.
    With `mirror`, the second half is the negated reverse of the first."""
    rng = np.random.default_rng(seed)
    v = np.ldexp(rng.standard_normal(n), rng.integers(-spread, spread + 1, n))
    k = int(cancel * n) // 2
    v[n - k:] = -v[:k]
    rng.shuffle(v)
    if mirror:
        v[n - n // 2:] = -v[:n // 2][::-1]
        v[n // 2:n - n // 2] = 0.0
    return v


def same_float(a, b):
    return a.hex() == b.hex()


array_args = dict(seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 1000),
                  cancel=st.floats(0.0, 1.0), mirror=st.booleans())


class TestCorrectlyRoundedSum:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5000), **array_args)
    @example(n=511, seed=0, spread=3, cancel=0.0, mirror=False)
    @example(n=4096, seed=1, spread=0, cancel=0.0, mirror=False)
    @example(n=4096, seed=2, spread=1000, cancel=1.0, mirror=False)
    @example(n=4097, seed=3, spread=1000, cancel=0.0, mirror=True)
    def test_fsum_is_math_fsum(self, n, seed, spread, cancel, mirror):
        p = wide_array(n, seed, spread, cancel, mirror)
        assert same_float(qd.fsum(p), math.fsum(p.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(1, 3), order=st.integers(2, 70), **array_args)
    def test_integrate_values_is_fsum_of_products(self, dim, order, seed,
                                                  spread, cancel, mirror):
        if dim == 3:
            order = min(order, 17)  # at most 5000 points
        rule = qd.QuadratureRule(Box.of([(-1.0, 2.5)] * dim), order)
        values = wide_array(order ** dim, seed, spread, cancel, mirror)
        assert same_float(rule.integrate_values(values),
                          math.fsum((rule.weights * values).tolist()))

    def test_only_antisymmetry_shortcuts_to_zero(self):
        # a mirror-symmetric array whose large terms cancel: the first
        # split leaves only a tiny, nonzero total
        half = [1.0, -1.0, 3e-200, 5e-310] + [0.25, -0.25] * 400
        p = np.array(half + half[::-1])
        assert same_float(qd.fsum(p), math.fsum(p.tolist()))
        assert qd.fsum(p) > 0.0
        assert same_float(qd.fsum(np.array(half + [-v for v in half[::-1]])), 0.0)

    def test_non_finite_sums_are_ieee_sums(self):
        """Where math.fsum raises, fsum gives ``expr.fsum_list``'s sum instead,
        on short arrays and on the vectorized path alike: an infinity beyond
        the float range, NaN on inf + -inf or a NaN term."""
        for n in (6, 600):
            assert qd.fsum(np.full(n, 1e308)) == math.inf
            assert math.isnan(qd.fsum(np.array([math.inf, -math.inf] * (n // 2))))
            assert math.isnan(qd.fsum(np.array([1.0, math.nan] * (n // 2))))


def same_or_nan(a: float, b: float) -> bool:
    return same_float(a, b) or (math.isnan(a) and math.isnan(b))


def rows_of(cols):
    return [[float(c[i]) for c in cols] for i in range(len(cols[0]))]


def math_fsum_or_ieee(row):
    """math.fsum's value; where it raises, the exact sum of finite terms,
    correctly rounded (an infinity beyond the float range), else the IEEE
    sum from 0.0."""
    try:
        return math.fsum(row) + 0.0
    except (ValueError, OverflowError):
        if all(map(math.isfinite, row)):
            exact = sum(map(Fraction, row))
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf
        total = 0.0
        for v in row:
            total += v
        return total


HALF_ULP = 2.0 ** -53  # of 1.0


class TestRowFsum:
    """row_fsum gives each row math.fsum's value, on the certified path or not."""

    def check(self, cols, block=None):
        cols = [np.asarray(c, dtype=float) for c in cols]
        with pytest.MonkeyPatch.context() as m:
            if block is not None:
                m.setattr(ex, "_ROW_BLOCK", block)
            got = ex.row_fsum(cols).tolist()
        want = [math_fsum_or_ieee(row) for row in rows_of(cols)]
        bad = [(row, g, w) for row, g, w in zip(rows_of(cols), got, want)
               if not same_or_nan(g, w)]
        assert bad == []
        assert all(same_or_nan(ex.fsum_list(row), g) for row, g in zip(rows_of(cols), got))

    def test_exact_ties(self):
        # 1 + 2^-53 is a tie; the third term keeps it, breaks it up or down
        one = [1.0, 1.0, -1.0, 3.0, 1.0, 1.0]
        half = [HALF_ULP, HALF_ULP, -HALF_ULP, 3 * HALF_ULP, HALF_ULP, -HALF_ULP]
        third = [0.0, 2.0 ** -106, -(2.0 ** -106), 0.0, -(2.0 ** -106), 2.0 ** -200]
        self.check([one, half, third])
        self.check([third, half, one])
        assert ex.row_fsum([np.array(c) for c in (one, half, third)]).tolist()[:3] == [
            1.0, 1.0 + 2 * HALF_ULP, -1.0 - 2 * HALF_ULP]

    def test_cancellation(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(500), rng.standard_normal(500) * 1e-12
        self.check([a, b, -a])
        self.check([a, 1e16 * a, b, -1e16 * a, -a])
        self.check([a, -a, np.zeros(500)])
        self.check([np.full(3, -0.0)] * 3)  # an exact zero is +0.0, as fsum's

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 7), n=st.integers(1, 40), block=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 1000),
           cancel=st.floats(0.0, 1.0))
    def test_mixed_magnitudes(self, k, n, block, seed, spread, cancel):
        flat = wide_array(n * k, seed, spread, cancel)
        self.check(list(flat.reshape(k, n)), block)

    def test_non_finite_values(self):
        inf, nan, big = math.inf, math.nan, 1e308
        cols = [[inf, inf, nan, big, big, -big, 1.0, inf],
                [1.0, -inf, 1.0, big, -big, -big, inf, 2.0],
                [-inf, 3.0, 1.0, -big, 1.0, big, -1.0, -2.0]]
        self.check(cols)
        got = ex.row_fsum([np.array(c) for c in cols]).tolist()
        # fsum raises on rows 0 and 1 (inf + -inf), where the IEEE sums are
        # NaN, and on 3 and 5 (intermediate overflow), where the exact sums
        # are 1e308 and -1e308
        assert math.isnan(got[0]) and math.isnan(got[1]) and math.isnan(got[2])
        assert got[3:] == [big, 1.0, -big, math.inf, inf]

    def test_fsum_list_where_math_fsum_raises(self):
        """The exact sum of finite terms, an infinity only beyond the float
        range; the IEEE sum where a term is not finite."""
        assert math.isnan(ex.fsum_list([1.0, math.inf, -math.inf]))
        assert ex.fsum_list([1e308, 1e308, -1e308]) == 1e308
        assert ex.fsum_list([1e308] * 3) == math.inf
        assert ex.fsum_list([0.1, 0.2, 0.3]) == math.fsum([0.1, 0.2, 0.3])
        assert same_float(ex.fsum_list([-0.0, -0.0, -0.0]), 0.0)


class TestDefaultOrder:
    def test_override_and_restore(self, monkeypatch):
        """None resolves to DEFAULT_ORDER when a rule is asked for, not before."""
        box = Box.of([(-1, 1)])
        with monkeypatch.context() as m:
            m.setattr(qd, "DEFAULT_ORDER", 48)
            assert qd.rule(box).order == 48
        assert qd.rule(box).order == qd.DEFAULT_ORDER == 64

    def test_invalid_order_rejected(self):
        box = Box.of([(-1, 1)])
        for order in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2"):
                qd.rule(box, order)
            with pytest.raises(ValueError, match="at least 2"):
                qd.integrate(ex.parse("x0", 1), box, order)


class TestRuleBudget:
    def test_over_budget_rules_are_refused_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an over-budget rule reached the builder")

        monkeypatch.setattr(qd, "_gauss_nodes", refuse)
        monkeypatch.setattr(qd, "QuadratureRule", refuse)
        # orders over MAX_ORDER, then point counts over MAX_RULE_POINTS
        for dim, order in ((1, qd.MAX_ORDER + 1), (1, 100_000), (2, 725), (3, 81)):
            box = Box.of([(-1, 1)] * dim)
            with pytest.raises(ex.ExprError, match="over the budget"):
                qd.rule(box, order)
            with pytest.raises(ex.ExprError, match="over the budget"):
                qd.integrate(lambda pts: np.ones(len(pts)), box, order)

    def test_budget_admits_the_largest_planned_rules(self):
        assert qd.MAX_ORDER >= 2 * qd.DEFAULT_ORDER
        assert 724 ** 2 <= qd.MAX_RULE_POINTS  # 2-d fibres up to order 724
        assert 64 ** 3 <= qd.MAX_RULE_POINTS  # a 3-d fibre at the default order
        assert len(qd.rule(Box.of([(-1, 1)]), qd.MAX_ORDER).points) == qd.MAX_ORDER


class TestSharedRule:
    def test_equal_boxes_and_orders_give_the_same_rule(self):
        r = qd.rule(Box.of([(0, 1), (-1, 2)]), 12)
        assert qd.rule(Box.of([(0.0, 1.0), (-1.0, 2.0)]), 12) is r
        assert qd.rule(Box.of([(0, 1), (-1, 2)]), 13) is not r
        assert qd.rule(Box.of([(0, 1), (-1, 3)]), 12) is not r

    def test_none_means_the_default_order(self):
        box = Box.of([(-1, 1)])
        assert qd.rule(box) is qd.rule(box, qd.DEFAULT_ORDER)
        assert qd.rule(box).order == qd.DEFAULT_ORDER

    def test_arrays_are_read_only(self):
        r = qd.rule(Box.of([(0, 1), (0, 2)]), 8)
        with pytest.raises(ValueError):
            r.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            r.weights[0] = 5.0
        with pytest.raises(ValueError):
            r.points += 1.0

    def test_kept_makes_only_an_array_read_only(self):
        """``kept`` keeps any value: an array comes back read-only, any other
        value as it is, with no flag touched."""
        memo, other = {}, SimpleNamespace(flags=SimpleNamespace(writeable=True))
        assert qd.kept(memo, "v", 1, lambda: other) is other
        assert other.flags.writeable
        assert qd.kept(memo, "v", 1, lambda: None) is other  # an equal key
        array = qd.kept(memo, "v", 2, lambda: np.zeros(3))
        assert not array.flags.writeable
        assert qd.kept(memo, "v", 2, lambda: None) is array

    def test_threads_sharing_the_cache_match_sequential_results(self):
        # more boxes than the cache holds, so threads also race on evictions
        e = ex.parse("bump(x0)*exp(x1) + x0*x1", 2)
        jobs = [(Box.of([(-1.0, 0.25 * k), (0.0, 1.0)]), order)
                for k in range(1, 7) for order in (5, 9)]
        want = [qd.integrate(e, box, order) for box, order in jobs]
        got, errors = {}, []

        def worker(t):
            try:
                for rep in range(15):
                    i = (t + rep) % len(jobs)
                    box, order = jobs[i]
                    got.setdefault(i, set()).add(qd.integrate(e, box, order).hex())
            except Exception as err:  # noqa: BLE001  (reported below)
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert got == {i: {want[i].hex()} for i in got}
        assert len(got) == len(jobs)

    @pytest.mark.parametrize("order", [3, 16, 64])
    def test_expr_and_callable_integrands_agree_bit_for_bit(self, order):
        e = ex.parse("bump(x0)*exp(x1)*cos(x0*x1) + x1", 2)
        box = Box.of([(-1.0, 0.75), (-0.5, 2.0)])
        got = qd.integrate(e, box, order)
        assert same_float(got, qd.integrate(lambda pts: e.eval_array(pts), box, order))
        assert same_float(got, qd.rule(box, order).integrate_values(
            e.eval_array(qd.rule(box, order).points)))


class TestApplyToValuesOutsideSupport:
    """A fibre box disjoint from, or only touching, fn's support gives exactly 0."""

    @staticmethod
    def never(z):
        raise AssertionError(f"fn evaluated at {z} outside its support")

    @pytest.mark.parametrize("fn_support", [Box.of([(5.0, 6.0)]), Box.of([(1.0, 1.0)]),
                                            Box.empty(1)])
    def test_density_and_numeric_kernels(self, line_bundle, fn_support):
        K = op.density_kernel(line_bundle, line_bundle.parse_total("bump(x0)*bump(y0)"))
        numeric = op.compose(K, K, order=8)
        assert numeric.kinds == ("numeric",)
        for kernel in (K, numeric):
            value = op.apply_to_values(kernel, self.never, fn_support, order=8)
            for x in (-0.5, 0.0, 0.25):
                assert same_float(value((x,)), 0.0)
