import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import array_runs, fibre_frontier, nodes_by_reads, rewrite_chain
from transdist import bundle as bd
from transdist import expr as ex
from transdist import operators as op
from transdist import quadrature as qd
from transdist.expr import Box, ExprError

PROBE_XS = [(-0.8,), (-0.4,), (0.0,), (0.4,), (0.8,)]


@pytest.fixture
def pair_bundle():
    return bd.TrivialBundle(1, 1)


@pytest.fixture
def K_shift_a(pair_bundle):
    s = bd.section_from_strings(pair_bundle, ["x0 + 1/2"])
    return op.graph_kernel(s, pair_bundle.parse_base("exp(1)*bump(x0/3)"))


@pytest.fixture
def K_shift_b(pair_bundle):
    s = bd.section_from_strings(pair_bundle, ["x0 - 1/4"])
    return op.graph_kernel(s, pair_bundle.parse_base("exp(1)*bump(x0/4)"))


@pytest.fixture
def K_density(pair_bundle):
    return op.density_kernel(pair_bundle,
                             pair_bundle.parse_total("bump(x0)*bump(y0)"))


@pytest.fixture
def K_psi(pair_bundle):
    return op.density_kernel(pair_bundle,
                             pair_bundle.parse_total("bump(x0/2)*bump(y0)*(2 + y0/3)"))


def crosscheck_composition(K1, K2, g, xs=PROBE_XS, tol=1e-8):
    K = op.compose(K1, K2)
    lhs = op.apply(K, g)
    inner = op.apply(K2, g)
    rhs = op.apply_to_values(K1, lambda y: inner.value(y), inner.support_box())
    return max(abs(lhs.value(x) - rhs(x)) for x in xs), K


class TestApply:
    def test_graph_kernel_is_weighted_pullback(self, pair_bundle):
        s = bd.section_from_strings(pair_bundle, ["x0 + 1"])
        f = pair_bundle.parse_base("exp(1)*bump(x0/3)")
        K = op.graph_kernel(s, f)
        g = pair_bundle.parse_fibre("y0^2")
        bf = op.apply(K, g)
        # value at 0: f(0) * g(1); the normalized cutoff gives f(0) = e * e^-1
        assert bf.value((0.0,)) == pytest.approx(f.evaluate((0.0,)) * 1.0, rel=1e-15)
        assert bf.value((0.0,)) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal_derivative_kernel(self, pair_bundle):
        s = bd.section_from_strings(pair_bundle, ["x0"])
        f = pair_bundle.parse_base("exp(1)*bump((x0 - 1)/3)")  # f(1) = 1
        K = op.graph_kernel(s, f, beta=(1,))
        g = pair_bundle.parse_fibre("y0^2")
        bf = op.apply(K, g)
        assert bf.value((1.0,)) == pytest.approx(2.0, rel=1e-14)

    def test_density_kernel_integrates(self, pair_bundle, K_density):
        bf = op.apply(K_density, pair_bundle.parse_fibre("1"))
        b = ex.parse("bump(x0)", 1)
        for x in (-0.5, 0.0, 0.5):
            assert bf.value((x,)) == pytest.approx(
                b.evaluate((x,)) * qd.BUMP_INTEGRAL, abs=1e-12)


class TestCompose:
    def test_translation_graphs_compose_to_sum(self, pair_bundle, K_shift_a,
                                               K_shift_b):
        K = op.compose(K_shift_a, K_shift_b)
        section = K.terms[0].section
        expected = pair_bundle.parse_base("x0 + 1/4")
        for x in np.linspace(-2, 2, 9):
            assert section.components[0].evaluate((x,)) == expected.evaluate((x,))

    def test_identity_section_preserved(self, pair_bundle, K_shift_a):
        ident = bd.section_from_strings(pair_bundle, ["x0"])
        K_id = op.graph_kernel(ident, pair_bundle.parse_base("exp(1)*bump(x0/4)"))
        K = op.compose(K_shift_a, K_id)
        section = K.terms[0].section
        shifted = K_shift_a.terms[0].section
        for x in np.linspace(-2, 2, 9):
            assert section.components[0].evaluate((x,)) == \
                shifted.components[0].evaluate((x,))

    def test_two_sided_contract_all_combinations(self, pair_bundle, K_shift_a,
                                                 K_density):
        g = pair_bundle.parse_fibre("y0^2 + y0")
        for K1, K2, label in ((K_shift_a, K_shift_a, "dirac,dirac"),
                              (K_shift_a, K_density, "dirac,density"),
                              (K_density, K_shift_a, "density,dirac"),
                              (K_density, K_density, "density,density")):
            err, _ = crosscheck_composition(K1, K2, g)
            assert err < 1e-8, label

    def test_two_sided_contract_numeric_level(self, pair_bundle, K_shift_a,
                                              K_density):
        g = pair_bundle.parse_fibre("y0^2")
        K_dd = op.compose(K_density, K_density)
        for K1, K2, label in ((K_dd, K_shift_a, "numeric,dirac"),
                              (K_shift_a, K_dd, "dirac,numeric"),
                              (K_dd, K_density, "numeric,density")):
            err, _ = crosscheck_composition(K1, K2, g)
            assert err < 1e-8, label

    def test_two_sided_contract_with_numeric_inner_kernels(self, pair_bundle, K_density,
                                                           K_psi):
        g = pair_bundle.parse_fibre("y0^2 + 1")
        K_dd = op.compose(K_density, K_psi)
        for K1, K2, label in ((K_density, K_dd, "density,numeric"),
                              (K_dd, K_dd, "numeric,numeric")):
            err, K = crosscheck_composition(K1, K2, g)
            assert err < 1e-8, label
            assert K.terms[0].depth == 2, label

    def test_density_density_pointwise_value(self, pair_bundle, K_density):
        K = op.compose(K_density, K_density)
        val = K.terms[0].values((0.0,), np.array([[0.0]]))[0]
        ibump2 = qd.integrate(ex.parse("bump(x0)^2", 1), Box.of([(-1, 1)]), 64)
        assert val == pytest.approx(math.exp(-2) * ibump2, abs=1e-8)

    def test_associativity_on_dirac_kernels(self, pair_bundle, K_shift_a,
                                            K_shift_b):
        ident = bd.section_from_strings(pair_bundle, ["2*x0"])
        K_c = op.graph_kernel(ident, pair_bundle.parse_base("exp(1)*bump(x0/5)"))
        left = op.compose(op.compose(K_shift_a, K_shift_b), K_c)
        right = op.compose(K_shift_a, op.compose(K_shift_b, K_c))
        g = pair_bundle.parse_fibre("y0^2 + 1")
        a, b = op.apply(left, g), op.apply(right, g)
        for x in PROBE_XS:
            assert abs(a.value(x) - b.value(x)) < 1e-8

    def test_pullback_contravariance(self, pair_bundle):
        # graph kernels pull back: K_Phi o K_Psi acts by g(psi(phi(x)))
        phi = bd.section_from_strings(pair_bundle, ["x0 + 1/2"])
        psi = bd.section_from_strings(pair_bundle, ["2*x0"])
        w = pair_bundle.parse_base("exp(1)*bump(x0/5)")
        K_phi = op.graph_kernel(phi, w)
        K_psi = op.graph_kernel(psi, w)
        K = op.compose(K_phi, K_psi)
        g = pair_bundle.parse_fibre("y0^3")
        bf = op.apply(K, g)
        for x in PROBE_XS:
            expected = (w.evaluate(x) * w.evaluate((x[0] + 0.5,))
                        * g.evaluate((2 * (x[0] + 0.5),)))
            assert bf.value(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_affine_inversion_in_two_dimensions(self):
        b = bd.TrivialBundle(2, 2)
        phi = b.parse_total("bump(x0)*bump(x1)*bump(y0)*bump(y1)")
        K1 = op.density_kernel(b, phi)
        sec = bd.section_from_strings(b, ["x0 + x1", "x0 - x1"])
        w = b.parse_base("exp(1)^2*bump(x0/2)*bump(x1/2)")
        K2 = op.graph_kernel(sec, w)
        g = b.parse_fibre("y0*y1 + 1")
        err, K = crosscheck_composition(K1, K2, g,
                                        xs=[(0.0, 0.0), (0.3, -0.2), (-0.4, 0.1)])
        # wider tolerance: the rotated slab spreads the integrand over a
        # [-4, 4]^2 box, costing the fixed-order rule about a digit
        assert err < 1e-7
        assert K.kinds[0] in ("density", "numeric")

    def test_a_swapped_section_inverts_by_a_row_swap(self):
        """graph((x1, x0), w): the first pivot column starts with a zero, so
        the Gauss-Jordan inversion swaps two rows and flips the determinant."""
        assert op._invert_matrix([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], -1)
        b = bd.TrivialBundle(2, 2)
        K1 = op.density_kernel(b, b.parse_total(
            "bump(x0)*bump(x1)*bump(y0)*bump(y1)*(1 + x0*y1/2 + y0/3)"))
        sec = bd.section_from_strings(b, ["x1", "x0"])
        K2 = op.graph_kernel(sec, b.parse_base("exp(1)*bump(x0/2)*bump(x1/2)*(2 + x1)"))
        g = b.parse_fibre("1 + y0 + y1^2/2")
        err, K = crosscheck_composition(K1, K2, g,
                                        xs=[(0.0, 0.0), (0.3, -0.2), (-0.4, 0.6)])
        assert err < 1e-8
        assert K.kinds[0] == "density"
        assert op.apply(K, g).value((0.3, -0.2)) != op.apply(K, g).value((-0.2, 0.3))

    def test_nonaffine_section_rejected(self, pair_bundle, K_density):
        sq = bd.section_from_strings(pair_bundle, ["x0^2"])
        K_sq = op.graph_kernel(sq, pair_bundle.parse_base("bump(x0)"))
        with pytest.raises(ExprError, match="affine"):
            op.compose(K_density, K_sq)

    def test_derivative_kernels_rejected(self, pair_bundle, K_shift_a):
        diag = bd.section_from_strings(pair_bundle, ["x0"])
        K_d = op.graph_kernel(diag, pair_bundle.parse_base("bump(x0)"), beta=(1,))
        with pytest.raises(ExprError, match="fibre derivatives"):
            op.compose(K_d, K_shift_a)
        with pytest.raises(ExprError, match="fibre derivatives"):
            op.compose(K_shift_a, K_d)

    def test_depth_limit(self, pair_bundle, K_density):
        K_dd = op.compose(K_density, K_density)
        K_ddd = op.compose(K_dd, K_density)
        with pytest.raises(ExprError, match="depth"):
            op.compose(K_ddd, K_density)


def per_row_reference(bundle, phi, Y, Z):
    """Density kernel values one base point at a time, as before pair grids."""
    return np.stack([phi.eval_array(np.hstack([np.tile(y, (len(Z), 1)), Z])) for y in Y])


def low_order_grid(dim, order):
    return qd.rule(Box.of([(-1.1, 1.1)] * dim), order).points


PAIR_DENSITIES = {
    (1, 1): "bump(x0)*bump(y0)*(1 + x0*y0/3 + sin(x0 - y0)*exp(y0/2))",
    (2, 2): "bump(x0)*bump(x1)*bump(y0)*bump(y1)*(exp(x0*y1) + cos(x1 + y0)*x0)",
}


class TestPairValues:
    """Pair values over a whole (y, z) grid equal the per-row values bit for bit."""

    @pytest.mark.parametrize("dims", sorted(PAIR_DENSITIES))
    def test_density_matches_per_row_reference(self, dims):
        b = bd.TrivialBundle(*dims)
        term = op.Term(b, b.parse_total(PAIR_DENSITIES[dims]))
        Y, Z = low_order_grid(dims[0], 5), low_order_grid(dims[1], 6)
        got = op.pair_values(term, Y, Z)
        assert got.shape == (len(Y), len(Z))
        assert (got == per_row_reference(b, term.weight, Y, Z)).all()
        assert (op.pair_values(term, Y[2:3], Z)[0] == got[2]).all()

    @pytest.mark.parametrize("block", [1, 7, 100, 36 * 25 - 1])
    def test_blocks_smaller_than_the_pair_grid(self, monkeypatch, block):
        b = bd.TrivialBundle(2, 2)
        term = op.Term(b, b.parse_total(PAIR_DENSITIES[(2, 2)]))
        Y, Z = low_order_grid(2, 5), low_order_grid(2, 6)  # 25 x 36 pairs
        monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        got = op.pair_values(term, Y, Z)
        assert got.shape == (25, 36)
        assert (got == per_row_reference(b, term.weight, Y, Z)).all()

    def test_numeric_kernels_match_their_pointwise_values(self, pair_bundle, K_density,
                                                          K_psi, K_shift_a):
        K_dd = op.compose(K_density, K_psi, order=12)
        Y, Z = low_order_grid(1, 7), low_order_grid(1, 9)
        for K in (K_dd, op.compose(K_density, K_dd, order=12),
                  op.compose(K_dd, K_dd, order=12), op.compose(K_shift_a, K_dd),
                  op.compose(K_dd, K_shift_a)):
            term = K.terms[0]
            got = op.pair_values(term, Y, Z)
            assert (got == np.stack([term.values(tuple(y), Z) for y in Y])).all()

    def test_empty_blocks(self, K_density, K_psi):
        K_dd = op.compose(K_density, K_psi, order=12)
        Y, Z = low_order_grid(1, 7), low_order_grid(1, 9)
        for term in (K_density.terms[0], K_dd.terms[0]):
            for rows, cols in ((Y[:0], Z), (Y, Z[:0]), (Y[:0], Z[:0])):
                got = op.pair_values(term, rows, cols)
                assert got.shape == (len(rows), len(cols))
        assert K_dd.terms[0].values((0.1,), Z[:0]).shape == (0,)


def dirac_after_kernel_per_row(t1, t2, Y, Z):
    """f1(x) * psi2(sigma1(x), z) one base point at a time, as before batching."""
    out = np.zeros((Y.shape[0], Z.shape[0]))
    for i, x in enumerate(Y.tolist()):
        w = t1.weight.evaluate(x)
        if w != 0.0:
            out[i] = w * op.pair_values(t2, np.asarray([t1.section.value(x)]), Z)[0]
    return out


def kernel_after_dirac_per_point(t1, t2, Y, Z):
    """psi1(x, S(z)) * f2(S(z)) / |det| with S and f2 evaluated point by point."""
    inverse, jac = op._invert_affine_section(t2.section)
    S = np.stack([np.asarray([c.evaluate(z) for z in Z]) for c in inverse], axis=-1)
    w = np.array([t2.weight.evaluate(s) for s in S])
    return 1.0 / float(jac) * w * op.pair_values(t1, Y, S)


class TestComposeNumeric:
    """The numeric Dirac branches equal their per-point loops bit for bit."""

    @pytest.fixture
    def Y(self):  # the last rows lie outside the Dirac weights' supports
        return np.concatenate([low_order_grid(1, 7), [[3.5], [-4.0], [9.0]]])

    @pytest.fixture
    def kernels(self, pair_bundle, K_density, K_psi):
        K_dd = op.compose(K_density, K_psi, order=12)
        return K_density.terms[0], K_dd.terms[0]

    def test_dirac_after_kernel(self, pair_bundle, kernels, Y):
        s = bd.section_from_strings(pair_bundle, ["x0^2/2 - 1/4"])
        t1 = op.Term(pair_bundle, pair_bundle.parse_base("exp(1)*bump(x0/3)"), s, (0,))
        Z = low_order_grid(1, 9)
        for t2 in kernels:
            got = op._compose_numeric(t1, t2, pair_bundle, 12).values_fn(Y, Z)
            assert (got == dirac_after_kernel_per_row(t1, t2, Y, Z)).all()
            assert (got[-3:] == 0.0).all() and got[:-3].any()

    def test_kernel_after_dirac(self, pair_bundle, kernels, Y, monkeypatch):
        """Bit for bit the per-point loop, with S(Z) and f2(S) kept for the
        last Z: a second call on the same Z evaluates no inverse-section
        component, and a new Z evaluates each once again."""
        s = bd.section_from_strings(pair_bundle, ["2*x0 - 1/3"])
        t2 = op.Term(pair_bundle, pair_bundle.parse_base("bump(x0/2)*(1 + x0)"), s, (0,))
        inverse, _ = op._invert_affine_section(s)
        runs, eval_array = [], ex.Expr.eval_array

        def counting(e, pts):
            runs.extend(i for i, c in enumerate(inverse) if c is e)
            return eval_array(e, pts)

        monkeypatch.setattr(ex.Expr, "eval_array", counting)
        for t1 in kernels:
            fn = op._compose_numeric(t1, t2, pair_bundle, 12).values_fn
            for Z, want in ((low_order_grid(1, 9), [0]), (low_order_grid(1, 9), []),
                            (low_order_grid(1, 6), [0])):
                runs.clear()
                got = fn(Y, Z)
                assert (got == kernel_after_dirac_per_point(t1, t2, Y, Z)).all()
                assert got.any() and runs == want


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_numeric_value_loop_runs_each_frontier_node_once_per_grid(pair_bundle, monkeypatch):
    """Under a density o density ``NumericPart``, the outer weight psi1(x, y)
    keeps its fibre-only frontier for the last middle rule, so a
    ``value(x)`` loop runs those nodes once per rule, and switching the
    order 12 -> 16 -> 12 reads no stale entry."""
    b = pair_bundle  # kernels built by no other test, sharing no interior node
    K1 = op.density_kernel(b, b.parse_total("bump(x0)*bump(y0)*(1 + x0*y0/31)"))
    K2 = op.density_kernel(b, b.parse_total("bump(x0/2)*bump(y0/3)*(2 + y0/37)"))
    g = b.parse_fibre("y0^2 + 1/7")
    X = np.array(PROBE_XS)
    want = {order: hexes(op.apply(op.compose(K1, K2, order=order), g, order=order).values(X))
            for order in (12, 16)}  # many rows: no pass keeps a frontier
    weight = K1.terms[0].weight
    kinds = nodes_by_reads(weight, {0})
    assert fibre_frontier(weight, {0}) and kinds["both"]
    runs = array_runs(monkeypatch)
    for order in (12, 16, 12):
        bf = op.apply(op.compose(K1, K2, order=order), g, order=order)
        runs.clear()
        assert hexes([bf.value(x) for x in PROBE_XS]) == want[order]
        assert [runs[n] for n in kinds["fibre"]] == [1] * len(kinds["fibre"])
        assert [runs[n] for n in kinds["both"]] == [len(PROBE_XS)] * len(kinds["both"])
        assert [runs[n] for n in kinds["base"]] == [0] * len(kinds["base"])


class TestInnerFactorMemo:
    """A numeric kernel keeps its base-point-free factor per fibre grid, across calls."""

    ORDER = 12

    @pytest.fixture
    def probe_g(self, pair_bundle):
        return pair_bundle.parse_fibre("y0^2 + 1")

    @pytest.fixture
    def make(self, K_density, K_psi):
        """Freshly composed kernels, each with a cold memo."""
        def dd():
            return op.compose(K_density, K_psi, order=self.ORDER)
        return {
            "density.density": dd,
            "numeric.density": lambda: op.compose(dd(), K_density, order=self.ORDER),
            "density.numeric": lambda: op.compose(K_density, dd(), order=self.ORDER),
            "numeric.numeric": lambda: op.compose(dd(), dd(), order=self.ORDER),
        }

    @pytest.fixture
    def inner_grids(self, monkeypatch):
        """Counts pair_values calls over more than one base point, by term."""
        calls = {}
        pair_values = op.pair_values

        def counting(term, Y, Z):
            if len(Y) > 1:  # a rule's points; value(x) asks for one row
                calls[id(term)] = calls.get(id(term), 0) + 1
            return pair_values(term, Y, Z)

        monkeypatch.setattr(op, "pair_values", counting)
        return calls

    def test_inner_grid_once_across_value_calls(self, probe_g, make, inner_grids,
                                                K_density, K_psi):
        density, psi = id(K_density.terms[0]), id(K_psi.terms[0])
        for name, want in (("density.density", {psi: 1}),
                           ("numeric.density", {psi: 1, density: 1})):
            bf = op.apply(make[name](), probe_g, order=self.ORDER)
            inner_grids.clear()
            for x in PROBE_XS:
                bf.value(x)
            assert inner_grids == want, name

    @pytest.mark.parametrize("name", ["density.density", "numeric.density",
                                      "density.numeric", "numeric.numeric"])
    def test_warm_values_equal_cold_ones(self, probe_g, make, name):
        warm = op.apply(make[name](), probe_g, order=self.ORDER)
        first = [warm.value(x) for x in PROBE_XS]  # warm from the second x on
        cold = [op.apply(make[name](), probe_g, order=self.ORDER).value(x) for x in PROBE_XS]
        assert hexes(first) == hexes(cold)
        assert hexes([warm.value(x) for x in PROBE_XS]) == hexes(cold)
        assert hexes(warm.values(np.asarray(PROBE_XS))) == hexes(cold)
        assert any(cold)

    def test_key_is_the_grid_content(self, make, inner_grids, K_psi):
        Y, Z = low_order_grid(1, 7), low_order_grid(1, 9).copy()
        fn = make["density.density"]().terms[0].values_fn
        before = fn(Y, Z)
        Z *= 0.5  # the same array, changed in place
        after = fn(Y, Z)
        fresh = make["density.density"]().terms[0].values_fn(Y, Z.copy())
        assert hexes(after) == hexes(fresh) and hexes(after) != hexes(before)
        assert inner_grids[id(K_psi.terms[0])] == 3
        fn(Y, Z.copy())  # equal bytes in another array: a hit
        assert inner_grids[id(K_psi.terms[0])] == 3

    def test_negative_zero_misses(self, make, inner_grids, K_psi):
        Y = low_order_grid(1, 7)
        Z = np.array([[0.0], [0.5], [-0.25]])
        fn = make["density.density"]().terms[0].values_fn
        fn(Y, Z)
        fn(Y, np.array([[-0.0], [0.5], [-0.25]]))
        assert inner_grids[id(K_psi.terms[0])] == 2

    def test_the_kept_factor_dies_with_the_kernel(self, make):
        """No reference cycle holds the kernel's closure, so it and the factor
        it keeps go as soon as the kernel does, with the cyclic collector off."""
        fn = make["density.density"]().terms[0].values_fn
        assert fn(low_order_grid(1, 7), low_order_grid(1, 9)).any()
        ref = weakref.ref(fn)
        gc.disable()
        try:
            del fn
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["density.density", "numeric.density"])
    def test_threads_replacing_the_entry_read_sequential_bits(self, make, name):
        Y = low_order_grid(1, 7)
        grids = [low_order_grid(1, 9), low_order_grid(1, 6)]
        want = [hexes(make[name]().terms[0].values_fn(Y, Z)) for Z in grids]
        fn = make[name]().terms[0].values_fn
        start = threading.Barrier(4, timeout=60)

        def worker(first):
            start.wait()
            return [(k % 2, hexes(fn(Y, grids[k % 2])))
                    for k in range(first, first + 24)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [len(rows) for rows in results] == [24] * 4
        assert all(got == want[k] for rows in results for k, got in rows)


class TestOneRewrite:
    def test_density_after_graph_rewrites_the_weight_once(self, monkeypatch):
        b = bd.TrivialBundle(2, 2)
        K1 = op.density_kernel(b, b.parse_total("bump(x0)*bump(x1)*bump(y0)*bump(y1)"))
        w = b.parse_base("exp(1)*bump(x0/2)*bump(x1/2)*(x0 - x1)")
        K2 = op.graph_kernel(bd.section_from_strings(b, ["x0 + x1", "x0 - x1"]), w)
        assert rewrite_chain(monkeypatch, w, lambda: op.compose(K1, K2)) == 1


class TestOperatorCorrespondence:
    def test_homomorphism_on_probe_grid(self, pair_bundle, K_shift_a, K_density):
        # 9 base points x 5 probe functions
        xs = [(x,) for x in np.linspace(-1, 1, 9)]
        probes = [pair_bundle.parse_fibre(t)
                  for t in ("1", "y0", "y0^2", "bump(y0)", "y0^3 + y0")]
        K = op.compose(K_shift_a, K_density)
        for g in probes:
            lhs = op.apply(K, g)
            inner = op.apply(K_density, g)
            rhs = op.apply_to_values(K_shift_a, lambda y: inner.value(y),
                                     inner.support_box())
            for x in xs:
                assert abs(lhs.value(x) - rhs(x)) < 1e-8


class TestValidation:
    def test_pair_bundle_required(self):
        b = bd.TrivialBundle(1, 2)
        with pytest.raises(ex.DimensionError):
            op.KernelOperator(b, ())

    def test_distribution_round_trip(self, pair_bundle, K_shift_a):
        T = K_shift_a.distribution()
        K = op.KernelOperator.from_distribution(T)
        assert K.kinds == ("dirac",)

    def test_numeric_kernel_has_no_distribution(self, pair_bundle, K_density):
        K = op.compose(K_density, K_density)
        with pytest.raises(ExprError):
            K.distribution()
