import gc
import json
import math
import pickle
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (array_runs, each_engine, fd_derivative, fibre_frontier,
                      nodes_by_reads, random_polynomial)
from test_expr_dag import expressions
from transdist import bundle as bd
from transdist import cli
from transdist import distribution as dist
from transdist import expr as ex
from transdist import operators as op
from transdist import quadrature as qd
from transdist.expr import Box, ExprError
from transdist.quadrature import BUMP_INTEGRAL


@pytest.fixture
def diag_section(line_bundle):
    return bd.section_from_strings(line_bundle, ["x0"])


@pytest.fixture
def T_dirac(line_bundle, diag_section):
    return dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"))


@pytest.fixture
def T_density(line_bundle):
    return dist.density(line_bundle, line_bundle.parse_total("bump(x0)*bump(y0)"))


def random_total_functions(bundle, count, seed):
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(bundle.base_dim)] + \
            [f"y{j}" for j in range(bundle.fibre_dim)]
    return [random_polynomial(rng, bundle.total_dim, names=names)
            for _ in range(count)]


class TestEvaluate:
    def test_dirac_pairing_formula(self, line_bundle, T_dirac):
        # weight(x) * F(x, sigma(x)) with sigma the diagonal
        F = line_bundle.parse_total("2 + x0*y0")
        bf = dist.evaluate(T_dirac, F)
        assert bf.value((0.5,)) == pytest.approx(math.exp(-4.0 / 3.0) * 2.25, rel=1e-15)
        assert bf.quad_parts == () and bf.symbolic is not None  # purely symbolic

    def test_zero_function_gives_zero(self, line_bundle, T_dirac, T_density):
        F = line_bundle.parse_total("0")
        for T in (T_dirac, T_density, T_dirac + T_density):
            bf = dist.evaluate(T, F)
            for x in (-0.5, 0.0, 1.2):
                assert bf.value((x,)) == 0.0

    def test_density_against_reference_integral(self, line_bundle, T_density):
        bf = dist.evaluate(T_density, line_bundle.parse_total("1"))
        b = ex.parse("bump(x0)", 1)
        for x in np.linspace(-0.9, 0.9, 7):
            assert bf.value((x,)) == pytest.approx(b.evaluate((x,)) * BUMP_INTEGRAL,
                                                   abs=1e-10)

    def test_derivative_weight_uses_fibre_derivative(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"),
                               beta=(1,))
        F = line_bundle.parse_total("y0^2")
        bf = dist.evaluate(T, F)
        x = 0.25
        assert bf.value((x,)) == pytest.approx(math.exp(-1 / (1 - x * x)) * 2 * x,
                                               rel=1e-14)

    def test_support_of_result(self, line_bundle, T_dirac):
        bf = dist.evaluate(T_dirac, line_bundle.parse_total("1 + y0"))
        box = bf.support_box()
        assert box.intervals[0] == (-1.0, 1.0)
        assert bf.value((1.5,)) == 0.0


class TestRestrict:
    def test_dirac_restriction_atoms(self, T_dirac):
        v = dist.restrict(T_dirac, (0.25,))
        assert len(v.atoms) == 1
        point, beta, c = v.atoms[0]
        assert point == (0.25,)
        assert beta == (0,)
        assert c == pytest.approx(math.exp(-1 / (1 - 0.0625)), rel=1e-15)

    def test_density_restriction(self, line_bundle, T_density):
        v = dist.restrict(T_density, (0.5,))
        assert v.atoms == ()
        g = v.density
        assert g is not None
        assert g.evaluate((0.0,)) == pytest.approx(
            math.exp(-4.0 / 3.0) * math.exp(-1.0), rel=1e-15)

    def test_vanishing_point(self, line_bundle, T_dirac, T_density):
        v = dist.restrict(T_dirac + T_density, (1.0,))
        assert all(c == 0.0 for _, _, c in v.atoms)
        assert v.is_numerically_zero()

    def test_multiple_density_terms_sum(self, line_bundle):
        T = dist.density(line_bundle, line_bundle.parse_total("bump(x0)*bump(y0)")) \
            + dist.density(line_bundle,
                           line_bundle.parse_total("x0*bump(x0)*bump(2*y0)"))
        x = 0.5
        v = dist.restrict(T, (x,))
        assert v.density is not None
        for y in (-0.6, 0.0, 0.4):
            expected = (line_bundle.parse_total("bump(x0)*bump(y0)")
                        .evaluate((x, y))
                        + line_bundle.parse_total("x0*bump(x0)*bump(2*y0)")
                        .evaluate((x, y)))
            assert v.density.evaluate((y,)) == pytest.approx(expected, rel=1e-15)

    def test_compatibility_on_grid(self, line_bundle, T_dirac, T_density):
        T = T_dirac + T_density
        F = line_bundle.parse_total("x0*y0 + bump(y0)")
        bf = dist.evaluate(T, F)
        for x in np.linspace(-1, 1, 9):
            lhs = dist.pair(dist.restrict(T, (x,)),
                            bd.restrict_function(line_bundle, F, (x,)))
            assert lhs == pytest.approx(bf.value((x,)), abs=1e-10)


class TestPair:
    def test_plain_dirac(self, line_bundle):
        v = dist.dirac_at((0.0,), 1)
        assert dist.pair(v, line_bundle.parse_fibre("y0^2")) == 0.0

    def test_derivative_atom_without_sign_factor(self, line_bundle):
        v = dist.dirac_at((1.0,), 1, beta=(1,))
        # evaluation-functional convention: (D g)(p), not -(D g)(p)
        assert dist.pair(v, line_bundle.parse_fibre("y0^2")) == 2.0

    def test_density_pairing(self, line_bundle):
        v = dist.PointDistribution(1, (), line_bundle.parse_fibre("bump(y0)"))
        assert dist.pair(v, line_bundle.parse_fibre("1")) == pytest.approx(
            BUMP_INTEGRAL, abs=1e-12)


class TestFamilyDerivative:
    def test_zero_alpha_is_identity(self, T_dirac):
        assert dist.family_derivative(T_dirac, (0,)) is T_dirac

    def test_product_rule_on_diagonal_dirac(self, line_bundle, T_dirac):
        # x -> f(x) g(x) must differentiate to f'g + fg'
        dT = dist.family_derivative(T_dirac, (1,))
        g = line_bundle.parse_fibre("y0^2 + y0")

        def value(x):
            return dist.pair(dist.restrict(T_dirac, (x,)), g)

        for x in (-0.5, 0.1, 0.6):
            got = dist.pair(dist.restrict(dT, (x,)), g)
            assert got == pytest.approx(fd_derivative(lambda p: value(p[0]), (x,), 0),
                                        rel=1e-6, abs=1e-8)

    def test_density_derivative_matches_finite_differences(self, line_bundle, T_density):
        dT = dist.family_derivative(T_density, (1,))
        g = line_bundle.parse_fibre("y0^2 + 1")

        def value(x):
            return dist.pair(dist.restrict(T_density, (x,)), g)

        for x in (-0.4, 0.2):
            got = dist.pair(dist.restrict(dT, (x,)), g)
            assert got == pytest.approx(fd_derivative(lambda p: value(p[0]), (x,), 0),
                                        abs=1e-8)

    def test_nondiagonal_section_chain_rule(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0^2"])
        T = dist.dirac_section(s, line_bundle.parse_base("bump(x0)"))
        dT = dist.family_derivative(T, (1,))
        g = line_bundle.parse_fibre("bump(y0)")

        def value(x):
            return dist.pair(dist.restrict(T, (x,)), g)

        for x in (-0.5, 0.3):
            got = dist.pair(dist.restrict(dT, (x,)), g)
            assert got == pytest.approx(fd_derivative(lambda p: value(p[0]), (x,), 0),
                                        rel=1e-6, abs=1e-8)

    @pytest.fixture
    def deep(self, line_bundle):
        """A Dirac term shaped like the dirac-deep benchmark's, on a section domain."""
        b = line_bundle
        s = bd.Section(b, (b.parse_base("x0/2 + sin(x0)/3"),), Box.of([(-1.5, 1.5)]))
        return dist.dirac_section(s, b.parse_base("bump(x0)*exp(sin(2*x0/5))*cos(x0^2)"), (1,))

    def test_tower_terms_lie_inside_their_checked_box(self, deep):
        (root,) = deep.terms
        terms = [t for D in dist.family_derivatives(deep, 4).values() for t in D.terms]
        assert len(terms) == 1 + 2 + 4 + 8 + 16
        for t in terms:
            box = t.weight.support_box()
            assert box.is_bounded
            assert box.intersect(t._bound) == box
            assert box.intersect(t.section.domain) == box
            assert t._bound is root._bound

    def test_tower_walks_no_new_weight(self, deep, monkeypatch):
        calls = []
        support_box = ex.Expr.support_box
        monkeypatch.setattr(ex.Expr, "support_box",
                            lambda e: calls.append(e) or support_box(e))
        dist.family_derivatives(deep, 4)
        assert calls == []

    def test_a_step_over_the_term_budget_raises_before_it_builds(self, T_dirac, monkeypatch):
        """On the diagonal every step doubles the terms: 2^12 fit the budget,
        and the step to 2^13 raises before it derives a single term."""
        D12 = dist.family_derivative(T_dirac, (12,))
        assert len(D12.terms) == dist.MAX_TOWER_TERMS == 4096
        with pytest.raises(ExprError, match="8192 terms, over the budget MAX_TOWER_TERMS = 4096"):
            dist.family_derivative(T_dirac, (13,))
        derived = []
        monkeypatch.setattr(dist.Term, "_derived", lambda *args: derived.append(args))
        with pytest.raises(ExprError, match="over the budget"):
            dist.family_derivatives(D12, 1)
        assert derived == []

    def test_kept_box_is_not_part_of_the_term(self, deep):
        (root,) = deep.terms
        derived = dist.family_derivative(deep, (1,)).terms
        rebuilt = [dist.Term(t.bundle, t.weight, t.section, t.beta) for t in derived]
        assert rebuilt == list(derived)
        assert [hash(t) for t in rebuilt] == [hash(t) for t in derived]
        assert [repr(t) for t in rebuilt] == [repr(t) for t in derived]
        assert "_bound" not in repr(root)
        assert all(t._bound is t.weight.support_box() for t in rebuilt)


class TestModuleActions:
    def test_constant_one_is_identity(self, line_bundle, T_dirac):
        f = line_bundle.parse_base("1")
        out = dist.module_action_base(f, T_dirac)
        F = line_bundle.parse_total("x0 + y0^2")
        for x in (-0.5, 0.4):
            assert dist.evaluate(out, F).value((x,)) == pytest.approx(
                dist.evaluate(T_dirac, F).value((x,)), rel=1e-15)

    def test_vanishing_factor_annihilates(self, line_bundle, T_dirac):
        f = line_bundle.parse_base("bump(x0 - 5)")  # zero on supp(T)
        out = dist.module_action_base(f, T_dirac)
        F = line_bundle.parse_total("1 + x0*y0")
        for x in np.linspace(-1.5, 1.5, 7):
            assert dist.evaluate(out, F).value((x,)) == 0.0

    def test_base_action_scales_evaluation(self, line_bundle, T_dirac):
        f = line_bundle.parse_base("x0")
        out = dist.module_action_base(f, T_dirac)
        F = line_bundle.parse_total("2 + x0*y0")
        base = dist.evaluate(T_dirac, F).value((0.5,))
        assert dist.evaluate(out, F).value((0.5,)) == pytest.approx(0.5 * base,
                                                                    abs=1e-12)

    def test_total_action_beta_zero(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"))
        F = line_bundle.parse_total("y0")
        FT = dist.module_action_total(F, T)
        for G in random_total_functions(line_bundle, 5, seed=5):
            lhs = dist.evaluate(FT, G)
            rhs = dist.evaluate(T, ex.mul(F, G))
            for x in (-0.5, 0.0, 0.7):
                assert lhs.value((x,)) == pytest.approx(rhs.value((x,)), abs=1e-10)

    def test_total_action_beta_one_leibniz_expansion(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"),
                               beta=(1,))
        F = line_bundle.parse_total("x0 + y0^2")
        FT = dist.module_action_total(F, T)
        assert len(FT.terms) == 2  # gamma = 0 and gamma = beta
        for G in random_total_functions(line_bundle, 5, seed=6):
            lhs = dist.evaluate(FT, G)
            rhs = dist.evaluate(T, ex.mul(F, G))
            for x in (-0.5, 0.0, 0.7):
                assert lhs.value((x,)) == pytest.approx(rhs.value((x,)), abs=1e-10)

    def test_total_action_beta_two_has_three_terms(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"),
                               beta=(2,))
        F = line_bundle.parse_total("y0^3 + x0*y0")
        FT = dist.module_action_total(F, T)
        assert len(FT.terms) == 3  # gamma in {0, 1, 2}
        for G in random_total_functions(line_bundle, 5, seed=9):
            lhs = dist.evaluate(FT, G)
            rhs = dist.evaluate(T, ex.mul(F, G))
            for x in (-0.5, 0.0, 0.7):
                assert lhs.value((x,)) == pytest.approx(rhs.value((x,)), abs=1e-10)

    def test_total_action_on_density(self, line_bundle, T_density):
        F = line_bundle.parse_total("x0 + y0")
        FT = dist.module_action_total(F, T_density)
        G = line_bundle.parse_total("1 + y0^2")
        for x in (-0.3, 0.4):
            assert dist.evaluate(FT, G).value((x,)) == pytest.approx(
                dist.evaluate(T_density, ex.mul(F, G)).value((x,)), abs=1e-12)

    def test_restriction_is_module_map(self, line_bundle, T_dirac, T_density):
        # the family of restrictions intertwines the base action
        T = T_dirac + T_density
        f = line_bundle.parse_base("x0^2 + 1")
        fT = dist.module_action_base(f, T)
        probes = [line_bundle.parse_fibre(t)
                  for t in ("1", "y0", "y0^2", "bump(y0)", "y0^3 + 1")]
        for x in (-0.6, 0.0, 0.5):
            lhs = dist.restrict(fT, (x,))
            v, c = dist.restrict(T, (x,)), f.evaluate((x,))
            rhs = dist.PointDistribution(  # v scaled by c = f(x)
                v.fibre_dim, tuple((p, beta, c * w) for p, beta, w in v.atoms),
                None if v.density is None else ex.mul(ex.const(c, 1), v.density))
            for g in probes:
                assert dist.pair(lhs, g) == pytest.approx(dist.pair(rhs, g),
                                                          abs=1e-10)


class TestSupports:
    def test_dirac_graph_support(self, line_bundle, T_dirac):
        box = dist.total_support(T_dirac)
        assert box.intervals[0] == (-1.0, 1.0)
        lo, hi = box.intervals[1]
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_zero_distribution_empty_support(self, line_bundle):
        Z = dist.zero_distribution(line_bundle)
        assert dist.total_support(Z).is_empty
        assert dist.base_support(Z).is_empty

    def test_density_support_is_phi_support(self, line_bundle, T_density):
        assert dist.total_support(T_density).intervals == ((-1.0, 1.0), (-1.0, 1.0))

    def test_base_support_is_projection(self, line_bundle, T_dirac, T_density):
        for T in (T_dirac, T_density, T_dirac + T_density):
            assert dist.base_support(T) == dist.total_support(T).project([0])

    def test_hull_of_disjoint_weights(self, line_bundle, diag_section):
        w1 = line_bundle.parse_base("bump(2*x0 - 1)")   # supported on [0, 1]
        w2 = line_bundle.parse_base("bump(2*x0 - 5)")   # supported on [2, 3]
        T = dist.dirac_section(diag_section, w1) + dist.dirac_section(diag_section, w2)
        assert dist.base_support(T).intervals == ((0.0, 3.0),)
        # probe oracle: probes supported outside [0, 3] see nothing
        for centre in (-1.0, 3.7, 5.0):
            probe = line_bundle.parse_total(
                f"bump(4*(x0 - ({centre})))*bump(y0/5)")
            bf = dist.evaluate(T, probe)
            for x in np.linspace(-2, 6, 17):
                assert bf.value((x,)) == 0.0

    def test_probes_outside_support_vanish(self, line_bundle, T_dirac, T_density):
        T = T_dirac + T_density
        box = dist.total_support(T)
        rng = np.random.default_rng(1234)
        count = 0
        while count < 25:
            centre = rng.uniform(-4, 4, size=2)
            probe_box = Box.of([(c - 0.25, c + 0.25) for c in centre])
            if not box.intersect(probe_box).is_empty:
                continue
            count += 1
            probe = ex.mul(
                ex.bump(ex.mul(ex.const(4, 2),
                               ex.sub(ex.var(0, 2, "x0"), ex.const(centre[0], 2)))),
                ex.bump(ex.mul(ex.const(4, 2),
                               ex.sub(ex.var(1, 2, "y0"), ex.const(centre[1], 2)))))
            bf = dist.evaluate(T, probe)
            for x in (centre[0], 0.0, 0.5):
                assert abs(bf.value((x,))) <= 1e-12


class TestHadamard:
    def test_square_at_origin(self, line_bundle):
        f = line_bundle.parse_base("x0^2")
        c, factors = dist.hadamard_factor(f, (0.0,))
        assert c == 0
        assert len(factors) == 1
        slot, g = factors[0]
        assert slot == 0
        assert g == line_bundle.parse_base("x0")

    def test_square_at_one(self, line_bundle):
        f = line_bundle.parse_base("x0^2")
        c, factors = dist.hadamard_factor(f, (1.0,))
        assert c == 1
        slot, g = factors[0]
        # x0^2 = 1 + (x0 - 1)(x0 + 1)
        assert ex.as_polynomial(g) == ex.as_polynomial(line_bundle.parse_base("x0 + 1"))

    def test_constant(self, line_bundle):
        c, factors = dist.hadamard_factor(line_bundle.parse_base("7"), (2.0,))
        assert c == 7
        assert factors == []

    def test_expansion_identity_multivariate(self):
        b = bd.TrivialBundle(2, 1)
        rng = np.random.default_rng(17)
        for _ in range(6):
            f = random_polynomial(rng, 2, max_degree=3)
            a = tuple(rng.uniform(-1, 1, size=2))
            c, factors = dist.hadamard_factor(f, a)
            # reassemble and compare exactly as polynomials
            total = {(0, 0): c} if c else {}
            for slot, g in factors:
                linear = ex.sub(ex.var(slot, 2), ex.const(a[slot], 2))
                piece = ex.as_polynomial(ex.mul(linear, g))
                for mono, coef in piece.items():
                    total[mono] = total.get(mono, 0) + coef
            total = {m: c2 for m, c2 in total.items() if c2 != 0}
            assert total == ex.as_polynomial(f)

    def test_non_polynomial_rejected(self, line_bundle):
        with pytest.raises(ExprError):
            dist.hadamard_factor(line_bundle.parse_base("bump(x0)"), (0.0,))


class TestLocalization:
    def test_vanishing_weight_decomposes(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section, line_bundle.parse_base("x0*bump(x0)"))
        pieces = dist.localize_decompose(T, (0.0,))
        assert len(pieces) == 1
        f0, T0 = pieces[0]
        assert f0.evaluate((0.0,)) == 0.0
        R = dist.recompose(pieces, line_bundle)
        G = line_bundle.parse_total("y0^2 + x0*y0 + 1")
        for x in (-0.5, 0.2, 0.8):
            assert dist.evaluate(R, G).value((x,)) == pytest.approx(
                dist.evaluate(T, G).value((x,)), abs=1e-10)

    def test_nonvanishing_restriction_rejected(self, line_bundle, T_dirac):
        with pytest.raises(ExprError, match="requires the restriction"):
            dist.localize_decompose(T_dirac, (0.0,))

    # exp(1000*t) overflows past t = 0.71, so inf - inf makes each of these
    # NaN at 0.75 (a zero-test sample of the density) and 0 below
    @pytest.mark.parametrize("kind, text", [
        ("dirac", "(exp(1000*x0) - exp(1000*x0))*bump(x0)"),
        ("density", "(exp(1000*y0) - exp(1000*y0))*bump(x0)*bump(y0)")])
    def test_a_nan_restriction_is_not_zero(self, line_bundle, diag_section, kind, text):
        w = line_bundle.parse_base(text) if kind == "dirac" else line_bundle.parse_total(text)
        T = (dist.dirac_section(diag_section, w) if kind == "dirac"
             else dist.density(line_bundle, w))
        x = (0.75,) if kind == "dirac" else (0.0,)
        v = dist.restrict(T, x)
        assert math.isnan(v.atoms[0][2] if kind == "dirac" else v.density.evaluate((0.75,)))
        assert not v.is_numerically_zero()
        with pytest.raises(ExprError, match="requires the restriction at x to vanish"):
            dist.localize_decompose(T, x)

    def test_a_nan_atom_is_not_zero(self):
        atom = ((0.0,), (0,), math.nan)
        assert not dist.PointDistribution(1, (atom,)).is_numerically_zero()

    def test_zero_distribution_gives_empty_list(self, line_bundle):
        assert dist.localize_decompose(dist.zero_distribution(line_bundle),
                                       (0.0,)) == []

    def test_density_localization(self, line_bundle):
        T = dist.density(line_bundle,
                         line_bundle.parse_total("x0*bump(x0)*bump(y0)"))
        pieces = dist.localize_decompose(T, (0.0,))
        R = dist.recompose(pieces, line_bundle)
        G = line_bundle.parse_total("1 + y0^2")
        for x in (-0.4, 0.3):
            assert dist.evaluate(R, G).value((x,)) == pytest.approx(
                dist.evaluate(T, G).value((x,)), abs=1e-10)

    def test_off_centre_point(self, line_bundle, diag_section):
        T = dist.dirac_section(diag_section,
                               line_bundle.parse_base("(x0 - 1/2)*bump(x0)"))
        pieces = dist.localize_decompose(T, (0.5,))
        for f_i, _ in pieces:
            assert f_i.evaluate((0.5,)) == 0.0
        R = dist.recompose(pieces, line_bundle)
        G = line_bundle.parse_total("x0 + y0")
        for x in (-0.3, 0.6):
            assert dist.evaluate(R, G).value((x,)) == pytest.approx(
                dist.evaluate(T, G).value((x,)), abs=1e-10)

    def test_unsupported_weight_form(self, line_bundle, diag_section):
        # vanishes at |x| >= 1 but carries no vanishing polynomial factor
        T = dist.dirac_section(diag_section, line_bundle.parse_base("bump(x0)"))
        with pytest.raises(ExprError):
            dist.localize_decompose(T, (2.0,))

    @pytest.mark.parametrize("kind, text, x, want", [
        ("dirac", "x0*bump(x0)", (0.0,), [("x0", "bump(x0)")]),
        ("dirac", "(x0 - 1/2)*bump(x0)", (0.5,), [("x0 - 1/2", "bump(x0)")]),
        ("dirac2", "(x0 + x1)*bump(x0)*bump(x1)", (0.0, 0.0),
         [("x0", "bump(x0)*bump(x1)"), ("x1", "bump(x0)*bump(x1)")]),
        # the constant joins the Hadamard part, the fibre factor the envelope
        ("density", "2*x0*y0*bump(x0)*bump(y0)", (0.0,), [("x0", "2*y0*bump(x0)*bump(y0)")]),
        ("dirac", "0", (0.0,), []),
        ("dirac", "bump(x0)", (0.0,),
         "localization requires the restriction at x to vanish"),
        ("dirac", "bump(x0)", (2.0,),
         "unsupported weight form: expected polynomial times envelope"),
        ("density", "y0*bump(x0)*bump(y0)", (2.0,),
         "unsupported weight form: no base polynomial factor"),
        ("dirac", "(x0 - 1/2)*bump(x0)", (2.0,),
         "unsupported weight form: polynomial part does not vanish at x"),
    ])
    def test_pieces_and_messages_are_pinned(self, kind, text, x, want):
        """The exact f_i and T_i of each decomposition, or its exact error."""
        b = bd.TrivialBundle(2 if kind == "dirac2" else 1, 1)
        if kind == "density":
            T = dist.density(b, b.parse_total(text))
        else:
            section = bd.section_from_strings(b, ["x0 + x1" if kind == "dirac2" else "x0"])
            T = dist.dirac_section(section, b.parse_base(text))
        if isinstance(want, str):
            with pytest.raises(ExprError) as err:
                dist.localize_decompose(T, x)
            assert str(err.value) == want
            return
        pieces = dist.localize_decompose(T, x)
        got = []
        for f_i, T_i in pieces:
            (term,) = T_i.terms
            assert type(term) is type(T.terms[0])
            if kind != "density":
                assert term.section is T.terms[0].section and term.beta == T.terms[0].beta
            got.append((str(f_i), str(term.weight)))
        assert got == want

    def test_multivariate_base(self):
        b = bd.TrivialBundle(2, 1)
        s = bd.section_from_strings(b, ["x0 + x1"])
        w = b.parse_base("(x0 + x1)*bump(x0)*bump(x1)")
        T = dist.dirac_section(s, w)
        pieces = dist.localize_decompose(T, (0.0, 0.0))
        assert {next(iter(f.free_slots)) for f, _ in pieces} <= {0, 1}
        R = dist.recompose(pieces, b)
        G = b.parse_total("1 + x0*y0 + x1^2")
        for x in ((-0.3, 0.2), (0.5, 0.1)):
            assert dist.evaluate(R, G).value(x) == pytest.approx(
                dist.evaluate(T, G).value(x), abs=1e-10)


class TestHatPairing:
    def test_additivity_in_distribution(self, line_bundle, T_dirac, T_density):
        F = line_bundle.parse_total("x0 + y0^2")
        s = dist.evaluate(T_dirac + T_density, F)
        a = dist.evaluate(T_dirac, F)
        c = dist.evaluate(T_density, F)
        for x in np.linspace(-1, 1, 9):
            assert s.value((x,)) == pytest.approx(a.value((x,)) + c.value((x,)),
                                                  abs=1e-12)

    def test_module_linearity(self, line_bundle, T_dirac, T_density):
        F = line_bundle.parse_total("1 + y0")
        f = line_bundle.parse_base("bump(x0/2)")
        for T in (T_dirac, T_density):
            lhs = dist.evaluate(dist.module_action_base(f, T), F)
            rhs = dist.evaluate(T, F)
            for x in np.linspace(-1, 1, 9):
                assert lhs.value((x,)) == pytest.approx(f.evaluate((x,)) * rhs.value((x,)),
                                                        abs=1e-12)


class TestSeparatingProbe:
    def test_equal_functions(self, line_bundle):
        F = line_bundle.parse_total("x0*y0")
        grid = [((x,), (y,)) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        assert dist.separating_probe(F, F, grid, bundle=line_bundle)

    def test_distinguishes_bump_difference(self, line_bundle):
        F = line_bundle.parse_total("x0*y0")
        G = line_bundle.parse_total("x0*y0 + bump(x0)*bump(y0)")
        grid = [((0.0,), (0.0,))]
        assert not dist.separating_probe(F, G, grid, bundle=line_bundle)

    def test_grid_blindness_is_documented_behaviour(self, line_bundle):
        F = line_bundle.parse_total("0")
        G = line_bundle.parse_total("bump(x0)*bump(y0)")
        # probes only outside the support of G: cannot distinguish
        grid = [((2.0,), (2.0,)), ((3.0,), (0.0,))]
        assert dist.separating_probe(F, G, grid, bundle=line_bundle)


class TestLeibnizIdentity:
    @pytest.mark.parametrize("alpha", [(0,), (1,), (2,), (3,)])
    def test_coefficiented_rule_on_mixed_distribution(self, line_bundle, T_dirac,
                                                      T_density, alpha):
        T = T_dirac + T_density
        F = line_bundle.parse_total("2 + x0*y0 + y0^2")
        bf = dist.evaluate(T, F)
        direct = bf.derivative(alpha)
        for x in (-0.5, 0.0, 0.4):
            rhs = 0.0
            for b0 in range(alpha[0] + 1):
                beta, gamma = (b0,), (alpha[0] - b0,)
                coeff = math.comb(alpha[0], b0)
                dT = dist.family_derivative(T, beta)
                dF = F.diff(line_bundle.base_alpha_to_total(gamma))
                rhs += coeff * dist.pair(dist.restrict(dT, (x,)),
                                         bd.restrict_function(line_bundle, dF, (x,)))
            lhs = direct.value((x,))
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-8

    def test_family_tower_equals_family_derivative_term_for_term(self, plane_bundle):
        b = plane_bundle
        s = bd.section_from_strings(b, ["x0*x1 + sin(x0)/3"])
        T = (dist.dirac_section(s, b.parse_base("bump(x0)*bump(x1)*x1"), (1,))
             + dist.density(b, b.parse_total("bump(x0)*bump(x1)*bump(y0)*(y0 + x0*x1)")))
        tower = dist.family_derivatives(T, 3)
        assert list(tower) == ex.multi_indices_up_to(2, 3)
        assert tower[(0, 0)] is T
        for beta, D in tower.items():
            want = dist.family_derivative(T, beta).terms
            assert len(D.terms) == len(want)
            for got, term in zip(D.terms, want):
                assert got == term, beta
                assert str(getattr(got, "weight", None)) == str(getattr(term, "weight", None))

    def test_uncoefficiented_rule_fails(self, line_bundle, diag_section):
        # the bare sum over splittings undercounts the cross term of alpha=2
        T = dist.dirac_section(diag_section, line_bundle.parse_base("x0*bump(x0)"))
        F = line_bundle.parse_total("x0*y0 + y0^2")
        bf = dist.evaluate(T, F)
        x = 0.4
        lhs = bf.derivative((2,)).value((x,))
        rhs = 0.0
        for b0 in range(3):
            beta, gamma = (b0,), (2 - b0,)
            dT = dist.family_derivative(T, beta)
            dF = F.diff(line_bundle.base_alpha_to_total(gamma))
            rhs += dist.pair(dist.restrict(dT, (x,)),
                             bd.restrict_function(line_bundle, dF, (x,)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) > 1e-3


class TestConstruction:
    def test_weight_needs_compact_support(self, line_bundle, diag_section):
        with pytest.raises(ExprError):
            dist.dirac_section(diag_section, line_bundle.parse_base("x0"))

    def test_density_needs_compact_support(self, line_bundle):
        with pytest.raises(ExprError):
            dist.density(line_bundle, line_bundle.parse_total("bump(x0)"))

    def test_weight_must_fit_section_domain(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0"], domain=Box.of([(0, 0.5)]))
        with pytest.raises(ExprError):
            dist.dirac_section(s, line_bundle.parse_base("bump(x0)"))

    @pytest.mark.parametrize("weight, message", [
        ("exp(x0)", "bounded support"), ("bump(x0 - 3)", "inside the section domain")])
    def test_constructor_checks_the_weight_it_is_given(self, line_bundle, weight, message):
        s = bd.section_from_strings(line_bundle, ["x0"], domain=Box.of([(-1.5, 1.5)]))
        with pytest.raises(ExprError, match=message):
            dist.Term(line_bundle, line_bundle.parse_base(weight), s, (0,))

    def test_mixed_bundles_rejected(self, line_bundle, T_dirac):
        other = dist.density(bd.TrivialBundle(2, 1),
                             bd.TrivialBundle(2, 1).parse_total(
                                 "bump(x0)*bump(x1)*bump(y0)"))
        with pytest.raises(ex.DimensionError):
            T_dirac + other

    def test_a_dirac_term_needs_its_section_on_its_bundle(self, line_bundle, plane_bundle):
        s = bd.section_from_strings(line_bundle, ["x0"])
        other = bd.TrivialBundle(1, 2)
        with pytest.raises(ex.DimensionError):
            dist.Term(other, other.parse_base("bump(x0)"), s)
        with pytest.raises(ex.DimensionError):
            dist.Term(plane_bundle, plane_bundle.parse_base("bump(x0)"), s)

    def test_a_density_term_takes_no_fibre_derivative(self, line_bundle):
        phi = line_bundle.parse_total("bump(x0)*bump(y0)")
        assert dist.Term(line_bundle, phi).beta == (0,)
        assert dist.Term(line_bundle, phi, beta=(0,)) == dist.Term(line_bundle, phi)
        with pytest.raises(ExprError, match="no fibre derivative"):
            dist.Term(line_bundle, phi, beta=(1,))


def same_floats(got, want) -> bool:
    """Equal lists of floats, bit for bit, a NaN matching a NaN."""
    return len(got) == len(want) and all(
        (math.isnan(a) and math.isnan(b))
        or (a == b and math.copysign(1, a) == math.copysign(1, b))
        for a, b in zip(got, want))


class TestBaseFunctionValues:
    """values(X) is value(x) at every row, bit for bit, whatever the block size."""

    @pytest.fixture
    def base_functions(self, plane_bundle):
        b = plane_bundle
        env = "bump(4*x0/9)*bump(2*x1)"
        s = bd.section_from_strings(b, ["x0/3 + x1/2"])
        T_dirac = dist.dirac_section(s, b.parse_base(f"{env}/3"), (1,))
        T_density = dist.density(b, b.parse_total(f"{env}*bump(y0)*(1 + x0*y0/5)"))
        F = b.parse_total("exp(x0*y0/7)*cos(y0) + y0^2 + x1")
        pair = bd.TrivialBundle(1, 1)
        K = op.density_kernel(pair, pair.parse_total("bump(x0)*bump(y0)*(1 + x0*y0/3)"))
        numeric = op.apply(op.compose(K, K, order=12), pair.parse_fibre("y0^2 + 1"), order=12)
        return {
            "symbolic": dist.evaluate(T_dirac, F),
            "density": dist.evaluate(T_density, F, order=16),
            "numeric": numeric,
            "mixed": dist.evaluate(T_dirac + T_density, F, order=16).derivative((1, 0)),
        }

    @pytest.mark.parametrize("kind", ["symbolic", "density", "numeric", "mixed"])
    @pytest.mark.parametrize("block", [None, 1, 7, 100])  # 100: no divisor of 16 or 12^2
    def test_values_are_the_pointwise_values(self, monkeypatch, base_functions, kind, block):
        bf = base_functions[kind]
        l = bf.bundle.base_dim
        X = np.linspace(-2.0, 2.0, 25 * l).reshape(-1, l) * (1 if l == 2 else 0.6)
        want = [bf.value(tuple(x)) for x in X]
        if block is not None:
            monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        got = bf.values(X)
        assert got.shape == (len(X),)
        assert same_floats(got.tolist(), want)
        assert any(want) and not all(want)  # inside and outside the support

    @pytest.mark.parametrize("kind", ["symbolic", "density", "numeric", "mixed"])
    @pytest.mark.parametrize("block", [1, 7])
    def test_verify_at_points_are_the_pointwise_values(self, monkeypatch, base_functions,
                                                       kind, block):
        """Alone and together with the other base functions on its bundle,
        whose symbolic parts share one ``evaluate_many`` pass."""
        bf = base_functions[kind]
        l = bf.bundle.base_dim
        X = np.linspace(-2.0, 2.0, 25 * l).reshape(-1, l) * (1 if l == 2 else 0.6)
        bfs = [bf] + [o for o in base_functions.values()
                      if o.bundle == bf.bundle and o is not bf]
        want = [[o.value(tuple(x)) for x in X] for o in bfs]
        monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        for group in ([bf], bfs):
            got = dist.values_at(X, *group)
            assert len(got) == len(group) and all(map(same_floats, got.tolist(), want))
        assert any(want[0]) and not all(want[0])

    def test_values_reject_a_wrong_shape(self, base_functions):
        bf = base_functions["symbolic"]
        with pytest.raises(ex.DimensionError):
            bf.values(np.zeros((3, 3)))
        assert bf.values(np.zeros((0, 2))).shape == (0,)


class TestPairRestrictions:
    """restriction_table([(T, gs)], X) is the pointwise pair(restrict(T, x), g)."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_matches_pointwise_pairs(self, monkeypatch, plane_bundle, block):
        b = plane_bundle
        s = bd.section_from_strings(b, ["x0/3 + x1/2"])
        T = (dist.dirac_section(s, b.parse_base("bump(x0/2)*bump(x1)"), (0,))
             + dist.dirac_section(s, b.parse_base("x1*bump(x0)*bump(x1/2)"), (2,))
             + dist.density(b, b.parse_total("bump(x0)*bump(x1)*bump(y0)*y0")))
        T = dist.family_derivative(T, (1, 1))
        gs = [b.parse_fibre(t) for t in ("1", "y0^3/6", "exp(y0)*bump(y0/2)")]
        X = np.stack(np.meshgrid(np.linspace(-2.5, 2.5, 9), np.linspace(-1.5, 1.5, 5),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
        want = [[dist.pair(dist.restrict(T, tuple(x)), g, 12) for x in X] for g in gs]
        if block is not None:
            monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        for _ in each_engine():
            [got] = dist.restriction_table([(T, gs)], X, 12)
            assert got.shape == (3, len(X))
            assert all(same_floats(row.tolist(), w) for row, w in zip(got, want))
        assert np.count_nonzero(got) and not np.all(got)


def restrict_then_pair(T, X, members, order):
    """pair(restrict(T, x), F(x, .)) for each member and row, and the sum of
    the absolute values of its terms: |c * D^beta g(point)| for each atom and
    the integral of |density * g|."""
    b = T.bundle
    values, scales = [], []
    for F in members:
        row, scale = [], []
        for x in map(tuple, X):
            v, g = dist.restrict(T, x), bd.restrict_function(b, F, x)
            row.append(dist.pair(v, g, order))
            total = sum(abs(c * g.diff(beta).evaluate(p)) for p, beta, c in v.atoms)
            if v.density is not None:
                integrand = ex.mul(v.density, g)
                total += qd.integrate(lambda pts: np.abs(integrand.eval_array(pts)),
                                      integrand.support_box(), order)
            scale.append(total)
        values.append(row)
        scales.append(scale)
    return np.array(values), np.array(scales)


# Both sides evaluate each term c * D^beta F at the same point and add the
# terms in the same order; they differ only in how x enters.  The restricted
# DAG holds x as exact rational constants, folded exactly and rounded once;
# the total-space DAG rounds each node that reads x.  Each term's node
# values then carry a few roundings of relative size u = 2^-53 more or less
# on each side, so the terms, and the sums built from them, agree to a few
# u relative to the sum of |term| (which also covers cancellation between
# terms).  8 u allows four differing roundings per side; these inputs show
# at most 3 u.
ULPS = 8 * 2.0 ** -53


def pair_at(T, X, members, order=None):
    """The one-pair pairing table: T_x(F(x, .)) for every F and row x."""
    return dist.pair_table([(T, members)], X, order)[0]


class TestPairAt:
    """The one-pair table ``pair_at(T, X, Fs)`` against restrict-then-pair,
    member by member."""

    @pytest.fixture
    def line_case(self, line_bundle):
        b = line_bundle
        s1 = bd.section_from_strings(b, ["x0/2 + sin(x0)/3"])
        s2 = bd.section_from_strings(b, ["x0^2 - 1/4"])
        T = dist.zero_distribution(b)
        for s, w in ((s1, "bump(x0)*exp(x0/3)"), (s2, "bump(2*x0)*(1 + x0)")):
            for k in range(4):
                T = T + dist.dirac_section(s, b.parse_base(w), (k,))
        Fs = [b.parse_total(t) for t in ("exp(x0*y0/4)*cos(y0) + y0^2",
                                         "x0^3*y0^4 + bump(y0)*x0", "1")]
        X = np.linspace(-1.2, 1.2, 13)[:, None]  # |x| >= 1: zero weights
        return T, Fs, X

    @pytest.fixture
    def plane_case(self, plane_bundle):
        b = plane_bundle
        s1 = bd.section_from_strings(b, ["x0/3 + x1/2"])
        s2 = bd.section_from_strings(b, ["x0*x1 + 1/5"])
        T = (dist.dirac_section(s1, b.parse_base("bump(x0/2)*bump(x1)"), (0,))
             + dist.dirac_section(s1, b.parse_base("x1*bump(x0)*bump(x1/2)"), (3,))
             + dist.dirac_section(s2, b.parse_base("bump(x0)*bump(x1)"), (2,)))
        Fs = [b.parse_total(t) for t in ("exp(x0*y0/3)*cos(x1*y0) + y0^3",
                                         "x0*x1*y0^2 + sin(y0 + x1)")]
        X = np.stack(np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.2, 1.2, 5),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
        return T, Fs, X

    @staticmethod
    def assert_close(T, X, Fs, order=16):
        got = pair_at(T, X, Fs, order)
        want, scale = restrict_then_pair(T, X, Fs, order)
        assert got.shape == (len(Fs), len(X))
        assert np.all(np.abs(got - want) <= ULPS * scale)
        assert np.count_nonzero(want) and not np.all(want)  # zero-weight rows are seen

    @pytest.mark.parametrize("case", ["line_case", "plane_case"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_dirac_terms(self, request, case, n):
        T, Fs, X = request.getfixturevalue(case)
        alpha = (n,) + (0,) * (T.bundle.base_dim - 1)
        self.assert_close(dist.family_derivative(T, alpha), X, Fs)

    @staticmethod
    def per_row(T, X, Fs):
        """Dirac terms paired one scalar ``evaluate`` per term, row and member."""
        b = T.bundle
        out = np.zeros((len(Fs), len(X)))
        for term in T.terms:
            beta = b.fibre_beta_to_total(term.beta)
            for i, x in enumerate(X.tolist()):
                c = term.weight.evaluate(x)
                if c != 0.0:
                    at = tuple(x) + term.section.value(x)
                    for j, F in enumerate(Fs):
                        out[j, i] += c * F.diff(beta).evaluate(at)
        return out

    @pytest.mark.parametrize("case", ["line_case", "plane_case"])
    def test_dirac_terms_are_the_per_row_values_bit_for_bit(self, request, case):
        """Batched passes change no float, on either engine: two sections,
        repeated betas and zero-weight rows."""
        T, Fs, X = request.getfixturevalue(case)
        for n in range(3):
            Tn = dist.family_derivative(T, (n,) + (0,) * (T.bundle.base_dim - 1))
            want = self.per_row(Tn, X, Fs)
            for _ in each_engine():
                got = pair_at(Tn, X, Fs)
                assert all(map(same_floats, got.tolist(), want.tolist()))

    @pytest.mark.parametrize("case", ["line_case", "plane_case"])
    def test_density_and_mixed_terms(self, request, case):
        T, Fs, X = request.getfixturevalue(case)
        b = T.bundle
        env = "*".join(f"bump(x{i})" for i in range(b.base_dim))
        D = dist.density(b, b.parse_total(f"{env}*bump(y0)*(1 + x0*y0/3)"))
        self.assert_close(D, X, Fs)
        self.assert_close(D + T, X, Fs)
        self.assert_close(dist.family_derivative(D + T, (1,) + (0,) * (b.base_dim - 1)), X, Fs)

    def test_density_on_a_narrower_restricted_box(self, line_bundle):
        """F(x, .) times bump(y0 - x0/2) is supported on a narrower box than the
        total-space integrand; both boxes give the integral within 1e-8."""
        b = line_bundle
        D = dist.density(b, b.parse_total("bump(x0)*bump(y0)*bump(y0 - x0/2)"))
        Fs = [b.parse_total("exp(x0*y0/4)*cos(y0) + y0^2"), b.parse_total("1")]
        X = np.linspace(-1.2, 1.2, 13)[:, None]
        want, _ = restrict_then_pair(D, X, Fs, None)
        got = pair_at(D, X, Fs)
        assert np.all(np.abs(got - want) < 1e-8)
        assert np.any(got != want)

    def test_zero_weight_rows_are_skipped(self, line_bundle):
        # F's derivatives overflow on the section where the weight vanishes
        b = line_bundle
        s = bd.section_from_strings(b, ["x0 + 1"])
        T = dist.dirac_section(s, b.parse_base("bump(x0)"), (1,))
        F = b.parse_total("exp(800*y0)")
        X = np.array([[1.5], [-1.5]])
        got = pair_at(T, X, [F])
        want, _ = restrict_then_pair(T, X, [F], None)
        assert got.tolist() == want.tolist() == [[0.0, 0.0]]

    def test_shapes(self, line_bundle, T_dirac):
        F = line_bundle.parse_total("y0")
        assert pair_at(T_dirac, np.zeros((0, 1)), [F]).shape == (1, 0)
        assert pair_at(T_dirac, np.zeros((3, 1)), []).shape == (0, 3)
        with pytest.raises(ex.DimensionError):
            pair_at(T_dirac, np.zeros((3, 2)), [F])
        with pytest.raises(ex.DimensionError):
            pair_at(T_dirac, np.zeros((3, 1)), [line_bundle.parse_fibre("y0")])


# weights that vanish on no row, on part of the rows (|x| >= 1) and on all
TABLE_WEIGHTS = ["bump(x0/2)*(x0 + 2)", "bump(x0)", "bump(2*x0)*(1 + x0)", "0"]
TABLE_SECTIONS = ["x0/2 + sin(x0)/3", "x0^2 - 1/4"]
table_terms = st.lists(st.tuples(st.sampled_from(TABLE_WEIGHTS), st.integers(0, 1),
                                 st.integers(0, 2)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=4),
       st.lists(st.tuples(table_terms, st.booleans(), st.lists(st.integers(0, 3), max_size=3)),
                min_size=1, max_size=3))
def test_pair_table_entries_are_lone_pair_at_calls(pool, specs):
    """Each entry of a pairing table equals the table of its pair alone,
    bit for bit, on either engine: pairs that share sections, betas and
    members (drawn from the expressions of the DAG tests), zero weights,
    and density terms."""
    b = bd.TrivialBundle(1, 1)
    sections = [bd.section_from_strings(b, [t]) for t in TABLE_SECTIONS]
    pairs = []
    for terms, with_density, picks in specs:
        T = dist.zero_distribution(b)
        for w, s, k in terms:
            T = T + dist.dirac_section(sections[s], b.parse_base(w), (k,))
        if with_density:
            T = T + dist.density(b, b.parse_total("bump(x0)*bump(y0)*(1 + x0*y0/3)"))
        pairs.append((T, [pool[i % len(pool)] for i in picks]))
    X = np.linspace(-1.2, 1.2, 13)[:, None]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for _ in each_engine():
            table = dist.pair_table(pairs, X, 8)
            assert len(table) == len(pairs)
            for (T, members), got in zip(pairs, table):
                want = pair_at(T, X, members, 8)
                assert got.shape == want.shape == (len(members), len(X))
                assert all(map(same_floats, got.tolist(), want.tolist()))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


BUMPS_2X2 = "bump(x0)*bump(x1)*bump(y0)*bump(y1)"
GRID_3X3 = [[u, v] for u in (-0.5, 0.0, 0.5) for v in (-0.5, 0.0, 0.5)]


class TestFibreIntegralReuse:
    """A density term keeps its last phi * F node, and an integrand node its
    last fibre integral over one base grid, so equal passes run once."""

    ORDER = 12

    @pytest.fixture
    def b(self):
        return bd.TrivialBundle(2, 2)

    @pytest.fixture
    def T(self, b):
        return dist.density(b, b.parse_total(f"{BUMPS_2X2}*(1 + y0*y1/3)"))

    @pytest.fixture
    def F(self, b):
        return b.parse_total("exp(x0*y0/4)*cos(y1) + y0*y1")

    @pytest.fixture
    def X(self):
        return np.array(GRID_3X3)

    @pytest.fixture
    def passes(self, monkeypatch):
        """Counts non-empty integrate_rows passes by their number of rows."""
        counts = {}
        integrate_rows = qd.integrate_rows

        def counting(values_fn, box, count, order=None):
            if box.volume() != 0.0:
                counts[count] = counts.get(count, 0) + 1
            return integrate_rows(values_fn, box, count, order)

        monkeypatch.setattr(qd, "integrate_rows", counting)
        return counts

    def test_density_scene_runs_each_nine_row_pass_once(self, tmp_path, passes):
        """The 2+2 density and mixed scene of the density-2x2 benchmark: the
        restriction, Leibniz and duality suites ran 26 nine-row passes, 12 of
        them a repeat of an earlier one.  Equal nodes are one node, so the
        Leibniz sides' d/dx1(phi*F) and (d/dx1 phi)*F (F is free of x1) are
        one integrand, and 16 passes remain; the 18 one-row passes are the
        restriction suite's pointwise pairings."""
        scene = {
            "bundle": {"base_dim": 2, "fibre_dim": 2},
            "functions": {"F": "exp(x0*y0/4)*cos(y1) + y0*y1"},
            "sections": {"s": ["x0/2 + x1/3", "x1/4 - x0/5"]},
            "distributions": {
                "P": [{"type": "density", "phi": f"{BUMPS_2X2}*(1 + y0*y1/3)"}],
                "M": [{"type": "density", "phi": f"{BUMPS_2X2}*y0/5"},
                      {"type": "dirac_section", "section": "s",
                       "weight": "bump(x0)*bump(x1)/3", "beta": [0, 0]}],
            },
            "checks": {"grid": GRID_3X3, "alpha_max": 1, "probe_count": 20},
        }
        path = tmp_path / "density_2x2.json"
        path.write_text(json.dumps(scene))
        reports = cli.run_checks(cli.load_scene(str(path)),
                                 ("restriction", "leibniz", "duality"))
        assert all(r.passed for r in reports)
        assert passes == {9: 16, 1: 18}

    def test_the_same_term_and_function_give_the_same_integrand(self, b, T, F):
        first, again = (dist.evaluate(T, F).quad_parts[0].integrand for _ in range(2))
        other = dist.evaluate(T, b.parse_total("exp(x0*y0/4)*cos(y1) + y0*y1"))
        assert first is again
        assert other.quad_parts[0].integrand is first  # an equal F built apart is F

    def test_warm_values_equal_cold_ones(self, b, T, X, passes):
        def base_functions(T, F):
            bf = dist.evaluate(T, F, order=self.ORDER)
            return bf, bf.derivative((1, 0))

        F = b.parse_total("exp(x0*y0/17)*cos(y1) + y0*y1")  # built by no other test
        phi, T = T.terms[0].weight, dist.density(b, T.terms[0].weight)
        warm = base_functions(T, F)
        first = [hexes(bf.values(X)) for bf in warm]
        assert passes == {9: 2}
        again = [hexes(bf.values(X)) for bf in warm + base_functions(T, F)]
        assert passes == {9: 2}  # every one a hit
        # equal integrands are one node: a cold pass needs the warm ones gone
        warm_nodes = [weakref.ref(bf.quad_parts[0].integrand) for bf in warm]
        del warm, T
        gc.collect()
        assert all(ref() is None for ref in warm_nodes)
        cold = [hexes(bf.values(X)) for bf in base_functions(dist.density(b, phi), F)]
        assert passes == {9: 4}
        assert first == cold and again == cold + cold
        assert any(float.fromhex(h) for h in cold[0])

    def test_values_are_read_only_and_not_copied(self, T, F, X):
        part = dist.evaluate(T, F, order=self.ORDER).quad_parts[0]
        row = part.values(X, self.ORDER)
        assert not row.flags.writeable
        assert part.values(X, self.ORDER) is row

    def test_key_is_the_grid_content(self, T, X, passes):
        F = T.bundle.parse_total("exp(x0*y0/19)*cos(y1) + y0*y1")  # built by no other test
        X = X.copy()
        # a cold integral on the changed grid, made first and let go: equal
        # integrands are one node, which would keep it
        fresh = dist.evaluate(dist.density(T.bundle, T.terms[0].weight), F, order=self.ORDER)
        fresh_node = weakref.ref(fresh.quad_parts[0].integrand)
        want = hexes(fresh.quad_parts[0].values(X * 0.5, self.ORDER))
        del fresh
        gc.collect()
        assert fresh_node() is None and passes == {9: 1}
        part = dist.evaluate(T, F, order=self.ORDER).quad_parts[0]
        before = hexes(part.values(X, self.ORDER))
        X *= 0.5  # the same array, changed in place
        after = hexes(part.values(X, self.ORDER))
        assert after == want
        assert after != before
        assert passes == {9: 3}
        part.values(X.copy(), self.ORDER)  # equal bytes in another array: a hit
        part.values(X, None)  # another order: a miss
        assert passes == {9: 4}

    def test_negative_zero_misses(self, T, F, passes):
        part = dist.evaluate(T, F, order=self.ORDER).quad_parts[0]
        part.values(np.array([[0.0, 0.5], [0.25, 0.0]]), self.ORDER)
        part.values(np.array([[-0.0, 0.5], [0.25, 0.0]]), self.ORDER)
        assert passes == {2: 2}

    def test_threads_replacing_the_entry_read_sequential_bits(self, b, T, F, X):
        grids = [X, X[::-1] * 0.75]
        want = [hexes(dist.evaluate(dist.density(b, T.terms[0].weight), F, order=self.ORDER)
                      .values(Y)) for Y in grids]
        start = threading.Barrier(4, timeout=60)

        def worker(first):
            start.wait()
            return [(k % 2, hexes(dist.evaluate(T, F, order=self.ORDER).values(grids[k % 2])))
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

    def test_a_long_lived_term_keeps_no_transient_function_alive(self, b, T, X):
        """The term holds its last function weakly; phi * F holds F itself
        only when F is not a product, until the term meets another function."""
        # built by no other test, and neither holds the other
        product = b.parse_total("exp(x0*y0/11)*cos(y1)")
        total = b.parse_total("exp(x0*y0/13)*cos(y1) + y0*y1")
        refs = [weakref.ref(product), weakref.ref(total)]
        for F in (product, total):
            dist.evaluate(T, F, order=self.ORDER).values(X)
        del F, product
        gc.collect()
        assert refs[0]() is None and refs[1]() is not None
        dist.evaluate(T, b.parse_total("y0"), order=self.ORDER).values(X)
        del total
        gc.collect()
        assert refs[1]() is None

    def test_an_evaluated_term_pickles_without_its_product(self, T, F, X):
        want = hexes(dist.evaluate(T, F, order=self.ORDER).values(X))
        copy = pickle.loads(pickle.dumps(T))
        assert copy == T and copy.terms[0]._product is None
        assert copy.terms[0].weight is T.terms[0].weight  # the interned node
        assert hexes(dist.evaluate(copy, F, order=self.ORDER).values(X)) == want

    def test_a_long_lived_function_keeps_no_transient_term_alive(self, b, F, X):
        term = dist.Term(b, b.parse_total(f"{BUMPS_2X2}*y0"))
        ref = weakref.ref(term)
        dist.evaluate(dist.TransversalDistribution(b, (term,)), F, order=self.ORDER).values(X)
        del term
        gc.collect()
        assert ref() is None


class TestFibreFrontierReuse:
    """A ``value(x)`` loop runs a density integrand's fibre-only nodes once
    per rule: the integrand node keeps the values of its fibre-only
    frontier for the last rule, read-only, and reads them at every x."""

    XS = [(-0.6,), (-0.2,), (0.0,), (0.3,), (0.7,)]

    @staticmethod
    def make(b, k):
        """A density and a function built by no other test (k apart)."""
        return (dist.density(b, b.parse_total(f"bump(x0)*bump(y0)*(1 + x0*y0/{k})")),
                b.parse_total(f"exp(y0/{k + 2})*cos(y0) + x0*y0^2"))

    def test_value_loop_runs_each_frontier_node_once_per_rule(self, line_bundle, monkeypatch):
        T, F = self.make(line_bundle, 23)
        X = np.array(self.XS)
        # many rows: a pass with no one-row block, which keeps nothing
        want = {order: hexes(dist.evaluate(T, F, order=order).values(X)) for order in (12, 16)}
        runs = array_runs(monkeypatch)
        for order in (12, 16, 12):  # each switch replaces the kept entry
            bf = dist.evaluate(T, F, order=order)
            runs.clear()
            assert hexes([bf.value(x) for x in self.XS]) == want[order]
            integrand = bf.quad_parts[0].integrand
            kinds = nodes_by_reads(integrand, {0})
            assert fibre_frontier(integrand, {0}) and kinds["both"]
            assert [runs[n] for n in kinds["fibre"]] == [1] * len(kinds["fibre"])
            assert [runs[n] for n in kinds["both"]] == [len(self.XS)] * len(kinds["both"])
            assert [runs[n] for n in kinds["base"]] == [0] * len(kinds["base"])  # floats

    def test_the_kept_frontier_is_bounded_and_dies_with_its_integrand(self, line_bundle):
        T, F = self.make(line_bundle, 41)
        integrand = dist.evaluate(T, F).quad_parts[0].integrand
        frontier = fibre_frontier(integrand, {0})
        old = []
        for order in (12, 16):
            bf = dist.evaluate(T, F, order=order)
            for x in self.XS:
                bf.value(x)
            key, kept = vars(integrand)["_fibre_nodes"]
            assert key == (bf.quad_parts[0].fibre_box, order)
            assert 0 < len(kept) == len(frontier)
            assert all(a.shape == (1, order) and not a.flags.writeable for a in kept)
            assert all(ref() is None for ref in old)  # replaced, not accumulated
            old = [weakref.ref(a) for a in kept]
        del bf, key, kept
        ref = weakref.ref(integrand)
        gc.disable()
        try:
            del T, F, integrand
            assert ref() is None and all(r() is None for r in old)
        finally:
            gc.enable()


class TestDiracIntegrand:
    """A Dirac term keeps its last integrand f * (D^beta F) o sigma, as a
    density keeps phi * F: the same node while it meets the same F."""

    @pytest.fixture
    def T(self, line_bundle):
        section = bd.section_from_strings(line_bundle, ["x0/2 + sin(x0)/3"])
        return dist.dirac_section(section, line_bundle.parse_base("bump(x0)*(1 + x0)"), (1,))

    @pytest.fixture
    def F(self, line_bundle):
        return line_bundle.parse_total("exp(x0*y0)*cos(y0) + y0^3")

    def test_the_same_function_gives_the_same_node(self, line_bundle, T, F):
        (term,) = T.terms
        first = term.integrand(F)
        assert term.integrand(F) is first
        assert dist.evaluate(T, F).symbolic is first
        # an equal function built apart is the same node, so it meets the entry
        other = line_bundle.parse_total("exp(x0*y0)*cos(y0) + y0^3")
        assert other is F and term.integrand(other) is first
        different = line_bundle.parse_total("exp(x0*y0)*cos(y0) + y0^5")
        replaced = term.integrand(different)
        assert replaced is not first and str(replaced) != str(first)
        assert term.integrand(different) is replaced and term._product[0]() is different
        assert term.integrand(F) is first  # rebuilt, and equal nodes are one

    def test_the_integrand_is_the_weighted_pullback(self, line_bundle, T, F):
        (term,) = T.terms
        X = np.linspace(-1.2, 1.2, 13)[:, None]
        dF = F.diff(line_bundle.fibre_beta_to_total(term.beta))
        want = ex.mul(term.weight, bd.pullback_along_section(line_bundle, dF, term.section))
        assert str(term.integrand(F)) == str(want)
        assert hexes(dist.evaluate(T, F).values(X)) == hexes(want.eval_array(X))

    def test_an_evaluated_dirac_distribution_pickles(self, T, F):
        X = np.linspace(-1.2, 1.2, 13)[:, None]
        want = hexes(dist.evaluate(T, F).values(X))
        assert T.terms[0]._product is not None
        copy = pickle.loads(pickle.dumps(T))
        assert copy == T and copy.terms[0]._product is None
        assert hexes(dist.evaluate(copy, F).values(X)) == want

    def test_threads_replacing_the_entry_read_sequential_bits(self, line_bundle, T, F):
        (term,) = T.terms
        X = np.linspace(-1.2, 1.2, 13)[:, None]
        functions = [F, line_bundle.parse_total("y0^2*cos(x0*y0)")]
        want = [hexes(dist.evaluate(dist.dirac_section(term.section, term.weight, term.beta),
                                    G).values(X)) for G in functions]
        start = threading.Barrier(4, timeout=60)

        def worker(first):
            start.wait()
            return [(k % 2, hexes(dist.evaluate(T, functions[k % 2]).values(X)))
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

    def test_dropping_f_frees_it_and_the_next_function_frees_its_pullback(
            self, line_bundle, T):
        """The term holds F weakly and its pullback, a substituted copy,
        does not hold F: dropping F frees F's DAG at once, and the term's
        pulled-back DAG goes when the term meets another function."""
        (term,) = T.terms
        F = line_bundle.parse_total("exp(x0*y0)*cos(y0) + y0^3")
        refs = [weakref.ref(F), weakref.ref(term.integrand(F))]
        del F
        gc.collect()
        assert refs[0]() is None and refs[1]() is not None
        term.integrand(line_bundle.parse_total("y0"))
        gc.collect()
        assert refs[1]() is None
