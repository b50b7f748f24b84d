import math

import numpy as np
import pytest

from conftest import fd_derivative, random_polynomial
from transdist import bundle as bd
from transdist import distribution as dist
from transdist import expr as ex
from transdist import operators as op
from transdist import quadrature as qd
from transdist import verify as vf
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
    def test_alias_of_evaluate(self, line_bundle, T_dirac):
        F = line_bundle.parse_total("1 + x0*y0")
        a = dist.hat_pair(F, T_dirac)
        c = dist.evaluate(T_dirac, F)
        for x in (-0.4, 0.2):
            assert a.value((x,)) == c.value((x,))

    def test_additivity_in_distribution(self, line_bundle, T_dirac, T_density):
        F = line_bundle.parse_total("x0 + y0^2")
        s = dist.hat_pair(F, T_dirac + T_density)
        a = dist.hat_pair(F, T_dirac)
        c = dist.hat_pair(F, T_density)
        for x in np.linspace(-1, 1, 9):
            assert s.value((x,)) == pytest.approx(a.value((x,)) + c.value((x,)),
                                                  abs=1e-12)

    def test_module_linearity(self, line_bundle, T_dirac, T_density):
        F = line_bundle.parse_total("1 + y0")
        f = line_bundle.parse_base("bump(x0/2)")
        for T in (T_dirac, T_density):
            lhs = dist.hat_pair(F, dist.module_action_base(f, T))
            rhs = dist.hat_pair(F, T)
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

    def test_mixed_bundles_rejected(self, line_bundle, T_dirac):
        other = dist.density(bd.TrivialBundle(2, 1),
                             bd.TrivialBundle(2, 1).parse_total(
                                 "bump(x0)*bump(x1)*bump(y0)"))
        with pytest.raises(ex.DimensionError):
            T_dirac + other


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
            got = vf._at_points(X, *group)
            assert len(got) == len(group) and all(map(same_floats, got, want))
        assert any(want[0]) and not all(want[0])

    def test_values_reject_a_wrong_shape(self, base_functions):
        bf = base_functions["symbolic"]
        with pytest.raises(ex.DimensionError):
            bf.values(np.zeros((3, 3)))
        assert bf.values(np.zeros((0, 2))).shape == (0,)


class TestPairRestrictions:
    """pair_restrictions(T, X, gs) is the pointwise pair(restrict(T, x), g)."""

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
        got = dist.pair_restrictions(T, X, gs, 12)
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


class TestPairAt:
    """pair_at(T, X, Fs) against restrict-then-pair, member by member."""

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
        got = dist.pair_at(T, X, Fs, order)
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
        """Batched passes change no float: two sections, repeated betas and
        zero-weight rows."""
        T, Fs, X = request.getfixturevalue(case)
        for n in range(3):
            Tn = dist.family_derivative(T, (n,) + (0,) * (T.bundle.base_dim - 1))
            got, want = dist.pair_at(Tn, X, Fs), self.per_row(Tn, X, Fs)
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
        got = dist.pair_at(D, X, Fs)
        assert np.all(np.abs(got - want) < 1e-8)
        assert np.any(got != want)

    def test_zero_weight_rows_are_skipped(self, line_bundle):
        # F's derivatives overflow on the section where the weight vanishes
        b = line_bundle
        s = bd.section_from_strings(b, ["x0 + 1"])
        T = dist.dirac_section(s, b.parse_base("bump(x0)"), (1,))
        F = b.parse_total("exp(800*y0)")
        X = np.array([[1.5], [-1.5]])
        got = dist.pair_at(T, X, [F])
        want, _ = restrict_then_pair(T, X, [F], None)
        assert got.tolist() == want.tolist() == [[0.0, 0.0]]

    def test_shapes(self, line_bundle, T_dirac):
        F = line_bundle.parse_total("y0")
        assert dist.pair_at(T_dirac, np.zeros((0, 1)), [F]).shape == (1, 0)
        assert dist.pair_at(T_dirac, np.zeros((3, 1)), []).shape == (0, 3)
        with pytest.raises(ex.DimensionError):
            dist.pair_at(T_dirac, np.zeros((3, 2)), [F])
        with pytest.raises(ex.DimensionError):
            dist.pair_at(T_dirac, np.zeros((3, 1)), [line_bundle.parse_fibre("y0")])
