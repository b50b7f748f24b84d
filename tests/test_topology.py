import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transdist import bundle as bd
from transdist import distribution as dist
from transdist import expr as ex
from transdist import quadrature as qd
from transdist import topology as tp
from transdist.expr import Box
from transdist.quadrature import BUMP_INTEGRAL


class TestSeminorm:
    def test_bump_sup_attained_at_zero(self):
        p = tp.Seminorm(Box.of([(-1, 1)]), 0)
        assert tp.seminorm_eval(p, ex.parse("bump(x0)", 1)) == math.exp(-1)

    def test_zero_function(self):
        p = tp.Seminorm(Box.of([(-1, 1)]), 3)
        assert tp.seminorm_eval(p, ex.parse("0", 1)) == 0.0

    def test_affine_first_order(self):
        p = tp.Seminorm(Box.of([(0, 1)]), 1)
        assert tp.seminorm_eval(p, ex.parse("x0", 1)) == 1.0

    def test_triangle_inequality(self):
        p = tp.Seminorm(Box.of([(-1, 1)]), 2)
        F = ex.parse("bump(x0)*x0", 1)
        G = ex.parse("sin(x0)", 1)
        assert tp.seminorm_eval(p, ex.add(F, G)) <= (
            tp.seminorm_eval(p, F) + tp.seminorm_eval(p, G) + 1e-12)

    def test_monotone_in_box_and_order(self):
        F = ex.parse("sin(3*x0)*exp(x0/2)", 1)
        small = tp.seminorm_eval(tp.Seminorm(Box.of([(-1, 1)]), 1), F)
        bigger_box = tp.seminorm_eval(tp.Seminorm(Box.of([(-2, 2)]), 1), F)
        higher_order = tp.seminorm_eval(tp.Seminorm(Box.of([(-1, 1)]), 3), F)
        assert small <= bigger_box
        assert small <= higher_order

    def test_nested_lattice_grids(self):
        pitch = tp.lattice_pitch()
        inner = tp.lattice_points(Box.of([(-0.3, 0.7)]))
        outer = tp.lattice_points(Box.of([(-1, 1)]))
        outer_set = {round(v / pitch) for v in outer[:, 0]}
        assert all(round(v / pitch) in outer_set for v in inner[:, 0])

    def test_monotone_on_a_box_thinner_than_the_pitch(self):
        """[0.01, 0.02] holds no lattice multiple, so the thin box scans no
        point and its seminorm is 0, not x0*bump(y0) at the midpoint x0 =
        0.015 (0.0055), which no enclosing box's lattice holds."""
        F = ex.parse("x0*bump(y0)", 2, base_dim=1)
        thin = tp.Seminorm(Box.of([(0.01, 0.02), (-0.5, 0.5)]), 0)
        enclosing = tp.Seminorm(Box.of([(0.0, 0.02), (-0.5, 0.5)]), 0)
        assert tp.lattice_points(thin.box).shape == (0, 2)
        assert tp.seminorm_eval(thin, F) <= tp.seminorm_eval(enclosing, F) == 0.0

    def test_grid_density_override(self):
        box = Box.of([(-1, 1)])
        assert len(tp.lattice_points(box, 65)) == 65
        assert len(tp.lattice_points(box)) == tp.DEFAULT_GRID_DENSITY == 33
        p, F = tp.Seminorm(box, 0), ex.parse("bump(x0 - 1/4)", 1)
        # the lattice {-1, -1/2, 0, 1/2, 1} misses the peak at 1/4; pitch 1/16 hits it
        assert tp.seminorm_eval(p, F, density=5) == pytest.approx(math.exp(-16 / 15),
                                                                  rel=1e-15)
        assert tp.seminorm_eval(p, F) == pytest.approx(math.exp(-1), rel=1e-15)

    @pytest.mark.parametrize("density", [0, 1, -1, 2])
    def test_grid_density_below_3_is_rejected(self, line_bundle, density):
        """Only None means the default; 0 is not a stand-in for it."""
        message = f"grid density must be at least 3, got {density}"
        with pytest.raises(ValueError, match=message):
            tp.lattice_pitch(density)
        with pytest.raises(ValueError, match=message):
            tp.seminorm_eval(tp.Seminorm(Box.of([(-1, 1)]), 0), ex.parse("bump(x0)", 1),
                             density)
        prof = tp.LFProfile(1, orders=(0,), epsilons=(1.0,))
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base("bump(x0)"))
        with pytest.raises(ValueError, match=message):
            tp.lf_membership(prof, f, density)
        T = dist.dirac_section(bd.section_from_strings(line_bundle, ["x0"]),
                               line_bundle.parse_base("bump(x0)"))
        family = tp.BoundedFamily(1, (line_bundle.parse_fibre("1"),))
        with pytest.raises(ValueError, match=message):
            tp.lfB_membership(prof, [family], T, density)

    @pytest.mark.parametrize("density", [0, 2])
    @pytest.mark.parametrize("weight", ["0", "bump(x0 - 10)"])
    def test_grid_density_is_checked_before_the_support(self, line_bundle, density, weight):
        """An empty support, or one that misses every shell, scans nothing,
        and a bad density is an error all the same."""
        message = f"grid density must be at least 3, got {density}"
        prof = tp.LFProfile(1, orders=(0,), epsilons=(0.1,))
        w = line_bundle.parse_base(weight)
        f = dist.BaseFunction(line_bundle, symbolic=w)
        with pytest.raises(ValueError, match=message):
            tp.lf_membership(prof, f, density)
        T = (dist.zero_distribution(line_bundle) if weight == "0" else
             dist.dirac_section(bd.section_from_strings(line_bundle, ["x0"]), w))
        family = tp.BoundedFamily(1, (line_bundle.parse_fibre("1"),))
        with pytest.raises(ValueError, match=message):
            tp.lfB_membership(prof, [family], T, density)
        assert tp.lf_membership(prof, f, 3).accepted
        assert tp.lfB_membership(prof, [family], T, 3).accepted

    def test_grid_density_3_is_the_smallest_lattice(self):
        assert tp.lattice_pitch(3) == 1.0
        assert tp.lattice_points(Box.of([(-1, 1)]), 3)[:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_lattice_over_budget_is_rejected_before_allocating(self):
        assert tp.MAX_LATTICE_POINTS >= 100 * 73 * 17 * 33
        for box in (Box.of([(0, 1e308), (0, 1)]), Box.of([(0, 1e4), (0, 1e4)]),
                    Box.of([(-math.inf, 0)]), Box.of([(0, 1)] * 6)):
            with pytest.raises(ex.ExprError, match="exceeds"):
                tp.lattice_points(box)
        with pytest.raises(ex.ExprError, match="exceeds"):
            tp.seminorm_eval(tp.Seminorm(Box.of([(0, 1e308), (0, 1)]), 1),
                             ex.parse("x0 + x1", 2))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_seminorm_absolute_homogeneity(lam):
    p = tp.Seminorm(Box.of([(-1, 1)]), 1)
    F = ex.parse("bump(x0) + x0^2/9", 1)
    scaled = ex.mul(ex.const(lam, 1), F)
    assert tp.seminorm_eval(p, scaled) == abs(lam) * tp.seminorm_eval(p, F)


class TestFamilySeminorm:
    def test_dirac_family(self, line_bundle):
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre("y0^2"),
                                   line_bundle.parse_fibre("y0 + 1")))
        v = dist.dirac_at((0.0,), 1)
        assert tp.pB_eval(fam, v) == 1.0

    def test_zero_distribution(self, line_bundle):
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre("y0"),))
        v = dist.PointDistribution(1)
        assert tp.pB_eval(fam, v) == 0.0

    def test_density_member(self, line_bundle):
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre("1"),))
        v = dist.PointDistribution(1, (), line_bundle.parse_fibre("bump(y0)"))
        assert tp.pB_eval(fam, v) == pytest.approx(BUMP_INTEGRAL, abs=1e-12)


class TestLFMembership:
    def test_zero_function_accepted(self, line_bundle):
        prof = tp.LFProfile(1, orders=(0,), epsilons=(0.1,))
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base("0"))
        assert tp.lf_membership(prof, f).accepted

    def test_bump_against_half(self, line_bundle):
        prof = tp.LFProfile(1, orders=(0, 0), epsilons=(0.5, 0.25))
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base("bump(x0)"))
        assert tp.lf_membership(prof, f).accepted

    def test_scaled_function_rejected_with_witness(self, line_bundle):
        prof = tp.LFProfile(1, orders=(0,), epsilons=(1e-6,))
        f = dist.BaseFunction(
            line_bundle, symbolic=line_bundle.parse_base("1000000*bump(x0)"))
        res = tp.lf_membership(prof, f)
        assert not res.accepted
        assert res.witness is not None
        assert abs(res.witness["value"]) >= res.witness["epsilon"]
        assert res.witness["shell"] == 1

    def test_monotone_in_epsilons(self, line_bundle):
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base("bump(x0)*x0"))
        eps_values = (0.01, 0.05, 0.2, 1.0)
        accepted = [tp.lf_membership(
            tp.LFProfile(1, orders=(1,), epsilons=(e,)), f).accepted
            for e in eps_values]
        # once accepted at some epsilon, stays accepted for larger ones
        assert accepted == sorted(accepted)

    def test_far_support_beyond_depth_is_vacuous(self, line_bundle):
        prof = tp.LFProfile(1, orders=(0,), epsilons=(1e-9,))
        f = dist.BaseFunction(
            line_bundle, symbolic=line_bundle.parse_base("bump(x0 - 10)"))
        # the single shell [-1, 1] misses the support entirely
        assert tp.lf_membership(prof, f).accepted


class TestLFBMembership:
    @pytest.fixture
    def families(self, line_bundle):
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre("1"),
                                   line_bundle.parse_fibre("y0"),
                                   line_bundle.parse_fibre("y0^2")))
        return (fam, fam)

    def test_zero_distribution(self, line_bundle, families):
        prof = tp.LFProfile(1, orders=(0, 1), epsilons=(0.5, 0.25))
        assert tp.lfB_membership(prof, families,
                                 dist.zero_distribution(line_bundle)).accepted

    def test_generous_epsilon_accepts(self, line_bundle, families):
        prof = tp.LFProfile(1, orders=(0, 0), epsilons=(10.0, 5.0))
        diag = bd.section_from_strings(line_bundle, ["x0"])
        T = dist.dirac_section(diag, line_bundle.parse_base("bump(x0)"))
        assert tp.lfB_membership(prof, families, T).accepted

    def test_tight_epsilon_rejects_with_witness(self, line_bundle, families):
        prof = tp.LFProfile(1, orders=(0,), epsilons=(1e-6,))
        diag = bd.section_from_strings(line_bundle, ["x0"])
        T = dist.dirac_section(diag, line_bundle.parse_base("bump(x0)"))
        res = tp.lfB_membership(prof, families[:1], T)
        assert not res.accepted
        assert res.witness["alpha"] == (0,)

    def test_uses_family_derivatives(self, line_bundle, families):
        # order-1 shells see the derivative family, which is larger here
        diag = bd.section_from_strings(line_bundle, ["x0"])
        T = dist.dirac_section(diag, line_bundle.parse_base("bump(x0)"))
        loose = tp.LFProfile(1, orders=(0,), epsilons=(0.4,))
        tight = tp.LFProfile(1, orders=(1,), epsilons=(0.4,))
        assert tp.lfB_membership(loose, families, T).accepted
        assert not tp.lfB_membership(tight, families, T).accepted


class TestProfileValidation:
    def test_orders_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            tp.LFProfile(1, orders=(2, 1), epsilons=(0.5, 0.25))

    def test_epsilons_must_decrease(self):
        with pytest.raises(ValueError):
            tp.LFProfile(1, orders=(0, 1), epsilons=(0.25, 0.25))

    def test_epsilons_must_be_positive(self):
        with pytest.raises(ValueError):
            tp.LFProfile(1, orders=(0,), epsilons=(0.0,))


# ---------------------------------------------------------------------------
# Array scans against the per-point scan they replace


def lf_per_point(profile, f, density=None):
    """lf_membership as a scan of f.derivative(alpha).value, one point at a time."""
    supp = f.support_box()
    if supp.is_empty:
        return True, None
    for n in range(1, profile.depth + 1):
        eps = profile.epsilons[n - 1]
        for alpha in ex.multi_indices_up_to(profile.base_dim, profile.orders[n - 1]):
            df = f.derivative(alpha)
            for pt in tp._shell_points(profile, n, supp, density):
                val = df.value(tuple(pt))
                if not abs(val) < eps:
                    return False, {"shell": n, "point": tuple(float(c) for c in pt),
                                   "alpha": alpha, "value": val, "epsilon": eps}
    return True, None


def lfB_per_point(profile, families, u, density=None, order=None):
    """lfB_membership as a scan of pB_eval(restrict(D^alpha u, x)), point by point."""
    supp = dist.base_support(u)
    if supp.is_empty:
        return True, None
    for n in range(1, profile.depth + 1):
        eps = profile.epsilons[n - 1]
        for alpha in ex.multi_indices_up_to(profile.base_dim, profile.orders[n - 1]):
            du = dist.family_derivative(u, alpha)
            for pt in tp._shell_points(profile, n, supp, density):
                val = tp.pB_eval(families[n - 1], dist.restrict(du, tuple(pt)), order)
                if not val < eps:
                    return False, {"shell": n, "point": tuple(float(c) for c in pt),
                                   "alpha": alpha, "value": val, "epsilon": eps}
    return True, None


def same_verdict(res, reference):
    accepted, witness = reference
    return (res.accepted, repr(res.witness)) == (accepted, repr(witness))


ENV = "bump(2*x0/5)*bump(2*x1)"  # reaches into the third shell
# tolerances from generous to tight: the scans accept, or reject in shells
# 1, 2 and 3 at multi-indices of order 0 to 2
PROFILES = [(64, 32, 16), (0.05, 0.02, 0.01), (0.1, 0.09, 0.01), (2.0, 1.5, 0.3),
            (2.0, 1.5, 0.02), (2.0, 1.5, 0.001), (1e-3, 1e-4, 1e-5)]


class TestArrayScans:
    """Verdicts and witnesses (shell, point, multi-index, value) are the
    per-point scan's, whatever the block size."""

    @pytest.fixture
    def scene(self, plane_bundle):
        b = plane_bundle
        s = bd.section_from_strings(b, ["x0/3 + x1/2"])
        u = (dist.dirac_section(s, b.parse_base(f"{ENV}/4"))
             + dist.dirac_section(s, b.parse_base(f"x0*{ENV}/8"), (1,)))
        f = dist.BaseFunction(
            b, symbolic=b.parse_base(f"{ENV}*(1/2 + sin(x0)/3 + x0*x1/4)"))
        families = [tp.BoundedFamily(1, tuple(b.parse_fibre(t) for t in ts))
                    for ts in (["1", "y0"], ["1", "y0^2/2"], ["1/2", "y0/4", "y0^3/6"])]
        return f, u, families

    @pytest.mark.parametrize("block", [None, 1, 7, 50])
    @pytest.mark.parametrize("epsilons", PROFILES)
    def test_witnesses_match_the_per_point_scan(self, monkeypatch, scene, epsilons, block):
        f, u, families = scene
        profile = tp.LFProfile(2, (0, 1, 2), epsilons)
        lf_want = lf_per_point(profile, f, density=9)
        lfB_want = lfB_per_point(profile, families, u, density=9)
        if block is not None:
            monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        assert same_verdict(tp.lf_membership(profile, f, density=9), lf_want)
        assert same_verdict(tp.lfB_membership(profile, families, u, density=9), lfB_want)

    def test_profiles_reach_every_shell_and_order(self, scene):
        f, u, families = scene
        seen = set()
        for epsilons in PROFILES:
            profile = tp.LFProfile(2, (0, 1, 2), epsilons)
            for _, witness in (lf_per_point(profile, f, density=9),
                               lfB_per_point(profile, families, u, density=9)):
                if witness is not None:
                    seen.add((witness["shell"], sum(witness["alpha"])))
        assert {shell for shell, _ in seen} == {1, 2, 3}
        assert {order for _, order in seen} == {0, 1, 2}

    def test_density_terms_match_the_per_point_scan(self, line_bundle):
        b = line_bundle
        u = (dist.density(b, b.parse_total("bump(x0)*bump(y0)*(1 + y0/2)"))
             + dist.dirac_section(bd.section_from_strings(b, ["x0/2"]),
                                  b.parse_base("bump(x0)/3")))
        families = [tp.BoundedFamily(1, (b.parse_fibre("1"), b.parse_fibre("y0")))] * 2
        for epsilons in ((2.0, 1.0), (0.5, 0.4), (0.3, 0.01)):
            profile = tp.LFProfile(1, (0, 1), epsilons)
            want = lfB_per_point(profile, families, u, density=9, order=12)
            assert same_verdict(
                tp.lfB_membership(profile, families, u, density=9, order=12), want)


class TestScanPrecedence:
    """Errors and witnesses are those of a scan multi-index by multi-index,
    whatever order the evaluation takes."""

    def test_seminorm_nan_names_the_lowest_multi_index(self):
        # D^(1,0) F is sin(exp(800*x1)), a node of F itself, so one pass over
        # all of F's derivatives meets its NaN before the NaN of D^(0,1) F
        F = ex.parse("x0*sin(exp(800*x1)) + exp(800*x1)*(2 - x1)", 2)
        alphas = ex.multi_indices_up_to(2, 1)
        assert alphas == [(0, 0), (0, 1), (1, 0)]
        _, _, at = ex._number([F.diff(alpha) for alpha in alphas])
        assert at[2] < at[1]
        with pytest.raises(ex.ExprError, match=r"NaN at lattice point \(0\.0, 0\.9375\) "
                                               r"for multi-index \(0, 1\)"):
            tp.seminorm_eval(tp.Seminorm(Box.of([(0, 0), (0.5, 1)]), 1), F)

    @staticmethod
    def with_numeric_part(b):
        """A base function whose value is BUMP_INTEGRAL on [-1, 1], from a
        numeric kernel part, which supports no derivative."""
        term = types.SimpleNamespace(values_fn=lambda X, Z: np.ones((len(X), len(Z))))
        part = dist.NumericPart(term, b.parse_fibre("bump(y0)"), Box.of([(-1, 1)]),
                                Box.of([(-1, 1)]))
        return dist.BaseFunction(b, numeric_parts=(part,), order=64)

    def test_lf_rejection_at_order_0_is_returned_before_a_numeric_part_error(
            self, line_bundle):
        f = self.with_numeric_part(line_bundle)
        res = tp.lf_membership(tp.LFProfile(1, (1,), (0.25,)), f, density=9)
        assert not res.accepted
        assert res.witness == {"shell": 1, "point": (-1.0,), "alpha": (0,),
                               "value": BUMP_INTEGRAL, "epsilon": 0.25}

    def test_a_numeric_part_error_is_raised_once_order_0_passes(self, line_bundle):
        f = self.with_numeric_part(line_bundle)
        with pytest.raises(ex.ExprError, match="pointwise evaluation only"):
            tp.lf_membership(tp.LFProfile(1, (1,), (1.0,)), f, density=9)
        # a shell of order 0 never asks for a derivative
        assert tp.lf_membership(tp.LFProfile(1, (0,), (1.0,)), f, density=9).accepted

    @pytest.mark.parametrize("block", [1, 7, 50])
    def test_a_later_block_can_hold_a_lower_multi_index_witness(
            self, monkeypatch, line_bundle, block):
        """D^1 f fails on the first rows and f itself only on the last ones:
        the witness is f's, the scan's first multi-index."""
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base(
            "bump(x0)*exp(3*x0)"))
        profile = tp.LFProfile(1, (1,), (0.5,))
        want = lf_per_point(profile, f, density=65)
        assert want[1]["alpha"] == (0,) and want[1]["point"][0] > 0
        monkeypatch.setattr(qd, "PAIR_BLOCK", block)
        assert same_verdict(tp.lf_membership(profile, f, density=65), want)


class TestNaNAtALatticePoint:
    """A NaN value is an ExprError naming the point and the multi-index."""

    NAN = "1 + exp(exp(exp({v}))) - exp(exp(exp({v})))"  # NaN for {v} > 1.88

    def test_seminorm(self, line_bundle):
        W = line_bundle.parse_total(f"(x0+4)*bump(y0)*({self.NAN.format(v='x0')})")
        p = tp.Seminorm(Box.of([(-4, 4), (-1, 1)]), 0)
        with pytest.raises(ex.ExprError, match=r"NaN at lattice point \(1\.9375, "
                                               r"-0\.9375\) for multi-index \(0, 0\)"):
            tp.seminorm_eval(p, W)

    def test_lf_membership(self, line_bundle):
        f = dist.BaseFunction(line_bundle, symbolic=line_bundle.parse_base(
            f"bump(x0/3)*({self.NAN.format(v='x0')})"))
        prof = tp.LFProfile(1, (0, 1), (100.0, 50.0))
        with pytest.raises(ex.ExprError, match=r"NaN at lattice point \(1\.9375,\) "
                                               r"for multi-index \(0,\)"):
            tp.lf_membership(prof, f)

    def test_lfB_membership(self, line_bundle):
        diag = bd.section_from_strings(line_bundle, ["x0"])
        T = dist.dirac_section(diag, line_bundle.parse_base("bump(x0/4)"))
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre("1"),
                                   line_bundle.parse_fibre(self.NAN.format(v="y0"))))
        prof = tp.LFProfile(1, (0, 0), (100.0, 50.0))
        with pytest.raises(ex.ExprError, match=r"NaN at lattice point \(1\.9375,\) "
                                               r"for multi-index \(0,\)"):
            tp.lfB_membership(prof, (fam, fam), T)
        with pytest.raises(ex.ExprError, match="is NaN"):
            tp.pB_eval(fam, dist.dirac_at((2.0,), 1))

    def test_a_zero_weight_skips_the_nan(self, line_bundle):
        # the lattice spans the first term's support, [-4, 4]; the second
        # term's weight vanishes beyond 1.8, where its atom sits on the NaN
        # of the family member, and pair skips a zero coefficient
        b = line_bundle
        T = (dist.dirac_section(bd.section_from_strings(b, ["0"]),
                                b.parse_base("bump(x0/4)"))
             + dist.dirac_section(bd.section_from_strings(b, ["x0"]),
                                  b.parse_base("bump(5*x0/9)")))
        fam = tp.BoundedFamily(1, (line_bundle.parse_fibre(self.NAN.format(v="y0")),))
        prof = tp.LFProfile(1, (0, 0, 0), (100.0, 50.0, 25.0))
        assert tp.lfB_membership(prof, (fam,) * 3, T).accepted
