import math
from dataclasses import replace
from fractions import Fraction

import pytest

from transdist import bundle as bd
from transdist import distribution as dist
from transdist import expr as ex
from transdist import verify as vf
from transdist.expr import Box

# a check that meets inf or NaN reports it in its case, never as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GRID = [(-0.6,), (-0.3,), (0.0,), (0.3,), (0.6,)]
SMOOTH_GRID = [(-0.5,), (-0.25,), (0.0,), (0.25,), (0.5,)]


@pytest.fixture
def setup(line_bundle):
    diag = bd.section_from_strings(line_bundle, ["x0"])
    T_dirac = dist.dirac_section(diag, line_bundle.parse_base("bump(x0)"))
    T_density = dist.density(line_bundle,
                             line_bundle.parse_total("bump(x0)*bump(y0)"))
    F = line_bundle.parse_total("2 + x0*y0 + y0^2")
    return line_bundle, T_dirac, T_density, F


class TestRestrictionCompat:
    def test_passes_on_mixed_distribution(self, setup):
        b, T_dirac, T_density, F = setup
        report = vf.check_restriction_compat(T_dirac + T_density, F, GRID)
        assert report.passed
        assert report.cases[0].max_error < 1e-12

    def test_zero_distribution_trivially_passes(self, setup):
        b, *_ , F = setup
        report = vf.check_restriction_compat(dist.zero_distribution(b), F, GRID)
        assert report.passed
        assert report.cases[0].max_error == 0.0

    def test_corrupted_restrict_fails_with_witness(self, setup, monkeypatch):
        b, T_dirac, _, F = setup
        restrict = dist.restrict

        def tampered(T, x):
            v = restrict(T, x)
            atoms = tuple((p, beta, -c) for p, beta, c in v.atoms)
            return dist.PointDistribution(v.fibre_dim, atoms, v.density)

        monkeypatch.setattr(dist, "restrict", tampered)
        report = vf.check_restriction_compat(T_dirac, F, GRID)
        assert not report.passed
        assert report.cases[0].witness is not None
        assert "x" in report.cases[0].witness


class TestLeibniz:
    def test_alpha_zero_is_exact(self, setup):
        b, T_dirac, _, F = setup
        report = vf.check_leibniz(T_dirac, F, 0, GRID)
        assert report.passed
        assert report.cases[0].max_error == 0.0

    def test_mixed_distribution_passes_to_order_three(self, setup):
        b, T_dirac, T_density, F = setup
        report = vf.check_leibniz(T_dirac + T_density, F, 3, GRID)
        assert report.passed

    def test_uncoefficiented_variant_fails(self, setup, monkeypatch):
        b, _, _, F = setup
        diag = bd.section_from_strings(b, ["x0"])
        T = dist.dirac_section(diag, b.parse_base("x0*bump(x0)"))
        monkeypatch.setattr(ex, "multi_binomial", lambda alpha, beta: 1)
        report = vf.check_leibniz(T, F, 2, GRID)
        assert not report.passed

    def test_left_side_builds_no_derivative_of_a_symbolic_part(self, setup, monkeypatch):
        """check_leibniz takes its left side from Taylor jets, so it asks no
        base function with a symbolic part for a derivative; check_smoothness
        still differentiates T(F) symbolically."""
        b, T_dirac, T_density, F = setup
        derivative, symbolic_calls = dist.BaseFunction.derivative, []

        def counting(bf, alpha):
            if bf.symbolic is not None:
                symbolic_calls.append(alpha)
            return derivative(bf, alpha)

        monkeypatch.setattr(dist.BaseFunction, "derivative", counting)
        assert vf.check_leibniz(T_dirac + T_density, F, 3, GRID).passed
        assert symbolic_calls == []
        assert vf.check_smoothness(T_dirac, F, (1,), SMOOTH_GRID).passed
        assert symbolic_calls

    def test_scaled_second_order_jets_fail_at_alpha_two(self, setup, monkeypatch):
        b, T_dirac, _, F = setup
        taylor = ex.taylor

        def tampered(e, X, order):
            jets = taylor(e, X, order)
            for k, alpha in enumerate(ex.multi_indices_up_to(e.dim, order)):
                if ex.order(alpha) == 2:
                    jets[k] *= 1.01
            return jets

        monkeypatch.setattr(ex, "taylor", tampered)
        report = vf.check_leibniz(T_dirac, F, 3, GRID)
        assert [c.passed for c in report.cases] == [True, True, False, True]
        assert report.cases[2].case_id == "alpha=(2,)"
        assert report.cases[2].witness["alpha"] == (2,)

    def test_family_derivative_without_its_section_term_fails(self, setup, monkeypatch):
        """Dropping the (sigma, f d sigma_j, beta + e_j) terms of each step
        leaves the right side without the fibre derivatives of F."""
        b, T_dirac, _, F = setup

        def tampered(T, slot):
            return dist.TransversalDistribution(T.bundle, tuple(
                dist.Term(t.bundle, t.weight.diff1(slot), t.section, t.beta)
                for t in T.terms))

        monkeypatch.setattr(dist, "_family_derivative_1", tampered)
        report = vf.check_leibniz(T_dirac, F, 2, GRID)
        assert [c.passed for c in report.cases] == [True, False, False]

    def test_two_dimensional_base(self, plane_bundle):
        s = bd.section_from_strings(plane_bundle, ["x0 + x1"])
        T = dist.dirac_section(s, plane_bundle.parse_base("bump(x0)*bump(x1)"))
        F = plane_bundle.parse_total("1 + x0*y0 + x1^2*y0")
        grid = [(-0.4, -0.2), (0.0, 0.0), (0.3, 0.5)]
        report = vf.check_leibniz(T, F, 3, grid)
        assert report.passed


class TestSmoothness:
    def test_constant_function(self, setup):
        b, T_dirac, _, _ = setup
        F = b.parse_total("3")
        report = vf.check_smoothness(T_dirac, F, (1,), SMOOTH_GRID)
        assert report.passed

    def test_dirac_with_smooth_section(self, setup):
        b, T_dirac, _, F = setup
        report = vf.check_smoothness(T_dirac, F, (1,), SMOOTH_GRID)
        assert report.passed
        orders = [c.witness for c in report.cases]

    def test_density_distribution(self, setup):
        b, _, T_density, F = setup
        report = vf.check_smoothness(T_density, F, (1,), SMOOTH_GRID)
        assert report.passed

    def test_second_order_alpha(self, setup):
        b, T_dirac, _, F = setup
        report = vf.check_smoothness(T_dirac, F, (2,), SMOOTH_GRID)
        assert report.passed

    def test_bump_boundary_points_are_skipped(self, setup):
        b, T_dirac, _, F = setup
        report = vf.check_smoothness(T_dirac, F, (1,), [(1.0,), (0.99,)])
        assert report.passed
        assert all(c.skipped for c in report.cases)

    def test_corrupted_derivative_fails(self, setup, monkeypatch):
        b, T_dirac, _, F = setup
        derivative = dist.BaseFunction.derivative

        def scaled(bf, alpha):
            d = derivative(bf, alpha)
            return replace(d, symbolic=ex.mul(ex.const(Fraction(21, 20), 1), d.symbolic))

        monkeypatch.setattr(dist.BaseFunction, "derivative", scaled)
        report = vf.check_smoothness(T_dirac, F, (1,), SMOOTH_GRID)
        assert not report.passed


class TestDuality:
    def test_passes_on_example_mix(self, setup):
        b, T_dirac, T_density, F = setup
        F_list = [F, b.parse_total("y0^2 + 1"),
                  b.parse_total("x0*y0 + bump(x0)*bump(y0)")]
        report = vf.check_duality(F_list, [T_dirac, T_density], GRID)
        assert report.passed

    def test_distinct_functions_distinguished(self, setup):
        b, T_dirac, _, F = setup
        G = ex.add(F, b.parse_total("bump(x0)*bump(y0)"))
        probe_grid = [((0.0,), (0.0,))]
        report = vf.check_duality([F, G], [T_dirac], GRID, probe_grid=probe_grid)
        assert report.passed  # consistency cases pass: probes DO distinguish
        case = [c for c in report.cases if "injectivity" in c.case_id][0]
        assert case.witness is None or not case.witness.get("separating_probe", True)

    def test_corrupted_module_linearity_fails(self, setup, monkeypatch):
        b, T_dirac, T_density, F = setup
        act = dist.module_action_base
        monkeypatch.setattr(dist, "module_action_base", lambda f, T: act(
            ex.mul(ex.const(Fraction(101, 100), f.dim), f), T))
        report = vf.check_duality([F], [T_dirac, T_density], GRID)
        assert not report.passed
        case = next(c for c in report.cases if c.case_id == "module linearity both sides")
        assert not case.passed


class TestSupport:
    def test_passes_on_examples(self, setup):
        b, T_dirac, T_density, _ = setup
        for T in (T_dirac, T_density, T_dirac + T_density):
            report = vf.check_support(T, probe_count=25)
            assert report.passed

    def test_zero_distribution(self, setup):
        b, *_ = setup
        report = vf.check_support(dist.zero_distribution(b), probe_count=10)
        assert report.passed

    def test_probe_arguments_are_the_differences_sub_builds(self):
        b = bd.TrivialBundle(2, 1)
        centre = (0.3, -1.7, 2.25)
        probe = vf._bump_probe(b, centre, 0.25)
        for slot, (factor, name, c) in enumerate(zip(probe.factors, ("x0", "x1", "y0"), centre)):
            assert factor.arg is ex.mul(ex.const(4, 3),
                                        ex.sub(ex.var(slot, 3, name), ex.const(c, 3)))

    def test_shrunken_support_box_fails(self, setup, monkeypatch):
        b, T_dirac, _, _ = setup
        monkeypatch.setattr(dist, "total_support",
                            lambda T: Box.of([(-0.05, 0.05), (-0.05, 0.05)]))
        report = vf.check_support(T_dirac, probe_count=40)
        assert not report.passed


class TestLocalization:
    def test_decomposable_case(self, setup):
        b, *_ = setup
        diag = bd.section_from_strings(b, ["x0"])
        T = dist.dirac_section(diag, b.parse_base("x0*bump(x0)"))
        report = vf.check_localization(T, (0.0,))
        assert report.passed
        assert not any(c.skipped for c in report.cases)

    def test_precondition_not_met_is_skip_not_failure(self, setup):
        b, T_dirac, _, _ = setup
        report = vf.check_localization(T_dirac, (0.0,))
        assert report.passed
        assert report.cases[0].skipped

    def test_zero_distribution_passes_vacuously(self, setup):
        b, *_ = setup
        report = vf.check_localization(dist.zero_distribution(b), (0.0,))
        assert report.passed

    def test_corrupted_decomposition_fails(self, setup, monkeypatch):
        b, *_ = setup
        diag = bd.section_from_strings(b, ["x0"])
        T = dist.dirac_section(diag, b.parse_base("x0*bump(x0)"))
        decompose = dist.localize_decompose

        def tampered(T, x):
            pieces = decompose(T, x)
            return [(ex.mul(ex.const(2, f.dim), f), Ti) for f, Ti in pieces]

        monkeypatch.setattr(dist, "localize_decompose", tampered)
        report = vf.check_localization(T, (0.0,))
        assert not report.passed


class TestDeterminism:
    def test_reports_identical_across_runs(self, setup):
        b, T_dirac, T_density, F = setup
        T = T_dirac + T_density

        def snapshot():
            reports = [
                vf.check_restriction_compat(T, F, GRID),
                vf.check_leibniz(T, F, 2, GRID),
                vf.check_support(T, probe_count=15),
            ]
            return [
                [(c.case_id, c.max_error, c.tolerance, c.passed, c.skipped)
                 for c in r.cases]
                for r in reports
            ]

        assert snapshot() == snapshot()


class TestReportShape:
    def test_json_dict_round_trips(self, setup):
        import json
        b, T_dirac, _, F = setup
        report = vf.check_restriction_compat(T_dirac, F, GRID)
        payload = report.to_json_dict()
        again = json.loads(json.dumps(payload))
        assert again["passed"] is True
        assert again["suite"] == "restriction_compat"

    def test_table_contains_status(self, setup):
        b, T_dirac, _, F = setup
        report = vf.check_restriction_compat(T_dirac, F, GRID)
        text = report.to_table()
        assert "PASS" in text and "max_error" in text


class TestNonFiniteErrors:
    """A NaN or infinite error fails its case, with its point as the witness.

    T(F) is +inf at x = 0 and x = 0.2 for F = exp(800*y0) on the section
    x0 + 1, so both sides of an identity are inf and their difference NaN,
    which an ``err > worst`` scan never records.
    """

    @pytest.fixture
    def blowup(self, line_bundle):
        b = line_bundle
        s = bd.section_from_strings(b, ["x0 + 1"])
        T = dist.dirac_section(s, b.parse_base("bump(x0)"))
        return b, T, b.parse_total("exp(800*y0)"), [(0,), (0.2,)]

    @staticmethod
    def assert_fails_at(case, x):
        assert not case.passed
        assert math.isnan(case.max_error)
        assert case.witness["x"] == x

    def test_restriction(self, blowup):
        b, T, F, grid = blowup
        report = vf.check_restriction_compat(T, F, grid)
        self.assert_fails_at(report.cases[0], (0.0,))

    def test_leibniz(self, blowup):
        b, T, F, grid = blowup
        report = vf.check_leibniz(T, F, 1, grid)
        for case in report.cases:
            self.assert_fails_at(case, (0.0,))

    def test_duality(self, blowup):
        b, T, F, grid = blowup
        report = vf.check_duality([F, b.parse_total("1 + y0")], [T], grid)
        cases = {c.case_id: c for c in report.cases}
        self.assert_fails_at(cases["additivity in F"], (0.0,))
        self.assert_fails_at(cases["module linearity both sides"], (0.0,))

    def test_support(self, line_bundle, monkeypatch):
        # the density is NaN for x0 > -0.11 and 0 elsewhere; a shrunken
        # support box puts probes on the NaN part
        b = line_bundle
        T = dist.density(b, b.parse_total(
            "bump(x0)*bump(y0)*(exp(800*(x0 + 1)) - exp(800*(x0 + 1)))"))
        monkeypatch.setattr(dist, "total_support",
                            lambda T: Box.of([(-0.05, 0.05), (-0.05, 0.05)]))
        report = vf.check_support(T, probe_count=40, order=8)
        case = report.cases[0]
        assert not case.passed and math.isnan(case.max_error)
        assert math.isnan(case.witness["value"])

    def test_localization(self, line_bundle):
        b = line_bundle
        diag = bd.section_from_strings(b, ["x0"])
        T = dist.dirac_section(diag, b.parse_base("x0*bump(x0)"))
        report = vf.check_localization(T, (0.0,),
                                       probe_functions=[b.parse_total("exp(2000*y0)")])
        case = next(c for c in report.cases if c.case_id.startswith("recomposition"))
        self.assert_fails_at(case, (0.4,))
