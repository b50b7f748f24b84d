"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from transdist import bundle as bd
from transdist import cli
from transdist import distribution as dist
from transdist import expr as ex
from transdist import operators as op
from transdist import quadrature as qd
from transdist import verify as vf
from transdist.expr import Box, ExprError

GRID9 = [(x,) for x in np.linspace(-1.0, 1.0, 9)]


@contextmanager
def criterion(number: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[ACCEPTANCE] criterion {number}: "
              f"{'PASS' if ok else 'FAIL'} - {description}")


def line_bundle():
    return bd.TrivialBundle(1, 1)


def generated_pairs(count: int = 20):
    """Deterministic (T, F) pairs spanning Dirac (beta <= 2), density, mixed."""
    b = line_bundle()
    sections = [bd.section_from_strings(b, [c])
                for c in ("x0", "x0 + 1/2", "x0^2", "2*x0 - 1")]
    weights = [b.parse_base(w)
               for w in ("bump(x0)", "x0*bump(x0)", "bump(2*x0)",
                         "(x0 + 1/4)*bump(x0)")]
    densities = [b.parse_total(p)
                 for p in ("bump(x0)*bump(y0)", "x0*y0*bump(x0)*bump(y0)",
                           "bump(x0)*bump(2*y0 - 1)")]
    functions = [b.parse_total(f)
                 for f in ("2 + x0*y0", "y0^2 + 1", "x0^2*y0 + y0^3",
                           "sin(x0)*y0 + 1", "bump(x0)*bump(y0) + x0*y0")]
    pairs = []
    i = 0
    while len(pairs) < count:
        beta = (i % 3,)
        T = dist.dirac_section(sections[i % 4], weights[(i + 1) % 4], beta=beta)
        kind = i % 3
        if kind == 1:
            T = dist.density(b, densities[i % 3])
        elif kind == 2:
            T = T + dist.density(b, densities[(i + 1) % 3])
        pairs.append((T, functions[i % 5]))
        i += 1
    return b, pairs


class TestCriterion1:
    def test_restriction_compatibility_on_generated_pairs(self):
        with criterion(1, "restriction compatibility on 20 generated pairs, "
                          "grid error < 1e-10, under 10 s"):
            start = time.perf_counter()
            b, pairs = generated_pairs(20)
            worst = 0.0
            for T, F in pairs:
                report = vf.check_restriction_compat(T, F, GRID9,
                                                     tolerance=1e-10)
                assert report.passed, report.to_table()
                worst = max(worst, report.cases[0].max_error)
            elapsed = time.perf_counter() - start
            assert worst < 1e-10
            assert elapsed < 10.0, f"took {elapsed:.2f}s"


class TestCriterion2:
    def test_leibniz_identity_with_binomials(self, monkeypatch):
        with criterion(2, "coefficiented Leibniz identity to |alpha| <= 3 on "
                          "l in {1, 2}; bare variant fails at alpha = (2,)"):
            b1, _ = generated_pairs(1)
            diag = bd.section_from_strings(b1, ["x0"])
            cases_1d = [
                (dist.dirac_section(diag, b1.parse_base("x0*bump(x0)"))
                 + dist.density(b1, b1.parse_total("bump(x0)*bump(y0)")),
                 b1.parse_total("2 + x0*y0 + y0^2")),
                (dist.dirac_section(bd.section_from_strings(b1, ["x0^2"]),
                                    b1.parse_base("bump(x0)"), beta=(1,)),
                 b1.parse_total("y0^3 + x0*y0")),
            ]
            grid_1d = [(-0.5,), (-0.2,), (0.0,), (0.3,), (0.6,)]
            for T, F in cases_1d:
                report = vf.check_leibniz(T, F, 3, grid_1d, tolerance=1e-8)
                assert report.passed, report.to_table()

            b2 = bd.TrivialBundle(2, 1)
            s2 = bd.section_from_strings(b2, ["x0 + x1"])
            grid_2d = [(-0.4, -0.2), (0.0, 0.0), (0.3, 0.5)]
            cases_2d = [
                (dist.dirac_section(s2, b2.parse_base("bump(x0)*bump(x1)")),
                 b2.parse_total("1 + x0*y0 + x1^2*y0")),
                (dist.density(b2, b2.parse_total("bump(x0)*bump(x1)*bump(y0)")),
                 b2.parse_total("x0*y0 + x1 + y0^2")),
            ]
            for T2, F2 in cases_2d:
                report = vf.check_leibniz(T2, F2, 3, grid_2d, tolerance=1e-8)
                assert report.passed, report.to_table()

            # the bare splitting sum without binomial coefficients must
            # fail on a constructed l = 1, alpha = (2,) case
            T = dist.dirac_section(diag, b1.parse_base("x0*bump(x0)"))
            F = b1.parse_total("x0*y0 + y0^2")
            with monkeypatch.context() as m:
                m.setattr(ex, "multi_binomial", lambda alpha, beta: 1)
                bare = vf.check_leibniz(T, F, 2, grid_1d, tolerance=1e-8)
            failing = {c.case_id: c for c in bare.cases}
            assert not bare.passed
            assert not failing["alpha=(2,)"].passed


class TestCriterion3:
    def test_smoothness_finite_difference_convergence(self):
        with criterion(3, "finite differences of T(F) converge at order >= 1.9 "
                          "with terminal error < 1e-5 on 10 cases"):
            b = line_bundle()
            diag = bd.section_from_strings(b, ["x0"])
            shift = bd.section_from_strings(b, ["x0 - 1/4"])
            cases = [
                (dist.dirac_section(diag, b.parse_base("bump(x0)")),
                 b.parse_total("2 + x0*y0"), (-0.4,)),
                (dist.dirac_section(diag, b.parse_base("bump(x0)")),
                 b.parse_total("y0^2 + 1"), (0.25,)),
                (dist.dirac_section(shift, b.parse_base("x0*bump(x0)")),
                 b.parse_total("y0^3 + x0"), (0.3,)),
                (dist.dirac_section(diag, b.parse_base("bump(x0)"), beta=(1,)),
                 b.parse_total("y0^2 + x0*y0"), (0.2,)),
                (dist.density(b, b.parse_total("bump(x0)*bump(y0)")),
                 b.parse_total("1 + y0"), (-0.3,)),
                (dist.density(b, b.parse_total("x0*y0*bump(x0)*bump(y0)")),
                 b.parse_total("y0^2"), (0.45,)),
                (dist.density(b, b.parse_total("bump(x0)*bump(y0)")),
                 b.parse_total("sin(x0)*y0 + 1"), (0.0,)),
                (dist.dirac_section(diag, b.parse_base("(x0 + 1/4)*bump(x0)")),
                 b.parse_total("2 + y0"), (-0.2,)),
                (dist.dirac_section(shift, b.parse_base("bump(x0)"), beta=(2,)),
                 b.parse_total("y0^3 + y0^2"), (0.1,)),
                (dist.dirac_section(diag, b.parse_base("bump(x0)"))
                 + dist.density(b, b.parse_total("bump(x0)*bump(y0)")),
                 b.parse_total("x0*y0 + 1"), (0.35,)),
            ]
            assert len(cases) == 10
            checked = 0
            for T, F, x in cases:
                report = vf.check_smoothness(T, F, (1,), [x],
                                             terminal_tolerance=1e-5)
                assert report.passed, report.to_table()
                case = report.cases[0]
                assert not case.skipped
                checked += 1
            assert checked == 10


class TestCriterion4:
    def test_support_soundness_and_projection(self):
        with criterion(4, "50 probes outside the support see exactly 0 "
                          "(symbolic) / < 1e-12 (quadrature); base support "
                          "equals the base projection"):
            b = line_bundle()
            diag = bd.section_from_strings(b, ["x0"])
            T_symbolic = dist.dirac_section(diag, b.parse_base("bump(x0)"),
                                            beta=(1,))
            T_quad = dist.density(b, b.parse_total("bump(x0)*bump(y0)"))
            T_mixed = T_symbolic + T_quad

            report = vf.check_support(T_symbolic, probe_count=50)
            assert report.passed
            assert report.cases[0].max_error == 0.0  # symbolic path is exact

            for T in (T_quad, T_mixed):
                report = vf.check_support(T, probe_count=50, tolerance=1e-12)
                assert report.passed, report.to_table()

            for T in (T_symbolic, T_quad, T_mixed):
                assert dist.base_support(T) == \
                    dist.total_support(T).project([0])


class TestCriterion5:
    def test_localization_successes_and_refusals(self):
        with criterion(5, "5 polynomial-weight localizations recompose within "
                          "1e-10; 5 nonvanishing cases are refused"):
            b = line_bundle()
            diag = bd.section_from_strings(b, ["x0"])
            shift = bd.section_from_strings(b, ["x0 + 1/2"])
            successes = [
                (dist.dirac_section(diag, b.parse_base("x0*bump(x0)")), (0.0,)),
                (dist.dirac_section(shift, b.parse_base("(x0 - 1/2)*bump(x0)")),
                 (0.5,)),
                (dist.dirac_section(diag, b.parse_base("x0^2*bump(x0)"),
                                    beta=(1,)), (0.0,)),
                (dist.density(b, b.parse_total("x0*bump(x0)*bump(y0)")), (0.0,)),
                (dist.dirac_section(diag, b.parse_base("(x0 + 1/4)*bump(x0)"))
                 + dist.density(b, b.parse_total(
                     "(x0 + 1/4)*bump(x0)*bump(y0)")), (-0.25,)),
            ]
            assert len(successes) == 5
            for T, x in successes:
                report = vf.check_localization(T, x, tolerance=1e-10)
                assert report.passed, report.to_table()
                assert not any(c.skipped for c in report.cases)

            refusals = [
                (dist.dirac_section(diag, b.parse_base("bump(x0)")), (0.0,)),
                (dist.dirac_section(shift, b.parse_base("x0*bump(x0)")), (0.5,)),
                (dist.density(b, b.parse_total("bump(x0)*bump(y0)")), (0.0,)),
                (dist.dirac_section(diag, b.parse_base("(x0 - 1/4)*bump(x0)")),
                 (-0.25,)),
                (dist.dirac_section(diag, b.parse_base("x0^2*bump(x0)"))
                 + dist.density(b, b.parse_total("bump(x0)*bump(y0)")), (0.0,)),
            ]
            assert len(refusals) == 5
            for T, x in refusals:
                with pytest.raises(ExprError):
                    dist.localize_decompose(T, x)


class TestCriterion6:
    def test_duality_pairing_algebra(self):
        with criterion(6, "hat pairing bilinear and module-linear within 1e-12 "
                          "on a 5x5 product; probes distinguish distinct "
                          "functions"):
            b = line_bundle()
            diag = bd.section_from_strings(b, ["x0"])
            shift = bd.section_from_strings(b, ["x0 - 1/4"])
            F_list = [b.parse_total(t) for t in (
                "1", "x0*y0", "y0^2 + 1", "bump(x0)*bump(y0)",
                "x0^2 + y0")]
            T_list = [
                dist.dirac_section(diag, b.parse_base("bump(x0)")),
                dist.dirac_section(shift, b.parse_base("x0*bump(x0)")),
                dist.dirac_section(diag, b.parse_base("bump(2*x0)"), beta=(1,)),
                dist.density(b, b.parse_total("bump(x0)*bump(y0)")),
                dist.dirac_section(diag, b.parse_base("bump(x0)"))
                + dist.density(b, b.parse_total("x0*y0*bump(x0)*bump(y0)")),
            ]
            grid = [(-0.5,), (-0.2,), (0.0,), (0.3,), (0.6,)]
            report = vf.check_duality(F_list, T_list, grid, tolerance=1e-12)
            assert report.passed, report.to_table()

            # constructed distinct pairs differ at a probe point
            probe_grid = [((0.0,), (0.0,)), ((0.3,), (0.5,))]
            for F, G in ((F_list[0], F_list[2]), (F_list[1], F_list[3])):
                assert not dist.separating_probe(F, G, probe_grid, bundle=b)


class TestCriterion7:
    def test_operator_correspondence_and_associativity(self):
        with criterion(7, "apply(compose) == apply o apply within 1e-8 on "
                          "9 x 5 probes incl. translation pullbacks; "
                          "associativity on three Dirac kernels"):
            b = line_bundle()
            w = b.parse_base("exp(1)*bump(x0/3)")
            K_a = op.graph_kernel(bd.section_from_strings(b, ["x0 + 1/2"]), w)
            K_b = op.graph_kernel(bd.section_from_strings(b, ["x0 - 1/4"]),
                                  b.parse_base("exp(1)*bump(x0/4)"))
            K_phi = op.density_kernel(b, b.parse_total("bump(x0)*bump(y0)"))
            probes = [b.parse_fibre(t) for t in
                      ("1", "y0", "y0^2", "bump(y0)", "y0^3 + y0")]
            xs = [(x,) for x in np.linspace(-1.0, 1.0, 9)]
            for K1, K2 in ((K_a, K_b), (K_a, K_phi), (K_phi, K_a),
                           (K_phi, K_phi)):
                K = op.compose(K1, K2)
                for g in probes:
                    lhs = op.apply(K, g)
                    inner = op.apply(K2, g)
                    rhs = op.apply_to_values(K1, lambda y: inner.value(y),
                                             inner.support_box())
                    for x in xs:
                        assert abs(lhs.value(x) - rhs(x)) < 1e-8

            # translation graphs compose to the summed translation
            K_ab = op.compose(K_a, K_b)
            expected = b.parse_base("x0 + 1/4")
            for x in xs:
                assert K_ab.terms[0].section.components[0].evaluate(x) == \
                    expected.evaluate(x)

            K_c = op.graph_kernel(bd.section_from_strings(b, ["2*x0"]),
                                  b.parse_base("exp(1)*bump(x0/5)"))
            left = op.compose(op.compose(K_a, K_b), K_c)
            right = op.compose(K_a, op.compose(K_b, K_c))
            for g in probes:
                la, ra = op.apply(left, g), op.apply(right, g)
                for x in xs:
                    assert abs(la.value(x) - ra.value(x)) < 1e-8


class TestCriterion8:
    def test_quadrature_self_consistency(self):
        with criterion(8, "bump integral agrees at orders 64 and 96 within "
                          "1e-12; polynomial exactness at degree 2q-1"):
            bump = ex.parse("bump(x0)", 1)
            box = Box.of([(-1, 1)])
            i64 = qd.integrate(bump, box, 64)
            i96 = qd.integrate(bump, box, 96)
            assert abs(i64 - i96) < 1e-12
            assert i64 == qd.BUMP_INTEGRAL

            rng = np.random.default_rng(2024)
            for q in (4, 8, 16):
                coeffs = rng.integers(-5, 6, size=2 * q)  # degree 2q - 1
                poly = ex.add(*(ex.mul(ex.const(int(c), 1),
                                       ex.int_pow(ex.var(0, 1), n))
                                for n, c in enumerate(coeffs)))
                exact = Fraction(0)
                for n, c in enumerate(coeffs):
                    exact += Fraction(int(c)) * (Fraction(1) ** (n + 1)
                                                 - Fraction(-1) ** (n + 1)) \
                        / (n + 1)
                got = qd.integrate(poly, box, q)
                assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


class TestCriterion9:
    def test_every_suite_fails_its_corruption_fixture(self, monkeypatch):
        with criterion(9, "every verification suite fails when handed its "
                          "corruption fixture"):
            b = line_bundle()
            diag = bd.section_from_strings(b, ["x0"])
            T = dist.dirac_section(diag, b.parse_base("bump(x0)"))
            T_loc = dist.dirac_section(diag, b.parse_base("x0*bump(x0)"))
            F = b.parse_total("2 + x0*y0 + y0^2")
            grid = [(-0.5,), (0.0,), (0.4,)]

            restrict, decompose = dist.restrict, dist.localize_decompose
            derivative, act = dist.BaseFunction.derivative, dist.module_action_base

            def negated_restrict(T, x):
                v = restrict(T, x)
                atoms = tuple((p, beta, -c) for p, beta, c in v.atoms)
                return dist.PointDistribution(v.fibre_dim, atoms, v.density)

            def scaled_derivative(bf, alpha):
                d = derivative(bf, alpha)
                return replace(d, symbolic=ex.mul(ex.const(Fraction(21, 20), 1), d.symbolic))

            def scaled_decompose(T, x):
                return [(ex.mul(ex.const(2, f.dim), f), Ti) for f, Ti in decompose(T, x)]

            with monkeypatch.context() as m:
                m.setattr(dist, "restrict", negated_restrict)
                assert not vf.check_restriction_compat(T, F, grid).passed
            with monkeypatch.context() as m:
                m.setattr(ex, "multi_binomial", lambda alpha, beta: 1)
                assert not vf.check_leibniz(
                    dist.dirac_section(diag, b.parse_base("x0*bump(x0)")), F, 2, grid).passed
            with monkeypatch.context() as m:
                m.setattr(dist.BaseFunction, "derivative", scaled_derivative)
                assert not vf.check_smoothness(T, F, (1,), [(-0.4,), (0.3,)]).passed
            with monkeypatch.context() as m:
                m.setattr(dist, "module_action_base", lambda f, T: act(
                    ex.mul(ex.const(Fraction(101, 100), f.dim), f), T))
                assert not vf.check_duality([F], [T], grid).passed
            with monkeypatch.context() as m:
                m.setattr(dist, "total_support", lambda _: Box.of([(-0.05, 0.05)] * 2))
                assert not vf.check_support(T, probe_count=40).passed
            with monkeypatch.context() as m:
                m.setattr(dist, "localize_decompose", scaled_decompose)
                assert not vf.check_localization(T_loc, (0.0,)).passed


class TestCriterion10:
    def test_check_all_on_shipped_scenes(self, capsys):
        with criterion(10, "check --suite all passes on the three shipped "
                           "scenes in under 60 s"):
            from importlib import resources
            start = time.perf_counter()
            for name in ("dirac_demo.json", "density_demo.json",
                         "operator_demo.json"):
                path = str(resources.files("transdist") / "scenes" / name)
                code = cli.main(["check", path, "--suite", "all"])
                out = capsys.readouterr().out
                assert code == 0, f"{name}:\n{out[-1500:]}"
                assert json.loads(out)["passed"] is True
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"took {elapsed:.2f}s"
