import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import grid_points, random_polynomial, rewrite_chain
from transdist import bundle as bd
from transdist import expr as ex
from transdist.expr import Box, DimensionError


class TestRestrictFunction:
    def test_product_pins_base_point(self, line_bundle):
        F = line_bundle.parse_total("x0*y0")
        g = bd.restrict_function(line_bundle, F, (2.0,))
        assert g.dim == 1
        assert g.evaluate((3.0,)) == 6.0

    def test_base_independent_function(self, line_bundle):
        F = line_bundle.parse_total("y0^2")
        g = bd.restrict_function(line_bundle, F, (5.0,))
        assert g == line_bundle.parse_fibre("y0^2")

    def test_bump_weight_kills_restriction(self, line_bundle):
        F = line_bundle.parse_total("bump(x0)*y0")
        g = bd.restrict_function(line_bundle, F, (1.0,))
        for y in (-2.0, 0.0, 3.0):
            assert g.evaluate((y,)) == 0.0

    def test_is_algebra_map(self, line_bundle):
        F = line_bundle.parse_total("x0*y0 + 1")
        G = line_bundle.parse_total("bump(y0)*x0^2")
        x = (0.7,)
        lhs = bd.restrict_function(line_bundle, ex.mul(F, G), x)
        rhs = ex.mul(bd.restrict_function(line_bundle, F, x),
                     bd.restrict_function(line_bundle, G, x))
        pts = grid_points(Box.of([(-2, 2)]), 17)
        assert np.abs(lhs.eval_array(pts) - rhs.eval_array(pts)).max() < 1e-12

    def test_dimension_mismatch(self, line_bundle):
        with pytest.raises(DimensionError):
            bd.restrict_function(line_bundle, line_bundle.parse_base("x0"), (0.0,))

    def test_consecutive_points_share_the_nodes_that_do_not_read_x(self):
        """F keeps its last restriction, so the one at the next base point
        finds every node that does not read x still alive, and shares it.
        Each restriction is the node ``substitute`` builds, and the same x
        gives the same node."""
        b = bd.TrivialBundle(1, 2)
        F = b.parse_total("exp(x0*y0/7)*cos(y1/11) + y0*y1^5")  # built by no other test
        g = bd.restrict_function(b, F, (0.25,))
        x_free = [weakref.ref(n.substitute({1: 0, 2: 1}, 2))  # y0, y1^5, cos(y1/11)...
                  for n in (node or F for node, _, _ in F._plan)
                  if n.free_slots and 0 not in n.free_slots]
        assert len(x_free) == 6
        del g
        gc.collect()
        g = bd.restrict_function(b, F, (-0.5,))
        nodes = {id(node or g) for node, _, _ in g._plan}
        assert all(r() is not None and id(r()) in nodes for r in x_free)
        assert g is F.substitute({0: ex.const(-0.5, 2), 1: 0, 2: 1}, 2)
        assert bd.restrict_function(b, F, np.array([-0.5])) is g
        assert bd.restrict_function(bd.TrivialBundle(1, 2), F, (Fraction(-1, 2),)) is g
        pts = grid_points(Box.of([(-2, 2), (-2, 2)]), 5)
        fresh = ex.parse("exp(-1/2*y0/7)*cos(y1/11) + y0*y1^5", 2, base_dim=0)
        assert [v.hex() for v in g.eval_array(pts)] == [v.hex() for v in fresh.eval_array(pts)]


class TestExtendFunction:
    def test_fibre_polynomial(self, line_bundle):
        g = line_bundle.parse_fibre("y0^2")
        G = bd.extend_function(line_bundle, g)
        assert G.dim == 2
        assert G.evaluate((123.0, 3.0)) == 9.0

    def test_bump_extension(self, line_bundle):
        G = bd.extend_function(line_bundle, line_bundle.parse_fibre("bump(y0)"))
        assert G.evaluate((0.0, 2.0)) == 0.0
        assert G.evaluate((55.0, 0.0)) == pytest.approx(np.exp(-1), abs=0)

    def test_restrict_after_extend_is_identity(self, line_bundle):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_polynomial(rng, 1, names=["y0"])
            G = bd.extend_function(line_bundle, g)
            for x in (-2.0, 0.0, 1.5):
                assert bd.restrict_function(line_bundle, G, (x,)) == g

    def test_restrict_after_extend_is_identity_on_two_plus_two(self):
        b = bd.TrivialBundle(2, 2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = ex.mul(random_polynomial(rng, 2, names=["y0", "y1"]),
                       b.parse_fibre("bump(y0/2)*exp(sin(y1)) + pi"))
            G = bd.extend_function(b, g)
            for x in ((-2.0, 0.5), (0.0, 0.0), (1.5, -3.0)):
                assert bd.restrict_function(b, G, x) == g

    def test_higher_fibre_dimension(self):
        b = bd.TrivialBundle(1, 2)
        g = b.parse_fibre("y0*y1")
        G = bd.extend_function(b, g)
        assert G.evaluate((9.0, 2.0, 3.0)) == 6.0
        assert bd.restrict_function(b, G, (4.0,)) == g

    def test_each_bundle_extends_a_function_once(self):
        g = ex.parse("bump(y0)*y0", 1, base_dim=0)
        line, plane = bd.TrivialBundle(1, 1), bd.TrivialBundle(2, 1)
        G = bd.extend_function(line, g)
        assert bd.extend_function(bd.TrivialBundle(1, 1), g) is G
        assert G.diff((0, 2)) is bd.extend_function(line, g).diff((0, 2))
        H = bd.extend_function(plane, g)
        assert H is not G and H.dim == 3 and str(H) == str(G)
        # an equal g parsed apart is the same node, so it shares G
        assert bd.extend_function(line, ex.parse("bump(y0)*y0", 1, base_dim=0)) is G


class TestSectionGraphSupport:
    def test_identity_section(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0"])
        box = bd.section_graph_support(s, Box.of([(-1, 1)]))
        assert box.intervals[0] == (-1.0, 1.0)
        lo, hi = box.intervals[1]
        assert lo <= -1.0 and hi >= 1.0
        assert lo == pytest.approx(-1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)

    def test_shifted_section_interval_oracle(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0 + 1"])
        box = bd.section_graph_support(s, Box.of([(0, 1)]))
        assert box.intervals[0] == (0.0, 1.0)
        lo, hi = box.intervals[1]
        # independent oracle: evaluate the section on a dense sample
        samples = [s.value((x,))[0] for x in np.linspace(0, 1, 101)]
        assert lo <= min(samples) and hi >= max(samples)
        assert lo == pytest.approx(1.0, abs=1e-9) and hi == pytest.approx(2.0, abs=1e-9)

    def test_constant_section(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["0"])
        box = bd.section_graph_support(s, Box.of([(-2, 3)]))
        assert box.intervals[1] == (0.0, 0.0)

    def test_domain_clips_support(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0"], domain=Box.of([(0, 1)]))
        box = bd.section_graph_support(s, Box.of([(-5, 5)]))
        assert box.intervals[0] == (0.0, 1.0)

    def test_nonlinear_section_is_conservative(self, line_bundle):
        s = bd.section_from_strings(line_bundle, ["x0^2"])
        box = bd.section_graph_support(s, Box.of([(-1, 2)]))
        lo, hi = box.intervals[1]
        samples = [x * x for x in np.linspace(-1, 2, 301)]
        assert lo <= min(samples) and hi >= max(samples)


class TestPullback:
    def test_composition_formula(self, line_bundle):
        F = line_bundle.parse_total("x0*y0 + y0^2")
        s = bd.section_from_strings(line_bundle, ["x0 + 1"])
        pulled = bd.pullback_along_section(line_bundle, F, s)
        for x in (-1.0, 0.0, 2.0):
            sigma = x + 1
            assert pulled.evaluate((x,)) == pytest.approx(x * sigma + sigma**2, rel=1e-15)


class TestBundleValidation:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(DimensionError):
            bd.TrivialBundle(0, 1)

    def test_section_needs_base_components(self, line_bundle):
        with pytest.raises(DimensionError):
            bd.Section(line_bundle, (line_bundle.parse_total("y0"),))

    def test_section_component_count(self):
        b = bd.TrivialBundle(1, 2)
        with pytest.raises(DimensionError):
            bd.Section(b, (b.parse_base("x0"),))


class TestOneRewrite:
    """Each bundle map rebuilds its argument's DAG once, in one ``substitute``."""

    def test_each_map_walks_once(self, monkeypatch):
        b = bd.TrivialBundle(2, 2)
        F = b.parse_total("bump(x0)*exp(x1*y0) + sin(y1)*x0^2 + pi")
        f = b.parse_base("bump(x0)*cos(x1) + 3")
        g = b.parse_fibre("bump(y0)*y1^2 + 1/2")
        s = bd.section_from_strings(b, ["x0 + x1/2", "sin(x0)"])
        for start, run in [
                (F, lambda: bd.restrict_function(b, F, (0.25, -0.5))),
                (F, lambda: bd.pullback_along_section(b, F, s)),
                (g, lambda: bd.extend_function(b, g)),
                (f, lambda: bd.extend_base_function(b, f))]:
            assert rewrite_chain(monkeypatch, start, run) == 1

    def test_pullback_keeps_names_and_moves_constants(self):
        b = bd.TrivialBundle(2, 1)
        F = b.parse_total("pi*x1 + y0 - 2")
        pulled = bd.pullback_along_section(b, F, bd.section_from_strings(b, ["x0^2"]))
        assert str(pulled) == "pi*x1 + x0^2 - 2"
        assert all((node or pulled).dim == 2 for node, _, _ in pulled._plan)
