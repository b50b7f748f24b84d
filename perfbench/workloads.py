"""The benchmark's workloads: seeded scene generators, one timed operation
each, and the checks of every operation's outputs.

A workload keeps the shape of its expressions fixed and draws only
rational coefficients (and the check point) from the seed and the
operation index.  The cost of one operation therefore stays steady, while
no two operations share inputs, so a cache kept across operations cannot
turn later operations into hits that a user running one scene per process
never gets.

Every operation starts by loading its scene file, as ``transdist check``
does.  The library is driven through its public API with the quadrature
order and grid density passed explicitly wherever the API takes them; the
benchmark never changes the library's module-level defaults.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import refmath

QUAD_ORDER = 64
GRID_DENSITY = 33


@dataclass(frozen=True)
class Case:
    """Generated inputs of one operation."""

    workload: str
    seed: int
    index: int
    scene: dict  # a transdist scene document
    inputs: dict  # operation inputs the scene format has no slot for
    refs: dict  # generator-written references for the output checks

    def scene_text(self) -> str:
        return json.dumps(self.scene, indent=2) + "\n"


class Workload:
    name = ""
    why = ""

    def generate(self, seed: int, index: int) -> Case:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        scene, inputs, refs = self._generate(rng)
        return Case(self.name, seed, index, scene, inputs, refs)

    def _generate(self, rng):
        raise NotImplementedError

    def run(self, td, path, case: Case):
        """The timed operation; returns (payload, objects the checks need)."""
        raise NotImplementedError

    def check(self, td, case: Case, payload, ctx) -> list:
        """Untimed output checks; returns a list of problems."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared pieces


class SuiteWorkload(Workload):
    """One operation loads the scene and runs ``suites`` over it, as
    ``transdist check SCENE --suite ...`` does."""

    suites = ()

    def run(self, td, path, case):
        scene = td.cli.load_scene(path)
        reports = td.cli.run_checks(scene, self.suites)
        return {"verdicts": _verdicts(reports)}, {"scene": scene}


def _verdicts(reports) -> list:
    return [[r.suite, c.case_id, bool(c.passed), bool(c.skipped), float(c.max_error)]
            for r in reports for c in r.cases]


def _failed_cases(verdicts) -> list:
    return [f"verify case failed: {suite} {case} (max_error {err!r})"
            for suite, case, passed, skipped, err in verdicts
            if not (passed or skipped)]


def _compare(label: str, got: float, want: float) -> list:
    err = refmath.rel_err(got, want)
    if err < refmath.REL_TOL:
        return []
    return [f"{label}: got {got!r}, reference {want!r} (relative error {err:.3g})"]


def _check_t_of_f(td, scene, dist_name: str, fn_name: str, ref: dict) -> list:
    x = tuple(ref["x"])
    T, F = scene.distribution(dist_name), scene.function(fn_name)
    got = td.evaluate(T, F, order=QUAD_ORDER).value(x)
    return _compare(f"{dist_name}({fn_name})(x={x})", got, refmath.t_of_f(ref, x))


def _frac(text: str) -> float:
    return float(Fraction(text))


# ---------------------------------------------------------------------------
# dirac-deep: symbolic derivative swell, no quadrature


class DiracDeep(SuiteWorkload):
    name = "dirac-deep"
    why = ("order-4 Dirac derivatives on a nonlinear section: expr.diff, "
           "pullback and family_derivative on swelling trees, no quadrature")
    suites = ("restriction", "leibniz", "smoothness")

    def _generate(self, rng):
        q = rng.choice((3, 4, 5, 6, 7, 8, 9))
        p, r = rng.choice(((1, 2), (1, 3), (2, 3), (3, 4), (1, 4), (3, 5), (2, 5), (4, 5)))
        k = rng.choice((2, 3, 4, 5, 6, 7, 8, 9))
        x = rng.choice((-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4))
        scene = {
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "functions": {"F": f"exp(x0*y0/{k})*cos(y0) + y0^2"},
            "sections": {"s": [f"x0/2 + sin(x0)/{q}"]},
            "distributions": {"T": [{
                "type": "dirac_section", "section": "s",
                "weight": f"bump(x0)*exp(sin({p}*x0/{r}))*cos(x0^2)", "beta": [1]}]},
            "checks": {"grid": [[x]], "smooth_grid": [[x]], "alpha_max": 4,
                       "probe_count": 20},
        }
        s = f"(x0/2 + sin(x0)/{q})"
        # f(x) * dF/dy(x, sigma(x)) with F = exp(x*y/k)*cos(y) + y^2
        dirac = (f"bump(x0)*exp(sin({p}*x0/{r}))*cos(x0**2)"
                 f"*((x0/{k})*exp(x0*{s}/{k})*cos({s})"
                 f" - exp(x0*{s}/{k})*sin({s}) + 2*{s})")
        return scene, {}, {"T": {"x": [x], "dirac": dirac}}

    def check(self, td, case, payload, ctx):
        return (_failed_cases(payload["verdicts"])
                + _check_t_of_f(td, ctx["scene"], "T", "F", case.refs["T"]))


# ---------------------------------------------------------------------------
# density-2x2: fibre quadrature over 4096-node rules, shallow derivatives


class Density2x2(SuiteWorkload):
    name = "density-2x2"
    why = ("2+2 density and mixed terms: a 4096-node quadrature rule and "
           "eval_array per base point, shallow derivatives")
    suites = ("restriction", "leibniz", "duality", "support")

    def _generate(self, rng):
        p, c, q = (rng.choice((2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(3))
        a, b, d, e = (rng.choice((2, 3, 4, 5)) for _ in range(4))
        m = rng.choice((2, 3, 4, 5))
        axis = (-0.5, 0.0, 0.5)
        grid = [[u, v] for u in axis for v in axis]
        x = rng.choice(grid)
        bumps = "bump(x0)*bump(x1)*bump(y0)*bump(y1)"
        scene = {
            "bundle": {"base_dim": 2, "fibre_dim": 2},
            "functions": {"F": f"exp(x0*y0/{q})*cos(y1) + y0*y1"},
            "sections": {"s": [f"x0/{a} + x1/{b}", f"x1/{d} - x0/{e}"]},
            "distributions": {
                "P": [{"type": "density", "phi": f"{bumps}*(1 + y0*y1/{p})"}],
                "M": [{"type": "density", "phi": f"{bumps}*y0/{c}"},
                      {"type": "dirac_section", "section": "s",
                       "weight": f"bump(x0)*bump(x1)/{m}", "beta": [0, 0]}],
            },
            "checks": {"grid": grid, "alpha_max": 1, "probe_count": 20},
        }
        # phi*F splits into products of one-variable fibre factors
        e0 = f"exp(x0*y/{q})"
        s0, s1 = f"(x0/{a} + x1/{b})", f"(x1/{d} - x0/{e})"
        refs = {
            "P": {"x": x, "base": "bump(x0)*bump(x1)", "separable": [
                ["1", e0, "cos(y)"], [f"1/{p}", f"y*{e0}", "y*cos(y)"],
                ["1", "y", "y"], [f"1/{p}", "y**2", "y**2"]]},
            "M": {"x": x, "base": "bump(x0)*bump(x1)", "separable": [
                [f"1/{c}", f"y*{e0}", "cos(y)"], [f"1/{c}", "y**2", "y"]],
                "dirac": (f"bump(x0)*bump(x1)/{m}"
                          f"*(exp(x0*{s0}/{q})*cos({s1}) + {s0}*{s1})")},
        }
        return scene, {}, refs

    def check(self, td, case, payload, ctx):
        problems = _failed_cases(payload["verdicts"])
        for name in ("P", "M"):
            problems += _check_t_of_f(td, ctx["scene"], name, "F", case.refs[name])
        return problems


# ---------------------------------------------------------------------------
# kernel-compose: operator composition, numeric kernels


# composed name -> (outer operator, inner operator); "K1 after K2"
_COMPOSITIONS = (
    ("graph.graph", "Ka", "Kb"),
    ("graph.density", "Ka", "Kphi"),
    ("density.graph", "Kphi", "Ka"),
    ("density.density", "Kphi", "Kpsi"),
    ("numeric.density", "density.density", "Kphi"),
)


class KernelCompose(Workload):
    name = "kernel-compose"
    why = ("graph and density kernels composed up to a depth-2 numeric kernel "
           "and applied: per-node Python loops, rebuilt rules")

    def _generate(self, rng):
        a = rng.choice(("1/8", "1/4", "3/8", "1/2"))
        b = rng.choice(("1/5", "1/4", "1/3"))
        c1 = rng.choice(("5/4", "3/2", "2/3"))
        c2 = rng.choice(("1/2", "3/4", "4/3"))
        p, r, k = (rng.choice((2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(3))
        graph_a = {"type": "dirac_section", "section": "sa",
                   "weight": f"{c1}*bump(x0/3)", "beta": [0]}
        phi = {"type": "density", "phi": f"bump(x0)*bump(y0)*(1 + x0*y0/{p})"}
        scene = {
            "bundle": {"base_dim": 1, "fibre_dim": 1},
            "functions": {"F": "1 + x0*y0", "G": "y0^2 + 1"},
            "sections": {"sa": [f"x0 + {a}"], "sb": [f"x0 - {b}"]},
            "distributions": {"Ka": [graph_a], "Kphi": [phi]},
            "operators": {
                "Ka": [graph_a],
                "Kb": [{"type": "dirac_section", "section": "sb",
                        "weight": f"{c2}*bump(x0/4)", "beta": [0]}],
                "Kphi": [phi],
                "Kpsi": [{"type": "density",
                          "phi": f"bump(x0/2)*bump(y0)*(2 + y0/{r})"}],
            },
            "checks": {"grid": [[-0.3], [0.3]], "alpha_max": 1, "probe_count": 5},
        }
        inputs = {
            "grid": [[-0.6], [-0.3], [0.0], [0.3], [0.6]],
            "probes": [f"1 + y0/{k}", "y0^2", "bump(y0/2)"],
        }
        refs = {"a": a, "b": b, "c1": c1, "c2": c2, "p": p, "r": r,
                "probes": [f"1 + y/{k}", "y**2", "bump(y/2)"]}
        return scene, inputs, refs

    def run(self, td, path, case):
        scene = td.cli.load_scene(path)
        kernels = {n: scene.operator(n) for n in ("Ka", "Kb", "Kphi", "Kpsi")}
        for name, outer, inner in _COMPOSITIONS:
            kernels[name] = td.operators.compose(kernels[outer], kernels[inner],
                                                 order=QUAD_ORDER)
        probes = [scene.bundle.parse_fibre(t) for t in case.inputs["probes"]]
        grid = [tuple(x) for x in case.inputs["grid"]]
        values = {}
        for name, _, _ in _COMPOSITIONS:
            rows = []
            for g in probes:
                bf = td.operators.apply(kernels[name], g, order=QUAD_ORDER)
                rows.append([bf.value(x) for x in grid])
            values[name] = rows
        return {"values": values}, {"kernels": kernels, "probes": probes, "grid": grid}

    def check(self, td, case, payload, ctx):
        ops, kernels, grid = td.operators, ctx["kernels"], ctx["grid"]
        values = payload["values"]
        problems = []
        # the library's contract: apply(compose(K1, K2), g) == K1 applied to apply(K2, g)
        j = case.index % len(ctx["probes"])
        g = ctx["probes"][j]
        for name, outer, inner in _COMPOSITIONS:
            inner_bf = ops.apply(kernels[inner], g, order=QUAD_ORDER)
            seq = ops.apply_to_values(kernels[outer], inner_bf.value,
                                      inner_bf.support_box(), order=QUAD_ORDER)
            for i, x in enumerate(grid):
                problems += _compare(f"{name} vs sequential, probe {j}, x={x}",
                                     values[name][j][i], seq(x))
        # independent references
        for j, text in enumerate(case.refs["probes"]):
            ref = _kernel_references(case.refs, refmath.formula(text))
            for i, x in enumerate(grid):
                want = ref(x[0])
                for name, _, _ in _COMPOSITIONS:
                    problems += _compare(f"{name} probe {j} x={x}",
                                         values[name][j][i], want[name])
        return problems


def _kernel_references(refs: dict, g_formula):
    """Plain-math values of every composed kernel applied to one probe."""
    bump, integrate = refmath.bump, refmath.integrate
    a, b, c1, c2 = (_frac(refs[k]) for k in ("a", "b", "c1", "c2"))
    p, r = refs["p"], refs["r"]

    def g(y):
        return g_formula(y=y)

    def wa(x):
        return c1 * bump(x / 3)

    def wb(x):
        return c2 * bump(x / 4)

    def phi(x, y):
        return bump(x) * bump(y) * (1 + x * y / p)

    def psi_fibre(z):  # psi(y, z) = bump(y/2) * psi_fibre(z)
        return bump(z) * (2 + z / r)

    g0 = integrate(lambda z: bump(z) * g(z))
    g1 = integrate(lambda z: bump(z) * z * g(z))
    fibre_g = integrate(lambda z: psi_fibre(z) * g(z))
    fibre_h = integrate(lambda z: psi_fibre(z) * bump(z) * (g0 + z * g1 / p))

    def at(x):
        mid = integrate(lambda u: phi(x, u) * bump(u / 2))
        return {
            "graph.graph": wa(x) * wb(x + a) * g(x + a - b),
            "graph.density": wa(x) * integrate(lambda y: phi(x + a, y) * g(y)),
            "density.graph": integrate(lambda y: phi(x, y) * wa(y) * g(y + a)),
            "density.density": mid * fibre_g,
            "numeric.density": mid * fibre_h,
        }

    return at


# ---------------------------------------------------------------------------
# lattice-scan: thousands of scalar evaluations of small expressions


class LatticeScan(Workload):
    name = "lattice-scan"
    why = ("LF membership scans over 3 lattice shells: thousands of scalar "
           "value, restrict and pair calls on small expressions")

    def _generate(self, rng):
        c0 = rng.choice(("1/2", "1/3", "2/3", "3/4"))
        c1, c2, k = (rng.choice((2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(3))
        a, b, m = (rng.choice((2, 3, 4, 5)) for _ in range(3))
        x = [rng.choice((-0.5, -0.25, 0.25, 0.5)), rng.choice((-0.2, 0.0, 0.2))]
        env = "bump(4*x0/9)*bump(2*x1)"
        scene = {
            "bundle": {"base_dim": 2, "fibre_dim": 1},
            "functions": {"F": f"{env}*bump(y0)*(1 + x0*y0/{k})"},
            "sections": {"s": [f"x0/{a} + x1/{b}"]},
            "distributions": {"T": [{"type": "dirac_section", "section": "s",
                                     "weight": f"{env}/{m}", "beta": [0]}]},
            # tolerances far above every value: each input is accepted, so
            # every scan covers the whole lattice instead of stopping at a witness
            "profiles": {"P": {"orders": [0, 1, 2], "epsilons": [64, 32, 16],
                               "families": [["1", "y0"], ["1", "y0^2/2"],
                                            ["1/2", "y0/4", "y0^3/6"]]}},
            "checks": {"grid": [x], "alpha_max": 1, "probe_count": 5},
        }
        inputs = {"f": f"{env}*({c0} + sin(x0)/{c1} + x0*x1/{c2})",
                  "box": [[-2.25, 2.25], [-0.5, 0.5], [-1.0, 1.0]]}
        s = f"(x0/{a} + x1/{b})"
        refs = {  # env reads the same in the scene grammar and in Python
            "T": {"x": x, "dirac": f"{env}/{m}*{env}*bump({s})*(1 + x0*{s}/{k})"},
            "F": f"{env}*bump(y)*(1 + x0*y/{k})",
        }
        return scene, inputs, refs

    def run(self, td, path, case):
        scene = td.cli.load_scene(path)
        bundle = scene.bundle
        profile, families = scene.profile("P")
        f = td.BaseFunction(bundle, symbolic=bundle.parse_base(case.inputs["f"]))
        lf = td.lf_membership(profile, f, density=GRID_DENSITY)
        lfb = td.lfB_membership(profile, families, scene.distribution("T"),
                                density=GRID_DENSITY, order=QUAD_ORDER)
        semi = td.seminorm_eval(td.Seminorm(td.Box.of(case.inputs["box"]), 2),
                                scene.function("F"), density=GRID_DENSITY)
        payload = {"lf": [bool(lf.accepted), repr(lf.witness)],
                   "lfB": [bool(lfb.accepted), repr(lfb.witness)],
                   "seminorm": float(semi)}
        return payload, {"scene": scene}

    def check(self, td, case, payload, ctx):
        problems = []
        for key in ("lf", "lfB"):
            accepted, witness = payload[key]
            if not accepted:
                problems.append(f"{key} membership rejected: {witness}")
        semi = payload["seminorm"]
        # the order-0 part alone bounds the seminorm from below
        F = refmath.formula(case.refs["F"])
        pitch = 2.0 / (GRID_DENSITY - 1)
        lower = max(abs(F(x0=i * pitch, x1=j * pitch, y=l * pitch))
                    for i in (-8, 0, 8) for j in (-4, 0, 4) for l in (-8, 0, 8))
        if not (math.isfinite(semi) and semi >= lower * (1 - refmath.REL_TOL)):
            problems.append(f"seminorm {semi!r} below the lattice maximum {lower!r} of |F|")
        problems += _check_t_of_f(td, ctx["scene"], "T", "F", case.refs["T"])
        return problems


WORKLOADS = {w.name: w for w in (DiracDeep(), Density2x2(), KernelCompose(), LatticeScan())}
