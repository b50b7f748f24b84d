"""Named invariant suites with pass/fail reports and failure witnesses.

Each suite is deterministic: fixed grids, fixed seeds, index-ordered
accumulation.  A suite looks up the library functions it checks through
their modules when it runs, so a test can monkeypatch a deliberately broken
one in and confirm the suite notices; a suite that cannot fail verifies
nothing.  A NaN or infinite error fails its case, with its point as the
witness.

Base functions are evaluated over a whole grid at a time (``_at_points``):
the symbolic parts of all the base functions a check compares take one
``evaluate_many`` pass, each quadrature part one pass over all the grid
points, and the values are those of ``BaseFunction.value`` at each point,
bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import distribution as dist
from . import expr as ex
from .bundle import TrivialBundle, extend_base_function, restrict_function
from .distribution import TransversalDistribution
from .expr import Box, DimensionError, Expr, ExprError


@dataclass
class CaseResult:
    case_id: str
    max_error: float
    tolerance: float
    passed: bool
    witness: dict | None = None
    skipped: bool = False


@dataclass
class CheckReport:
    suite: str
    cases: list = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.cases)

    def add(self, case_id: str, max_error: float, tolerance: float,
            witness: dict | None = None, skipped: bool = False) -> None:
        ok = bool(max_error < tolerance)
        self.cases.append(CaseResult(case_id, float(max_error), float(tolerance),
                                     ok, None if ok else witness, skipped))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "duration_seconds": self.duration_seconds,
            "cases": [
                {
                    "id": c.case_id,
                    "max_error": c.max_error,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "skipped": c.skipped,
                    "witness": c.witness,
                }
                for c in self.cases
            ],
        }

    def to_table(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.duration_seconds:.3f}s)"]
        for c in self.cases:
            status = "skip" if c.skipped else ("pass" if c.passed else "FAIL")
            line = f"  [{status}] {c.case_id}: max_error={c.max_error:.3e} tol={c.tolerance:.1e}"
            if c.witness:
                line += f" witness={c.witness}"
            lines.append(line)
        return "\n".join(lines)


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.duration_seconds = time.perf_counter() - start
        return report
    return wrapper


def _worse(err: float, worst: float) -> bool:
    """Whether ``err`` replaces ``worst`` as a case's worst error.  A NaN,
    which compares false with everything, does, unless the worst is NaN."""
    return err > worst or (err != err and worst == worst)


def _max_error(errors) -> float:
    worst = 0.0
    for err in errors:
        if _worse(err, worst):
            worst = err
    return worst


def _base_points(bundle: TrivialBundle, grid) -> np.ndarray:
    """The grid's base points as an (M, l) array."""
    if any(len(x) != bundle.base_dim for x in grid):
        raise DimensionError("base point dimension mismatched with bundle")
    return np.array(grid, dtype=float).reshape(len(grid), bundle.base_dim)


def _at_points(grid, *bfs) -> list:
    """``[bf.value(x) for x in grid]`` for each base function, bit for bit.

    The symbolic parts go through scalar ``evaluate``, which on a deep
    derivative is many times cheaper than a one-row ``eval_array``, in one
    ``evaluate_many`` pass over the grid, so the nodes they share are
    evaluated once per point; each quadrature or numeric part takes one
    ``integrate_rows`` pass over all the points.
    """
    X = _base_points(bfs[0].bundle, grid)
    symbolic = iter(ex.evaluate_many([bf.symbolic for bf in bfs if bf.symbolic is not None],
                                     X.tolist()))
    out = []
    for bf in bfs:
        total = next(symbolic) if bf.symbolic is not None else [0.0] * len(X)
        for part in bf.quad_parts + bf.numeric_parts:
            total = [t + v for t, v in zip(total, part.values(X, bf.order).tolist())]
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Restriction compatibility: T_x applied to F|_{P_x} equals T(F) at x


@_timed
def check_restriction_compat(T: TransversalDistribution, F: Expr, grid,
                             tolerance: float = 1e-10,
                             order: int | None = None) -> CheckReport:
    report = CheckReport("restriction_compat")
    worst, witness = 0.0, None
    for x, want in zip(grid, _at_points(grid, dist.evaluate(T, F, order))[0]):
        lhs = dist.pair(dist.restrict(T, x), restrict_function(T.bundle, F, x), order)
        err = abs(lhs - want)
        if _worse(err, worst):
            worst, witness = err, {"x": tuple(map(float, x)), "lhs": lhs, "rhs": want}
    report.add("pair(T_x, F|x) == T(F)(x)", worst, tolerance, witness)
    return report


# ---------------------------------------------------------------------------
# Leibniz identity for derivatives of x -> T_x(F|x)


def _relative_error(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@_timed
def check_leibniz(T: TransversalDistribution, F: Expr, alpha_max: int, grid,
                  tolerance: float = 1e-8, order: int | None = None) -> CheckReport:
    """D^alpha of T(F) against sum over beta <= alpha of
    C(alpha, beta) (D^beta T)(D^(alpha - beta) F), on the grid.

    Each family derivative D^beta T is paired once, on the total space
    (``pair_at``), with every D^gamma F it meets, |beta| + |gamma| <=
    alpha_max; each alpha then sums its terms from that table.
    """
    report = CheckReport("leibniz")
    b = T.bundle
    X = _base_points(b, grid)
    alphas = ex.multi_indices_up_to(b.base_dim, alpha_max)
    dF = {gamma: F.diff(b.base_alpha_to_total(gamma)) for gamma in alphas}
    paired = {}
    for beta in alphas:
        gammas = ex.multi_indices_up_to(b.base_dim, alpha_max - ex.order(beta))
        values = dist.pair_at(dist.family_derivative(T, beta), X,
                              [dF[gamma] for gamma in gammas], order)
        paired.update({(beta, gamma): row.tolist() for gamma, row in zip(gammas, values)})
    bf = dist.evaluate(T, F, order)
    derivatives = _at_points(grid, *(bf.derivative(alpha) for alpha in alphas))
    for alpha, lhs in zip(alphas, derivatives):
        rhs = [0.0] * len(grid)
        for beta in ex.multi_indices_below(alpha):
            gamma = tuple(a_i - b_i for a_i, b_i in zip(alpha, beta))
            coeff = ex.multi_binomial(alpha, beta)
            rhs = [r + coeff * v for r, v in zip(rhs, paired[beta, gamma])]
        worst, witness = 0.0, None
        for x, left, right in zip(grid, lhs, rhs):
            err = _relative_error(left, right)
            if _worse(err, worst):
                worst, witness = err, {"x": tuple(map(float, x)), "alpha": alpha,
                                       "lhs": left, "rhs": right}
        report.add(f"alpha={alpha}", worst, tolerance, witness)
    return report


# ---------------------------------------------------------------------------
# Smoothness of T(F): finite differences converge at second order


def _stencil(alpha) -> list:
    """(offsets in steps, weight) of each point of the mixed central
    difference of order |alpha| with O(h^2) error."""
    per_axis = []
    for a in alpha:
        if a == 0:
            per_axis.append(((0.0, 1.0),))
        elif a == 1:
            per_axis.append(((-1.0, -0.5), (1.0, 0.5)))
        elif a == 2:
            per_axis.append(((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)))
        else:
            raise ExprError("finite-difference stencils support orders 0..2 per axis")
    return [([c[0] for c in combo], math.prod(c[1] for c in combo))
            for combo in itertools.product(*per_axis)]


@_timed
def check_smoothness(T: TransversalDistribution, F: Expr, alpha, grid,
                     h_sequence=(1e-2, 5e-3, 2.5e-3, 1.25e-3),
                     min_order: float = 1.9, terminal_tolerance: float = 1e-5,
                     boundary_margin: float = 0.05,
                     order: int | None = None) -> CheckReport:
    """Central differences of T(F) against its exact derivative.

    Points whose symbolic part sits within ``boundary_margin`` of a bump
    transition are reported as skipped: finite differences straddling the
    cutover do not see a smooth function at these step sizes.  The
    stencils of every other point are evaluated in one pass.
    """
    report = CheckReport("smoothness")
    bf = dist.evaluate(T, F, order)
    alpha = ex.check_multi_index(alpha, T.bundle.base_dim)
    exact_fn = bf.derivative(alpha)
    live = [min(bf.bump_boundary_distance(x), exact_fn.bump_boundary_distance(x))
            >= boundary_margin for x in grid]
    checked = [x for x, ok in zip(grid, live) if ok]
    # an order above 2 per axis is an error only where a point uses it
    stencil = _stencil(alpha) if checked else []
    points = [tuple(xi + h * o for xi, o in zip(x, offsets))
              for x in checked for h in h_sequence for offsets, _ in stencil]
    values = iter(_at_points(points, bf)[0])
    exact_values = iter(_at_points(checked, exact_fn)[0])
    for x, ok in zip(grid, live):
        case = f"alpha={alpha} x={tuple(map(float, x))}"
        if not ok:
            report.add(case + " (bump boundary)", 0.0, 1.0, skipped=True)
            continue
        exact = next(exact_values)
        errors = []
        for h in h_sequence:
            total = 0.0
            for _, weight in stencil:
                total += weight * next(values)
            errors.append(abs(total / h ** sum(alpha) - exact))
        terminal = errors[-1]
        if errors[0] < 1e-13:
            # derivative is numerically zero at every step: converged outright
            observed = float("inf") if terminal < terminal_tolerance else 0.0
        elif terminal == 0.0:
            observed = float("inf")
        else:
            observed = (math.log(errors[0] / terminal)
                        / math.log(h_sequence[0] / h_sequence[-1]))
        err_metric = terminal if observed >= min_order else 1.0
        report.add(case, err_metric, terminal_tolerance,
                   {"x": tuple(map(float, x)), "observed_order": observed,
                    "errors": errors})
    return report


# ---------------------------------------------------------------------------
# Duality pairing algebra


@_timed
def check_duality(F_list, T_list, grid, cutoff: Expr | None = None,
                  tolerance: float = 1e-10, probe_grid=None,
                  order: int | None = None) -> CheckReport:
    """Bilinearity, two-sided module linearity, and probe injectivity."""
    report = CheckReport("duality")
    if not F_list or not T_list:
        report.add("empty input", 0.0, tolerance)
        return report
    b = T_list[0].bundle
    f = cutoff if cutoff is not None else b.parse_base("bump(x0/2)")

    def at_points(*pairs):
        return _at_points(grid, *(dist.hat_pair(F, T, order) for F, T in pairs))

    worst_add, witness_add = 0.0, None
    for (F1, F2), T in itertools.product(itertools.combinations(F_list, 2), T_list):
        lhs, a1, a2 = at_points((ex.add(F1, F2), T), (F1, T), (F2, T))
        for x, v, v1, v2 in zip(grid, lhs, a1, a2):
            err = abs(v - (v1 + v2))
            if _worse(err, worst_add):
                worst_add, witness_add = err, {"x": tuple(map(float, x))}
    report.add("additivity in F", worst_add, tolerance, witness_add)

    worst, witness = 0.0, None
    for F, (T1, T2) in itertools.product(F_list, itertools.combinations(T_list, 2)):
        lhs, a1, a2 = at_points((F, T1 + T2), (F, T1), (F, T2))
        for x, v, v1, v2 in zip(grid, lhs, a1, a2):
            err = abs(v - (v1 + v2))
            if _worse(err, worst):
                worst, witness = err, {"x": tuple(map(float, x))}
    report.add("additivity in T", worst, tolerance, witness)

    worst, witness = 0.0, None
    for F, T in itertools.product(F_list, T_list):
        base, via_T, via_F = at_points((F, T), (F, dist.module_action_base(f, T)),
                                       (ex.mul(extend_base_function(b, f), F), T))
        for x, v, vT, vF in zip(grid, base, via_T, via_F):
            want = f.evaluate(x) * v
            err = _max_error((abs(vT - want), abs(vF - want)))
            if _worse(err, worst):
                worst, witness = err, {"x": tuple(map(float, x)),
                                       "f*F^(T)": want, "F^(f*T)": vT,
                                       "(f*F)^(T)": vF}
    report.add("module linearity both sides", worst, tolerance, witness)

    if probe_grid is None:
        probe_grid = [(x, tuple(0.1 * (j + 1) for j in range(b.fibre_dim)))
                      for x in grid]
    for i, F1 in enumerate(F_list):
        for j, F2 in enumerate(F_list):
            if j <= i:
                continue
            same = dist.separating_probe(F1, F2, probe_grid, bundle=b)
            agree_on_grid = all(
                abs(F1.evaluate(tuple(x) + tuple(p)) - F2.evaluate(tuple(x) + tuple(p)))
                <= 1e-12 for x, p in probe_grid)
            report.add(f"probe injectivity F{i} vs F{j}",
                       0.0 if same == agree_on_grid else 1.0, 0.5,
                       {"separating_probe": same, "grid_agreement": agree_on_grid})
    report.add("probe self-agreement", 0.0 if dist.separating_probe(
        F_list[0], F_list[0], probe_grid, bundle=b) else 1.0, 0.5)
    return report


# ---------------------------------------------------------------------------
# Support soundness


def _probe_centres_outside(box: Box, count: int, rng: np.random.Generator,
                           radius: float):
    """Deterministic points whose radius-balls avoid the box."""
    centres = []
    dim = box.dim
    ivs = box.intervals if not box.is_empty else tuple((0.0, 0.0) for _ in range(dim))
    for i in range(count):
        c = [rng.uniform(lo - 3.0, hi + 3.0) for lo, hi in ivs]
        axis = i % dim
        lo, hi = ivs[axis]
        side = rng.uniform(radius + 0.05, 2.5)
        c[axis] = (lo - side) if i % 2 == 0 else (hi + side)
        centres.append(tuple(c))
    return centres


def _bump_probe(bundle: TrivialBundle, centre, radius: float) -> Expr:
    factors = []
    dim = bundle.total_dim
    names = [f"x{i}" for i in range(bundle.base_dim)] + \
            [f"y{j}" for j in range(bundle.fibre_dim)]
    r = Fraction(radius)
    for slot, c in enumerate(centre):
        arg = ex.mul(ex.const(1 / r, dim),
                     ex.sub(ex.var(slot, dim, names[slot]),
                            ex.const(Fraction(float(c)), dim)))
        factors.append(ex.bump(arg))
    return ex.mul(*factors)


@_timed
def check_support(T: TransversalDistribution, probe_count: int = 50,
                  tolerance: float = 1e-12, seed: int = 20240501,
                  order: int | None = None) -> CheckReport:
    """Probes supported outside the support box must evaluate to zero,
    and the base support must equal the base projection of the total one."""
    report = CheckReport("support")
    b = T.bundle
    box = dist.total_support(T)
    rng = np.random.default_rng(seed)
    radius = 0.25
    worst, witness = 0.0, None
    if probe_count:
        for centre in _probe_centres_outside(box, probe_count, rng, radius):
            probe = _bump_probe(b, centre, radius)
            xs = [centre[:b.base_dim],
                  tuple(0.5 * c for c in centre[:b.base_dim]),
                  (0.0,) * b.base_dim]
            values = _at_points(xs, dist.evaluate(T, probe, order))[0]
            for x, val in zip(xs, map(abs, values)):
                if _worse(val, worst):
                    worst, witness = val, {"centre": centre,
                                           "x": tuple(map(float, x)), "value": val}
        report.add("probes outside support vanish", worst, tolerance, witness)
    projected = box.project(b.base_slots)
    structural = dist.base_support(T)
    report.add("base support equals base projection",
               0.0 if projected == structural else 1.0, 0.5,
               {"projected": projected, "base_support": structural})
    return report


# ---------------------------------------------------------------------------
# Localization


@_timed
def check_localization(T: TransversalDistribution, x,
                       tolerance: float = 1e-10,
                       probe_functions=None,
                       order: int | None = None) -> CheckReport:
    """When T_x = 0, the decomposition exists, every factor vanishes at x,
    and the recomposition agrees with T extensionally on probes."""
    report = CheckReport("localization")
    b = T.bundle
    vx = dist.restrict(T, x)
    if not vx.is_numerically_zero():
        report.add(f"precondition not met at x={tuple(map(float, x))}",
                   0.0, 1.0, skipped=True)
        return report
    try:
        pieces = dist.localize_decompose(T, x)
    except ExprError as err:
        report.add("decomposition failed", 1.0, tolerance, {"error": str(err)})
        return report
    worst_factor = _max_error(abs(f_i.evaluate(x)) for f_i, _ in pieces)
    report.add("factors vanish at x", worst_factor, max(tolerance, 1e-14))
    R = dist.recompose(pieces, b)
    if probe_functions is None:
        probe_functions = [b.parse_total("1"),
                           b.parse_total("x0*y0 + y0^2"),
                           b.parse_total("bump(x0)*bump(y0)")]
    worst, witness = 0.0, None
    grid = [tuple(x), tuple(0.4 + xi for xi in x), tuple(-0.3 + xi for xi in x)]
    for G in probe_functions:
        vT, vR = _at_points(grid, dist.evaluate(T, G, order), dist.evaluate(R, G, order))
        for pt, a, c in zip(grid, vT, vR):
            err = abs(a - c)
            if _worse(err, worst):
                worst, witness = err, {"x": pt, "G": str(G)}
    report.add("recomposition matches T on probes", worst, tolerance, witness)
    vzero = dist.restrict(R, x)
    g_probes = [b.parse_fibre("1"), b.parse_fibre("y0"), b.parse_fibre("y0^2")]
    worst = _max_error(abs(dist.pair(vzero, g, order)) for g in g_probes)
    report.add("recomposed restriction vanishes at x", worst, max(tolerance, 1e-12))
    return report
