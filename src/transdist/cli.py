"""Command-line front end: scene files, command dispatch, serialization.

A scene is a single JSON document declaring a bundle plus named
functions, sections, distributions, kernel operators, and LF profiles;
expressions are grammar strings.  Commands operate on named objects and
print JSON (or a plain-text table) with floats rendered to 17 significant
digits, so reruns are byte-identical.  ``--quad-order`` and
``--grid-density`` are read once and passed to every library call that
takes an ``order`` or ``density``; nothing process-wide is set.

Exit codes: 0 success, 1 check failure, 2 usage error, unknown command or
unsupported operation, 3 unresolved reference, 4 internal error, 5 scene
parse error, 6 dimension mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distribution as dist
from . import expr as ex
from . import operators as ops
from . import topology, verify
from .bundle import Section, TrivialBundle
from .distribution import TransversalDistribution
from .expr import Box, DimensionError, ExprError, ExprSyntaxError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3
EXIT_INTERNAL = 4
EXIT_PARSE = 5
EXIT_DIMENSION = 6


class SceneError(Exception):
    exit_code = EXIT_INTERNAL


class SceneParseError(SceneError):
    exit_code = EXIT_PARSE


class UnresolvedReferenceError(SceneError):
    exit_code = EXIT_UNRESOLVED


class SceneDimensionError(SceneError):
    exit_code = EXIT_DIMENSION


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(None)
    return format(x, ".17g")


def box_payload(box: Box):
    if box.is_empty:
        return {"empty": True}
    return {"empty": False, "intervals": [[lo, hi] for lo, hi in box.intervals]}


# ---------------------------------------------------------------------------
# Scene model


@dataclass
class Scene:
    path: str
    bundle: TrivialBundle
    functions: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    distributions: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)  # name -> (LFProfile, families|None)
    checks: dict = field(default_factory=dict)

    def function(self, name: str) -> ex.Expr:
        return self._lookup(self.functions, name, "function")

    def section(self, name: str) -> Section:
        return self._lookup(self.sections, name, "section")

    def distribution(self, name: str) -> TransversalDistribution:
        return self._lookup(self.distributions, name, "distribution")

    def operator(self, name: str) -> ops.KernelOperator:
        return self._lookup(self.operators, name, "operator")

    def profile(self, name: str):
        return self._lookup(self.profiles, name, "profile")

    def _lookup(self, table: dict, name: str, kind: str):
        if name not in table:
            raise UnresolvedReferenceError(
                f"{self.path}: undefined {kind} {name!r}")
        return table[name]


def _parse_expr(scene_path: str, parse, text, where: str) -> ex.Expr:
    """``parse(text)``, with ``parse`` one of the bundle's parse methods."""
    if not isinstance(text, str):
        raise SceneParseError(f"{scene_path}: {where}: expected an expression string")
    try:
        return parse(text)
    except ExprSyntaxError as err:
        raise SceneParseError(f"{scene_path}: {where}: {err}") from err


def load_scene(path) -> Scene:
    """Load and fully validate a scene file."""
    path = str(path)
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SceneParseError(f"{path}: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SceneParseError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict) or "bundle" not in doc:
        raise SceneParseError(f"{path}: scene must be an object with a 'bundle' key")
    b = doc["bundle"]
    if not isinstance(b, dict) or "base_dim" not in b or "fibre_dim" not in b:
        raise SceneParseError(f"{path}: bundle needs base_dim and fibre_dim")
    dims = [_field(path, f"bundle.{key}", _count, b[key]) for key in ("base_dim", "fibre_dim")]
    try:
        bundle = TrivialBundle(*dims)
    except DimensionError as err:
        raise SceneDimensionError(f"{path}: bundle: {err}") from err

    scene = Scene(path=path, bundle=bundle)
    try:
        for name, text in _table(path, doc, "functions").items():
            scene.functions[name] = _parse_expr(path, bundle.parse_total, text,
                                                f"functions.{name}")
        for name, spec in _table(path, doc, "sections").items():
            scene.sections[name] = _load_section(scene, spec, f"sections.{name}")
        for name, terms in _table(path, doc, "distributions").items():
            scene.distributions[name] = _load_distribution(scene, terms,
                                                           f"distributions.{name}")
        for name, terms in _table(path, doc, "operators").items():
            T = _load_distribution(scene, terms, f"operators.{name}")
            scene.operators[name] = ops.KernelOperator.from_distribution(T)
        for name, spec in _table(path, doc, "profiles").items():
            scene.profiles[name] = _load_profile(scene, spec, f"profiles.{name}")
    except DimensionError as err:
        raise SceneDimensionError(f"{path}: {err}") from err
    except ExprError as err:
        raise SceneParseError(f"{path}: {err}") from err
    scene.checks = _load_checks(path, _table(path, doc, "checks"))
    return scene


def _table(scene_path: str, doc: dict, key: str) -> dict:
    """The scene's ``key`` table: a JSON object, or {} when absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, dict):
        raise SceneParseError(f"{scene_path}: {key}: expected an object, "
                              f"got {json.dumps(value)}")
    return value or {}


def _field(scene_path: str, where: str, build, *args):
    """build(*args), with a malformed value reported as a parse error naming
    the field; a dimension mismatch stays a DimensionError."""
    try:
        return build(*args)
    except DimensionError:
        raise
    except (ValueError, TypeError, OverflowError, argparse.ArgumentTypeError) as err:
        raise SceneParseError(f"{scene_path}: {where}: {err}") from err


def _point(value) -> tuple:
    """A JSON list of finite numbers: not booleans, strings or nulls."""
    if not isinstance(value, list) or any(type(c) not in (int, float) for c in value):
        raise ValueError(f"expected a list of numbers, got {json.dumps(value)}")
    point = tuple(map(float, value))
    if not all(map(math.isfinite, point)):
        raise ValueError(f"expected finite coordinates, got {json.dumps(value)}")
    return point


def _at_least(minimum: int, kind=int):
    """An argparse type: a finite ``kind`` (int or float) no smaller than ``minimum``."""
    def parse(text: str):
        value = kind(text)
        if not -math.inf < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type when kind() fails
    return parse


def _count(value) -> int:
    """A JSON integer >= 0: not a boolean, float or string."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected an integer >= 0, got {json.dumps(value)}")
    return value


def _counts(value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers >= 0, got {json.dumps(value)}")
    return tuple(map(_count, value))


# the value of each key of "checks", as the suites read it; a list of
# points is read point by point, each named by its index
_CHECK_FIELDS = {"alpha_max": _count, "probe_count": _count, "smooth_alpha": _counts}
_POINT_FIELDS = ("grid", "smooth_grid", "localize_at")


def _load_checks(scene_path: str, checks: dict) -> dict:
    return {key: _check_field(scene_path, key, value)
            for key, value in checks.items() if value is not None}  # null means unset


def _check_field(scene_path: str, key: str, value):
    where = f"checks.{key}"
    if key in _CHECK_FIELDS:
        return _field(scene_path, where, _CHECK_FIELDS[key], value)
    if key not in _POINT_FIELDS:
        return value
    if not isinstance(value, list):
        raise SceneParseError(f"{scene_path}: {where}: expected a list of points, "
                              f"got {json.dumps(value)}")
    return [_field(scene_path, f"{where}[{i}]", _point, p) for i, p in enumerate(value)]


def _load_section(scene: Scene, spec, where: str) -> Section:
    if isinstance(spec, dict):
        comps = spec.get("components")
        domain = spec.get("domain")
    else:
        comps, domain = spec, None
    if not isinstance(comps, list):
        raise SceneParseError(f"{scene.path}: {where}: expected component list")
    exprs = tuple(_parse_expr(scene.path, scene.bundle.parse_base, c, f"{where}[{i}]")
                  for i, c in enumerate(comps))
    box = _field(scene.path, f"{where}.domain", Box.of, domain) if domain else None
    return Section(scene.bundle, exprs, box)


def _load_distribution(scene: Scene, terms, where: str) -> TransversalDistribution:
    if not isinstance(terms, list):
        raise SceneParseError(f"{scene.path}: {where}: expected a term list")
    built = []
    for i, t in enumerate(terms):
        spot = f"{where}[{i}]"
        if not isinstance(t, dict) or "type" not in t:
            raise SceneParseError(f"{scene.path}: {spot}: expected a term object")
        if t["type"] == "dirac_section":
            sec = t.get("section")
            if isinstance(sec, str):
                section = scene.section(sec)
            elif isinstance(sec, list):
                section = _load_section(scene, sec, f"{spot}.section")
            else:
                raise SceneParseError(f"{scene.path}: {spot}: bad section reference")
            weight = _parse_expr(scene.path, scene.bundle.parse_base, t.get("weight"),
                                 f"{spot}.weight")
            beta = t.get("beta")
            beta = None if beta is None else _field(scene.path, f"{spot}.beta", _counts, beta)
            built.append(dist.Term(scene.bundle, weight, section, beta))
        elif t["type"] == "density":
            phi = _parse_expr(scene.path, scene.bundle.parse_total, t.get("phi"),
                              f"{spot}.phi")
            built.append(dist.Term(scene.bundle, phi))
        else:
            raise SceneParseError(f"{scene.path}: {spot}: unknown term type {t['type']!r}")
    return TransversalDistribution(scene.bundle, tuple(built))


def _load_profile(scene: Scene, spec, where: str):
    if not isinstance(spec, dict):
        raise SceneParseError(f"{scene.path}: {where}: expected a profile object")
    orders = _field(scene.path, f"{where}.orders", _counts, spec.get("orders", []))
    epsilons = _field(scene.path, f"{where}.epsilons", _point, spec.get("epsilons", []))
    profile = _field(scene.path, where, topology.LFProfile, scene.bundle.base_dim,
                     orders, epsilons)
    if not spec.get("families"):
        return profile, None
    families = spec["families"]
    if not isinstance(families, list) or len(families) != len(profile.orders):
        raise SceneParseError(f"{scene.path}: {where}.families: expected a list of "
                              f"{len(profile.orders)} families, one per shell")
    built = []
    for i, members in enumerate(families):
        spot = f"{where}.families[{i}]"
        if not isinstance(members, list):
            raise SceneParseError(f"{scene.path}: {spot}: expected a list of fibre functions")
        built.append(_field(scene.path, spot, topology.BoundedFamily, scene.bundle.fibre_dim,
                            tuple(_parse_expr(scene.path, scene.bundle.parse_fibre, g,
                                              f"{spot}[{j}]") for j, g in enumerate(members))))
    return profile, tuple(built)


# ---------------------------------------------------------------------------
# Serialization of calculus objects


def _term_payload(term: dist.Term) -> dict:
    if term.section is None:
        return {"type": "density", "phi": str(term.weight)}
    return {
        "type": "dirac_section",
        "section": [str(c) for c in term.section.components],
        "weight": str(term.weight),
        "beta": list(term.beta),
    }


def _distribution_payload(T: TransversalDistribution) -> dict:
    return {
        "bundle": {"base_dim": T.bundle.base_dim, "fibre_dim": T.bundle.fibre_dim},
        "terms": [_term_payload(t) for t in T.terms],
    }


def _point_payload(v: dist.PointDistribution) -> dict:
    return {
        "fibre_dim": v.fibre_dim,
        "atoms": [
            {"point": list(p), "beta": list(b), "coefficient": c}
            for p, b, c in v.atoms
        ],
        "density": None if v.density is None else str(v.density),
    }


# ---------------------------------------------------------------------------
# Default grids


def _default_base_grid(bundle: TrivialBundle, checks: dict, key: str = "grid"):
    pts = checks.get(key, checks.get("grid"))
    if pts is not None:
        return pts
    if bundle.base_dim == 1:
        axis = (-0.6, -0.3, 0.0, 0.3, 0.6)
        return [(x,) for x in axis]
    axis = (-0.5, 0.0, 0.5)
    grid = [()]
    for _ in range(bundle.base_dim):
        grid = [g + (x,) for g in grid for x in axis]
    return grid


def _parse_point(text: str, dim: int):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise SceneParseError(f"bad point {text!r}: empty coordinate")
    if len(parts) != dim:
        raise SceneDimensionError(f"point {text!r} needs {dim} coordinates")
    try:
        point = tuple(float(p) for p in parts)
    except ValueError as err:
        raise SceneParseError(f"bad point {text!r}") from err
    if not all(map(math.isfinite, point)):
        raise SceneParseError(f"bad point {text!r}: coordinates must be finite")
    return point


def _parse_box(text: str):
    ivs = []
    for axis in text.split(";"):
        lo, _, hi = axis.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError as err:
            raise SceneParseError(f"bad box {text!r}") from err
        if not -math.inf < lo <= hi < math.inf:
            raise SceneParseError(f"bad box {text!r}: bounds must be finite, lo <= hi")
        ivs.append((lo, hi))
    return Box.of(ivs)


# ---------------------------------------------------------------------------
# Commands


def _finite(value: float, x) -> float:
    """A value to print; NaN or an infinity, which JSON cannot hold, is an error."""
    if not math.isfinite(value):
        raise ExprError(f"value {value!r} at base point {tuple(x)} is not finite")
    return value


def _grid_values(scene: Scene, bf) -> list:
    grid = _default_base_grid(scene.bundle, scene.checks)
    values = bf.values(np.array(grid, dtype=float).reshape(-1, scene.bundle.base_dim))
    return [{"x": list(x), "value": _finite(v, x)} for x, v in zip(grid, values.tolist())]


def _values(scene: Scene, args, bf, payload: dict) -> dict:
    """The payload plus bf at the --at point, or on the scene's default grid."""
    if args.at is not None:  # an empty --at is a bad point, not the grid
        x = _parse_point(args.at, scene.bundle.base_dim)
        return {**payload, "x": list(x), "value": _finite(bf.value(x), x)}
    return {**payload, "values": _grid_values(scene, bf)}


def _cmd_eval(scene: Scene, args) -> dict:
    T = scene.distribution(args.distribution)
    F = scene.function(args.function)
    return _values(scene, args, dist.evaluate(T, F, args.quad_order), {
        "command": "eval", "distribution": args.distribution, "function": args.function})


def _cmd_restrict(scene: Scene, args) -> dict:
    T = scene.distribution(args.distribution)
    x = _parse_point(args.at, scene.bundle.base_dim)
    v = dist.restrict(T, x)
    for point, _, c in v.atoms:
        if not all(map(math.isfinite, (*point, c))):
            raise ExprError(f"atom at {point} with coefficient {c!r} at base point "
                            f"{tuple(x)} is not finite")
    return {"command": "restrict", "distribution": args.distribution,
            "x": list(x), "restriction": _point_payload(v)}


def _cmd_derive(scene: Scene, args) -> dict:
    T = scene.distribution(args.distribution)
    dT = dist.family_derivative(T, args.alpha)
    return {"command": "derive", "distribution": args.distribution,
            "alpha": list(args.alpha), "result": _distribution_payload(dT)}


def _cmd_support(scene: Scene, args) -> dict:
    T = scene.distribution(args.distribution)
    return {"command": "support", "distribution": args.distribution,
            "total": box_payload(dist.total_support(T)),
            "base": box_payload(dist.base_support(T))}


def _cmd_action(scene: Scene, args) -> dict:
    T = scene.distribution(args.distribution)
    if args.base:
        f = _parse_expr(scene.path, scene.bundle.parse_base, args.base, "--base")
        result = dist.module_action_base(f, T)
        which = {"base": args.base}
    elif args.total:
        F = _parse_expr(scene.path, scene.bundle.parse_total, args.total, "--total")
        result = dist.module_action_total(F, T)
        which = {"total": args.total}
    else:
        raise SceneParseError("action needs --base or --total")
    return {"command": "action", "distribution": args.distribution, **which,
            "result": _distribution_payload(result)}


def _cmd_apply(scene: Scene, args) -> dict:
    K = scene.operator(args.operator)
    g = _parse_expr(scene.path, scene.bundle.parse_fibre, args.g, "--g")
    return _values(scene, args, ops.apply(K, g, args.quad_order),
                   {"command": "apply", "operator": args.operator, "g": args.g})


def _cmd_compose(scene: Scene, args) -> dict:
    K1 = scene.operator(args.k1)
    K2 = scene.operator(args.k2)
    K = ops.compose(K1, K2, args.quad_order)
    probes = args.probes.split(";") if args.probes else ["1", "y0", "y0^2"]
    out = {"command": "compose", "k1": args.k1, "k2": args.k2,
           "kinds": list(K.kinds), "evaluations": []}
    for text in probes:
        g = _parse_expr(scene.path, scene.bundle.parse_fibre, text, "--probes")
        out["evaluations"].append(
            {"g": text, "values": _grid_values(scene, ops.apply(K, g, args.quad_order))})
    return out


def _cmd_seminorm(scene: Scene, args) -> dict:
    F = scene.function(args.function)
    box = _parse_box(args.box)
    if box.dim != scene.bundle.total_dim:
        raise SceneDimensionError(
            f"seminorm box has {box.dim} axes, total space has "
            f"{scene.bundle.total_dim}")
    p = topology.Seminorm(box, args.order)
    return {"command": "seminorm", "function": args.function,
            "order": args.order, "box": box_payload(box),
            "value": topology.seminorm_eval(p, F, args.grid_density)}


def _cmd_member(scene: Scene, args) -> dict:
    profile, families = scene.profile(args.profile)
    out = {"command": "member", "profile": args.profile}
    if args.function:
        f = _parse_expr(scene.path, scene.bundle.parse_base, args.function, "--function")
        bf = dist.BaseFunction(scene.bundle, symbolic=f)
        res = topology.lf_membership(profile, bf, args.grid_density)
        out["function"] = args.function
    elif args.distribution:
        if families is None:
            raise SceneParseError(
                f"profile {args.profile!r} declares no bounded families")
        T = scene.distribution(args.distribution)
        res = topology.lfB_membership(profile, families, T, args.grid_density,
                                      args.quad_order)
        out["distribution"] = args.distribution
    else:
        raise SceneParseError("member needs --function or --distribution")
    out["accepted"] = res.accepted
    out["witness"] = res.witness
    return out


SUITES = ("restriction", "leibniz", "smoothness", "duality", "support",
          "localization")


def run_checks(scene: Scene, suites, tolerance_scale: float = 1.0,
               order: int | None = None):
    """Run the named verify suites over every eligible scene object.

    ``order`` is the quadrature order of every check; None means the default.
    """
    checks = scene.checks
    grid = _default_base_grid(scene.bundle, checks)
    smooth_grid = _default_base_grid(scene.bundle, checks, key="smooth_grid")
    alpha_max = checks.get("alpha_max", 2)
    probe_count = checks.get("probe_count", 20)
    ts = tolerance_scale
    per_pair = {  # suite: (report name, check of one distribution against one function)
        "restriction": ("restriction_compat", lambda T, F: verify.check_restriction_compat(
            T, F, grid, tolerance=1e-10 * ts, order=order)),
        "leibniz": ("leibniz", lambda T, F: verify.check_leibniz(
            T, F, alpha_max, grid, tolerance=1e-8 * ts, order=order)),
        "smoothness": ("smoothness", lambda T, F: verify.check_smoothness(
            T, F, checks.get("smooth_alpha", (1,) + (0,) * (T.bundle.base_dim - 1)),
            smooth_grid, terminal_tolerance=1e-5 * ts, order=order)),
    }
    reports = []
    dists = sorted(scene.distributions)
    funcs = sorted(scene.functions)
    for suite in suites:
        if suite in per_pair:
            name, check = per_pair[suite]
            for tn in dists:
                for fn in funcs:
                    r = check(scene.distributions[tn], scene.functions[fn])
                    r.suite = f"{name}[{tn},{fn}]"
                    reports.append(r)
        elif suite == "duality":
            F_list = [scene.functions[fn] for fn in funcs]
            T_list = [scene.distributions[tn] for tn in dists]
            if F_list and T_list:
                r = verify.check_duality(F_list, T_list, grid,
                                         tolerance=1e-10 * ts, order=order)
                reports.append(r)
        elif suite == "support":
            for tn in dists:
                r = verify.check_support(scene.distributions[tn],
                                         probe_count=probe_count,
                                         tolerance=1e-12 * ts, order=order)
                r.suite = f"support[{tn}]"
                reports.append(r)
        elif suite == "localization":
            points = checks.get("localize_at") or []
            for tn in dists:
                for x in points:
                    r = verify.check_localization(scene.distributions[tn], x,
                                                  tolerance=1e-10 * ts, order=order)
                    r.suite = f"localization[{tn},x={x}]"
                    reports.append(r)
        else:
            raise SceneParseError(f"unknown suite {suite!r}")
    return reports


def _cmd_check(scene: Scene, args) -> tuple:
    if args.suite in (None, "all"):
        suites = SUITES
    else:
        wanted = args.suite.split(",")
        for s in wanted:
            if s not in SUITES:
                raise SceneParseError(
                    f"unknown suite {s!r}; expected one of {', '.join(SUITES)} or all")
        suites = tuple(wanted)
    reports = run_checks(scene, suites, args.tolerance_scale, args.quad_order)
    payload = {"command": "check", "scene": scene.path,
               "passed": all(r.passed for r in reports),
               "suites": [r.to_json_dict() for r in reports]}
    return payload, reports


# ---------------------------------------------------------------------------
# Entry point


def _multi_index(text: str) -> tuple:
    """An argparse type: comma-separated nonnegative integers."""
    return tuple(map(_at_least(0), text.split(",")))


_multi_index.__name__ = "multi-index"


def build_parser() -> argparse.ArgumentParser:
    # Accepted before and after the command.  A default here would overwrite a
    # value given before the command, so main supplies the defaults.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "table"))
    common.add_argument("--quad-order", type=_at_least(2),
                        help="quadrature order per axis (at least 2; a rule over "
                             "quadrature.MAX_ORDER or MAX_RULE_POINTS exits 2)")
    common.add_argument("--grid-density", type=_at_least(3),
                        help="lattice points per axis of [-1, 1] (at least 3)")
    common.add_argument("--tolerance-scale", type=_at_least(0, float),
                        help="scale factor applied to check-suite tolerances (finite, >= 0)")
    parser = argparse.ArgumentParser(
        prog="transdist", parents=[common],
        description="Calculus on compactly supported transversal distributions.")
    sub = parser.add_subparsers(dest="command")

    def scene_cmd(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("scene", help="scene JSON file")
        return p

    p = scene_cmd("eval", help="evaluate T(F) at a point or on a grid")
    p.add_argument("distribution")
    p.add_argument("function")
    p.add_argument("--at", default=None, help="base point, comma separated")

    p = scene_cmd("restrict", help="fibre restriction T_x")
    p.add_argument("distribution")
    p.add_argument("--at", required=True)

    p = scene_cmd("derive", help="derivative of the family x -> T_x")
    p.add_argument("distribution")
    p.add_argument("--alpha", required=True, type=_multi_index,
                   help="base multi-index, comma separated")

    p = scene_cmd("support", help="total and base support boxes")
    p.add_argument("distribution")

    p = scene_cmd("action", help="module action of a function on T")
    p.add_argument("distribution")
    p.add_argument("--base", default=None, help="base function expression")
    p.add_argument("--total", default=None, help="total-space function expression")

    p = scene_cmd("compose", help="compose two kernel operators and probe them")
    p.add_argument("k1")
    p.add_argument("k2")
    p.add_argument("--probes", default=None,
                   help="fibre probe expressions, semicolon separated")

    p = scene_cmd("apply", help="apply a kernel operator to a fibre function")
    p.add_argument("operator")
    p.add_argument("--g", required=True, help="fibre function expression")
    p.add_argument("--at", default=None)

    p = scene_cmd("seminorm", help="evaluate a seminorm on a named function")
    p.add_argument("function")
    p.add_argument("--box", required=True, help="box as lo:hi;lo:hi;...")
    p.add_argument("--order", required=True, type=_at_least(0))

    p = scene_cmd("member", help="LF neighbourhood membership check")
    p.add_argument("profile")
    p.add_argument("--function", default=None)
    p.add_argument("--distribution", default=None)

    p = scene_cmd("check", help="run verification suites")
    p.add_argument("--suite", default="all")
    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "restrict": _cmd_restrict,
    "derive": _cmd_derive,
    "support": _cmd_support,
    "action": _cmd_action,
    "compose": _cmd_compose,
    "apply": _cmd_apply,
    "seminorm": _cmd_seminorm,
    "member": _cmd_member,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(
            format="json", quad_order=None, grid_density=None, tolerance_scale=1.0))
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        scene = load_scene(args.scene)
        reports = []
        if args.command == "check":
            payload, reports = _cmd_check(scene, args)
        else:
            payload = _COMMANDS[args.command](scene, args)
    except SceneError as err:
        print(dumps({"error": str(err)}))
        return err.exit_code
    except ExprError as err:  # an unsupported operation, unless more specific
        print(dumps({"error": str(err)}))
        return (EXIT_DIMENSION if isinstance(err, DimensionError) else
                EXIT_PARSE if isinstance(err, ExprSyntaxError) else EXIT_USAGE)
    except Exception as err:  # noqa: BLE001  (internal error contract)
        print(dumps({"error": f"internal error: {err!r}"}))
        return EXIT_INTERNAL
    if args.format == "table" and args.command == "check":
        for r in reports:
            print(r.to_table())
        print("overall:", "PASS" if payload["passed"] else "FAIL")
    elif args.format == "table":
        print(_as_table(payload))
    else:
        print(dumps(payload))
    return EXIT_OK if payload.get("passed", True) else EXIT_CHECK_FAILED


def _as_table(payload: dict, prefix: str = "") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_as_table(value, prefix + "  "))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(_as_table(item, prefix + "  "))
                    lines.append(f"{prefix}  -")
                else:
                    lines.append(f"{prefix}  {item}")
        elif isinstance(value, float):
            lines.append(f"{prefix}{key}: {format_float(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(lines)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
