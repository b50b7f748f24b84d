"""Span recorder for the benchmark's traced run.

The recorder wraps the public entry points of every transdist module from
the outside, so the library itself carries no tracing code:

* a span is recorded for the outermost call per layer only, so recursion
  (``diff1`` calling ``diff1``) and same-layer helpers (``pB_eval`` inside
  ``lfB_membership``) do not multiply spans; their time is the enclosing
  span's self time;
* calls are counted per span name (``diff`` and ``diff1`` share one), for
  the outermost call of that name only, so a same-layer call such as
  ``pB_eval`` is still counted;
* each span holds a name, start, end, parent and operation id; spans are
  kept in memory and written out by ``write``;
* the recorder's own bookkeeping, including the node walks behind
  ``expr.diff_out_nodes``, is subtracted from every span clock, so self
  times measure the library.

A hook whose target no longer exists is skipped and its metrics are
reported absent with a reason, so the same benchmark runs on a commit that
renamed or removed the name.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import statistics
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("expr", "bundle", "quadrature", "distribution", "operators",
          "topology", "verify", "cli")


@dataclasses.dataclass(frozen=True)
class Hook:
    layer: str
    name: str  # span name
    module: str
    attr: str  # "function" or "Class.method"


HOOKS = tuple(Hook(*h) for h in (
    ("expr", "expr.parse", "transdist.expr", "parse"),
    ("expr", "expr.diff", "transdist.expr", "Expr.diff"),
    ("expr", "expr.diff", "transdist.expr", "Expr.diff1"),
    ("expr", "expr.eval", "transdist.expr", "Expr.evaluate"),
    ("expr", "expr.eval_array", "transdist.expr", "Expr.eval_array"),
    ("expr", "expr.subst", "transdist.expr", "Expr.substitute"),
    ("expr", "expr.subst", "transdist.expr", "Expr.remap"),
    ("expr", "expr.support_box", "transdist.expr", "Expr.support_box"),
    ("bundle", "bundle.pullback", "transdist.bundle", "pullback_along_section"),
    ("bundle", "bundle.restrict_function", "transdist.bundle", "restrict_function"),
    ("bundle", "bundle.extend", "transdist.bundle", "extend_function"),
    ("bundle", "bundle.extend", "transdist.bundle", "extend_base_function"),
    ("quadrature", "quadrature.rule_build", "transdist.quadrature", "QuadratureRule.__init__"),
    ("quadrature", "quadrature.integrate", "transdist.quadrature",
     "QuadratureRule.integrate_values"),
    ("distribution", "distribution.evaluate", "transdist.distribution", "evaluate"),
    ("distribution", "distribution.hat_pair", "transdist.distribution", "hat_pair"),
    ("distribution", "distribution.restrict", "transdist.distribution", "restrict"),
    ("distribution", "distribution.pair", "transdist.distribution", "pair"),
    ("distribution", "distribution.family_derivative", "transdist.distribution",
     "family_derivative"),
    ("distribution", "distribution.module_action", "transdist.distribution",
     "module_action_base"),
    ("distribution", "distribution.module_action", "transdist.distribution",
     "module_action_total"),
    ("distribution", "distribution.support", "transdist.distribution", "total_support"),
    ("distribution", "distribution.support", "transdist.distribution", "base_support"),
    ("distribution", "distribution.localize", "transdist.distribution",
     "localize_decompose"),
    ("distribution", "distribution.separating_probe", "transdist.distribution",
     "separating_probe"),
    ("distribution", "distribution.base_value", "transdist.distribution",
     "BaseFunction.value"),
    ("distribution", "distribution.base_derivative", "transdist.distribution",
     "BaseFunction.derivative"),
    ("operators", "operators.compose", "transdist.operators", "compose"),
    ("operators", "operators.apply", "transdist.operators", "apply"),
    ("operators", "operators.apply_to_values", "transdist.operators", "apply_to_values"),
    ("operators", "operators.numeric_kernel", "transdist.operators",
     "NumericKernelTerm.values"),
    ("topology", "topology.lf_membership", "transdist.topology", "lf_membership"),
    ("topology", "topology.lfB_membership", "transdist.topology", "lfB_membership"),
    ("topology", "topology.seminorm", "transdist.topology", "seminorm_eval"),
    ("topology", "topology.pB_eval", "transdist.topology", "pB_eval"),
    ("topology", "topology.lattice_points", "transdist.topology", "lattice_points"),
    ("verify", "verify.restriction", "transdist.verify", "check_restriction_compat"),
    ("verify", "verify.leibniz", "transdist.verify", "check_leibniz"),
    ("verify", "verify.smoothness", "transdist.verify", "check_smoothness"),
    ("verify", "verify.duality", "transdist.verify", "check_duality"),
    ("verify", "verify.support", "transdist.verify", "check_support"),
    ("verify", "verify.localization", "transdist.verify", "check_localization"),
    ("cli", "cli.load_scene", "transdist.cli", "load_scene"),
    ("cli", "cli.run_checks", "transdist.cli", "run_checks"),
))

OP_HOOK = Hook("bench", "bench.op", "", "")

# metric -> (unit, how it is computed, key it reads)
#   self:     per-operation sum of the self times of spans with this name
#   calls:    per-operation count of outermost calls with this span name
#   counter:  per-operation counter "<span or layer>:<what>"
#   distinct: distinct requests per call within an operation
METRICS = {
    "expr.parse_s": ("s", "self", "expr.parse"),
    "expr.diff_s": ("s", "self", "expr.diff"),
    "expr.diff_calls": ("count", "calls", "expr.diff"),
    "expr.diff_out_nodes": ("count", "counter", "expr.diff:nodes"),
    "expr.diff_distinct_ratio": ("ratio", "distinct", "expr.diff"),
    "expr.subst_s": ("s", "self", "expr.subst"),
    "expr.eval_s": ("s", "self", "expr.eval"),
    "expr.eval_calls": ("count", "calls", "expr.eval"),
    "expr.eval_array_s": ("s", "self", "expr.eval_array"),
    "expr.eval_array_rows": ("count", "counter", "expr.eval_array:rows"),
    "expr.support_box_s": ("s", "self", "expr.support_box"),
    "expr.support_box_calls": ("count", "calls", "expr.support_box"),
    "bundle.pullback_s": ("s", "self", "bundle.pullback"),
    "bundle.restrict_function_s": ("s", "self", "bundle.restrict_function"),
    "quadrature.rule_builds": ("count", "calls", "quadrature.rule_build"),
    "quadrature.rule_build_s": ("s", "self", "quadrature.rule_build"),
    "quadrature.rule_points": ("count", "counter", "quadrature.rule_build:points"),
    "quadrature.rule_distinct_ratio": ("ratio", "distinct", "quadrature.rule_build"),
    "quadrature.integrate_s": ("s", "self", "quadrature.integrate"),
    "distribution.evaluate_s": ("s", "self", "distribution.evaluate"),
    "distribution.restrict_s": ("s", "self", "distribution.restrict"),
    "distribution.pair_s": ("s", "self", "distribution.pair"),
    "distribution.pair_calls": ("count", "calls", "distribution.pair"),
    "distribution.family_derivative_s": ("s", "self", "distribution.family_derivative"),
    "distribution.base_value_s": ("s", "self", "distribution.base_value"),
    "distribution.base_value_calls": ("count", "calls", "distribution.base_value"),
    "distribution.base_derivative_s": ("s", "self", "distribution.base_derivative"),
    "operators.compose_s": ("s", "self", "operators.compose"),
    "operators.apply_s": ("s", "self", "operators.apply"),
    "operators.numeric_kernel_calls": ("count", "calls", "operators.numeric_kernel"),
    "operators.numeric_kernel_s": ("s", "self", "operators.numeric_kernel"),
    "topology.lf_membership_s": ("s", "self", "topology.lf_membership"),
    "topology.lfB_membership_s": ("s", "self", "topology.lfB_membership"),
    "topology.seminorm_s": ("s", "self", "topology.seminorm"),
    "topology.lattice_points": ("count", "counter", "topology.lattice_points:rows"),
    "topology.pB_eval_calls": ("count", "calls", "topology.pB_eval"),
    "verify.restriction_s": ("s", "self", "verify.restriction"),
    "verify.leibniz_s": ("s", "self", "verify.leibniz"),
    "verify.smoothness_s": ("s", "self", "verify.smoothness"),
    "verify.duality_s": ("s", "self", "verify.duality"),
    "verify.support_s": ("s", "self", "verify.support"),
    "verify.cases": ("count", "counter", "verify:cases"),
    "verify.cases_failed": ("count", "counter", "verify:cases_failed"),
    "cli.load_scene_s": ("s", "self", "cli.load_scene"),
    **{f"{layer}.errors": ("count", "counter", f"{layer}:errors") for layer in LAYERS},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.absent = {}  # span name -> why one of its targets was not found
        self.installed = defaultdict(int)  # span name -> wrapped targets
        self.per_op = []  # one dict of sums per finished operation
        self._undo = []
        self._open = defaultdict(int)  # layer or span name -> open calls
        self._stack = []  # open recorded spans: [span index, child time]
        self._bias = 0.0  # recorder time so far, removed from span clocks
        self._op = -1
        self._cur = None
        self._expr_type = None
        self._names = {}
        self._span_name, self._span_parent, self._span_op = array("i"), array("i"), array("i")
        self._span_start, self._span_end = array("d"), array("d")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target that exists and re-bind imported names."""
        replaced = {}
        for hook in HOOKS:
            try:
                module = importlib.import_module(hook.module)
            except ImportError as err:
                self._missing(hook, f"module {hook.module} not importable: {err}")
                continue
            if "." in hook.attr:
                self._wrap_method(module, hook)
                continue
            original = getattr(module, hook.attr, None)
            if not callable(original):
                self._missing(hook, f"{hook.module}.{hook.attr} not found")
                continue
            replaced[id(original)] = self._wrapper(original, hook)
            self.installed[hook.name] += 1
        expr_module = sys.modules.get("transdist.expr")
        self._expr_type = getattr(expr_module, "Expr", None)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "transdist" or n.startswith("transdist.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, name, replaced[id(value)])
        # defaults such as verify's ``restrict_fn=dist.restrict`` captured
        # the original at definition time
        seen = set()
        for module in modules:
            for value in list(vars(module).values()):
                for fn in _functions_of(value, module.__name__):
                    self._patch_defaults(fn, replaced, seen)

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)
        self.active = False

    def _missing(self, hook: Hook, reason: str) -> None:
        self.absent.setdefault(hook.name, reason)

    def _set(self, target, name: str, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap_method(self, module, hook: Hook) -> None:
        cls_name, meth = hook.attr.split(".")
        cls = getattr(module, cls_name, None)
        if not isinstance(cls, type):
            self._missing(hook, f"{hook.module}.{cls_name} not found")
            return
        classes, todo = [], [cls]
        while todo:
            c = todo.pop()
            classes.append(c)
            todo.extend(c.__subclasses__())
        owners = [c for c in classes if callable(c.__dict__.get(meth))]
        if not owners:
            self._missing(hook, f"{hook.module}.{hook.attr} not found")
            return
        for c in owners:
            self._set(c, meth, self._wrapper(c.__dict__[meth], hook))
        self.installed[hook.name] += 1

    def _patch_defaults(self, fn, replaced, seen) -> None:
        if id(fn) in seen:
            return
        seen.add(id(fn))
        defaults = fn.__defaults__
        if defaults and any(id(d) in replaced for d in defaults):
            self._set(fn, "__defaults__",
                      tuple(replaced.get(id(d), d) for d in defaults))
        kwdefaults = fn.__kwdefaults__
        if kwdefaults and any(id(d) in replaced for d in kwdefaults.values()):
            self._set(fn, "__kwdefaults__",
                      {k: replaced.get(id(d), d) for k, d in kwdefaults.items()})
        for cell in fn.__closure__ or ():
            try:
                inner = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(inner, types.FunctionType):
                self._patch_defaults(inner, replaced, seen)

    def _wrapper(self, fn, hook: Hook):
        call = self._call

        def traced(*args, **kwargs):
            return call(hook, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", hook.attr)
        traced.__qualname__ = getattr(fn, "__qualname__", hook.attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- recording ----------------------------------------------------------

    def run_op(self, op: int, fn, *args):
        """Run one operation under a root span; per-op sums go to per_op."""
        self._op = op
        self._cur = {"self": defaultdict(float), "count": defaultdict(int),
                     "distinct": defaultdict(set), "keep": []}
        self.active = True
        try:
            return self._call(OP_HOOK, fn, args, {})
        finally:
            self.active = False
            cur = self._cur
            self.per_op.append({"self": dict(cur["self"]), "count": dict(cur["count"]),
                                "distinct": {k: len(v) for k, v in cur["distinct"].items()}})
            self._cur = None

    def _call(self, hook: Hook, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        enter = perf_counter()
        layer, name = hook.layer, hook.name
        record = self._open[layer] == 0
        counted = self._open[name] == 0
        self._open[layer] += 1
        self._open[name] += 1
        index = -1
        if record:
            index = len(self._span_start)
            self._span_name.append(self._name_id(name))
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_op.append(self._op)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
            self._stack.append([index, 0.0])
        start = perf_counter()
        self._bias += start - enter
        start -= self._bias
        if record:
            self._span_start[index] = start
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            stop = perf_counter()
            end = stop - self._bias
            self._open[layer] -= 1
            self._open[name] -= 1
            cur = self._cur
            if record:
                self._span_end[index] = end
                _, child = self._stack.pop()
                duration = end - start
                cur["self"][name] += duration - child
                if self._stack:
                    self._stack[-1][1] += duration
                if failed:
                    cur["count"][f"{layer}:errors"] += 1
            if counted:
                cur["count"][name] += 1
                if not failed:
                    self._post(hook, args, kwargs, result, cur)
            self._bias += perf_counter() - stop

    def _post(self, hook: Hook, args, kwargs, result, cur) -> None:
        name, count = hook.name, cur["count"]
        if name == "expr.diff":
            expr = args[0]
            alpha = args[1] if len(args) > 1 else kwargs.get("alpha", kwargs.get("slot"))
            if hook.attr.endswith("diff1"):
                alpha = tuple(int(i == alpha) for i in range(expr.dim))
            cur["keep"].append(expr)  # keeps id() unique within the operation
            cur["distinct"][name].add((id(expr), tuple(alpha)))
            count["expr.diff:nodes"] += _distinct_nodes(result, self._expr_type)
        elif name == "expr.eval_array":
            pts = args[1] if len(args) > 1 else kwargs.get("pts")
            count["expr.eval_array:rows"] += len(pts)
        elif name == "quadrature.rule_build":
            rule = args[0]
            box = args[1] if len(args) > 1 else kwargs.get("box")
            order = args[2] if len(args) > 2 else kwargs.get("order")
            cur["distinct"][name].add((box, order))
            count["quadrature.rule_build:points"] += len(getattr(rule, "points", ()))
        elif name == "topology.lattice_points":
            count["topology.lattice_points:rows"] += len(result)
        elif name.startswith("verify."):
            cases = getattr(result, "cases", ())
            count["verify:cases"] += len(cases)
            count["verify:cases_failed"] += sum(
                1 for c in cases if not (c.passed or c.skipped))

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names[name] = len(self._names)
        return self._names[name]

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: medians over operations of per-op sums.

        Returns name -> (value or None, unit, reason it is absent or None).
        """
        out = {}
        for metric, (unit, kind, key) in METRICS.items():
            reason = self._absence(key)
            if reason is None and not self.per_op:
                reason = "no traced operations"
            if reason:
                out[metric] = (None, unit, reason)
                continue
            values = [_per_op_value(op, kind, key) for op in self.per_op]
            median = statistics.median_low if unit == "count" else statistics.median
            out[metric] = (median(values), unit, None)
        return out

    def _absence(self, key: str):
        source = key.split(":")[0]
        if source in LAYERS:
            if any(self.installed[h.name] for h in HOOKS if h.layer == source):
                return None
            return f"no {source} entry point found"
        if self.installed[source]:
            return None
        return self.absent.get(source, f"{source} not hooked")

    def span_count(self) -> int:
        return len(self._span_start)

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed.

        Start and end are perf_counter seconds with the recorder's own time
        removed; they are not host-speed normalized.
        """
        names = {i: n for n, i in self._names.items()}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._span_start)):
                f.write(f"{self._span_op[i]}\t{i}\t{self._span_parent[i]}\t"
                        f"{names[self._span_name[i]]}\t{self._span_start[i]!r}\t"
                        f"{self._span_end[i]!r}\n")


def _per_op_value(op: dict, kind: str, key: str):
    if kind == "self":  # in normalized seconds, like the end-to-end times
        return op["self"].get(key, 0.0) * op.get("scale", 1.0)
    if kind == "distinct":
        calls = op["count"].get(key, 0)
        return op["distinct"].get(key, 0) / calls if calls else 0.0
    return op["count"].get(key, 0)


def _functions_of(value, module_name: str):
    """Plain functions defined in a module: top-level ones and methods."""
    if isinstance(value, types.FunctionType):
        yield value
    elif isinstance(value, type) and value.__module__ == module_name:
        for attr in vars(value).values():
            if isinstance(attr, types.FunctionType):
                yield attr


def _children(node, expr_type):
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if isinstance(v, expr_type):
                yield v
            elif isinstance(v, tuple):
                yield from (c for c in v if isinstance(c, expr_type))
    else:
        yield from getattr(node, "_children", tuple)()


def _distinct_nodes(root, expr_type) -> int:
    """Nodes reachable from root, counted once per object identity."""
    if expr_type is None or not isinstance(root, expr_type):
        return 0
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(_children(node, expr_type))
    return len(seen)
