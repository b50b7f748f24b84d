"""The package's design rules, checked on its source.

Every fibre integral goes through ``quadrature.integrate`` (or, for the
composed-kernel matrix product, ``quadrature.rule``), so quadrature rules
are built in ``quadrature.py`` alone; every tensor grid comes from
``quadrature.tensor_grid``, no loop in ``operators.py`` visits a rule's
nodes one by one, and no loop in ``topology.py`` visits lattice points one
by one.  The default quadrature order and grid density
are constants, each read in the one function that resolves ``None``, and
no module rebinds a global: settings travel as arguments.  The pass budget
and the reuse of values built from one grid each have one owner in
``quadrature.py``, and every expression node is built by ``expr._node``.
"""

import ast
import graphlib
from dataclasses import fields
from pathlib import Path

import transdist
from transdist import expr as ex

PACKAGE = Path(transdist.__file__).parent


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def nodes_where(match):
    """(module file, enclosing function) of every package AST node ``match`` accepts."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if match(node):
            found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def calls_of(name: str):
    return nodes_where(lambda n: isinstance(n, ast.Call) and _name(n.func) == name)


def reads_of(name: str):
    return nodes_where(lambda n: isinstance(getattr(n, "ctx", None), ast.Load)
                       and _name(n) == name)


def sibling_imports() -> dict:
    """Each package module's name, mapped to the set of package modules it
    reads by ``from . import X`` or ``from .X import ...``."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem] |= ({node.module} if node.module
                                     else {a.name for a in node.names})
    return graph


def test_package_imports_form_no_cycle():
    """The modules import one another in a topological order.  The
    expression kernel imports no sibling: it owns the sums its ``Sum`` node
    takes (``fsum_list``, ``row_fsum``), which ``quadrature.fsum`` calls."""
    graph = sibling_imports()
    assert graph["quadrature"] == {"expr"}  # the walk sees the imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert graph["expr"] == set()
    for name in ("fsum_list", "row_fsum"):
        assert not hasattr(transdist.quadrature, name)


def test_package_sources_are_found():
    assert {"quadrature.py", "distribution.py", "operators.py"} <= {
        p.name for p in PACKAGE.glob("*.py")}
    assert calls_of("integrate")
    assert reads_of("DEFAULT_ORDER")


def test_rules_are_built_only_in_quadrature():
    assert [module for module, _ in calls_of("QuadratureRule")] == ["quadrature.py"]


def test_default_order_is_read_only_in_quadrature():
    assert reads_of("DEFAULT_ORDER") == [("quadrature.py", "rule")]
    assert reads_of("DEFAULT_GRID_DENSITY") == [("topology.py", "lattice_pitch")]


def test_no_module_rebinds_a_global():
    assert nodes_where(lambda n: isinstance(n, ast.Global)) == []


# Library calls that take a quadrature order or a grid density.
SETTING_TAKERS = {"evaluate", "pair", "pair_table", "restriction_table",
                  "apply", "compose",
                  "seminorm_eval", "lf_membership", "lfB_membership", "check_restriction_compat",
                  "check_leibniz", "check_smoothness", "check_duality", "check_support",
                  "check_localization"}


def test_cli_and_verify_pass_their_settings_on():
    """Outputs cannot show every dropped order: a probe outside the support
    integrates to exactly 0 at any order.  So the source is checked too."""
    def takes_setting(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and _name(n.func.value) in {"dist", "ops", "topology", "verify"}
                and n.func.attr in SETTING_TAKERS)

    def passes_setting(n):
        passed = n.args + [k.value for k in n.keywords]
        return any(_name(a) in {"order", "quad_order", "grid_density"} for a in passed)

    takers = [hit for hit in nodes_where(takes_setting) if hit[0] in ("cli.py", "verify.py")]
    assert {module for module, _ in takers} == {"cli.py", "verify.py"}
    assert [hit for hit in nodes_where(lambda n: takes_setting(n) and not passes_setting(n))
            if hit[0] in ("cli.py", "verify.py")] == []


def test_no_loop_in_operators_runs_over_rule_nodes():
    """Kernels take every quadrature node in one pair-grid pass (see
    ``operators.pair_values``), never one node at a time."""
    def loops_over_points(n):
        return (isinstance(n, (ast.For, ast.comprehension))
                and any(_name(sub) == "points" for sub in ast.walk(n.iter)))

    def in_operators(match):
        return [hit for hit in nodes_where(match) if hit[0] == "operators.py"]

    assert in_operators(lambda n: isinstance(n, ast.comprehension))  # loops are seen
    assert in_operators(loops_over_points) == []


# Names that hold lattice points in topology.py, and the calls that make them.
LATTICE_ARRAYS = {"pts", "block", "points", "lattice_points", "_shell_points"}


def test_no_loop_in_topology_runs_over_lattice_points():
    """Scans take each block of lattice points in one array pass, never one
    point at a time.  A loop may mention a lattice array only to cut it into
    blocks, by ``quadrature.row_blocks(...)``."""
    def cuts_into_blocks(it):
        return isinstance(it, ast.Call) and _name(it.func) == "row_blocks"

    def loops(n):
        return isinstance(n, (ast.For, ast.comprehension))

    def loops_over_points(n):
        return (loops(n) and not cuts_into_blocks(n.iter)
                and any(_name(sub) in LATTICE_ARRAYS for sub in ast.walk(n.iter)))

    def in_topology(match):
        return [hit for hit in nodes_where(match) if hit[0] == "topology.py"]

    blocked = in_topology(lambda n: loops(n) and cuts_into_blocks(n.iter))
    assert {scope for _, scope in blocked} == {"_scan"}  # loops are seen
    assert in_topology(loops_over_points) == []


def test_one_owner_of_the_pass_budget():
    """Every pass over many rows is cut by ``quadrature.row_blocks``, the one
    reader of ``PAIR_BLOCK``, except ``expr.row_fsum``: its fixed
    ``_ROW_BLOCK`` keeps the expression kernel free of sibling imports, and
    cutting it by ``row_blocks`` made lattice-scan slower (see its comment)."""
    assert reads_of("PAIR_BLOCK") == [("quadrature.py", "row_blocks")]
    assert set(calls_of("row_blocks")) == {("quadrature.py", "integrate_rows"),
                                           ("operators.py", "pair_values"),
                                           ("topology.py", "_scan")}


def test_one_owner_of_grid_reuse():
    """Values built from one grid are reused through ``quadrature.kept``,
    keyed on an array's content by ``quadrature.grid_key``, the one caller of
    ``.tobytes()``; no closure keeps a memo by rebinding a ``nonlocal``.
    ``kept`` is the one cache of a last entry: a term's integrand, a
    function's restriction to a fibre, a fibre function's extension to a
    bundle and the fibre-only frontier of a grid pass (``expr.grid_values``
    asks its caller for it) go through it too."""
    assert calls_of("tobytes") == [("quadrature.py", "grid_key")]
    assert nodes_where(lambda n: isinstance(n, ast.Nonlocal)) == []
    assert calls_of("kept") == [("bundle.py", "restrict_function"),
                                ("bundle.py", "extend_function"),
                                ("distribution.py", "integrand"),
                                ("distribution.py", "values"),  # QuadPart's
                                ("distribution.py", "values"),  # its frontier
                                ("distribution.py", "values"),  # NumericPart's
                                ("operators.py", "pair_values"),  # a weight's frontier
                                ("operators.py", "fn"),  # kernel o Dirac: S and f2(S)
                                ("operators.py", "fn")]  # density o density


def test_membership_checks_share_one_scan():
    """Both LF membership checks hand their values to ``_scan`` and loop
    over nothing themselves."""
    for name in ("lf_membership", "lfB_membership"):
        assert ("topology.py", name) in calls_of("_scan")
        assert ("topology.py", name) not in nodes_where(
            lambda n: isinstance(n, (ast.For, ast.While, ast.comprehension)))


def test_one_tensor_grid_helper():
    assert calls_of("meshgrid") == [("quadrature.py", "tensor_grid")]


def test_node_evaluators_are_broadcast_native():
    """No ``_eval_arr`` asks for a row count: each node works at the shape
    of its children's values (see ``Expr.eval_grid``)."""
    def row_count(n):
        return ((isinstance(n, ast.Attribute) and n.attr == "shape")
                or (isinstance(n, ast.Call)
                    and _name(n.func) in {"full", "ones", "zeros", "empty"}))

    evaluators = [hit for hit in nodes_where(lambda n: isinstance(n, ast.FunctionDef)
                                             and n.name == "_eval_arr")
                  if hit[0] == "expr.py"]
    assert len(evaluators) >= 8  # the node classes are seen
    assert [hit for hit in nodes_where(row_count) if hit == ("expr.py", "_eval_arr")] == []


def test_seminorm_evaluates_over_lattice_axes():
    assert ("topology.py", "seminorm_eval") in calls_of("lattice_axes")
    assert ("topology.py", "seminorm_eval") not in calls_of("lattice_points")


def test_topology_evaluates_no_expression_per_multi_index():
    """Every D^alpha F of a seminorm comes out of one ``grid_values`` pass:
    ``topology.py`` calls no per-expression evaluator, in a loop or not."""
    assert ("topology.py", "seminorm_eval") in calls_of("grid_values")
    for name in ("eval_grid", "eval_array", "evaluate", "evaluate_many"):
        hits = calls_of(name)
        assert hits  # the calls are seen elsewhere
        assert [hit for hit in hits if hit[0] == "topology.py"] == []


def test_leibniz_pairs_on_the_total_space():
    """``check_leibniz`` restricts nothing: it pairs each family derivative
    with the total-space derivatives of F, the whole tower in one
    ``distribution.pair_table``, and takes D^alpha T(F) from Taylor jets
    (``expr.taylor``)."""
    assert ("verify.py", "check_leibniz") in calls_of("pair_table")
    assert ("verify.py", "check_leibniz") in calls_of("taylor")
    for name in ("restrict", "restrict_function", "pair"):
        hits = calls_of(name)
        assert hits  # the calls are seen elsewhere
        assert ("verify.py", "check_leibniz") not in hits


def test_verify_evaluates_base_functions_over_grids():
    """Every base function in ``verify.py`` is evaluated over a whole grid by
    ``values_at``, never by ``BaseFunction.value`` point by point."""
    value_calls = calls_of("value")
    assert {module for module, _ in value_calls} >= {"cli.py", "distribution.py"}
    assert [hit for hit in value_calls
            if hit[0] == "verify.py" and hit[1] != "values_at"] == []
    assert {scope for module, scope in calls_of("values_at") if module == "verify.py"} >= {
        "check_restriction_compat", "check_leibniz", "check_smoothness",
        "at_points",  # check_duality's local helper
        "check_support", "check_localization"}


def test_pair_table_evaluates_each_batch_of_roots_over_its_rows_at_once():
    """``pair_table``, the one pairing entry point (there is no one-pair
    wrapper), makes no per-root scalar ``.evaluate(`` or ``.value(`` call:
    the weights, each section's components and its fibre derivatives go
    through ``ex.evaluate_many``, one pass over the rows each."""
    def method_calls(name):
        return nodes_where(lambda n: isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute) and n.func.attr == name)

    in_pair_table = ("distribution.py", "pair_table")
    assert in_pair_table in method_calls("evaluate_many")
    assert not hasattr(transdist.distribution, "pair_at")
    for name in ("evaluate", "value"):
        hits = method_calls(name)
        assert {module for module, _ in hits} >= {"distribution.py"}  # the calls are seen
        assert in_pair_table not in hits


def test_only_evaluate_many_chooses_between_scalar_and_array_evaluation():
    """Batches of pairings and of base-function values have one path each:
    ``pair_table`` and ``values_at`` evaluate their expressions through
    ``ex.evaluate_many``, ``restriction_table`` pairs its Dirac terms
    through ``pair_table``, no one-pair wrapper of ``pair_table`` exists,
    and none of them calls ``.eval_array(`` or ``.evaluate(``.  The row
    count picks the engine in ``expr.py`` alone."""
    def method_calls(name):
        return nodes_where(lambda n: isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute) and n.func.attr == name)

    batches = {("distribution.py", f) for f in ("pair_table", "restriction_table",
                                                "values_at")}
    assert {("distribution.py", "pair_table"),
            ("distribution.py", "values_at")} <= set(method_calls("evaluate_many"))
    assert ("distribution.py", "restriction_table") in calls_of("pair_table")
    assert not hasattr(transdist.distribution, "pair_at")
    assert ("distribution.py", "values") in calls_of("values_at")
    for name in ("eval_array", "evaluate"):
        hits = method_calls(name)
        assert hits  # the calls are seen elsewhere
        assert batches.isdisjoint(hits)
    assert {module for module, _ in reads_of("_ARRAY_MIN_ROWS")} == {"expr.py"}


def test_family_derivative_steps_walk_no_weight_dag():
    """Each new Dirac term of a family derivative is checked against the box
    of the term it comes from, so a step computes no support box."""
    for scope in ("_family_derivative_1", "_derived"):
        assert ("distribution.py", scope) not in calls_of("support_box")


def test_lfB_membership_takes_one_family_derivative_tower():
    assert ("topology.py", "lfB_membership") in calls_of("family_derivatives")
    assert ("topology.py", "lfB_membership") not in calls_of("family_derivative")


CONTAINER_BUILDERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque",
                      "WeakKeyDictionary", "WeakValueDictionary", "WeakSet"}


def _builds_a_container(value) -> bool:
    return isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                              ast.SetComp)) or (
        isinstance(value, ast.Call) and _name(value.func) in CONTAINER_BUILDERS)


def test_fibre_integrals_keep_no_module_level_cache():
    """Reused products and fibre integrals live on the term and the integrand
    node they belong to, not in a process-wide registry: neither module
    binds a container at module level or decorates a function with a cache,
    except the two caches of the quadrature rule itself."""
    for name in ("distribution.py", "quadrature.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        containers = [ast.unparse(node) for node in tree.body
                      if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                      and node.value is not None and _builds_a_container(node.value)]
        assert containers == [], name
        cached = [(name, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for d in node.decorator_list
                  if _name(d.func if isinstance(d, ast.Call) else d) in ("cache", "lru_cache")]
        assert cached == ([] if name == "distribution.py" else
                          [(name, "_gauss_nodes"), (name, "_cached_rule")])


def test_one_support_box_rule_per_term_kind():
    """A Dirac term's box is the section's graph over its weight's box, a
    density's is phi's, and both come from ``distribution.term_support``;
    the only other graph box is the pre-image box of a density o graph
    numeric kernel."""
    assert calls_of("section_graph_support") == [("distribution.py", "term_support"),
                                                 ("operators.py", "_compose_numeric")]
    assert ("operators.py", "_term_boxes") in calls_of("term_support")
    assert ("distribution.py", "total_support") in calls_of("term_support")


def test_localization_has_one_path():
    """Dirac and density terms share one factor split and build each T_i
    through ``module_action_base``; no second split helper exists, nor
    ``TrivialBundle.join``, which nothing called."""
    assert not hasattr(transdist.distribution, "_split_polynomial_envelope")
    assert not hasattr(transdist.TrivialBundle, "join")
    assert ("distribution.py", "localize_decompose") in calls_of("module_action_base")
    assert ("distribution.py", "localize_decompose") not in calls_of("Term")


def test_one_term_class_for_dirac_and_density_terms():
    """A Dirac section term and a density are one class, ``Term``, told
    apart by its section; numeric kernels, which have no symbolic form, are
    the only other term class, and nothing tests a term against ``Term``."""
    classes = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and node.name.endswith("Term")}
    assert classes == {"Term", "NumericKernelTerm"}

    def isinstance_of(name):
        def match(n):
            if not (isinstance(n, ast.Call) and _name(n.func) == "isinstance"):
                return False
            kinds = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
            return any(_name(k) == name for k in kinds)
        return match

    assert nodes_where(isinstance_of("NumericKernelTerm"))  # the walk sees them
    assert nodes_where(isinstance_of("Term")) == []


def test_bump_derivatives_use_no_fraction_polynomial_helpers():
    """``BumpRat._diff1`` runs its integer recurrence in place: the Fraction
    polynomial sum, product and derivative helpers are gone, and it calls
    no ``_poly_*`` helper."""
    tree = ast.parse((PACKAGE / "expr.py").read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert defined.isdisjoint({"_poly_mul", "_poly_add", "_poly_diff"})
    assert "_poly_eval_float" in defined  # the walk does see module-level helpers
    diff1 = next(f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "BumpRat"
                 for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "_diff1")
    called = {_name(n.func) for n in ast.walk(diff1) if isinstance(n, ast.Call)}
    assert "bump_rat" in called
    assert not any(name and name.startswith("_poly_") for name in called)


NODE_CLASSES = {"Const", "NamedConst", "Var", "Sum", "Product", "IntPow", "Exp", "Sin",
                "Cos", "BumpRat"}


def test_nodes_are_built_only_by_the_interning_constructor():
    """``expr._node`` is the one place that makes an expression node, so
    structurally equal nodes are one object.  A node built anywhere else
    would still be right, but unshared, and the sharing would erode
    without any other test failing.  So no module calls a node class, makes
    one through ``object.__new__``, or copies one by ``dataclasses.replace``
    (which would set a node's field)."""
    assert {name for name in NODE_CLASSES if isinstance(getattr(ex, name), type)} == NODE_CLASSES
    assert nodes_where(lambda n: isinstance(n, ast.Call) and _name(n.func) in NODE_CLASSES) == []
    assert nodes_where(lambda n: isinstance(n, ast.Call) and _name(n.func) == "__new__"
                       and any(_name(a) in NODE_CLASSES for a in n.args)) == []
    node_fields = {f.name for name in NODE_CLASSES for f in fields(getattr(ex, name))}
    replaced = [n for path in sorted(PACKAGE.glob("*.py"))
                for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(n, ast.Call) and _name(n.func) == "replace"]
    assert replaced  # the walk sees the term and base-function copies
    assert all(k.arg not in node_fields for n in replaced for k in n.keywords)
    assert ("expr.py", "_node") in nodes_where(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Subscript))


def test_node_equality_is_identity():
    """Equal nodes are one node, so ``==`` and ``hash`` are ``object``'s.  A
    node class declared without ``eq=False`` would bring back a structural
    pair that walks the expanded tree."""
    for name in NODE_CLASSES:
        cls = getattr(ex, name)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, name
