"""The package's design rules, checked on its source.

Every fibre integral goes through ``quadrature.integrate`` (or, for the
composed-kernel matrix product, ``quadrature.rule``), so quadrature rules
are built in ``quadrature.py`` alone; every tensor grid comes from
``quadrature.tensor_grid``, no loop in ``operators.py`` visits a rule's
nodes one by one, and no loop in ``topology.py`` visits lattice points one
by one.  The default quadrature order and grid density
are constants, each read in the one function that resolves ``None``, and
no module rebinds a global: settings travel as arguments.
"""

import ast
from pathlib import Path

import transdist

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
SETTING_TAKERS = {"evaluate", "hat_pair", "pair", "pair_at", "apply", "compose",
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
    blocks: by ``_blocks(...)``, or a ``range`` that steps by PAIR_BLOCK."""
    def cuts_into_blocks(it):
        if not isinstance(it, ast.Call):
            return False
        if _name(it.func) == "_blocks":
            return True
        return (_name(it.func) == "range" and len(it.args) == 3
                and _name(it.args[2]) == "PAIR_BLOCK")

    def loops(n):
        return isinstance(n, (ast.For, ast.comprehension))

    def loops_over_points(n):
        return (loops(n) and not cuts_into_blocks(n.iter)
                and any(_name(sub) in LATTICE_ARRAYS for sub in ast.walk(n.iter)))

    def in_topology(match):
        return [hit for hit in nodes_where(match) if hit[0] == "topology.py"]

    blocked = in_topology(lambda n: loops(n) and cuts_into_blocks(n.iter))
    assert {scope for _, scope in blocked} == {"_blocks", "lf_membership",
                                               "lfB_membership"}  # loops are seen
    assert in_topology(loops_over_points) == []


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


def test_leibniz_pairs_on_the_total_space():
    """``check_leibniz`` restricts nothing: it pairs each family derivative
    with the total-space derivatives of F (``distribution.pair_at``)."""
    assert ("verify.py", "check_leibniz") in calls_of("pair_at")
    for name in ("restrict", "restrict_function", "pair"):
        hits = calls_of(name)
        assert hits  # the calls are seen elsewhere
        assert ("verify.py", "check_leibniz") not in hits


def test_verify_evaluates_base_functions_over_grids():
    """Every base function in ``verify.py`` is evaluated over a whole grid by
    ``_at_points``, never by ``BaseFunction.value`` point by point."""
    value_calls = calls_of("value")
    assert {module for module, _ in value_calls} >= {"cli.py", "distribution.py"}
    assert [hit for hit in value_calls
            if hit[0] == "verify.py" and hit[1] != "_at_points"] == []
    assert {scope for module, scope in calls_of("_at_points") if module == "verify.py"} >= {
        "check_restriction_compat", "check_leibniz", "check_smoothness",
        "at_points",  # check_duality's local helper
        "check_support", "check_localization"}


def test_pair_at_evaluates_each_batch_of_roots_over_its_rows_at_once():
    """``pair_at`` makes no per-root scalar ``.evaluate(`` or ``.value(``
    call: the weights, each section's components and its fibre derivatives
    go through ``ex.evaluate_many``, one pass over the rows each."""
    def method_calls(name):
        return nodes_where(lambda n: isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute) and n.func.attr == name)

    in_pair_at = ("distribution.py", "pair_at")
    assert in_pair_at in method_calls("evaluate_many")
    for name in ("evaluate", "value"):
        hits = method_calls(name)
        assert {module for module, _ in hits} >= {"distribution.py"}  # the calls are seen
        assert in_pair_at not in hits
