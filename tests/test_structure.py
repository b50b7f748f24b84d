"""The package's design rules, checked on its source.

Every fibre integral goes through ``quadrature.integrate`` (or, for the
composed-kernel matrix product, ``quadrature.rule``), so quadrature rules
are built, and the default order is read, in ``quadrature.py`` alone; and
every tensor grid comes from ``quadrature.tensor_grid``.
"""

import ast
from pathlib import Path

import transdist

PACKAGE = Path(transdist.__file__).parent


def calls_of(name: str):
    """(module file, enclosing function) of every call of ``name`` in the package."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def test_package_sources_are_found():
    assert {"quadrature.py", "distribution.py", "operators.py"} <= {
        p.name for p in PACKAGE.glob("*.py")}
    assert calls_of("integrate")


def test_rules_are_built_only_in_quadrature():
    assert [module for module, _ in calls_of("QuadratureRule")] == ["quadrature.py"]


def test_default_order_is_read_only_in_quadrature():
    assert {module for module, _ in calls_of("default_order")} <= {"quadrature.py"}


def test_one_tensor_grid_helper():
    assert calls_of("meshgrid") == [("quadrature.py", "tensor_grid")]
