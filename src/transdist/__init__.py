"""Calculus on compactly supported transversal distributions.

A transversal distribution on the trivial bundle R^l x R^k -> R^l is a
smooth family of compactly supported distributions along the fibres; this
package represents the finite-order ones symbolically, as sums of terms
(``Term``: a Dirac section term or a smooth density), evaluates them
exactly or by fixed-order quadrature, and verifies the calculus identities
they satisfy: restriction compatibility, module actions, support
projections, localization at a point, the duality pairing, and
kernel-operator composition on the pair bundle.

Quick start
-----------
>>> from transdist import TrivialBundle, dirac_section, evaluate
>>> from transdist.bundle import section_from_strings
>>> b = TrivialBundle(1, 1)
>>> T = dirac_section(section_from_strings(b, ["x0"]), b.parse_base("bump(x0)"))
>>> F = b.parse_total("2 + x0*y0")
>>> round(evaluate(T, F).value((0.5,)), 6)
0.593094
"""

from .bundle import Section, TrivialBundle, extend_function, restrict_function
from .distribution import (BaseFunction, PointDistribution, Term, TransversalDistribution,
                           base_support, density, dirac_at, dirac_section,
                           evaluate, family_derivative, hadamard_factor,
                           localize_decompose, module_action_base,
                           module_action_total, pair, restrict,
                           separating_probe, total_support, zero_distribution)
from .expr import Box, DimensionError, Expr, ExprError, ExprSyntaxError, parse
from .operators import KernelOperator, apply, compose, density_kernel, graph_kernel
from .quadrature import BUMP_INTEGRAL, QuadratureRule, integrate
from .topology import (BoundedFamily, LFProfile, Seminorm, lfB_membership,
                       lf_membership, pB_eval, seminorm_eval)

__version__ = "0.1.0"

__all__ = [
    "BUMP_INTEGRAL",
    "BaseFunction",
    "BoundedFamily",
    "Box",
    "DimensionError",
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "KernelOperator",
    "LFProfile",
    "PointDistribution",
    "QuadratureRule",
    "Section",
    "Seminorm",
    "Term",
    "TransversalDistribution",
    "TrivialBundle",
    "apply",
    "base_support",
    "compose",
    "density",
    "density_kernel",
    "dirac_at",
    "dirac_section",
    "evaluate",
    "extend_function",
    "family_derivative",
    "graph_kernel",
    "hadamard_factor",
    "integrate",
    "lfB_membership",
    "lf_membership",
    "localize_decompose",
    "module_action_base",
    "module_action_total",
    "pB_eval",
    "pair",
    "parse",
    "restrict",
    "restrict_function",
    "seminorm_eval",
    "separating_probe",
    "total_support",
    "zero_distribution",
]
