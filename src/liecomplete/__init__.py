"""Numerical completion of Lie algebra actions to local group actions.

The package lifts paths in a Lie group through the graph foliation that an
algebra action induces on G x M, detects when a lift escapes the chart
before the path ends, reconstructs group elements over manifold loops, and
classifies graph points into leaves for the worked scenarios.
"""

from .algebra import AbelianGroup, LieAlgebra, MatrixGroup, structure_constants_from_matrix_basis
from .completion import HolonomyElement, IsotropyReport, LeafRecord, isotropy, loop_to_group, same_leaf
from .expr import Expr, ExprDomainError, ExprNameError, ExprSyntaxError, parse
from .flow import COMPLETE, ESCAPED, STEP_LIMIT, IntegratorConfig
from .lift import ExpSeg, GPath, LiftResult, LinearSeg, lift_path
from .manifold import Domain, GAction, OutsideDomainError, check_homomorphism
from .scenarios import build, circle_loop_path, leaf_invariant, scenario_names

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "COMPLETE",
    "Domain",
    "ESCAPED",
    "ExpSeg",
    "Expr",
    "ExprDomainError",
    "ExprNameError",
    "ExprSyntaxError",
    "GAction",
    "GPath",
    "HolonomyElement",
    "IntegratorConfig",
    "IsotropyReport",
    "LeafRecord",
    "LieAlgebra",
    "LiftResult",
    "LinearSeg",
    "MatrixGroup",
    "OutsideDomainError",
    "STEP_LIMIT",
    "build",
    "check_homomorphism",
    "circle_loop_path",
    "isotropy",
    "leaf_invariant",
    "lift_path",
    "loop_to_group",
    "parse",
    "same_leaf",
    "scenario_names",
    "structure_constants_from_matrix_basis",
    "__version__",
]
