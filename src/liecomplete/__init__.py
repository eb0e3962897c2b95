"""Numerical completion of Lie algebra actions to local group actions.

The package lifts paths in a Lie group through the graph foliation that an
algebra action induces on G x M, detects when a lift escapes the chart
before the path ends, reconstructs group elements over manifold loops, and
classifies graph points into leaves for the worked scenarios.
"""

import importlib.util

__version__ = "0.1.0"

# each exported name under the module that defines it; a name, or a submodule,
# is imported when it is first read (PEP 562), so a command loads what it runs
_EXPORTS = {
    "_record": ("InputError",),
    "algebra": ("AbelianGroup", "LieAlgebra", "MatrixGroup", "structure_constants_from_matrix_basis"),
    "completion": ("HolonomyElement", "IsotropyReport", "LeafRecord",
                   "isotropy", "loop_to_group", "same_leaf"),
    "expr": ("Expr", "ExprDomainError", "ExprNameError", "ExprSyntaxError", "parse"),
    "flow": ("COMPLETE", "ESCAPED", "STEP_LIMIT", "IntegratorConfig"),
    "lift": ("ExpSeg", "GPath", "LiftResult", "LinearSeg", "lift_path"),
    "manifold": ("Domain", "GAction", "OutsideDomainError", "check_homomorphism"),
    "scenarios": ("build", "circle_loop_path", "leaf_invariant", "scenario_names"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """An exported name from its module, or else the submodule ``name``."""
    module = f"{__name__}.{_MODULE_OF.get(name, name)}"
    if "." in name or importlib.util.find_spec(module) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(module)
    globals()[name] = value = getattr(value, name) if name in _MODULE_OF else value
    return value
