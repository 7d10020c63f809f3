"""Core data model and exact solvers for max-min linear programs.

This subpackage contains everything that is *not* specific to the local
algorithm: the instance model, a builder, solution objects, validation,
degenerate-case preprocessing and an exact LP solver used as ground truth.
"""

from .._lazy import lazy_exports

# ``preprocess`` names both a submodule and the function it defines.  Once
# the submodule is imported, the import system binds the module object here
# and ``__getattr__`` never runs for that name, so the function is bound
# eagerly (every command that solves loads it anyway).
from .preprocess import preprocess

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".builder": ("InstanceBuilder",),
        ".compiled": ("CompiledInstance",),
        ".instance": ("DegreeStatistics", "MaxMinInstance"),
        ".lp": ("LPResult", "best_response_value", "optimum_value", "solve_maxmin_lp"),
        ".preprocess": ("PreprocessResult",),
        ".solution": ("FeasibilityReport", "Solution"),
        ".validation": (
            "check_degree_bounds",
            "require_nondegenerate",
            "require_special_form",
            "validate_instance",
            "validation_issues",
        ),
    },
)

__all__ = [
    "InstanceBuilder",
    "CompiledInstance",
    "MaxMinInstance",
    "DegreeStatistics",
    "Solution",
    "FeasibilityReport",
    "LPResult",
    "solve_maxmin_lp",
    "optimum_value",
    "best_response_value",
    "PreprocessResult",
    "preprocess",
    "validate_instance",
    "validation_issues",
    "require_nondegenerate",
    "require_special_form",
    "check_degree_bounds",
]
