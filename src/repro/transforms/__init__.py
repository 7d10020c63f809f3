"""Local transformations of paper §4 and their composition."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".augment_singleton_constraints": ("AugmentSingletonConstraints",),
        ".augment_singleton_objectives": ("AugmentSingletonObjectives",),
        ".base": ("Transform", "TransformResult", "compose"),
        ".normalise_coefficients": ("NormaliseCoefficients",),
        ".pipeline": ("apply_chain", "canonical_transforms", "to_special_form"),
        ".reduce_constraint_degree": ("ReduceConstraintDegree",),
        ".split_agents_by_objective": ("SplitAgentsByObjective",),
        ".vectorized": ("CompiledTransformResult", "vectorized_to_special_form"),
    },
)

__all__ = [
    "Transform",
    "TransformResult",
    "compose",
    "AugmentSingletonConstraints",
    "ReduceConstraintDegree",
    "SplitAgentsByObjective",
    "AugmentSingletonObjectives",
    "NormaliseCoefficients",
    "canonical_transforms",
    "apply_chain",
    "to_special_form",
    "CompiledTransformResult",
    "vectorized_to_special_form",
]
