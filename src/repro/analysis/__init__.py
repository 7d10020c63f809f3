"""Measurement, sweeping and reporting utilities for the experiments."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".indistinguishability": (
            "IndistinguishabilityResult",
            "agent_view_classes",
            "best_local_ratio_bound",
            "build_view",
            "view_signature",
        ),
        ".ratios": ("compare_algorithms", "evaluate_solution", "measured_ratio"),
        ".reporting": ("format_markdown_table", "format_table", "format_value", "summarise_column"),
        ".sweeps": ("group_rows", "run_ratio_sweep", "worst_case_by"),
    },
)

__all__ = [
    "measured_ratio",
    "evaluate_solution",
    "compare_algorithms",
    "run_ratio_sweep",
    "group_rows",
    "worst_case_by",
    "format_table",
    "format_markdown_table",
    "format_value",
    "summarise_column",
    "build_view",
    "view_signature",
    "agent_view_classes",
    "best_local_ratio_bound",
    "IndistinguishabilityResult",
]
