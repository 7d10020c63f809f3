"""Serialization and graph-format interoperability."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".graphml": ("from_networkx", "load_graphml", "save_graphml", "to_networkx"),
        ".serialization": (
            "instance_digest",
            "instance_from_json",
            "instance_to_json",
            "load_instance",
            "save_instance",
            "save_solution",
            "solution_to_json",
        ),
    },
)

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "instance_digest",
    "save_instance",
    "load_instance",
    "solution_to_json",
    "save_solution",
    "to_networkx",
    "from_networkx",
    "save_graphml",
    "load_graphml",
]
