"""Interoperability with :mod:`networkx` file formats.

The communication graph of an instance can be exported as GraphML (or any
other networkx-supported format) for visualisation in external tools; the
inverse direction re-builds an instance from a graph whose nodes carry a
``kind`` attribute and whose edges carry a ``coeff`` attribute.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from .._types import NodeType
from ..core.builder import InstanceBuilder
from ..core.instance import MaxMinInstance
from ..exceptions import SerializationError

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first GraphML call
    import networkx as nx

__all__ = ["to_networkx", "from_networkx", "save_graphml", "load_graphml"]


def to_networkx(instance: MaxMinInstance, stringify: bool = True) -> "nx.Graph":
    """The communication graph with JSON/GraphML-friendly node names.

    With ``stringify`` (default) nodes are renamed to ``"V:<id>"``,
    ``"I:<id>"``, ``"K:<id>"`` strings so that GraphML serialisation works
    for arbitrary id types.
    """
    import networkx as nx

    graph = instance.communication_graph()
    if not stringify:
        # communication_graph() returns the instance's cached graph; hand out
        # a copy so callers may freely annotate or prune the export.
        return graph.copy()
    mapping = {node: f"{node[0].short}:{node[1]}" for node in graph.nodes}
    renamed = nx.relabel_nodes(graph, mapping)
    for node, data in renamed.nodes(data=True):
        data["kind"] = data["kind"].value
    return renamed


def from_networkx(graph: "nx.Graph", name: str = "from-graphml") -> MaxMinInstance:
    """Rebuild an instance from a graph produced by :func:`to_networkx`."""
    builder = InstanceBuilder(name=name)
    kinds = {}
    for node, data in graph.nodes(data=True):
        kind = data.get("kind")
        if isinstance(kind, NodeType):
            kind = kind.value
        if kind not in ("agent", "constraint", "objective"):
            raise SerializationError(f"node {node!r} has no valid 'kind' attribute")
        kinds[node] = kind
        label = str(node).split(":", 1)[-1]
        if kind == "agent":
            builder.add_agent(label)
        elif kind == "constraint":
            builder.add_constraint(label)
        else:
            builder.add_objective(label)

    for u, v, data in graph.edges(data=True):
        coeff = float(data.get("coeff", 1.0))
        ku, kv = kinds[u], kinds[v]
        if "agent" not in (ku, kv) or ku == kv:
            raise SerializationError(f"edge {u!r}–{v!r} does not join an agent to a row node")
        agent, row, row_kind = (u, v, kv) if ku == "agent" else (v, u, ku)
        agent_label = str(agent).split(":", 1)[-1]
        row_label = str(row).split(":", 1)[-1]
        if row_kind == "constraint":
            builder.add_constraint_term(row_label, agent_label, coeff)
        else:
            builder.add_objective_term(row_label, agent_label, coeff)
    return builder.build()


def save_graphml(instance: MaxMinInstance, path: Union[str, Path]) -> Path:
    """Write the communication graph as GraphML."""
    import networkx as nx

    path = Path(path)
    nx.write_graphml(to_networkx(instance), path)
    return path


def load_graphml(path: Union[str, Path], name: str = "from-graphml") -> MaxMinInstance:
    """Load an instance from a GraphML file written by :func:`save_graphml`."""
    import networkx as nx

    return from_networkx(nx.read_graphml(Path(path)), name=name)
