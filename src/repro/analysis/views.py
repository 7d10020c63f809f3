"""The port-numbering model (paper §1.1–1.2) and the anonymous views it yields.

Each node of the communication graph orders its incident edges ``1 … deg``.
The algorithm of the paper needs nothing more — no globally unique node
identifiers — and the inapproximability result holds even *with* unique
identifiers, so the weaker model is the honest one to simulate.  This module
holds that model as plain Python objects:

* :class:`PortNumbering` — a deterministic port assignment;
* :class:`LocalInput` — what one node knows before any communication;
* :class:`CommunicationNetwork` / :func:`build_network` — topology, ports
  and local inputs of one instance;
* :class:`ViewTree` — the radius-``d`` view of a node.

In ``d`` rounds a node can learn exactly its radius-``d`` *view tree*: its
own local input plus, recursively, the views its neighbours had one round
earlier, labelled by the port the information arrived on and the port on
the neighbour's side of that edge.  This is the standard view construction
for anonymous networks (Angluin 1980; Yamashita & Kameda 1996, both cited by
the paper) and precisely the unfolding of §3.  Experiment E2
(:mod:`repro.analysis.indistinguishability`) partitions agents by their
views, and the per-node simulator of :mod:`repro.oracle.distributed` runs
its protocols on these objects.  The message plane of
:mod:`repro.distributed` numbers its slots in the same port order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from .._types import GraphNode, NodeType, agent_node, constraint_node, objective_node
from ..core.instance import MaxMinInstance
from ..exceptions import SimulationError

__all__ = [
    "PortNumbering",
    "LocalInput",
    "CommunicationNetwork",
    "build_network",
    "ViewTree",
]


class PortNumbering:
    """Deterministic port assignment for every node of an instance's graph.

    Ports are numbered ``1 … deg(node)``.  For an agent the constraint ports
    come first (in canonical constraint order) followed by the objective
    ports; for constraints and objectives the agent ports follow canonical
    agent order.  This mirrors the paper's convention in §4.2 where "the last
    edge" of a node is meaningful.  Any assignment would do; determinism
    makes runs reproducible.
    """

    __slots__ = ("_neighbours", "_port_of")

    def __init__(self, instance: MaxMinInstance) -> None:
        self._neighbours: Dict[GraphNode, Tuple[GraphNode, ...]] = {}
        self._port_of: Dict[Tuple[GraphNode, GraphNode], int] = {}

        for v in instance.agents:
            node = agent_node(v)
            ordered: List[GraphNode] = [constraint_node(i) for i in instance.constraints_of_agent(v)]
            ordered.extend(objective_node(k) for k in instance.objectives_of_agent(v))
            self._register(node, ordered)
        for i in instance.constraints:
            node = constraint_node(i)
            self._register(node, [agent_node(v) for v in instance.agents_of_constraint(i)])
        for k in instance.objectives:
            node = objective_node(k)
            self._register(node, [agent_node(v) for v in instance.agents_of_objective(k)])

    def _register(self, node: GraphNode, neighbours: List[GraphNode]) -> None:
        self._neighbours[node] = tuple(neighbours)
        for port, neighbour in enumerate(neighbours, start=1):
            self._port_of[(node, neighbour)] = port

    # ------------------------------------------------------------------
    def degree(self, node: GraphNode) -> int:
        return len(self._neighbours[node])

    def neighbours(self, node: GraphNode) -> Tuple[GraphNode, ...]:
        """Neighbours in port order (index 0 ↔ port 1)."""
        return self._neighbours[node]

    def neighbour_at(self, node: GraphNode, port: int) -> GraphNode:
        """The neighbour reached through the given port (1-based)."""
        try:
            return self._neighbours[node][port - 1]
        except IndexError:
            raise SimulationError(
                f"node {node[0].short}:{node[1]!r} has no port {port} (degree {self.degree(node)})"
            ) from None

    def port_to(self, node: GraphNode, neighbour: GraphNode) -> int:
        """The port of ``node`` that leads to ``neighbour``."""
        try:
            return self._port_of[(node, neighbour)]
        except KeyError:
            raise SimulationError(
                f"{node[0].short}:{node[1]!r} is not adjacent to {neighbour[0].short}:{neighbour[1]!r}"
            ) from None

    def ports(self, node: GraphNode) -> Tuple[int, ...]:
        """All ports of a node, ``(1, …, deg)``."""
        return tuple(range(1, self.degree(node) + 1))

    def __contains__(self, node: GraphNode) -> bool:
        return node in self._neighbours

    def __len__(self) -> int:
        return len(self._neighbours)


class LocalInput:
    """The local input of one node (paper §1.1).

    Attributes
    ----------
    kind:
        Whether the node is an agent, constraint or objective.
    degree:
        Number of incident edges (= number of ports).
    port_kinds:
        For agents: mapping port → :class:`NodeType` of the neighbour
        (constraint or objective).  Constraints/objectives only see agents,
        so the mapping is constant for them.
    port_coefficients:
        For agents: mapping port → the coefficient ``a_iv`` or ``c_kv`` on
        that edge.  Constraints and objectives have no coefficients in their
        local input (the paper gives them only the incident edge set).
    """

    __slots__ = ("kind", "degree", "port_kinds", "port_coefficients")

    def __init__(
        self,
        kind: NodeType,
        degree: int,
        port_kinds: Dict[int, NodeType],
        port_coefficients: Dict[int, float],
    ) -> None:
        self.kind = kind
        self.degree = degree
        self.port_kinds = port_kinds
        self.port_coefficients = port_coefficients

    def constraint_ports(self) -> tuple:
        """Ports leading to constraints (agents only)."""
        return tuple(p for p, kind in self.port_kinds.items() if kind is NodeType.CONSTRAINT)

    def objective_ports(self) -> tuple:
        """Ports leading to objectives (agents only)."""
        return tuple(p for p, kind in self.port_kinds.items() if kind is NodeType.OBJECTIVE)

    def capacity(self) -> float:
        """``min_i 1/a_iv`` computed from the local input alone (agents only)."""
        caps = [1.0 / self.port_coefficients[p] for p in self.constraint_ports()]
        return min(caps) if caps else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalInput(kind={self.kind.short}, degree={self.degree})"


class CommunicationNetwork:
    """Topology + port numbering + local inputs for one instance."""

    __slots__ = ("instance", "ports", "local_inputs")

    def __init__(
        self,
        instance: MaxMinInstance,
        ports: PortNumbering,
        local_inputs: Dict[GraphNode, LocalInput],
    ) -> None:
        self.instance = instance
        self.ports = ports
        self.local_inputs = local_inputs

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.local_inputs)

    @property
    def num_edges(self) -> int:
        return self.instance.num_edges

    def nodes(self) -> Iterator[GraphNode]:
        return iter(self.local_inputs)

    def agent_nodes(self) -> Tuple[GraphNode, ...]:
        return tuple(agent_node(v) for v in self.instance.agents)

    def local_input(self, node: GraphNode) -> LocalInput:
        return self.local_inputs[node]

    def endpoint(self, node: GraphNode, port: int) -> Tuple[GraphNode, int]:
        """The neighbour reached through ``port`` and the port on its side."""
        neighbour = self.ports.neighbour_at(node, port)
        return neighbour, self.ports.port_to(neighbour, node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommunicationNetwork(instance={self.instance.name!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


def build_network(instance: MaxMinInstance) -> CommunicationNetwork:
    """Create the communication network of an instance.

    Local inputs follow paper §1.1 exactly:

    * an agent ``v`` knows, per port, whether the neighbour is a constraint
      or an objective and the coefficient on that edge;
    * a constraint or objective only knows its degree (its set of incident
      edges, identified by ports).
    """
    ports = PortNumbering(instance)
    local_inputs: Dict[GraphNode, LocalInput] = {}

    for v in instance.agents:
        node = agent_node(v)
        port_kinds: Dict[int, NodeType] = {}
        port_coefficients: Dict[int, float] = {}
        for port, neighbour in enumerate(ports.neighbours(node), start=1):
            kind, name = neighbour
            port_kinds[port] = kind
            if kind is NodeType.CONSTRAINT:
                port_coefficients[port] = instance.a(name, v)
            else:
                port_coefficients[port] = instance.c(name, v)
        local_inputs[node] = LocalInput(NodeType.AGENT, ports.degree(node), port_kinds, port_coefficients)

    for i in instance.constraints:
        node = constraint_node(i)
        degree = ports.degree(node)
        local_inputs[node] = LocalInput(
            NodeType.CONSTRAINT, degree, {p: NodeType.AGENT for p in ports.ports(node)}, {}
        )

    for k in instance.objectives:
        node = objective_node(k)
        degree = ports.degree(node)
        local_inputs[node] = LocalInput(
            NodeType.OBJECTIVE, degree, {p: NodeType.AGENT for p in ports.ports(node)}, {}
        )

    return CommunicationNetwork(instance, ports, local_inputs)


class ViewTree:
    """The radius-``d`` view of one node, as a port-labelled tree.

    Attributes
    ----------
    kind:
        Node type at the root of this view.
    degree:
        Degree (number of ports) of the root.
    port_kinds / port_coefficients:
        The root's local input (see :class:`LocalInput`).
    children:
        Mapping ``port -> (child_view, remote_port)`` where ``child_view`` is
        the neighbour's view of depth ``d − 1`` and ``remote_port`` is the
        port on the *neighbour's* side of the connecting edge (needed to
        avoid walking straight back during recursion).  Empty for depth-0
        views.
    """

    __slots__ = ("kind", "degree", "port_kinds", "port_coefficients", "children")

    def __init__(
        self,
        kind: NodeType,
        degree: int,
        port_kinds: Dict[int, NodeType],
        port_coefficients: Dict[int, float],
        children: Optional[Dict[int, Tuple["ViewTree", int]]] = None,
    ) -> None:
        self.kind = kind
        self.degree = degree
        self.port_kinds = port_kinds
        self.port_coefficients = port_coefficients
        self.children = children or {}

    # ------------------------------------------------------------------
    @classmethod
    def leaf(cls, local_input: LocalInput) -> "ViewTree":
        """The depth-0 view: just the node's own local input."""
        return cls(
            kind=local_input.kind,
            degree=local_input.degree,
            port_kinds=dict(local_input.port_kinds),
            port_coefficients=dict(local_input.port_coefficients),
        )

    @classmethod
    def extend(
        cls,
        local_input: LocalInput,
        received: Dict[int, Tuple["ViewTree", int]],
    ) -> "ViewTree":
        """Combine the node's local input with the neighbours' previous views."""
        return cls(
            kind=local_input.kind,
            degree=local_input.degree,
            port_kinds=dict(local_input.port_kinds),
            port_coefficients=dict(local_input.port_coefficients),
            children=dict(received),
        )

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the view tree (0 for a bare local input)."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child, _ in self.children.values())

    def size(self) -> int:
        """Total number of view-tree nodes."""
        return 1 + sum(child.size() for child, _ in self.children.values())

    def child(self, port: int) -> Tuple["ViewTree", int]:
        try:
            return self.children[port]
        except KeyError:
            raise SimulationError(
                f"view has no child on port {port} (depth too small for the requested recursion)"
            ) from None

    def constraint_ports(self) -> Tuple[int, ...]:
        return tuple(p for p, kind in self.port_kinds.items() if kind is NodeType.CONSTRAINT)

    def objective_ports(self) -> Tuple[int, ...]:
        return tuple(p for p, kind in self.port_kinds.items() if kind is NodeType.OBJECTIVE)

    def capacity(self) -> float:
        """``min_i 1/a_iv`` from the root's own coefficients (agent views only)."""
        caps = [1.0 / self.port_coefficients[p] for p in self.constraint_ports()]
        return min(caps) if caps else math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ViewTree(kind={self.kind.short}, degree={self.degree}, depth={self.depth()})"
