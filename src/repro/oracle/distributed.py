"""Per-node reference simulator of the synchronous model (paper §1.2).

:mod:`repro.distributed` runs its protocols on the message plane: one array
operation per round for the whole network.  This module keeps the readable
per-node transcription the plane is tested against:

* :class:`ProtocolNode` and :class:`Message` — one node's behaviour per
  round, and a message addressed purely by port;
* :func:`run` — the dict runtime: each round every node composes an outbox
  from its port-indexed inbox, and every message is handed to the
  neighbour's inbox through a
  :class:`~repro.analysis.views.CommunicationNetwork`;
* the node classes of the §5 protocol — view trees flooded as actual
  :class:`~repro.analysis.views.ViewTree` objects, ``t_u`` found by binary
  search on each agent's own view (:func:`view_tree_optimum`), min-flooding
  and the two-round ``g`` exchanges — and of the two-round safe protocol;
* :func:`local_solve` and :func:`safe_solve` — both protocols end to end.

The contracts, pinned by ``tests/test_runtime_vectorized.py``:
:func:`local_solve` is within 1e-9 of
:class:`~repro.distributed.resilient.ResilientLocalSolver` with equal
per-round message counts, and :func:`safe_solve` is bitwise equal to
:class:`~repro.distributed.resilient.ResilientSafeSolver`.  Both runtimes
deliver every message; fault injection lives on the plane runtime only.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .._types import GraphNode, NodeType
from ..algo.kernels import DEFAULT_BISECTION_TOL, MAX_BISECTION_ITERATIONS
from ..analysis.views import CommunicationNetwork, LocalInput, ViewTree, build_network
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_nondegenerate, require_special_form
from ..distributed.agents import PhaseSchedule
from ..distributed.runtime import RoundStatistics, require_agent_outputs
from ..distributed.safe_agents import SAFE_ALGORITHM_ROUNDS
from ..exceptions import SimulationError

__all__ = [
    "Message",
    "ProtocolNode",
    "NodeRunResult",
    "run",
    "view_tree_optimum",
    "MaxMinAgentNode",
    "MaxMinConstraintNode",
    "MaxMinObjectiveNode",
    "maxmin_node_factory",
    "SafeAgentNode",
    "SafeConstraintNode",
    "SafeSilentNode",
    "safe_node_factory",
    "local_solve",
    "safe_solve",
]


class Message:
    """A single message travelling over one edge in one round.

    In the port-numbering model a node only knows "I send this on my port
    3" and the recipient only knows "this arrived on my port 1".

    Attributes
    ----------
    payload:
        Arbitrary content.
    phase:
        Optional protocol-phase tag (e.g. ``"view"``, ``"smooth"``, ``"g"``),
        so that multi-phase protocols can assert they never mix up rounds.
    """

    __slots__ = ("payload", "phase")

    def __init__(self, payload: Any, phase: Optional[str] = None) -> None:
        self.payload = payload
        self.phase = phase

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Message(phase={self.phase!r}, payload={self.payload!r})"


class ProtocolNode(abc.ABC):
    """Base class of every per-node protocol participant.

    During each synchronous round every node, in parallel, performs local
    computation, sends one (possibly empty) message to each neighbour and
    receives the messages its neighbours sent in the same round.  A node
    therefore only implements :meth:`compose` (what to put on each port this
    round, given what arrived last round) plus, for agents, :meth:`output`.

    Subclasses must not inspect anything beyond :attr:`local_input`, the
    port-indexed inbox handed to :meth:`compose`, and their own state — in
    particular not the :attr:`graph_node` identity, which exists only so the
    runtime can collect outputs (the port-numbering model has no node ids).
    """

    def __init__(self, graph_node: GraphNode, local_input: LocalInput) -> None:
        self.graph_node = graph_node
        self.local_input = local_input

    @property
    def kind(self) -> NodeType:
        return self.local_input.kind

    @property
    def degree(self) -> int:
        return self.local_input.degree

    @abc.abstractmethod
    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        """Produce this round's outgoing messages.

        Parameters
        ----------
        round_number:
            1-based round counter.
        inbox:
            Messages received at the *end of the previous round*, keyed by the
            port they arrived on (empty dict in round 1).

        Returns
        -------
        Mapping from port to :class:`Message`.  Ports may be omitted (nothing
        is sent on them this round).
        """

    def output(self) -> Optional[Any]:
        """The node's final output (agents return their ``x_v``; others ``None``)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind, name = self.graph_node
        return f"{type(self).__name__}({kind.short}:{name!r})"


#: A factory mapping (network, graph_node) to a ProtocolNode.
NodeFactory = Callable[[CommunicationNetwork, GraphNode], ProtocolNode]


class NodeRunResult:
    """Outcome of one per-node run.

    Attributes
    ----------
    outputs:
        Mapping from agent id to the value it output (agents that output
        ``None`` are left out).
    node_outputs:
        Raw output of every graph node (``None`` for relays).
    rounds, total_messages, per_round:
        As on :class:`~repro.distributed.runtime.RunResult`.
    """

    __slots__ = ("outputs", "node_outputs", "rounds", "total_messages", "per_round")

    def __init__(
        self,
        outputs: Dict[Any, Any],
        node_outputs: Dict[GraphNode, Any],
        rounds: int,
        total_messages: int,
        per_round: List[RoundStatistics],
    ) -> None:
        self.outputs = outputs
        self.node_outputs = node_outputs
        self.rounds = rounds
        self.total_messages = total_messages
        self.per_round = per_round

    @property
    def messages_per_round(self) -> float:
        return self.total_messages / self.rounds if self.rounds else 0.0


def run(network: CommunicationNetwork, node_factory: NodeFactory, rounds: int) -> NodeRunResult:
    """Execute ``rounds`` synchronous rounds, node by node."""
    nodes: Dict[GraphNode, ProtocolNode] = {
        node: node_factory(network, node) for node in network.nodes()
    }
    inboxes: Dict[GraphNode, Dict[int, Message]] = {node: {} for node in nodes}
    per_round: List[RoundStatistics] = []

    for round_number in range(1, rounds + 1):
        next_inboxes: Dict[GraphNode, Dict[int, Message]] = {node: {} for node in nodes}
        sent = 0
        for node_id, node in nodes.items():
            outbox = node.compose(round_number, inboxes[node_id])
            degree = network.local_input(node_id).degree
            for port, message in outbox.items():
                if not 1 <= port <= degree:
                    raise SimulationError(
                        f"node {node_id[0].short}:{node_id[1]!r} sent on invalid port {port}"
                    )
                if not isinstance(message, Message):
                    message = Message(message)
                sent += 1
                neighbour, remote_port = network.endpoint(node_id, port)
                next_inboxes[neighbour][remote_port] = message
        inboxes = next_inboxes
        per_round.append(RoundStatistics(round_number, sent))

    node_outputs = {node_id: node.output() for node_id, node in nodes.items()}
    outputs = {
        node_id[1]: value
        for node_id, value in node_outputs.items()
        if node_id[0] is NodeType.AGENT and value is not None
    }
    total_messages = sum(s.messages for s in per_round)
    return NodeRunResult(outputs, node_outputs, rounds, total_messages, per_round)


# ----------------------------------------------------------------------
# The §5 protocol, node by node.
# ----------------------------------------------------------------------
class _ViewFloodingMixin:
    """Shared view-flooding behaviour of all three node kinds (rounds 1 … view_end)."""

    def _view_round(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        if round_number == 1:
            self._view = ViewTree.leaf(self.local_input)
        else:
            received: Dict[int, Tuple[ViewTree, int]] = {}
            for port, message in inbox.items():
                subview, remote_port = message.payload
                received[port] = (subview, remote_port)
            self._view = ViewTree.extend(self.local_input, received)
        outbox: Dict[int, Message] = {}
        for port in range(1, self.degree + 1):
            outbox[port] = Message((self._view, port), phase="view")
        return outbox

    def _assemble_final_view(self, inbox: Dict[int, Message]) -> ViewTree:
        received: Dict[int, Tuple[ViewTree, int]] = {}
        for port, message in inbox.items():
            if message.phase != "view":
                continue
            subview, remote_port = message.payload
            received[port] = (subview, remote_port)
        return ViewTree.extend(self.local_input, received)


class MaxMinAgentNode(ProtocolNode, _ViewFloodingMixin):
    """Protocol behaviour of an agent ``v`` (produces the output ``x_v``)."""

    def __init__(
        self,
        graph_node,
        local_input: LocalInput,
        schedule: PhaseSchedule,
        tu_tol: float = DEFAULT_BISECTION_TOL,
    ) -> None:
        super().__init__(graph_node, local_input)
        self.schedule = schedule
        self.tu_tol = tu_tol
        self._view: Optional[ViewTree] = None
        self.t_u: Optional[float] = None
        self.s_v: Optional[float] = None
        self._smooth_min = math.inf
        self.g_plus: List[Optional[float]] = [None] * (schedule.r + 1)
        self.g_minus: List[Optional[float]] = [None] * (schedule.r + 1)
        self._output: Optional[float] = None

    # -- helpers -------------------------------------------------------
    def _objective_port(self) -> int:
        ports = self.local_input.objective_ports()
        if len(ports) != 1:
            raise SimulationError("agent does not have a unique objective port (not special form)")
        return ports[0]

    def _broadcast(self, value: float, phase: str) -> Dict[int, Message]:
        return {port: Message(value, phase=phase) for port in range(1, self.degree + 1)}

    def _maybe_finalize(self) -> None:
        if all(g is not None for g in self.g_plus) and all(g is not None for g in self.g_minus):
            factor = 1.0 / (2.0 * self.schedule.R)
            self._output = factor * sum(
                self.g_plus[d] + self.g_minus[d] for d in range(self.schedule.r + 1)  # type: ignore[operator]
            )

    # -- protocol ------------------------------------------------------
    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        sched = self.schedule

        # Phase 1: view flooding.
        if round_number <= sched.view_end:
            return self._view_round(round_number, inbox)

        # Round view_end + 1: final view, local binary search for t_u, start smoothing.
        if round_number == sched.view_end + 1:
            final_view = self._assemble_final_view(inbox)
            self.t_u = view_tree_optimum(final_view, sched.r, tol=self.tu_tol)
            self._smooth_min = self.t_u
            return self._broadcast(self._smooth_min, phase="smooth")

        # Phase 2: min flooding of the t_u values.
        if round_number <= sched.smooth_end:
            for message in inbox.values():
                if message.phase == "smooth":
                    self._smooth_min = min(self._smooth_min, message.payload)
            return self._broadcast(self._smooth_min, phase="smooth")

        # Phase 3: the g recursion.  Offsets are relative to g_start.
        offset = round_number - sched.g_start

        if offset == 0:
            # Final smoothing update: messages sent in round smooth_end have
            # travelled exactly 4r + 2 hops.
            for message in inbox.values():
                if message.phase == "smooth":
                    self._smooth_min = min(self._smooth_min, message.payload)
            self.s_v = self._smooth_min
            self.g_plus[0] = self.local_input.capacity()
            return {self._objective_port(): Message(self.g_plus[0], phase="g-obj")}

        if offset < 0 or offset > 4 * sched.r + 2:
            return {}

        if offset % 4 == 2:
            # Sibling sums arrive from the objective: compute g⁻ at depth d.
            d = offset // 4
            message = inbox.get(self._objective_port())
            if message is None or message.phase != "g-obj-sum":
                raise SimulationError(
                    f"agent {self.graph_node[1]!r} expected a sibling sum on "
                    f"port {self._objective_port()} in round {round_number} "
                    "(the objective relay did not send it)"
                )
            sibling_sum = message.payload
            assert self.s_v is not None
            self.g_minus[d] = max(0.0, self.s_v - sibling_sum)
            self._maybe_finalize()
            if d < sched.r:
                # Ship a_iv · g⁻_{v,d} towards every constraint for the next g⁺.
                outbox = {}
                for port in self.local_input.constraint_ports():
                    a_iv = self.local_input.port_coefficients[port]
                    outbox[port] = Message(a_iv * self.g_minus[d], phase="g-con")
                return outbox
            return {}

        if offset % 4 == 0 and offset > 0:
            # Partner contributions arrive from the constraints: compute g⁺ at depth d.
            d = offset // 4
            best = math.inf
            for port in self.local_input.constraint_ports():
                message = inbox.get(port)
                if message is None or message.phase != "g-con-fwd":
                    raise SimulationError(
                        f"agent {self.graph_node[1]!r} expected a partner value "
                        f"on port {port} in round {round_number} "
                        "(the constraint relay did not send it)"
                    )
                a_iv = self.local_input.port_coefficients[port]
                candidate = (1.0 - message.payload) / a_iv
                if candidate < best:
                    best = candidate
            self.g_plus[d] = best
            return {self._objective_port(): Message(self.g_plus[d], phase="g-obj")}

        # Odd offsets: relays are working; agents idle.
        return {}

    def output(self) -> Optional[float]:
        return self._output


class MaxMinConstraintNode(ProtocolNode, _ViewFloodingMixin):
    """Constraint relay: floods views, relays minima, forwards partner values."""

    def __init__(self, graph_node, local_input: LocalInput, schedule: PhaseSchedule) -> None:
        super().__init__(graph_node, local_input)
        self.schedule = schedule
        self._view: Optional[ViewTree] = None
        self._smooth_min = math.inf

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        sched = self.schedule
        if round_number <= sched.view_end:
            return self._view_round(round_number, inbox)

        if round_number <= sched.smooth_end:
            for message in inbox.values():
                if message.phase == "smooth":
                    self._smooth_min = min(self._smooth_min, message.payload)
            if math.isfinite(self._smooth_min):
                return {port: Message(self._smooth_min, phase="smooth") for port in range(1, self.degree + 1)}
            return {}

        # g phase: cross-forward whatever the two member agents sent.
        g_messages = {port: m for port, m in inbox.items() if m.phase == "g-con"}
        if g_messages:
            if self.degree != 2:
                raise SimulationError("constraint relay requires degree 2 (special form)")
            outbox: Dict[int, Message] = {}
            for port in (1, 2):
                other = 2 if port == 1 else 1
                if other in g_messages:
                    outbox[port] = Message(g_messages[other].payload, phase="g-con-fwd")
            return outbox
        return {}


class MaxMinObjectiveNode(ProtocolNode, _ViewFloodingMixin):
    """Objective relay: floods views, relays minima, returns sibling sums."""

    def __init__(self, graph_node, local_input: LocalInput, schedule: PhaseSchedule) -> None:
        super().__init__(graph_node, local_input)
        self.schedule = schedule
        self._view: Optional[ViewTree] = None
        self._smooth_min = math.inf

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        sched = self.schedule
        if round_number <= sched.view_end:
            return self._view_round(round_number, inbox)

        if round_number <= sched.smooth_end:
            for message in inbox.values():
                if message.phase == "smooth":
                    self._smooth_min = min(self._smooth_min, message.payload)
            if math.isfinite(self._smooth_min):
                return {port: Message(self._smooth_min, phase="smooth") for port in range(1, self.degree + 1)}
            return {}

        g_messages = {port: m for port, m in inbox.items() if m.phase == "g-obj"}
        if g_messages:
            if len(g_messages) != self.degree:
                missing = [p for p in range(1, self.degree + 1) if p not in g_messages]
                raise SimulationError(
                    f"objective relay {self.graph_node[1]!r} expected g values on "
                    f"all {self.degree} ports, got {len(g_messages)} "
                    f"(missing ports {missing[:5]})"
                )
            total = sum(m.payload for m in g_messages.values())
            return {
                port: Message(total - g_messages[port].payload, phase="g-obj-sum")
                for port in range(1, self.degree + 1)
            }
        return {}


def maxmin_node_factory(schedule: PhaseSchedule, tu_tol: float = DEFAULT_BISECTION_TOL):
    """The node factory of the §5 protocol for :func:`run`."""

    def factory(network: CommunicationNetwork, graph_node) -> ProtocolNode:
        local_input = network.local_input(graph_node)
        if local_input.kind is NodeType.AGENT:
            return MaxMinAgentNode(graph_node, local_input, schedule, tu_tol=tu_tol)
        if local_input.kind is NodeType.CONSTRAINT:
            return MaxMinConstraintNode(graph_node, local_input, schedule)
        return MaxMinObjectiveNode(graph_node, local_input, schedule)

    return factory


# ----------------------------------------------------------------------
# The safe protocol, node by node.
# ----------------------------------------------------------------------
class SafeConstraintNode(ProtocolNode):
    """Round 1: announce the constraint degree to every member agent."""

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        if round_number == 1:
            return {port: Message(self.degree, phase="safe-degree") for port in range(1, self.degree + 1)}
        return {}


class SafeSilentNode(ProtocolNode):
    """Objectives take no part in the safe algorithm."""

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        return {}


class SafeAgentNode(ProtocolNode):
    """Round 2: combine the received degrees with the local coefficients."""

    def __init__(self, graph_node, local_input: LocalInput) -> None:
        super().__init__(graph_node, local_input)
        self._output: Optional[float] = None

    def compose(self, round_number: int, inbox: Dict[int, Message]) -> Dict[int, Message]:
        if round_number == 2:
            best = math.inf
            for port in self.local_input.constraint_ports():
                message = inbox.get(port)
                if message is None or message.phase != "safe-degree":
                    raise SimulationError(
                        f"safe agent {self.graph_node[1]!r} did not receive a "
                        f"constraint degree on port {port} in round {round_number} "
                        "(the constraint did not send it)"
                    )
                a_iv = self.local_input.port_coefficients[port]
                best = min(best, 1.0 / (message.payload * a_iv))
            self._output = best
        return {}

    def output(self) -> Optional[float]:
        return self._output


def safe_node_factory(network: CommunicationNetwork, graph_node) -> ProtocolNode:
    """The node factory of the safe protocol for :func:`run`."""
    local_input = network.local_input(graph_node)
    if local_input.kind is NodeType.AGENT:
        return SafeAgentNode(graph_node, local_input)
    if local_input.kind is NodeType.CONSTRAINT:
        return SafeConstraintNode(graph_node, local_input)
    return SafeSilentNode(graph_node, local_input)


# ----------------------------------------------------------------------
# t_u from an agent's own view: the f± recursion of §5.2 on a view tree.
# ----------------------------------------------------------------------
def _unique_objective_child(view: ViewTree) -> Tuple[ViewTree, int]:
    """The (objective view, back-port) below an agent view in special form."""
    ports = view.objective_ports()
    if len(ports) != 1:
        raise SimulationError(
            f"agent view has {len(ports)} objective ports; the distributed algorithm "
            "requires the special form (|K_v| = 1)"
        )
    return view.child(ports[0])


def _f_plus(view: ViewTree, omega: float, d: int) -> float:
    """``f⁺`` of an agent view reached from an objective (levels ≡ 1 mod 4)."""
    if d == 0:
        return view.capacity()
    best = math.inf
    for port in view.constraint_ports():
        constraint_view, back_port = view.child(port)
        # The degree-2 constraint has exactly one other port.
        other_ports = [p for p in range(1, constraint_view.degree + 1) if p != back_port]
        if len(other_ports) != 1:
            raise SimulationError(
                "constraint view does not have degree 2; the distributed algorithm "
                "requires the special form (|V_i| = 2)"
            )
        partner_view, partner_back = constraint_view.child(other_ports[0])
        a_in = partner_view.port_coefficients[partner_back]
        a_iv = view.port_coefficients[port]
        candidate = (1.0 - a_in * _f_minus(partner_view, omega, d - 1)) / a_iv
        if candidate < best:
            best = candidate
    return best


def _f_minus(view: ViewTree, omega: float, d: int) -> float:
    """``f⁻`` of an agent view above its objective (levels ≡ 3 mod 4 and the root)."""
    objective_view, back_port = _unique_objective_child(view)
    total = 0.0
    for port in range(1, objective_view.degree + 1):
        if port == back_port:
            continue
        sibling_view, _sibling_back = objective_view.child(port)
        total += _f_plus(sibling_view, omega, d)
    return max(0.0, omega - total)


def _min_f_plus(view: ViewTree, omega: float, d: int) -> float:
    """Minimum over all ``f⁺`` values in the recursion rooted at an agent view.

    Mirrors Eq. 8: every ``f⁺_{u,v,d}`` must be non-negative.  We recompute
    the recursion while tracking the minimum (the trees are small — their
    size is bounded by a function of Δ and R only).
    """
    if d == 0:
        return view.capacity()
    best = math.inf
    for port in view.constraint_ports():
        constraint_view, back_port = view.child(port)
        other_ports = [p for p in range(1, constraint_view.degree + 1) if p != back_port]
        partner_view, _partner_back = constraint_view.child(other_ports[0])
        objective_view, obj_back = _unique_objective_child(partner_view)
        for sibling_port in range(1, objective_view.degree + 1):
            if sibling_port == obj_back:
                continue
            sibling_view, _ = objective_view.child(sibling_port)
            best = min(best, _min_f_plus(sibling_view, omega, d - 1))
    own = _f_plus(view, omega, d)
    return min(best, own)


def view_feasible_omega(root_view: ViewTree, omega: float, r: int, tol: float = 0.0) -> bool:
    """Eqs. 8–9 evaluated on the root agent's view (is ``ω`` feasible?)."""
    # Eq. 9: the root's f⁻ at depth r must fit under its capacity.
    if _f_minus(root_view, omega, r) > root_view.capacity() + tol:
        return False
    # Eq. 8: every f⁺ below the root's objective must be non-negative.
    objective_view, back_port = _unique_objective_child(root_view)
    for port in range(1, objective_view.degree + 1):
        if port == back_port:
            continue
        sibling_view, _ = objective_view.child(port)
        if _min_f_plus(sibling_view, omega, r) < -tol:
            return False
    return True


def view_search_upper_limit(root_view: ViewTree) -> float:
    """Upper limit for the ``t_u`` binary search: total capacity of ``V_{k(u)}``."""
    objective_view, back_port = _unique_objective_child(root_view)
    total = root_view.capacity()
    for port in range(1, objective_view.degree + 1):
        if port == back_port:
            continue
        sibling_view, _ = objective_view.child(port)
        total += sibling_view.capacity()
    return total


def view_tree_optimum(
    root_view: ViewTree,
    r: int,
    tol: float = DEFAULT_BISECTION_TOL,
) -> float:
    """``t_u`` by binary search on the view (the paper's practical variant)."""
    hi = view_search_upper_limit(root_view)
    if hi <= 0.0:
        return 0.0
    if view_feasible_omega(root_view, hi, r):
        return hi
    lo = 0.0
    iterations = 0
    while hi - lo > tol and iterations < MAX_BISECTION_ITERATIONS:
        mid = 0.5 * (lo + hi)
        if view_feasible_omega(root_view, mid, r):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo


# ----------------------------------------------------------------------
# Both protocols end to end.
# ----------------------------------------------------------------------
def local_solve(
    instance: MaxMinInstance, R: int = 3, *, tu_tol: float = DEFAULT_BISECTION_TOL
) -> Tuple[Solution, NodeRunResult]:
    """The §5 protocol on the per-node runtime."""
    require_special_form(instance)
    schedule = PhaseSchedule(R)
    result = run(
        build_network(instance), maxmin_node_factory(schedule, tu_tol), schedule.total_rounds
    )
    return _solution(instance, result, f"distributed-R{R}"), result


def safe_solve(instance: MaxMinInstance) -> Tuple[Solution, NodeRunResult]:
    """The two-round safe protocol on the per-node runtime."""
    require_nondegenerate(instance)
    result = run(build_network(instance), safe_node_factory, SAFE_ALGORITHM_ROUNDS)
    return _solution(instance, result, "distributed-safe"), result


def _solution(instance: MaxMinInstance, result: NodeRunResult, label: str) -> Solution:
    values = np.array(
        [result.outputs.get(v, np.nan) for v in instance.agents], dtype=np.float64
    )
    require_agent_outputs(instance, values)
    return Solution.from_agent_array(instance, values, label=label)
