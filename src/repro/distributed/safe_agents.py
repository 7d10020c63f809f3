"""Distributed realisation of the *safe algorithm* baseline.

The safe algorithm (prior work [8, 16]) needs a single exchange: every
constraint tells its members its degree ``|V_i|``, and every agent outputs

.. math:: x_v = \\min_{i \\in I_v} \\frac{1}{|V_i| \\, a_{iv}}.

Two synchronous rounds therefore suffice — the protocol is mostly useful as
the baseline for the round/message accounting of experiment E5 and as the
simplest possible example of a protocol on the runtime.

:class:`VectorizedSafeProtocol` runs the exchange on the int-indexed
message plane (degrees go out as one ``np.repeat``, the safe share comes
back as one segment-min).  The per-node classes below run the identical
exchange on the dict runtime, which byte accounting needs.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .._types import NodeType
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_nondegenerate
from ..exceptions import SimulationError
from .message import Message
from .network import CommunicationNetwork, build_network
from .node import LocalInput, ProtocolNode
from .plane import MessagePlane, VectorizedProtocol
from .runtime import RunResult, SynchronousRuntime, require_agent_outputs

__all__ = [
    "SafeAgentNode",
    "SafeConstraintNode",
    "SafeSilentNode",
    "VectorizedSafeProtocol",
    "DistributedSafeSolver",
]

#: The safe protocol's local horizon.
SAFE_ALGORITHM_ROUNDS = 2


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
                        "(message dropped or constraint failed)"
                    )
                a_iv = self.local_input.port_coefficients[port]
                best = min(best, 1.0 / (message.payload * a_iv))
            self._output = best
        return {}

    def output(self) -> Optional[float]:
        return self._output


class VectorizedSafeProtocol(VectorizedProtocol):
    """The same two-round exchange as whole-plane array operations."""

    def begin(self, plane: MessagePlane) -> None:
        self._x: Optional[np.ndarray] = None

    def compose(
        self,
        round_number: int,
        inbox_mask: np.ndarray,
        inbox_values: np.ndarray,
        plane: MessagePlane,
    ) -> Tuple[np.ndarray, np.ndarray]:
        comp = plane.comp
        mask, values = plane.empty_round()
        if round_number == 1:
            # Every constraint broadcasts its degree on all its ports.
            lo, hi = plane.con_slot_range()
            mask[lo:hi] = True
            degrees = comp.constraint_degrees
            values[lo:hi] = np.repeat(degrees, degrees).astype(np.float64)
        elif round_number == 2:
            received = inbox_values[plane.agent_con_slots]
            got = inbox_mask[plane.agent_con_slots]
            if not got.all():
                missing = plane.agent_con_slots[~got]
                links = "; ".join(
                    plane.describe_slot(int(plane.reverse[s])) for s in missing[:5]
                )
                raise SimulationError(
                    f"round {round_number}: {len(missing)} safe agent(s) did not "
                    f"receive a constraint degree (missing: {links})"
                )
            self._x = comp.agent_constraint_min(1.0 / (received * comp.con_coeff))
        return mask, values

    def outputs(self, plane: MessagePlane) -> np.ndarray:
        if self._x is None:
            return np.full(plane.num_agents, np.nan)
        return self._x


def _safe_node_factory(network: CommunicationNetwork, graph_node) -> ProtocolNode:
    local_input = network.local_input(graph_node)
    if local_input.kind is NodeType.AGENT:
        return SafeAgentNode(graph_node, local_input)
    if local_input.kind is NodeType.CONSTRAINT:
        return SafeConstraintNode(graph_node, local_input)
    return SafeSilentNode(graph_node, local_input)


class DistributedSafeSolver:
    """Run the safe algorithm as a 2-round message-passing protocol.

    The protocol runs over the int-indexed message plane.  Byte accounting
    needs real message objects, so ``measure_bytes=True`` runs the per-node
    classes on the dict runtime instead.
    """

    def __init__(self, *, measure_bytes: bool = False) -> None:
        self.measure_bytes = measure_bytes

    @property
    def local_horizon(self) -> int:
        return SAFE_ALGORITHM_ROUNDS

    def solve(self, instance: MaxMinInstance) -> Tuple[Solution, RunResult]:
        require_nondegenerate(instance)
        if not self.measure_bytes:
            runtime = SynchronousRuntime(plane=MessagePlane(instance))
            result = runtime.run_vectorized(VectorizedSafeProtocol(), rounds=SAFE_ALGORITHM_ROUNDS)
        else:
            network = build_network(instance)
            runtime = SynchronousRuntime(network, measure_bytes=self.measure_bytes)
            result = runtime.run(_safe_node_factory, rounds=SAFE_ALGORITHM_ROUNDS)
        require_agent_outputs(instance, result)
        solution = Solution(instance, result.outputs, label="distributed-safe")
        return solution, result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributedSafeSolver(measure_bytes={self.measure_bytes!r})"
