"""The synchronous round-based runtime (paper §1.2).

The runtime owns the clock: in every round it asks each node for its
outgoing messages, delivers them along edges (translating the sender's port
into the receiver's port), and hands each node its inbox at the start of the
next round.  It also keeps the accounting that the scalability experiment
(E5) reports: rounds, messages, and (optionally) bytes.

Two execution paths share the accounting:

* :meth:`SynchronousRuntime.run` — the original per-node dict walk.  It is
  deliberately single-threaded and deterministic — the point of simulating a
  distributed algorithm for a *theory* reproduction is fidelity and
  reproducibility — and is kept as the oracle the vectorized path is tested
  against.
* :meth:`SynchronousRuntime.run_vectorized` — the same clock driven over an
  int-indexed :class:`~repro.distributed.plane.MessagePlane`: one
  :meth:`~repro.distributed.plane.VectorizedProtocol.compose` call per round
  for the whole network, delivery as a single gather through the plane's
  ``reverse`` permutation.  Per-round message statistics are computed from
  the same sent-slot sets the dict path would produce, so E5-style
  measurements are the same on either path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

import numpy as np

from .. import obs
from .._types import GraphNode, NodeType, agent_node
from ..exceptions import SimulationError
from ..faults import FaultInjector, FaultPlan
from .message import Message, message_size_bytes
from .network import CommunicationNetwork
from .node import ProtocolNode
from .plane import MessagePlane, VectorizedProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.compiled import DeltaResult

__all__ = ["RoundStatistics", "RunResult", "SynchronousRuntime", "require_agent_outputs"]

#: A factory mapping (graph_node, local_input) to a ProtocolNode.
NodeFactory = Callable[[CommunicationNetwork, GraphNode], ProtocolNode]


def require_agent_outputs(instance, result: "RunResult") -> None:
    """Raise :class:`SimulationError` unless every agent produced an output.

    Shared by the protocol solvers: an agent that stays silent is a protocol
    bug, and backfilling 0.0 for it would turn a broken run into a "feasible"
    all-wrong solution.
    """
    missing = [v for v in instance.agents if v not in result.outputs]
    if missing:
        raise SimulationError(
            f"protocol finished with {len(missing)} agent(s) producing no "
            f"output (first few: {missing[:5]!r}); refusing to backfill zeros"
        )


class RoundStatistics:
    """Per-round accounting."""

    __slots__ = ("round_number", "messages", "bytes_sent")

    def __init__(self, round_number: int, messages: int, bytes_sent: int) -> None:
        self.round_number = round_number
        self.messages = messages
        self.bytes_sent = bytes_sent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundStatistics(round={self.round_number}, messages={self.messages})"


class RunResult:
    """Outcome of one protocol execution.

    Attributes
    ----------
    outputs:
        Mapping from agent id to the value it output (only agents produce
        outputs in this library's protocols).
    rounds:
        Number of synchronous rounds executed.
    total_messages:
        Total number of (non-empty) messages delivered.
    total_bytes:
        Total approximate message bytes (0 when byte accounting is off).
    per_round:
        List of :class:`RoundStatistics`.
    node_outputs:
        Raw outputs per graph node (including Nones from relays; the
        vectorized path only materialises agent entries).
    """

    __slots__ = ("outputs", "rounds", "total_messages", "total_bytes", "per_round", "node_outputs")

    def __init__(
        self,
        outputs: Dict[Any, float],
        rounds: int,
        total_messages: int,
        total_bytes: int,
        per_round: List[RoundStatistics],
        node_outputs: Dict[GraphNode, Any],
    ) -> None:
        self.outputs = outputs
        self.rounds = rounds
        self.total_messages = total_messages
        self.total_bytes = total_bytes
        self.per_round = per_round
        self.node_outputs = node_outputs

    @property
    def messages_per_round(self) -> float:
        return self.total_messages / self.rounds if self.rounds else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(rounds={self.rounds}, messages={self.total_messages}, "
            f"agents={len(self.outputs)})"
        )


class SynchronousRuntime:
    """Drives a protocol over a :class:`CommunicationNetwork` or a plane.

    Parameters
    ----------
    network:
        The communication network to run on (required for :meth:`run`;
        optional when only :meth:`run_vectorized` is used with an explicit
        ``plane``).
    plane:
        An explicit :class:`~repro.distributed.plane.MessagePlane` for the
        vectorized path; built lazily from ``network.instance`` when absent.
        Passing the plane directly lets vectorized solvers skip building the
        per-node ``LocalInput`` dicts entirely.
    measure_bytes:
        If true, every message is pickled once to estimate bandwidth; this is
        meaningful but slow for view-gathering protocols, so it is off by
        default.  Byte accounting needs real message objects, so it is only
        available on the dict path (:meth:`run_vectorized` raises).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (or live injector) whose
        message faults drop delivery slots on *both* execution paths: the
        vectorized path filters the sent-slot array, the dict path maps each
        ``(node, port)`` send to its plane slot so the same plan drops the
        same messages on either path (the chaos-equivalence contract of
        ``tests/test_resilient.py``).  Dropped messages count as *sent* —
        the sender paid for them — but never arrive, modelling a failed
        link for robustness experiments.
    """

    def __init__(
        self,
        network: Optional[CommunicationNetwork] = None,
        *,
        plane: Optional[MessagePlane] = None,
        measure_bytes: bool = False,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        if network is None and plane is None:
            raise SimulationError("SynchronousRuntime needs a network or a message plane")
        self.network = network
        self._plane = plane
        self.measure_bytes = measure_bytes
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults

    @property
    def plane(self) -> MessagePlane:
        """The message plane (built from the network's instance on demand)."""
        if self._plane is None:
            assert self.network is not None  # __init__ invariant
            self._plane = MessagePlane(self.network.instance)
        return self._plane

    def refresh_plane(self, delta: "DeltaResult") -> MessagePlane:
        """Carry the message plane across an instance delta.

        Uses :meth:`MessagePlane.updated`, so coefficient-only deltas reuse
        every slot array and structural deltas rebuild only the dirty rows.
        Only valid on plane-backed runtimes: a dict-based network cannot be
        patched in place, so refreshing one raises.
        """
        if self.network is not None:
            raise SimulationError(
                "refresh_plane is only supported on plane-backed runtimes; "
                "rebuild the CommunicationNetwork for the dict-based path"
            )
        self._plane = self.plane.updated(delta)
        return self._plane

    def run(
        self,
        node_factory: NodeFactory,
        rounds: int,
        *,
        stop_when_silent: bool = False,
    ) -> RunResult:
        """Execute ``rounds`` synchronous rounds of the protocol (dict path).

        Parameters
        ----------
        node_factory:
            Called once per graph node to create its :class:`ProtocolNode`.
        rounds:
            The local horizon ``D``: how many rounds to run.
        stop_when_silent:
            Stop early if some round sends no messages at all (useful for
            protocols that finish before their declared horizon).  A round
            that goes quiet because the *previous* round's messages were all
            dropped by a fault does not count as convergence — the stop is
            suppressed (``runtime.suppressed_quiet_stops``) so injected loss
            cannot fake an early finish.
        """
        network = self.network
        if network is None:
            raise SimulationError("the dict-based run() needs a CommunicationNetwork")
        with obs.span("runtime.run", rounds=rounds):
            return self._run_dict(network, node_factory, rounds, stop_when_silent)

    def _sender_slot(self, plane: MessagePlane, node_id: GraphNode, port: int) -> int:
        """The plane slot a dict-path ``(node, port)`` send occupies.

        This is the bridge that lets one :class:`MessageFault` (stated in
        plane slots) hit both execution paths identically.
        """
        kind, nid = node_id
        comp = plane.comp
        if kind is NodeType.AGENT:
            return int(plane.agent_indptr[comp.agent_index[nid]]) + port - 1
        if kind is NodeType.CONSTRAINT:
            return (
                plane.con_base
                + int(comp.cagents_indptr[comp.constraint_index[nid]])
                + port
                - 1
            )
        return (
            plane.obj_base + int(comp.oagents_indptr[comp.objective_index[nid]]) + port - 1
        )

    def _run_dict(
        self,
        network: CommunicationNetwork,
        node_factory: NodeFactory,
        rounds: int,
        stop_when_silent: bool,
    ) -> RunResult:
        nodes: Dict[GraphNode, ProtocolNode] = {
            node: node_factory(network, node) for node in network.nodes()
        }
        inboxes: Dict[GraphNode, Dict[int, Message]] = {node: {} for node in nodes}

        per_round: List[RoundStatistics] = []
        total_messages = 0
        total_bytes = 0
        executed = 0
        dropped_last_round = False

        for round_number in range(1, rounds + 1):
            executed = round_number
            next_inboxes: Dict[GraphNode, Dict[int, Message]] = {node: {} for node in nodes}
            round_messages = 0
            round_bytes = 0
            round_dropped = 0
            drop = (
                self.faults.dropped_slots(round_number, self.plane.num_slots)
                if self.faults is not None
                else None
            )

            for node_id, node in nodes.items():
                outbox = node.compose(round_number, inboxes[node_id])
                if not outbox:
                    continue
                degree = network.local_input(node_id).degree
                for port, message in outbox.items():
                    if not 1 <= port <= degree:
                        raise SimulationError(
                            f"node {node_id[0].short}:{node_id[1]!r} sent on invalid port {port}"
                        )
                    if not isinstance(message, Message):
                        message = Message(message)
                    round_messages += 1
                    if self.measure_bytes:
                        round_bytes += message_size_bytes(message)
                    if drop and self._sender_slot(self.plane, node_id, port) in drop:
                        # Sent (counted above) but the link ate it.
                        round_dropped += 1
                        continue
                    neighbour, remote_port = network.endpoint(node_id, port)
                    next_inboxes[neighbour][remote_port] = message

            if round_dropped:
                obs.count("faults.dropped_messages", round_dropped)
            inboxes = next_inboxes
            total_messages += round_messages
            total_bytes += round_bytes
            per_round.append(RoundStatistics(round_number, round_messages, round_bytes))

            if stop_when_silent and round_messages == 0:
                # Silence after a lossy round is starvation, not convergence:
                # the nodes never saw the previous round's messages, so their
                # quiet says nothing about the protocol being done.
                if dropped_last_round:
                    obs.count("runtime.suppressed_quiet_stops")
                else:
                    break
            dropped_last_round = round_dropped > 0

        # Give every node one final delivery so that messages sent in the last
        # round are visible to outputs (nodes may cache them in compose of a
        # hypothetical next round; our protocols are written so that the last
        # round's inbox is only needed by nodes that already produced output,
        # hence we simply expose outputs now).
        node_outputs: Dict[GraphNode, Any] = {}
        outputs: Dict[Any, float] = {}
        for node_id, node in nodes.items():
            value = node.output()
            node_outputs[node_id] = value
            if node_id[0] is NodeType.AGENT and value is not None:
                outputs[node_id[1]] = value

        obs.count("runtime.rounds", executed)
        obs.count("runtime.messages", total_messages)
        obs.count("runtime.bytes", total_bytes)
        return RunResult(
            outputs=outputs,
            rounds=executed,
            total_messages=total_messages,
            total_bytes=total_bytes,
            per_round=per_round,
            node_outputs=node_outputs,
        )

    def run_vectorized(
        self,
        protocol: VectorizedProtocol,
        rounds: int,
        *,
        stop_when_silent: bool = False,
    ) -> RunResult:
        """Execute ``rounds`` synchronous rounds on the int-indexed plane.

        The clock is identical to :meth:`run`: each round the protocol
        composes the whole network's outgoing messages (slot mask + values),
        the runtime delivers them through the plane's ``reverse`` permutation
        and records the round's message count, and the delivered slots become
        the next round's inbox.
        """
        if self.measure_bytes:
            raise SimulationError(
                "byte accounting requires real message objects; use the dict-based "
                "run() when measure_bytes=True"
            )
        plane = self.plane
        with obs.span("runtime.run_vectorized", slots=plane.num_slots, rounds=rounds):
            return self._run_vectorized(protocol, rounds, plane, stop_when_silent)

    def _run_vectorized(
        self,
        protocol: VectorizedProtocol,
        rounds: int,
        plane: MessagePlane,
        stop_when_silent: bool,
    ) -> RunResult:
        inbox_mask, inbox_values = plane.empty_round()
        protocol.begin(plane)

        per_round: List[RoundStatistics] = []
        total_messages = 0
        executed = 0
        dropped_last_round = False

        for round_number in range(1, rounds + 1):
            executed = round_number
            out_mask, out_values = protocol.compose(
                round_number, inbox_mask, inbox_values, plane
            )
            sent = np.flatnonzero(out_mask)
            round_messages = len(sent)

            finite = np.isfinite(out_values[sent])
            if not finite.all():
                bad = sent[~finite]
                obs.count("runtime.nonfinite_messages", len(bad))
                agent_slots = bad[bad < plane.con_base]
                owners = np.searchsorted(plane.agent_indptr, agent_slots, side="right") - 1
                agent_ids = sorted({plane.comp.agents[int(i)] for i in owners})
                relay_slots = int((bad >= plane.con_base).sum())
                detail = f"agents {agent_ids[:5]!r}" if agent_ids else "no agent slots"
                if relay_slots:
                    detail += f", {relay_slots} relay slot(s)"
                raise SimulationError(
                    f"round {round_number}: {len(bad)} outgoing message(s) are "
                    f"NaN/inf ({detail}); a non-finite value on the wire means "
                    "the protocol state is corrupt — refusing to deliver it"
                )

            round_dropped = 0
            if self.faults is not None:
                drop = self.faults.dropped_slots(round_number, plane.num_slots)
                if drop:
                    # Dropped messages were sent (counted above) but are
                    # withheld from delivery, as if the link failed.
                    drop_mask = np.isin(sent, np.fromiter(drop, dtype=np.int64))
                    if drop_mask.any():
                        round_dropped = int(drop_mask.sum())
                        obs.count("faults.dropped_messages", round_dropped)
                        sent = sent[~drop_mask]

            inbox_mask, inbox_values = plane.empty_round()
            received = plane.reverse[sent]
            inbox_mask[received] = True
            inbox_values[received] = out_values[sent]

            total_messages += round_messages
            per_round.append(RoundStatistics(round_number, round_messages, 0))

            if stop_when_silent and round_messages == 0:
                # Same starvation-vs-convergence distinction as the dict
                # path: a quiet round right after a lossy one is not proof
                # the protocol finished.
                if dropped_last_round:
                    obs.count("runtime.suppressed_quiet_stops")
                else:
                    break
            dropped_last_round = round_dropped > 0

        values = protocol.outputs(plane)
        node_outputs: Dict[GraphNode, Any] = {}
        outputs: Dict[Any, float] = {}
        for position, v in enumerate(plane.comp.agents):
            value = float(values[position])
            node_outputs[agent_node(v)] = None if np.isnan(values[position]) else value
            if not np.isnan(values[position]):
                outputs[v] = value

        obs.count("runtime.rounds", executed)
        obs.count("runtime.messages", total_messages)
        return RunResult(
            outputs=outputs,
            rounds=executed,
            total_messages=total_messages,
            total_bytes=0,
            per_round=per_round,
            node_outputs=node_outputs,
        )
