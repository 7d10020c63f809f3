"""The synchronous round-based runtime (paper §1.2).

The runtime owns the clock of a run on a
:class:`~repro.distributed.plane.MessagePlane`: in every round the protocol
composes the whole network's outgoing messages
(:meth:`~repro.distributed.plane.VectorizedProtocol.compose`: a slot mask
plus float64 values), the runtime checks them, delivers them as one gather
through the plane's ``reverse`` permutation, and the delivered slots become
the next round's inbox.  It also keeps the accounting that the scalability
experiment (E5) reports: rounds and messages per round.

:class:`~repro.distributed.resilient.ResilientRuntime` runs the same loop and
replaces only the per-round delivery step.  The per-node simulator the plane
is tested against lives in :mod:`repro.oracle.distributed`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..exceptions import SimulationError
from ..faults import FaultInjector, FaultPlan
from .plane import MessagePlane, VectorizedProtocol

__all__ = ["RoundStatistics", "RunResult", "SynchronousRuntime", "require_agent_outputs"]


def require_agent_outputs(instance, values: np.ndarray) -> None:
    """Raise :class:`SimulationError` unless every agent produced an output.

    ``values`` is an output vector in canonical agent order, NaN where an
    agent produced nothing.  Shared by the protocol solvers: an agent that
    stays silent is a protocol bug, and backfilling 0.0 for it would turn a
    broken run into a "feasible" all-wrong solution.
    """
    silent = np.flatnonzero(np.isnan(values))
    if len(silent):
        missing = [instance.agents[int(p)] for p in silent[:5]]
        raise SimulationError(
            f"protocol finished with {len(silent)} agent(s) producing no "
            f"output (first few: {missing!r}); refusing to backfill zeros"
        )


class RoundStatistics:
    """Per-round accounting."""

    __slots__ = ("round_number", "messages")

    def __init__(self, round_number: int, messages: int) -> None:
        self.round_number = round_number
        self.messages = messages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundStatistics(round={self.round_number}, messages={self.messages})"


class RunResult:
    """Outcome of one protocol execution.

    Attributes
    ----------
    values:
        The agents' outputs as a float64 vector in canonical agent order
        (NaN = the agent produced no output).
    agents:
        The agent ids, in the order of ``values``.
    rounds:
        Number of synchronous rounds executed.
    total_messages:
        Total number of messages sent (dropped ones included).
    per_round:
        List of :class:`RoundStatistics`.
    """

    __slots__ = ("values", "agents", "rounds", "total_messages", "per_round")

    def __init__(
        self,
        values: np.ndarray,
        agents: Sequence[Any],
        rounds: int,
        total_messages: int,
        per_round: List[RoundStatistics],
    ) -> None:
        self.values = values
        self.agents = agents
        self.rounds = rounds
        self.total_messages = total_messages
        self.per_round = per_round

    @property
    def outputs(self) -> Dict[Any, float]:
        """Mapping from agent id to its output, for agents that produced one."""
        return {v: x for v, x in zip(self.agents, self.values.tolist()) if x == x}

    @property
    def messages_per_round(self) -> float:
        return self.total_messages / self.rounds if self.rounds else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(rounds={self.rounds}, messages={self.total_messages}, "
            f"agents={len(self.agents)})"
        )


class SynchronousRuntime:
    """Drives a :class:`~repro.distributed.plane.VectorizedProtocol` over a plane.

    Parameters
    ----------
    plane:
        The :class:`~repro.distributed.plane.MessagePlane` of the instance.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (or live injector) whose
        message faults drop delivery slots.  Dropped messages count as
        *sent* — the sender paid for them — but never arrive, modelling a
        failed link for robustness experiments.  The per-node oracle drops
        the same slots under the same plan (the chaos-equivalence contract
        of ``tests/test_resilient.py``).
    """

    def __init__(
        self,
        plane: MessagePlane,
        *,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        self.plane = plane
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults

    def run(self, protocol: VectorizedProtocol, rounds: int) -> RunResult:
        """Execute ``rounds`` synchronous rounds of ``protocol``.

        Each round the protocol composes the whole network's outgoing
        messages; a NaN/inf value on the wire aborts the run; the runtime
        records the round's message count, delivers the slots that
        :meth:`_deliver` lets through, and they become the next round's
        inbox.
        """
        plane = self.plane
        with obs.span("runtime.run", slots=plane.num_slots, rounds=rounds):
            inbox_mask, inbox_values = plane.empty_round()
            protocol.begin(plane)
            per_round: List[RoundStatistics] = []
            for round_number in range(1, rounds + 1):
                out_mask, out_values = protocol.compose(
                    round_number, inbox_mask, inbox_values, plane
                )
                sent = np.flatnonzero(out_mask)
                self._check_finite(round_number, sent, out_values)
                per_round.append(RoundStatistics(round_number, len(sent)))
                delivered = self._deliver(round_number, sent)
                inbox_mask, inbox_values = plane.empty_round()
                received = plane.reverse[delivered]
                inbox_mask[received] = True
                inbox_values[received] = out_values[delivered]

            total_messages = sum(s.messages for s in per_round)
            obs.count("runtime.rounds", rounds)
            obs.count("runtime.messages", total_messages)
            values = np.asarray(protocol.outputs(plane), dtype=np.float64)
            return RunResult(values, plane.comp.agents, rounds, total_messages, per_round)

    def _check_finite(self, round_number: int, sent: np.ndarray, values: np.ndarray) -> None:
        """Refuse to deliver a NaN/inf message: the protocol state is corrupt."""
        finite = np.isfinite(values[sent])
        if finite.all():
            return
        plane = self.plane
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

    def _deliver(self, round_number: int, sent: np.ndarray) -> np.ndarray:
        """The sent slots that arrive: all of them, less the plan's drops."""
        if self.faults is None:
            return sent
        drop = self.faults.dropped_slots(round_number, self.plane.num_slots)
        if not drop:
            return sent
        lost = np.isin(sent, np.fromiter(drop, dtype=np.int64))
        if not lost.any():
            return sent
        obs.count("faults.dropped_messages", int(lost.sum()))
        return sent[~lost]
