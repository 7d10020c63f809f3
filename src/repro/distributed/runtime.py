"""The synchronous round-based runtime (paper §1.2).

The runtime owns the clock of a run on a
:class:`~repro.distributed.plane.MessagePlane`: in every round the protocol
composes the whole network's outgoing messages
(:meth:`~repro.distributed.plane.VectorizedProtocol.compose`: a slot mask
plus float64 values), the runtime checks them, delivers them as one gather
through the plane's ``reverse`` permutation, and the delivered slots become
the next round's inbox.  It also keeps the accounting that the scalability
experiment (E5) reports: rounds and messages per round.

Faults go to a ledger, not into the message stream: every sent slot is
delivered.  Every §5 output is fixed by its radius-``(4r+2)`` view, so a
lost message is charged to the agents whose views it touched rather than
left to starve its receiver.  Per round the runtime compares the sent slots
with the attempt-0 drop set of a :class:`~repro.faults.FaultPlan` and
re-sends each dropped slot up to ``retransmit_budget`` times; what the
budget recovers arrived as if the link had never glitched, what it cannot
recover is *lost* and recorded, with the agent faults, on the
:class:`RunResult`.  The solvers of :mod:`repro.distributed.resilient` turn
that ledger into a degradation certificate.  The per-node simulator the
plane is tested against lives in :mod:`repro.oracle.distributed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..exceptions import SimulationError
from ..faults import FaultInjector, FaultPlan
from .plane import MessagePlane, VectorizedProtocol

__all__ = [
    "FaultEvent",
    "RoundStatistics",
    "RunResult",
    "SynchronousRuntime",
    "require_agent_outputs",
]


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


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the run's fault ledger.

    ``kind`` is ``"link_loss"`` (aggregated per round; ``count`` slots lost
    beyond the retransmit budget), or ``"agent_crash"`` / ``"agent_silent"``
    / ``"agent_babbling"`` (one event per agent, at the first afflicted
    round).  ``subject`` names the agent id or summarises the slots;
    ``detail`` carries the human-readable link descriptions.
    """

    kind: str
    round_number: int
    subject: str
    count: int = 1
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "round": self.round_number,
            "subject": self.subject,
            "count": self.count,
            "detail": self.detail,
        }


class _Ledger:
    """The faults one run charged, filled in round by round."""

    def __init__(self) -> None:
        self.retransmits = 0
        self.dropped_messages = 0
        self.lost_slots: Dict[int, Tuple[int, ...]] = {}
        self.agent_fault_rounds: Dict[str, Dict[int, int]] = {
            "crash": {},
            "silent": {},
            "babbling": {},
        }
        self.events: List[FaultEvent] = []


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
        Total number of messages sent; retransmissions are not counted.
    per_round:
        List of :class:`RoundStatistics`.
    retransmits, dropped_messages:
        Re-sends the retransmit budget spent, and the attempt-0 drops they
        answered.
    lost_slots:
        Per round, the slots the budget could not recover.
    agent_fault_rounds:
        Per fault kind (``"crash"``, ``"silent"``, ``"babbling"``), the
        afflicted agent positions and the round each was first hit.
    events:
        The ledger's :class:`FaultEvent` entries in round order.

    The fault fields are zero or empty on a run without faults.
    """

    __slots__ = (
        "values",
        "agents",
        "rounds",
        "total_messages",
        "per_round",
        "retransmits",
        "dropped_messages",
        "lost_slots",
        "agent_fault_rounds",
        "events",
    )

    def __init__(
        self,
        values: np.ndarray,
        agents: Sequence[Any],
        rounds: int,
        total_messages: int,
        per_round: List[RoundStatistics],
        ledger: _Ledger,
    ) -> None:
        self.values = values
        self.agents = agents
        self.rounds = rounds
        self.total_messages = total_messages
        self.per_round = per_round
        self.retransmits = ledger.retransmits
        self.dropped_messages = ledger.dropped_messages
        self.lost_slots = ledger.lost_slots
        self.agent_fault_rounds = ledger.agent_fault_rounds
        self.events = tuple(ledger.events)

    @property
    def outputs(self) -> Dict[Any, float]:
        """Mapping from agent id to its output, for agents that produced one."""
        return {v: x for v, x in zip(self.agents, self.values.tolist()) if x == x}

    @property
    def messages_per_round(self) -> float:
        return self.total_messages / self.rounds if self.rounds else 0.0

    @property
    def lost_messages(self) -> int:
        return sum(len(slots) for slots in self.lost_slots.values())

    def faulty_agent_positions(self) -> Dict[str, Tuple[int, ...]]:
        return {
            kind: tuple(sorted(rounds_by_pos))
            for kind, rounds_by_pos in self.agent_fault_rounds.items()
        }

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
        message and agent faults the run charges to its ledger (see the
        module docstring).  With ``None`` the run does no fault work and
        the ledger stays empty.
    retransmit_budget:
        Re-sends per round before a dropped slot counts as lost.

    A NaN/inf value the protocol itself composes aborts the run: the ledger
    covers *injected* faults, not bugs.
    """

    def __init__(
        self,
        plane: MessagePlane,
        *,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retransmit_budget: int = 2,
    ) -> None:
        if retransmit_budget < 0:
            raise SimulationError("retransmit_budget must be >= 0")
        self.plane = plane
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults
        self.retransmit_budget = retransmit_budget

    def run(self, protocol: VectorizedProtocol, rounds: int) -> RunResult:
        """Execute ``rounds`` synchronous rounds of ``protocol``.

        Each round the protocol composes the whole network's outgoing
        messages; a NaN/inf value on the wire aborts the run; the runtime
        records the round's message count and its faults, delivers every
        sent slot, and they become the next round's inbox.
        """
        plane = self.plane
        ledger = _Ledger()
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
                if self.faults is not None:
                    self._charge_faults(round_number, sent, ledger)
                inbox_mask, inbox_values = plane.empty_round()
                received = plane.reverse[sent]
                inbox_mask[received] = True
                inbox_values[received] = out_values[sent]

            total_messages = sum(s.messages for s in per_round)
            obs.count("runtime.rounds", rounds)
            obs.count("runtime.messages", total_messages)
            values = np.asarray(protocol.outputs(plane), dtype=np.float64)
            return RunResult(
                values, plane.comp.agents, rounds, total_messages, per_round, ledger
            )

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

    def _charge_faults(self, round_number: int, sent: np.ndarray, ledger: _Ledger) -> None:
        """Charge the round's agent faults and unrecovered drops to ``ledger``."""
        plane = self.plane

        # Agent faults: record first-afflicted rounds.  A babbler's garbage
        # is detected at the receivers (non-finite payloads) and discarded;
        # from the ledger's perspective it is a crashed node.
        states = self.faults.agent_faults(round_number, plane.num_agents)
        for kind, afflicted in states.items():
            first_round = ledger.agent_fault_rounds[kind]
            for pos in sorted(afflicted):
                if pos not in first_round:
                    first_round[pos] = round_number
                    obs.count(f"faults.agent_{kind}")
                    ledger.events.append(
                        FaultEvent(
                            kind=f"agent_{kind}",
                            round_number=round_number,
                            subject=repr(plane.comp.agents[pos]),
                        )
                    )

        # Link faults: detect attempt-0 drops, retransmit up to the budget,
        # charge the rest to the ledger.
        drop = self.faults.dropped_slots(round_number, plane.num_slots, 0)
        if not drop:
            return
        outstanding = sent[np.isin(sent, np.fromiter(drop, dtype=np.int64))].tolist()
        if outstanding:
            ledger.dropped_messages += len(outstanding)
            obs.count("faults.dropped_messages", len(outstanding))
        attempt = 0
        while outstanding and attempt < self.retransmit_budget:
            attempt += 1
            ledger.retransmits += len(outstanding)
            obs.count("runtime.retransmits", len(outstanding))
            redrop = self.faults.dropped_slots(round_number, plane.num_slots, attempt) or set()
            still = [s for s in outstanding if s in redrop]
            if len(still) < len(outstanding):
                obs.count("runtime.recovered_messages", len(outstanding) - len(still))
            outstanding = still
        if outstanding:
            ledger.lost_slots[round_number] = tuple(outstanding)
            obs.count("runtime.lost_messages", len(outstanding))
            ledger.events.append(
                FaultEvent(
                    kind="link_loss",
                    round_number=round_number,
                    subject=f"{len(outstanding)} slot(s)",
                    count=len(outstanding),
                    detail="; ".join(plane.describe_slot(s) for s in outstanding[:3]),
                )
            )
