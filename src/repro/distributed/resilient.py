"""Fault-tolerant synchronous execution with locality-bounded degradation.

The plain :class:`~repro.distributed.runtime.SynchronousRuntime` dies on the
first fault it cannot hide: a dropped slot leaves some agent waiting for a
sibling sum and :class:`~repro.exceptions.SimulationError` kills the whole
simulation.  This module is the missing systems half of the paper's central
property — every §5 output is determined by a radius-``(4r+2)`` view
(smoothing-hop radius ``2r+1``), so a fault should cost its hop-ball, not
the network.

Three layers implement that:

**Retransmission** (:class:`ResilientRuntime`: the plain runtime's round
loop with its own delivery step).  Every round the runtime compares the
sent slots against the attempt-0 drop set of the
:class:`~repro.faults.FaultPlan` and re-sends each dropped slot up to
``retransmit_budget`` times (``runtime.retransmits``); a
:class:`~repro.faults.MessageFault` with the default ``attempts=(0,)``
glitch profile is fully healed, so loss under the budget yields outputs
**bitwise-identical** to the fault-free run.  Slots still dropped after the
budget — persistent faults with ``attempts=None`` — are *lost*
(``runtime.lost_messages``) and become degradation seeds.

**Recovery by re-execution.**  A lost slot or faulty agent does not poison
the arithmetic of its neighbours: the §5 dependency structure means every
agent outside the fault ball can recompute its exact value from its own
radius-``(4r+2)`` view, which the fault never touched.  The runtime models
this by executing the protocol on the healed message flow and charging the
faults to a ledger instead of the number stream; babbling payloads are
detected (non-finite on the wire) and quarantined rather than delivered.
The ledger — who lost what, when — is returned on the
:class:`ResilientRunResult`.

**Local degradation** (:class:`ResilientLocalSolver` /
:class:`ResilientSafeSolver`).  Agents whose exact output cannot be trusted
— the ``(2r+1)`` smoothing-hop ball around every fault site, computed with
:func:`~repro.algo.kernels.agent_hop_balls` — fall back to the §1.3 safe
share, additionally capped by the residual slack of any *exact* constraint
partner so the mixed exact/safe assignment stays feasible by construction
(an exact partner may legitimately use more than half a constraint; the
degraded agent yields the difference).  Crashed and babbling agents output
0.0 and are reported ``failed``.  Every agent outside the ball keeps its
exact §5 output bitwise-unchanged.  The per-agent verdict ships as a
:class:`DegradationCertificate` on ``Solution.degradation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .. import obs
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_nondegenerate, require_special_form
from ..exceptions import SimulationError
from ..faults import FaultInjector, FaultPlan
from .agents import PhaseSchedule, VectorizedMaxMinProtocol
from .plane import MessagePlane, VectorizedProtocol
from .runtime import RunResult, SynchronousRuntime, require_agent_outputs
from .safe_agents import SAFE_ALGORITHM_ROUNDS, VectorizedSafeProtocol

__all__ = [
    "AGENT_EXACT",
    "AGENT_SAFE",
    "AGENT_FAILED",
    "FaultEvent",
    "DegradationCertificate",
    "ResilientRunResult",
    "ResilientRuntime",
    "ResilientLocalSolver",
    "ResilientSafeSolver",
]

#: Certificate status codes (per agent, canonical agent order).
AGENT_EXACT = 0
AGENT_SAFE = 1
AGENT_FAILED = 2

_STATUS_NAMES = {AGENT_EXACT: "exact", AGENT_SAFE: "safe", AGENT_FAILED: "failed"}


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


@dataclass(frozen=True)
class DegradationCertificate:
    """Per-agent verdict of a faulty distributed run.

    ``statuses`` holds one of :data:`AGENT_EXACT` / :data:`AGENT_SAFE` /
    :data:`AGENT_FAILED` per agent in canonical agent order; ``ball`` the
    agent positions inside the degradation ball (radius ``2r+1`` smoothing
    hops around every fault site).  The retransmit accounting makes the
    budget auditable: ``dropped_messages`` attempt-0 drops, of which
    ``lost_messages`` survived all ``retransmit_budget`` retries.
    """

    agents: Tuple[Any, ...]
    statuses: np.ndarray
    ball: np.ndarray
    events: Tuple[FaultEvent, ...] = ()
    retransmits: int = 0
    retransmit_budget: int = 0
    dropped_messages: int = 0
    lost_messages: int = 0
    rounds: int = 0

    @property
    def clean(self) -> bool:
        """Whether the run saw no faults at all (not even recovered drops)."""
        return (
            not self.events
            and self.dropped_messages == 0
            and bool((self.statuses == AGENT_EXACT).all())
        )

    def counts(self) -> Dict[str, int]:
        return {
            name: int((self.statuses == code).sum())
            for code, name in _STATUS_NAMES.items()
        }

    def status_of(self, agent: Any) -> str:
        try:
            position = self.agents.index(agent)
        except ValueError:
            raise SimulationError(f"certificate has no agent {agent!r}") from None
        return _STATUS_NAMES[int(self.statuses[position])]

    def positions_with(self, status: str) -> np.ndarray:
        codes = {name: code for code, name in _STATUS_NAMES.items()}
        if status not in codes:
            raise SimulationError(f"unknown certificate status {status!r}")
        return np.flatnonzero(self.statuses == codes[status])

    def agents_with(self, status: str) -> Tuple[Any, ...]:
        return tuple(self.agents[int(p)] for p in self.positions_with(status))

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (statuses as counts plus the non-exact ids)."""
        return {
            "counts": self.counts(),
            "ball_size": int(len(self.ball)),
            "degraded_agents": [repr(a) for a in self.agents_with("safe")],
            "failed_agents": [repr(a) for a in self.agents_with("failed")],
            "retransmits": self.retransmits,
            "retransmit_budget": self.retransmit_budget,
            "dropped_messages": self.dropped_messages,
            "lost_messages": self.lost_messages,
            "rounds": self.rounds,
            "events": [e.as_dict() for e in self.events],
        }

    def summary(self) -> str:
        c = self.counts()
        return (
            f"certificate: {c['exact']} exact / {c['safe']} safe / "
            f"{c['failed']} failed; {self.retransmits} retransmit(s), "
            f"{self.lost_messages}/{self.dropped_messages} message(s) lost "
            f"(budget {self.retransmit_budget}), {len(self.events)} fault event(s)"
        )


class ResilientRunResult(RunResult):
    """A :class:`RunResult` plus the run's fault ledger."""

    __slots__ = ("retransmits", "dropped_messages", "lost_slots", "agent_fault_rounds", "events")

    def __init__(self, base: RunResult, ledger: "_Ledger") -> None:
        super().__init__(base.values, base.agents, base.rounds, base.total_messages, base.per_round)
        self.retransmits = ledger.retransmits
        self.dropped_messages = ledger.dropped_messages
        self.lost_slots = ledger.lost_slots
        self.agent_fault_rounds = ledger.agent_fault_rounds
        self.events = tuple(ledger.events)

    @property
    def lost_messages(self) -> int:
        return sum(len(slots) for slots in self.lost_slots.values())

    def faulty_agent_positions(self) -> Dict[str, Tuple[int, ...]]:
        return {
            kind: tuple(sorted(rounds_by_pos))
            for kind, rounds_by_pos in self.agent_fault_rounds.items()
        }


class _Ledger:
    """The faults one resilient run charged, filled in round by round."""

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


def _slot_agent_endpoints(plane: MessagePlane, slots) -> Set[int]:
    """Agent positions a faulty slot could influence (both link directions).

    A lost agent→relay message starves the relay's aggregate, which feeds
    every member agent; a lost relay→agent message starves that agent.  We
    seed the degradation ball with the agent endpoint *and* the relay's full
    membership — conservative by at most one smoothing hop.
    """
    comp = plane.comp
    seeds: Set[int] = set()
    for raw in slots:
        for s in (int(raw), int(plane.reverse[int(raw)])):
            if s < plane.con_base:
                pos = int(np.searchsorted(plane.agent_indptr, s, side="right")) - 1
                seeds.add(pos)
            elif s < plane.obj_base:
                rel = s - plane.con_base
                row = int(np.searchsorted(comp.cagents_indptr, rel, side="right")) - 1
                lo, hi = comp.cagents_indptr[row], comp.cagents_indptr[row + 1]
                seeds.update(int(m) for m in comp.cagents_indices[lo:hi])
            else:
                rel = s - plane.obj_base
                row = int(np.searchsorted(comp.oagents_indptr, rel, side="right")) - 1
                lo, hi = comp.oagents_indptr[row], comp.oagents_indptr[row + 1]
                seeds.update(int(m) for m in comp.oagents_indices[lo:hi])
    return seeds


class ResilientRuntime(SynchronousRuntime):
    """Synchronous runtime with per-round ack/retransmit and a fault ledger.

    It runs the round loop of :class:`SynchronousRuntime` and replaces only
    the delivery step (see module docstring): attempt-0 drops are detected
    against the sent slots and re-sent up to ``retransmit_budget`` times;
    what the budget recovers is delivered as if the link had never
    glitched, what it cannot recover is charged to the ledger and healed by
    re-execution, so downstream protocol state is never silently corrupted.
    The plain runtime's behaviour is the degenerate case
    ``retransmit_budget=0`` *plus* treating every loss as fatal.  A NaN/inf
    value the protocol itself composes still aborts the run, as on the plain
    runtime: resilience covers *injected* faults, not bugs.
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
        super().__init__(plane, faults=faults)
        self.retransmit_budget = retransmit_budget

    def run(self, protocol: VectorizedProtocol, rounds: int) -> ResilientRunResult:
        self._ledger = _Ledger()
        return ResilientRunResult(super().run(protocol, rounds), self._ledger)

    def _deliver(self, round_number: int, sent: np.ndarray) -> np.ndarray:
        """Every sent slot arrives; the round's faults go to the ledger."""
        if self.faults is None:
            return sent
        ledger = self._ledger
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
            return sent
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
        return sent


def _certificate(
    plane: MessagePlane,
    result: ResilientRunResult,
    statuses: np.ndarray,
    ball: np.ndarray,
    retransmit_budget: int,
) -> DegradationCertificate:
    return DegradationCertificate(
        agents=tuple(plane.comp.agents),
        statuses=statuses,
        ball=ball,
        events=result.events,
        retransmits=result.retransmits,
        retransmit_budget=retransmit_budget,
        dropped_messages=result.dropped_messages,
        lost_messages=result.lost_messages,
        rounds=result.rounds,
    )


class ResilientLocalSolver:
    """The §5 protocol on the resilient runtime, with certified degradation.

    Without faults (or with loss fully recovered by the retransmit budget)
    the solution is bitwise-identical to
    :class:`~repro.distributed.agents.DistributedLocalSolver` and the
    certificate is all-exact.  Beyond the budget, degradation is confined to
    the ``(2r+1)`` smoothing-hop ball around the fault sites: ball agents
    fall back to a slack-capped §1.3 safe share, crashed/babbling agents
    output 0.0 and report ``failed``, everyone else keeps the exact §5
    output bitwise-unchanged.

    The slack cap is what keeps the *mixed* assignment feasible: a degraded
    agent ``w`` takes ``min(safe share, min over exact partners u of
    max(0, (1 − a_iu·x_u) / a_iw))`` — exact partners may own more than
    half a constraint, so ``w`` yields the remaining slack (one extra local
    exchange in protocol terms; evaluated by the confined kernel here).
    Case analysis per constraint: exact+exact is §5-feasible, safe+safe
    sums to ≤ ½ + ½, exact+safe is capped, failed contributes 0.
    """

    def __init__(
        self,
        R: int = 3,
        *,
        tu_tol: float = 1e-10,
        retransmit_budget: int = 2,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        self.schedule = PhaseSchedule(R)
        self.tu_tol = tu_tol
        self.retransmit_budget = retransmit_budget
        self.faults = faults

    @property
    def R(self) -> int:
        return self.schedule.R

    @property
    def local_horizon(self) -> int:
        return self.schedule.total_rounds

    def solve(self, instance: MaxMinInstance) -> Tuple[Solution, ResilientRunResult]:
        require_special_form(instance)
        plane = MessagePlane(instance)
        runtime = ResilientRuntime(
            plane, faults=self.faults, retransmit_budget=self.retransmit_budget
        )
        with obs.span("resilient.solve", agents=plane.num_agents):
            result = runtime.run(
                VectorizedMaxMinProtocol(self.schedule, tu_tol=self.tu_tol),
                rounds=self.schedule.total_rounds,
            )
            require_agent_outputs(instance, result.values)
            comp = plane.comp
            n = comp.num_agents
            values = result.values.copy()

            failed = sorted(
                set(result.agent_fault_rounds["crash"])
                | set(result.agent_fault_rounds["babbling"])
            )
            silent = sorted(result.agent_fault_rounds["silent"])
            seeds: Set[int] = set(failed) | set(silent)
            for slots in result.lost_slots.values():
                seeds |= _slot_agent_endpoints(plane, slots)

            statuses = np.full(n, AGENT_EXACT, dtype=np.int8)
            if seeds:
                from ..algo.kernels import agent_hop_balls

                radius = 2 * self.schedule.r + 1
                (ball,) = agent_hop_balls(
                    comp, np.fromiter(seeds, dtype=np.int64), [radius]
                )
                statuses[ball] = AGENT_SAFE
            else:
                ball = np.empty(0, dtype=np.int64)
            failed_arr = np.asarray(failed, dtype=np.int64)
            statuses[failed_arr] = AGENT_FAILED

            safe_pos = np.flatnonzero(statuses == AGENT_SAFE)
            if len(safe_pos):
                values = self._degrade(comp, values, statuses, safe_pos)
            values[failed_arr] = 0.0

            obs.count("runtime.exact_agents", int((statuses == AGENT_EXACT).sum()))
            obs.count("runtime.degraded_agents", len(safe_pos))
            obs.count("runtime.crashed_agents", len(result.agent_fault_rounds["crash"]))
            obs.count("resilient.solves")

            cert = _certificate(plane, result, statuses, ball, self.retransmit_budget)
            solution = Solution.from_agent_array(
                instance, values, label=f"resilient-R{self.R}"
            )
            solution.degradation = cert
            return solution, result

    def _degrade(
        self,
        comp,
        values: np.ndarray,
        statuses: np.ndarray,
        safe_pos: np.ndarray,
    ) -> np.ndarray:
        """Slack-capped §1.3 fallback on ``safe_pos``, other rows untouched."""
        from ..algo.kernels import safe_fallback_confined
        from ..core.compiled import _segment_gather

        obs.count("resilient.fallback_rows", len(safe_pos))
        fallback = safe_fallback_confined(comp, safe_pos)

        deg = np.diff(comp.con_indptr)[safe_pos]
        has = deg > 0
        if has.any():
            adeg = deg[has]
            flat = _segment_gather(comp.con_indptr[safe_pos[has]], adeg)
            partner = comp.con_partner[flat]
            a_self = comp.con_coeff[flat]
            a_partner = comp.con_partner_coeff[flat]
            exact_partner = statuses[partner] == AGENT_EXACT
            cap = np.where(
                exact_partner,
                np.maximum(0.0, (1.0 - a_partner * values[partner]) / a_self),
                np.inf,
            )
            seg = np.zeros(len(adeg), dtype=np.int64)
            np.cumsum(adeg[:-1], out=seg[1:])
            capped = fallback.copy()
            capped[has] = np.minimum(fallback[has], np.minimum.reduceat(cap, seg))
        else:
            capped = fallback
        out = values.copy()
        # A free variable has no safe share (min over nothing = inf);
        # degrade it to 0 rather than ship an unbounded value.
        out[safe_pos] = np.where(np.isfinite(capped), capped, 0.0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientLocalSolver(R={self.R}, budget={self.retransmit_budget}, "
            f"faults={'yes' if self.faults is not None else 'no'})"
        )


class ResilientSafeSolver:
    """The 2-round safe protocol on the resilient runtime.

    The safe protocol's dependency radius is a single constraint edge, so
    the degradation ball is just the fault sites themselves.  An agent that
    misses a constraint's degree announcement beyond the budget substitutes
    the global degree bound ``Δ_I`` (paper §1: the degree bounds are global
    parameters, like ``R``): ``1/(Δ_I·a_iv) ≤ 1/(|V_i|·a_iv)``, so the
    degraded share only shrinks and stays feasible.  Crashed/babbling
    agents output 0.0 and report ``failed``; a merely *silent* agent stays
    exact — agents never send in this protocol, so its silence costs
    nobody anything.
    """

    def __init__(
        self,
        *,
        retransmit_budget: int = 2,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        self.retransmit_budget = retransmit_budget
        self.faults = faults

    @property
    def local_horizon(self) -> int:
        return SAFE_ALGORITHM_ROUNDS

    def solve(self, instance: MaxMinInstance) -> Tuple[Solution, ResilientRunResult]:
        require_nondegenerate(instance)
        plane = MessagePlane(instance)
        runtime = ResilientRuntime(
            plane, faults=self.faults, retransmit_budget=self.retransmit_budget
        )
        with obs.span("resilient.safe_solve", agents=plane.num_agents):
            result = runtime.run(VectorizedSafeProtocol(), rounds=SAFE_ALGORITHM_ROUNDS)
            require_agent_outputs(instance, result.values)
            comp = plane.comp
            n = comp.num_agents
            values = result.values.copy()

            failed = sorted(
                set(result.agent_fault_rounds["crash"])
                | set(result.agent_fault_rounds["babbling"])
            )
            # Which constraint announcements were lost, per receiving agent.
            missed: Dict[int, Set[int]] = {}
            for slots in result.lost_slots.values():
                for s in slots:
                    s = int(s)
                    if not plane.con_base <= s < plane.obj_base:
                        continue
                    rel = s - plane.con_base
                    row = int(
                        np.searchsorted(comp.cagents_indptr, rel, side="right")
                    ) - 1
                    missed.setdefault(int(comp.cagents_indices[rel]), set()).add(row)

            statuses = np.full(n, AGENT_EXACT, dtype=np.int8)
            delta_i = (
                int(comp.constraint_degrees.max()) if comp.num_constraints else 1
            )
            for pos, rows in sorted(missed.items()):
                statuses[pos] = AGENT_SAFE
                lo, hi = comp.con_indptr[pos], comp.con_indptr[pos + 1]
                best = np.inf
                for e in range(lo, hi):
                    i_row = int(comp.con_indices[e])
                    a_iv = float(comp.con_coeff[e])
                    d = delta_i if i_row in rows else int(comp.constraint_degrees[i_row])
                    best = min(best, 1.0 / (float(d) * a_iv))
                values[pos] = best if np.isfinite(best) else 0.0
            failed_arr = np.asarray(failed, dtype=np.int64)
            statuses[failed_arr] = AGENT_FAILED
            values[failed_arr] = 0.0
            ball = np.flatnonzero(statuses != AGENT_EXACT)

            safe_count = int((statuses == AGENT_SAFE).sum())
            obs.count("runtime.exact_agents", int((statuses == AGENT_EXACT).sum()))
            obs.count("runtime.degraded_agents", safe_count)
            obs.count("runtime.crashed_agents", len(result.agent_fault_rounds["crash"]))
            obs.count("resilient.solves")

            cert = _certificate(plane, result, statuses, ball, self.retransmit_budget)
            solution = Solution.from_agent_array(instance, values, label="resilient-safe")
            solution.degradation = cert
            return solution, result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientSafeSolver(budget={self.retransmit_budget})"
