"""The distributed solvers, one per protocol, with certified degradation.

Every §5 output is determined by a radius-``(4r+2)`` view (smoothing-hop
radius ``2r+1``), so a fault should cost its hop-ball, not the network.
The :class:`~repro.distributed.runtime.SynchronousRuntime` retransmits what
its budget can recover and charges the rest to the fault ledger of its
:class:`~repro.distributed.runtime.RunResult`; a transient glitch (a
:class:`~repro.faults.MessageFault` with the default ``attempts=(0,)``) is
fully healed, so loss under the budget yields outputs **bitwise-identical**
to the fault-free run.  The solvers here turn the ledger into a per-agent
verdict:

**Recovery by re-execution.**  A lost slot or faulty agent does not poison
the arithmetic of its neighbours: the §5 dependency structure means every
agent outside the fault ball can recompute its exact value from its own
radius-``(4r+2)`` view, which the fault never touched.  The runtime models
this by executing the protocol on the healed message flow and charging the
faults to the ledger instead of the number stream.

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
:class:`DegradationCertificate` on ``Solution.degradation``; without
faults it is all-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple, Union

import numpy as np

from .. import obs
from ..algo.kernels import DEFAULT_BISECTION_TOL
from ..core.instance import MaxMinInstance
from ..core.solution import Solution
from ..core.validation import require_nondegenerate, require_special_form
from ..exceptions import SimulationError
from ..faults import FaultInjector, FaultPlan
from .agents import PhaseSchedule, VectorizedMaxMinProtocol
from .plane import MessagePlane
from .runtime import FaultEvent, RunResult, SynchronousRuntime, require_agent_outputs
from .safe_agents import SAFE_ALGORITHM_ROUNDS, VectorizedSafeProtocol

__all__ = [
    "AGENT_EXACT",
    "AGENT_SAFE",
    "AGENT_FAILED",
    "DegradationCertificate",
    "ResilientLocalSolver",
    "ResilientSafeSolver",
]

#: Certificate status codes (per agent, canonical agent order).
AGENT_EXACT = 0
AGENT_SAFE = 1
AGENT_FAILED = 2

_STATUS_NAMES = {AGENT_EXACT: "exact", AGENT_SAFE: "safe", AGENT_FAILED: "failed"}


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


def _failed_positions(result: RunResult) -> np.ndarray:
    """Crashed and babbling agents: they output 0.0 and report ``failed``."""
    faulty = result.agent_fault_rounds
    return np.asarray(sorted(set(faulty["crash"]) | set(faulty["babbling"])), dtype=np.int64)


def _certified(
    instance: MaxMinInstance,
    result: RunResult,
    values: np.ndarray,
    statuses: np.ndarray,
    ball: np.ndarray,
    label: str,
    retransmit_budget: int,
) -> Tuple[Solution, RunResult]:
    """The tail both solvers share: zero the failed agents, count the
    verdicts, and return the solution with its certificate attached."""
    values[statuses == AGENT_FAILED] = 0.0
    obs.count("runtime.exact_agents", int((statuses == AGENT_EXACT).sum()))
    obs.count("runtime.degraded_agents", int((statuses == AGENT_SAFE).sum()))
    obs.count("runtime.crashed_agents", len(result.agent_fault_rounds["crash"]))
    obs.count("resilient.solves")
    solution = Solution.from_agent_array(instance, values, label=label)
    solution.degradation = DegradationCertificate(
        agents=tuple(result.agents),
        statuses=statuses,
        ball=ball,
        events=result.events,
        retransmits=result.retransmits,
        retransmit_budget=retransmit_budget,
        dropped_messages=result.dropped_messages,
        lost_messages=result.lost_messages,
        rounds=result.rounds,
    )
    return solution, result


class ResilientLocalSolver:
    """Run the §5 algorithm as an actual message-passing protocol.

    Only special-form instances are accepted: the §4 transformations are
    locally computable (paper §4.1) but are performed centrally in this
    library; use :class:`repro.algo.LocalMaxMinSolver` for arbitrary
    instances (or transform first and map the solution back yourself).
    The protocol runs as
    :class:`~repro.distributed.agents.VectorizedMaxMinProtocol` on the
    :class:`~repro.distributed.runtime.SynchronousRuntime`.

    Without faults (or with loss fully recovered by the retransmit budget)
    the certificate is all-exact.  Beyond the budget, degradation is
    confined to the ``(2r+1)`` smoothing-hop ball around the fault sites:
    ball agents fall back to a slack-capped §1.3 safe share,
    crashed/babbling agents output 0.0 and report ``failed``, everyone else
    keeps the exact §5 output bitwise-unchanged.

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
        tu_tol: float = DEFAULT_BISECTION_TOL,
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
        """The number of synchronous rounds the protocol needs (``12r + 7``)."""
        return self.schedule.total_rounds

    def solve(self, instance: MaxMinInstance) -> Tuple[Solution, RunResult]:
        """Execute the protocol and return the solution plus run statistics."""
        require_special_form(instance)
        plane = MessagePlane(instance)
        runtime = SynchronousRuntime(
            plane, faults=self.faults, retransmit_budget=self.retransmit_budget
        )
        with obs.span("resilient.solve", agents=plane.num_agents):
            result = runtime.run(
                VectorizedMaxMinProtocol(self.schedule, tu_tol=self.tu_tol),
                rounds=self.schedule.total_rounds,
            )
            require_agent_outputs(instance, result.values)
            comp = plane.comp
            values = result.values.copy()

            failed = _failed_positions(result)
            seeds: Set[int] = set(failed.tolist()) | set(result.agent_fault_rounds["silent"])
            for slots in result.lost_slots.values():
                seeds |= _slot_agent_endpoints(plane, slots)

            statuses = np.full(comp.num_agents, AGENT_EXACT, dtype=np.int8)
            if seeds:
                from ..algo.kernels import agent_hop_balls

                radius = 2 * self.schedule.r + 1
                (ball,) = agent_hop_balls(
                    comp, np.fromiter(seeds, dtype=np.int64), [radius]
                )
                statuses[ball] = AGENT_SAFE
            else:
                ball = np.empty(0, dtype=np.int64)
            statuses[failed] = AGENT_FAILED

            safe_pos = np.flatnonzero(statuses == AGENT_SAFE)
            if len(safe_pos):
                values = self._degrade(comp, values, statuses, safe_pos)
            return _certified(
                instance, result, values, statuses, ball,
                f"resilient-R{self.R}", self.retransmit_budget,
            )

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
    """Run the safe algorithm as a 2-round protocol, with certified degradation.

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

    def solve(self, instance: MaxMinInstance) -> Tuple[Solution, RunResult]:
        require_nondegenerate(instance)
        plane = MessagePlane(instance)
        runtime = SynchronousRuntime(
            plane, faults=self.faults, retransmit_budget=self.retransmit_budget
        )
        with obs.span("resilient.safe_solve", agents=plane.num_agents):
            result = runtime.run(VectorizedSafeProtocol(), rounds=SAFE_ALGORITHM_ROUNDS)
            require_agent_outputs(instance, result.values)
            comp = plane.comp
            values = result.values.copy()

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

            statuses = np.full(comp.num_agents, AGENT_EXACT, dtype=np.int8)
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
            statuses[_failed_positions(result)] = AGENT_FAILED
            ball = np.flatnonzero(statuses != AGENT_EXACT)
            return _certified(
                instance, result, values, statuses, ball,
                "resilient-safe", self.retransmit_budget,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientSafeSolver(budget={self.retransmit_budget})"
