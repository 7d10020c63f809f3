"""The runtime half of fault injection: :class:`FaultInjector`.

An injector evaluates one :class:`~repro.faults.plan.FaultPlan` at the
engine's injection points.  It is plumbed explicitly — the engine registry
calls :meth:`on_job_attempt` before each solve attempt, the
:class:`~repro.engine.cache.ResultCache` passes written bytes through
:meth:`corrupt_put`, and :class:`~repro.distributed.runtime.SynchronousRuntime`
asks :meth:`dropped_slots` and :meth:`agent_faults` per delivery round.  No
monkeypatching anywhere: a run without an injector executes the exact same
code with a handful of ``is None`` checks.

Injectors are cheap per-process objects.  Worker processes build their own
(``in_worker=True``) from the picklable plan, so a ``"crash"`` fault can
take the whole worker down with ``os._exit`` — the parent's recovery path
is then exercised for real, not simulated.  In a serial executor there is
no expendable process, so a crash fault degrades to raising
:class:`~repro.exceptions.FaultInjectionError` (visible, but survivable).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, Optional, Set

from .. import obs
from ..exceptions import FaultInjectionError
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the engine's injection points."""

    def __init__(self, plan: FaultPlan, *, in_worker: bool = False) -> None:
        self.plan = plan
        self.in_worker = in_worker
        # Cache-fault firing counts: per-rule, per-process (the process that
        # owns the ResultCache object is the only one writing entries).
        self._cache_fired: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Job path
    # ------------------------------------------------------------------

    def on_job_attempt(
        self,
        algorithm: str,
        digest: str,
        params: Dict[str, object],
        attempt: int,
        dispatch_attempt: int,
    ) -> None:
        """Fire any job fault matching this attempt (called before a solve).

        ``attempt`` is the in-process retry attempt (0-based); it selects
        ``"hang"``/``"transient"`` faults.  ``dispatch_attempt`` counts how
        often the engine has shipped this job to a worker; it selects
        ``"crash"`` faults, so an injected crash survives nothing — the
        re-dispatched job simply runs clean.
        """
        for fault in self.plan.job_faults:
            if not fault.matches(algorithm, digest, params):
                continue
            which = dispatch_attempt if fault.kind == "crash" else attempt
            if not fault.fires_on(which):
                continue
            if fault.kind == "crash":
                if self.in_worker:
                    # A real worker death: no result, no snapshot, a broken
                    # pool on the parent side.  os._exit skips atexit and
                    # multiprocessing cleanup by design.
                    os._exit(17)
                raise FaultInjectionError(
                    f"injected worker crash on {algorithm}@{digest[:10]} "
                    f"(dispatch attempt {dispatch_attempt}; no expendable worker "
                    "process in a serial executor)"
                )
            if fault.kind == "hang":
                obs.count("faults.hangs")
                time.sleep(fault.hang_s)
                continue  # a hang delays; other faults may still fire
            obs.count("faults.transient")
            raise FaultInjectionError(
                f"injected transient failure on {algorithm}@{digest[:10]} "
                f"(attempt {attempt})"
            )

    # ------------------------------------------------------------------
    # Cache path
    # ------------------------------------------------------------------

    def corrupt_put(self, key: str, data: bytes) -> bytes:
        """Return the (possibly corrupted) bytes to actually write for ``key``."""
        for index, fault in enumerate(self.plan.cache_faults):
            if fault.key_prefix and not key.startswith(fault.key_prefix):
                continue
            fired = self._cache_fired.get(index, 0)
            if fired >= fault.times:
                continue
            self._cache_fired[index] = fired + 1
            obs.count("faults.cache_corruptions")
            if fault.mode == "truncate":
                return data[: max(1, len(data) // 2)]
            # bitflip: XOR one deterministically chosen byte.  0x20 flips
            # the case of an ASCII letter, so the JSON often stays valid —
            # the checksum, not the parser, has to catch it.
            position = int.from_bytes(
                f"{self.plan.seed}:{key}".encode("utf-8")[-8:], "big"
            ) % len(data)
            flipped = bytearray(data)
            flipped[position] ^= 0x20
            return bytes(flipped)
        return data

    # ------------------------------------------------------------------
    # Message plane path
    # ------------------------------------------------------------------

    def dropped_slots(
        self, round_number: int, num_slots: int, attempt: int = 0
    ) -> Optional[Set[int]]:
        """The slot set to drop in this delivery round (``None`` = nothing).

        ``attempt`` is the 0-based transmission attempt: 0 is the round's
        original delivery, higher values are the runtime's retransmissions.
        The attempt-0 sample key is unchanged from before retransmits
        existed, so a plan's original-delivery drop set is stable.
        A fault with a finite ``attempts`` tuple models a lossy *channel* —
        each retry re-rolls an independent ``:retry{n}`` sample — while
        ``attempts=None`` models failed *links*: the same sampled slots
        drop on every attempt, so no retransmit budget can beat them.
        """
        dropped: Set[int] = set()
        for fault in self.plan.message_faults:
            if fault.round_number != round_number or not fault.fires_on(attempt):
                continue
            dropped.update(s for s in fault.slots if 0 <= s < num_slots)
            if fault.fraction > 0.0 and num_slots:
                key = f"{self.plan.seed}:{round_number}:{num_slots}"
                if attempt and fault.attempts is not None:
                    key = f"{key}:retry{attempt}"
                rng = random.Random(key)
                k = min(num_slots, int(round(fault.fraction * num_slots)))
                dropped.update(rng.sample(range(num_slots), k))
        return dropped or None

    # ------------------------------------------------------------------
    # Agent path
    # ------------------------------------------------------------------

    def agent_faults(self, round_number: int, num_agents: int) -> Dict[str, Set[int]]:
        """Agent positions afflicted per kind in this round.

        Returns ``{"crash": {...}, "silent": {...}, "babbling": {...}}``
        with empty sets for quiet kinds.  Fraction-based targets are
        sampled once per *fault rule* (keyed by the rule's index in the
        plan, not the round), so a fault afflicts the same agents for its
        whole active window — a crashed node does not resurrect and a
        different one crash the next round.
        """
        states: Dict[str, Set[int]] = {"crash": set(), "silent": set(), "babbling": set()}
        for index, fault in enumerate(self.plan.agent_faults):
            if not fault.active_in(round_number):
                continue
            afflicted = states[fault.kind]
            afflicted.update(a for a in fault.agents if 0 <= a < num_agents)
            if fault.fraction > 0.0 and num_agents:
                rng = random.Random(f"{self.plan.seed}:agent:{index}:{num_agents}")
                k = min(num_agents, int(round(fault.fraction * num_agents)))
                afflicted.update(rng.sample(range(num_agents), k))
        return states
