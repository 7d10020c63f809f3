"""The resident-instance registry: a bounded LRU of hot instances.

The server keeps :class:`~repro.core.instance.MaxMinInstance` objects
resident between requests.  That is where the per-instance caches earned in
the compilation campaign live — the compiled CSR view, the §4 transform
results and the preprocess fixed point all attach to the *instance object*,
so a resident instance answers its second solve without
re-running any of them.  The registry is therefore the hot tier; the
engine's on-disk :class:`~repro.engine.cache.ResultCache` is the persistent
tier that survives eviction and restarts.

Every entry is keyed by the SHA-256 digest of its canonical document
(:func:`~repro.io.serialization.instance_to_json`), and admission is
digest-first: an uploaded text whose digest is resident is byte-identical to
that resident's canonical document, so re-uploading it costs one hash — no
parse, no validation, no re-serialization.  Any other text is parsed,
validated and admitted under its *canonical* digest, so client formatting
never splits one instance across two residents.

Capacity is bounded: past ``capacity`` residents the least-recently-used
entry is evicted (its per-instance caches go with it).  A client that
addresses an evicted digest gets a structured ``not_found`` and re-sends the
instance document — the same contract as any content-addressed cache.

Thread-safe: request handlers run on executor threads, so every mutation
holds one lock.  The per-entry LP optimum is computed lazily under a
per-entry lock so concurrent ratio requests for one instance solve the LP
once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from .. import obs
from ..core.instance import MaxMinInstance
from ..exceptions import SerializationError
from ..io.serialization import instance_digest, instance_from_json, instance_to_json
from .protocol import ServeError

__all__ = ["ResidentInstance", "InstanceRegistry"]


class ResidentInstance:
    """One resident instance plus its lazily computed exact optimum."""

    __slots__ = ("digest", "instance", "json_text", "_lp_optimum", "_lp_lock")

    def __init__(self, digest: str, instance: MaxMinInstance, json_text: str) -> None:
        self.digest = digest
        self.instance = instance
        self.json_text = json_text
        self._lp_optimum: Optional[float] = None
        self._lp_lock = threading.Lock()

    def lp_optimum(self, solve: Callable[[MaxMinInstance], float]) -> float:
        """The exact LP optimum, computed once per residency."""
        with self._lp_lock:
            if self._lp_optimum is None:
                self._lp_optimum = float(solve(self.instance))
            return self._lp_optimum


class InstanceRegistry:
    """Bounded LRU of resident instances, keyed by content digest."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ServeError("bad_request", f"registry capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, ResidentInstance]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def digests(self) -> List[str]:
        """Resident digests, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def get(self, digest: str) -> ResidentInstance:
        """The resident entry for ``digest`` (marks it recently used)."""
        entry = self._touch(digest)
        if entry is None:
            raise ServeError(
                "not_found",
                f"instance {digest[:12]}… is not resident; re-send the request "
                "with the full 'instance' document",
            )
        return entry

    def admit_json(self, json_text: str) -> ResidentInstance:
        """Make the instance encoded by ``json_text`` resident (or touch it).

        When the text's digest is resident, the text is byte-identical to
        that resident's canonical document, validated at its admission, so
        the hit costs one SHA-256.  Any other text is parsed and validated
        (a malformed document is a ``bad_request``) and admitted under its
        canonical digest.
        """
        entry = self._touch(instance_digest(json_text))
        if entry is not None:
            return entry
        try:
            instance = instance_from_json(json_text)
        except SerializationError as exc:
            raise ServeError("bad_request", f"invalid instance document: {exc}") from exc
        return self.admit_instance(instance)

    def admit_instance(self, instance: MaxMinInstance) -> ResidentInstance:
        """Make a live instance resident under its canonical digest (or touch it)."""
        json_text = instance_to_json(instance)
        return self._admit(ResidentInstance(instance_digest(json_text), instance, json_text))

    def _touch(self, digest: str) -> Optional[ResidentInstance]:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
            return entry

    def _admit(self, entry: ResidentInstance) -> ResidentInstance:
        evicted: List[str] = []
        with self._lock:
            existing = self._entries.get(entry.digest)
            if existing is not None:  # already resident, or a concurrent admit won
                self._entries.move_to_end(entry.digest)
                return existing
            self._entries[entry.digest] = entry
            while len(self._entries) > self.capacity:
                old_digest, _ = self._entries.popitem(last=False)
                evicted.append(old_digest)
                self.evictions += 1
            size = len(self._entries)
        for _ in evicted:
            obs.count("serve.evictions")
        obs.gauge("serve.resident_instances", size)
        return entry

    def snapshot(self) -> Tuple[int, int, int]:
        """``(resident, capacity, evictions)`` for the admin endpoint."""
        with self._lock:
            return len(self._entries), self.capacity, self.evictions
