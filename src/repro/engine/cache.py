"""Content-addressed on-disk result cache with per-entry integrity checks.

Entries are keyed by :meth:`repro.engine.job.JobSpec.cache_key` — a SHA-256
over (instance content digest, algorithm, solver version, parameters) — so a
cache hit is valid by construction: any change to the instance, the
algorithm's version tag or its parameters lands on a different key.  There is
no invalidation protocol to get wrong; stale entries are simply never
addressed again (and can be garbage-collected by deleting the directory).

The layout is git-object-like (``<root>/<key[:2]>/<key>.json``) to keep
directory fan-out bounded on large sweeps.  Each write goes to a temporary
file of its own in the entry's directory, is flushed and ``os.fsync``-ed,
and is then moved into place with ``os.replace``.  So a reader sees either
no entry or a complete one, an entry's bytes are on disk before it becomes
visible (a crash loses at most entries, never their content), and
concurrent writers of the same key —
threads of one process, or processes sharing the directory — never touch
each other's temporary files: the last ``os.replace`` wins, with identical
bytes.  That durability is what makes the cache the engine's checkpoint: a
killed sweep re-run with the same cache directory executes only the jobs
whose entries are missing.

Every entry carries a SHA-256 checksum over its canonicalised records,
recomputed on read.  A missing file is an ordinary miss; a file that exists
but cannot be parsed, fails the format check or fails the checksum is
*corrupt*: it is quarantined (moved to ``<root>/corrupt/<key>.json`` for
post-mortem), counted under ``cache.corrupt``, and reported as a miss so the
job is recomputed and the entry rewritten clean — silent bit rot never
reaches a sweep's records.  Fault injection plumbs in here too: a cache
built with ``faults=`` passes every written payload through
:meth:`repro.faults.injector.FaultInjector.corrupt_put`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import obs
from ..exceptions import EngineError
from ..faults import FaultInjector, FaultPlan
from .job import Record

__all__ = ["ResultCache"]

_FORMAT = "repro.engine-result"
#: Version 2 added the per-entry ``checksum`` field; version-1 entries (and
#: any other recognisable-but-foreign version) read as plain misses, so a
#: pre-upgrade cache directory is silently recomputed, not quarantined.
_VERSION = 2

_CORRUPT_DIR = "corrupt"


def _records_checksum(records: List[Record]) -> str:
    """Canonical content hash of a record list (key order independent)."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of cached job results, addressed by cache key.

    ``faults`` optionally wires a :class:`~repro.faults.plan.FaultPlan` (or a
    live :class:`~repro.faults.injector.FaultInjector`) into the write path
    for chaos testing; production callers simply omit it.
    """

    def __init__(
        self,
        root: Union[str, Path],
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise EngineError(f"cache directory {str(self.root)!r} exists but is not a directory")
        if isinstance(faults, FaultPlan):
            faults = faults.injector()
        self.faults: Optional[FaultInjector] = faults
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _miss(self) -> None:
        self.misses += 1
        obs.count("cache.misses")

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a corrupt entry aside for post-mortem; never let it re-hit."""
        self.corrupt += 1
        obs.count("cache.corrupt")
        target = self.root / _CORRUPT_DIR / f"{key}.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Quarantine is best-effort (another process may have raced the
            # move); the recompute-and-rewrite path heals the entry anyway.
            pass

    def get(self, key: str) -> Optional[List[Record]]:
        """The cached records for ``key``, or ``None`` on a miss.

        A missing file is a plain miss.  A file that is *present* but
        unreadable, malformed, or failing its checksum is corrupt: it is
        quarantined under ``<root>/corrupt/`` and counted as a miss, so the
        job is recomputed and the entry overwritten clean.  Entries written
        by a recognisable older cache version are plain misses (recomputed,
        not quarantined).
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, ValueError):
            # ValueError covers both JSONDecodeError and UnicodeDecodeError
            # (a truncated write can leave invalid UTF-8 behind).
            self._quarantine(key, path)
            self._miss()
            return None
        if (
            isinstance(payload, dict)
            and payload.get("format") == _FORMAT
            and payload.get("version") != _VERSION
        ):
            # A foreign-but-wellformed version: stale, not corrupt.
            self._miss()
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
            or not isinstance(payload.get("records"), list)
            or payload.get("checksum") != _records_checksum(payload["records"])
        ):
            self._quarantine(key, path)
            self._miss()
            return None
        self.hits += 1
        obs.count("cache.hits")
        return payload["records"]

    def put(self, key: str, records: List[Record]) -> Path:
        """Store the records for ``key``; returns the entry path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "key": key,
            "checksum": _records_checksum(records),
            "records": records,
        }
        data = json.dumps(payload).encode("utf-8")
        if self.faults is not None:
            data = self.faults.corrupt_put(key, data)
        # A name no other writer uses (O_EXCL guarantees it), so same-key
        # writers in one process cannot replace or tear each other's file.
        tmp = path.with_name(f"{key}.{os.urandom(8).hex()}.tmp")
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.stores += 1
        obs.count("cache.stores")
        return path

    def stats(self) -> Dict[str, int]:
        """Hits, misses, stores and corruptions seen by this cache object.

        Counters live on the object, not on disk: two processes sharing one
        cache directory each see their own traffic.  ``entries`` counts the
        live entries currently present under the root (whoever wrote them);
        quarantined files are excluded.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "entries": sum(1 for _ in self.root.glob("??/*.json")) if self.root.is_dir() else 0,
        }

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
