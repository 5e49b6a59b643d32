"""Calibration cache: pluggable backends plus the keyed front-end.

The expensive half of every mechanism (the noise-scale computation) is
memoized here.  Backends store JSON-safe payloads keyed by the opaque string
keys of :mod:`repro.serving.fingerprint`:

* :class:`InMemoryLRUCache` — a bounded, process-local LRU; the default.
* :class:`SQLiteCache` — a durable SQLite table so calibrations survive
  process restarts and are shared across processes (the "warm start a new
  server replica" path).

:class:`CalibrationCache` ties a backend to the key construction and tracks
hit/miss statistics.  It never invents keys: a calibration is only ever
returned for exactly the (mechanism fingerprint, query signature, data
signature, epsilon) combination it was computed under — see
``docs/architecture.md`` for why anything looser would be a privacy bug.
"""

from __future__ import annotations

import copy
import json
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.core.laplace import Calibration, Mechanism
from repro.core.queries import Query
from repro.exceptions import ValidationError
from repro.faults import fire
from repro.serving.fingerprint import cache_key
from repro.utils.sqlitedb import connect


class CacheBackend(ABC):
    """Minimal key-value store for JSON-safe calibration payloads."""

    @abstractmethod
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store (or overwrite) one payload."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    def clear(self) -> None:  # pragma: no cover - overridden where used
        """Drop every entry (optional for backends)."""
        raise NotImplementedError


class InMemoryLRUCache(CacheBackend):
    """Bounded in-memory LRU backend (thread-safe).

    Parameters
    ----------
    max_entries:
        Eviction threshold.  Calibration payloads are tiny (a scale plus
        diagnostics), so the default comfortably covers thousands of distinct
        (family, query, epsilon) combinations.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
        # Hand out a private copy: the stored payload is shared by every
        # future hit, and callers (``CalibrationCache.get_or_compute``) pass
        # its ``"state"`` sub-dict into ``mechanism.warm_start`` — a
        # mechanism that mutates its warm-start structures must not corrupt
        # the cache entry behind every later tenant's back.
        return copy.deepcopy(payload) if payload is not None else None

    def put(self, key: str, payload: dict[str, Any]) -> None:
        payload = copy.deepcopy(payload)  # detach from the caller's reference
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class SQLiteCache(CacheBackend):
    """Durable backend: one SQLite table of ``key -> payload`` JSON rows.

    Calibrations survive process restarts (the "warm start a new server
    replica" path), and any number of threads and processes may share one
    path.  ``put`` is a single-row upsert, so concurrent writers never lose
    each other's entries; ``get`` reads the row afresh, so an entry another
    process stored is found on the next lookup.  Every ``get`` parses a new
    object, so a caller mutating a hit cannot corrupt the stored entry.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS calibrations (
            key     TEXT PRIMARY KEY,
            payload TEXT NOT NULL
        )
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = connect(self.path)
        self._conn.execute(self._SCHEMA)

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM calibrations WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: str, payload: dict[str, Any]) -> None:
        text = json.dumps(payload)
        fire("cache.sqlite.put", path=str(self.path))
        with self._lock:
            self._conn.execute(
                "INSERT INTO calibrations (key, payload) VALUES (?, ?) "
                "ON CONFLICT (key) DO UPDATE SET payload = excluded.payload",
                (key, text),
            )

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM calibrations").fetchone()[0]

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM calibrations")

    def close(self) -> None:
        """Close the connection.  Idempotent."""
        with self._lock:
            self._conn.close()


class CalibrationCache:
    """Keyed front-end: memoizes :meth:`Mechanism.calibrate` results.

    Parameters
    ----------
    backend:
        Where payloads live; defaults to a fresh :class:`InMemoryLRUCache`.

    Attributes
    ----------
    hits, misses:
        Lookup statistics since construction (or :meth:`reset_stats`).
        The engine shares one cache across service worker threads, so the
        counters are mutated under a dedicated lock — unlocked ``+= 1``
        read-modify-writes drift under load and make ``hit_rate`` lie.

    :guarded: hits, misses
    """

    def __init__(self, backend: CacheBackend | None = None) -> None:
        self.backend = backend if backend is not None else InMemoryLRUCache()
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def key_for(self, mechanism: Mechanism, query: Query, data: Any) -> str:
        """The cache key this triple resolves to (exposed for testing)."""
        return cache_key(mechanism, query, data)

    def get(self, mechanism: Mechanism, query: Query, data: Any) -> Calibration | None:
        """Cached calibration for the triple, or ``None``."""
        payload = self.backend.get(self.key_for(mechanism, query, data))
        if payload is None:
            return None
        return Calibration.from_payload(payload)

    def get_or_compute(
        self,
        mechanism: Mechanism,
        query: Query,
        data: Any,
        compute: "Callable[[], Calibration] | None" = None,
    ) -> tuple[Calibration, bool]:
        """``(calibration, was_hit)`` — computing and storing on a miss.

        On a hit, a mechanism exposing ``warm_start`` is handed the stored
        internal state (the per-length sigma tables of the chain mechanisms,
        the ``W`` bounds of the Wasserstein Mechanism), so even its *direct*
        ``noise_scale`` calls become lookups afterwards.  On a miss, the
        mechanism's exported state rides along with the payload.

        ``compute`` overrides how the miss is filled (the engine passes the
        sharded :class:`~repro.parallel.ParallelCalibrator` path here); it
        must produce the same calibration — and leave the mechanism in the
        same warm state — as ``mechanism.calibrate`` would, which the
        parallel calibrator guarantees bit-for-bit.
        """
        key = self.key_for(mechanism, query, data)
        payload = self.backend.get(key)
        if payload is not None:
            with self._stats_lock:
                self.hits += 1
            calibration = Calibration.from_payload(payload)
            state = payload.get("state")
            if state and hasattr(mechanism, "warm_start"):
                mechanism.warm_start(state)
            return calibration, True
        with self._stats_lock:
            self.misses += 1
        calibration = compute() if compute is not None else mechanism.calibrate(query, data)
        stored = calibration.to_payload()
        if hasattr(mechanism, "export_calibration_state"):
            stored["state"] = mechanism.export_calibration_state()
        self.backend.put(key, stored)
        return calibration, False

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        with self._stats_lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are kept)."""
        with self._stats_lock:
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self.backend)
