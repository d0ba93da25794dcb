"""Bounded LRU plan cache keyed by content fingerprints.

Plans are deterministic functions of their :class:`JobSpec` — method
enumeration is sorted, scoring is pure arithmetic, and planning never
reads the machine — so a cache hit can skip candidate enumeration
entirely and return a byte-identical plan (``Plan.to_json()`` equality
is pinned by the tests).  Keys come
from :func:`repro.planner.planner.plan_fingerprint`; this class is the
:class:`~repro.planner.planner.PlanCacheProtocol` implementation the
:class:`~repro.service.service.JobService` plugs into ``plan(...,
cache=...)``.

The cache is thread-safe: the service plans from several scheduler
worker threads at once.  Two concurrent misses on the same key both plan
and both store — the second ``put`` overwrites the first with an equal
plan, which is harmless and cheaper than holding a lock across planning.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.exceptions import InvalidInstanceError
from repro.planner.plan import Plan

#: Default number of cached plans; at ~1-10 KB of scorecards per plan this
#: is well under a megabyte.
DEFAULT_CAPACITY = 128


class PlanCache:
    """LRU cache from plan fingerprint to :class:`Plan`.

    Attributes:
        capacity: maximum retained plans; the least recently used entry
            is evicted when a ``put`` would exceed it.
        hits / misses / evictions: monotonic counters, reported by the
            service's ``stats()``.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise InvalidInstanceError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[str, Plan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Plan | None:
        """The cached plan for *key*, refreshing its recency; ``None`` on miss."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cached

    def put(self, key: str, plan: Plan) -> None:
        """Store *plan* under *key*, evicting the LRU entry beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """Counters plus current size, for service stats and bench rows."""
        with self._lock:
            size = len(self._entries)
        total = self.hits + self.misses
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
