"""Per-job results and the bounded result store.

A finished job leaves two artifacts: its *status* (state, timings, error
— kept on the service's job records, cheap and unbounded for a session)
and its *result* (outputs plus the full :class:`JobMetrics` /
:class:`EngineMetrics`), which can be arbitrarily large and therefore
lives in this bounded store, which evicts results the client has read
before those it has not.  When the store evicts a result, the job's
status stays queryable; the *service* distinguishes "evicted" (the job
record says ``done`` but the store misses) from "never existed" and
raises :class:`~repro.exceptions.ResultEvictedError` for the former —
the store itself keeps no per-job tombstones, so its memory stays
bounded by *capacity* no matter how many jobs pass through.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.engine.metrics import EngineMetrics, JobMetrics
from repro.exceptions import InvalidInstanceError, UnknownJobError
from repro.planner.plan import Plan

#: Default number of retained job results.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class JobResult:
    """Everything a completed job produced.

    Attributes:
        job_id: the job this result belongs to.
        plan: the (possibly cache-shared) plan the job ran under.
        fingerprint: the plan-cache key of the planning request.
        cache_hit: whether the plan came from the plan cache.
        outputs: the engine outputs, or ``None`` for plan-only jobs.
        metrics: the run's :class:`JobMetrics` (``None`` for plan-only).
        engine: the run's :class:`EngineMetrics` (``None`` for plan-only).
        wall_seconds: running-state wall time (excludes queueing).
    """

    job_id: str
    plan: Plan
    fingerprint: str
    cache_hit: bool
    outputs: list[Any] | None = None
    metrics: JobMetrics | None = None
    engine: EngineMetrics | None = None
    wall_seconds: float = 0.0

    @property
    def executed(self) -> bool:
        """Whether the job ran records through the engine (vs plan-only)."""
        return self.outputs is not None

    def summary(self) -> dict[str, Any]:
        """Flat dict for NDJSON result lines and table rendering."""
        row: dict[str, Any] = {
            "id": self.job_id,
            "chosen": self.plan.chosen,
            "mode": self.plan.mode,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
        }
        score = self.plan.chosen_score
        row["num_reducers"] = score.num_reducers
        row["communication_cost"] = score.communication_cost
        if self.executed:
            row["outputs"] = len(self.outputs)
            if self.metrics is not None:
                row["reducers_used"] = self.metrics.num_reducers
                row["max_load"] = self.metrics.max_reducer_load
            if self.engine is not None:
                row["backend"] = self.engine.backend
                row["workers"] = self.engine.num_workers
        return row


class ResultStore:
    """Thread-safe store from job id to :class:`JobResult`, evicting read
    results before unread ones.

    A result enters unread; :meth:`fetch` and :meth:`get` mark it read
    and refresh its recency.  Beyond *capacity*, :meth:`put` evicts the
    least recently used *read* result, and an unread one (the oldest)
    only when every stored result is unread, so a slow client never
    loses a result it has not seen while a seen one could go.  Each
    eviction is counted.  Missing ids raise ``KeyError`` from
    :meth:`fetch` (the service layers the evicted-vs-unknown distinction
    on top); :meth:`get` returns ``None`` instead for probing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise InvalidInstanceError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        # Each in recency order, oldest first; an id is in one of them.
        self._unread: OrderedDict[str, JobResult] = OrderedDict()
        self._read: OrderedDict[str, JobResult] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def put(self, result: JobResult) -> None:
        """Store *result* unread, evicting beyond capacity (read first)."""
        with self._lock:
            self._read.pop(result.job_id, None)
            self._unread.pop(result.job_id, None)
            self._unread[result.job_id] = result
            while len(self._read) + len(self._unread) > self.capacity:
                (self._read or self._unread).popitem(last=False)
                self.evictions += 1

    def get(self, job_id: str) -> JobResult | None:
        """The stored result, marked read; ``None`` when absent."""
        with self._lock:
            result = self._unread.pop(job_id, None)
            if result is None:
                result = self._read.pop(job_id, None)
            if result is not None:
                self._read[job_id] = result
            return result

    def fetch(self, job_id: str) -> JobResult:
        """The stored result, marked read; ``KeyError`` when absent
        (evicted or unknown)."""
        result = self.get(job_id)
        if result is None:
            raise UnknownJobError(job_id)
        return result

    def discard(self, job_id: str) -> None:
        """Forget *job_id* entirely (no eviction accounting)."""
        with self._lock:
            self._read.pop(job_id, None)
            self._unread.pop(job_id, None)

    def stats(self) -> dict[str, Any]:
        """Size/capacity/evictions, for service stats and bench rows."""
        with self._lock:
            size = len(self._read) + len(self._unread)
        return {
            "size": size,
            "capacity": self.capacity,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._read) + len(self._unread)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._read or job_id in self._unread
