"""Observation store: durable ``(plan fingerprint, observed timings)`` log.

The planner's scores are analytical; the roadmap's self-calibrating
planner needs the *measured* counterpart — for each executed job, which
plan ran (by fingerprint) and what actually happened (phase timings,
queue wait, the :class:`~repro.engine.metrics.JobMetrics` totals).
:class:`ObservationStore` appends exactly that record per finished job:
a bounded in-memory window for live queries plus, optionally, an
append-only NDJSON log on disk so observations survive the process —
perun-style profiles keyed by plan fingerprint.  Each record is also
stamped with the commit (:func:`current_commit`) and the hardware class
(:func:`hardware_class`) it ran on, so logs from different builds or
machines can be told apart.

``repro serve --obs-log obs.ndjson`` writes the log;
``repro metrics --log obs.ndjson`` summarizes it
(:func:`summarize_observations`); the calibration work reads it back
with :func:`load_observations`.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from repro.obs.metrics import percentile

#: Default number of observations retained in memory.
DEFAULT_CAPACITY = 4096

_COMMIT_CACHE: dict[str, str] = {}


def hardware_class(workers: int | None = None) -> str:
    """Coarse hardware key: the effective worker count, e.g. ``"8w"``.

    Wall-clock observations from machines with different worker counts
    are not comparable; this label keeps them apart.
    """
    if workers is None:
        from repro.engine.backends import available_workers

        workers = available_workers()
    return f"{workers}w"


def current_commit(default: str = "unknown") -> str:
    """Current commit id (12 hex chars), best-effort and cached.

    Resolution order: ``REPRO_COMMIT`` env override, ``GITHUB_SHA``
    (CI), ``git rev-parse HEAD``, then *default* — so observation logs
    can be written from exported tarballs too.
    """
    cached = _COMMIT_CACHE.get("commit")
    if cached is not None:
        return cached
    commit = os.environ.get("REPRO_COMMIT") or os.environ.get("GITHUB_SHA")
    if not commit:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    commit = (commit or default)[:12]
    _COMMIT_CACHE["commit"] = commit
    return commit


@dataclass(frozen=True)
class ObservationRecord:
    """One executed job's measured outcome, keyed by plan fingerprint.

    ``fingerprint`` is the plan-cache key
    (:func:`repro.planner.planner.plan_fingerprint`), so records group
    naturally by planning request; the remaining fields are the measured
    quantities a calibration fit needs (phase wall times, the shuffle's
    pair/byte totals, spill traffic) plus enough context to filter by
    backend and worker count.  ``at`` is wall-clock (for humans reading
    the log); every duration is monotonic-clock derived.

    ``status`` distinguishes completed jobs (``done``) from failures
    (``failed``) — the service appends a record for *every* finished
    execution, so failure rates are first-class observations rather than
    gaps in the log — and ``task_retries``/``pool_rebuilds`` carry the
    fault plane's recovery work into the calibration data.  All four
    fields default so logs written before the fault plane load cleanly.

    Keys a record no longer has (such as ``shm_segments`` or the
    retired ``encoded_bytes``/``encode_seconds``/``decode_seconds`` in
    older logs) are dropped on load.

    ``commit`` and ``hardware_class`` (from :func:`current_commit` and
    :func:`hardware_class`) say which build ran the job on which class
    of machine, and ``peak_rss_bytes``/``cpu_seconds`` carry the
    resource sampler's per-job attribution; all four default
    (empty/zero) so older logs load unchanged.
    """

    job_id: str
    fingerprint: str
    cache_hit: bool
    backend: str = ""
    workers: int = 0
    wall_seconds: float = 0.0
    queue_seconds: float = 0.0
    map_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    reduce_seconds: float = 0.0
    map_output_pairs: int = 0
    communication_cost: int = 0
    num_reducers: int = 0
    max_reducer_load: int = 0
    spilled_bytes: int = 0
    spill_runs: int = 0
    output_records: int = 0
    status: str = "done"
    error: str = ""
    task_retries: int = 0
    pool_rebuilds: int = 0
    commit: str = ""
    hardware_class: str = ""
    peak_rss_bytes: int = 0
    cpu_seconds: float = 0.0
    at: float = field(default_factory=time.time)

    @classmethod
    def build(
        cls,
        *,
        job_id: str,
        fingerprint: str,
        cache_hit: bool,
        wall_seconds: float,
        queue_seconds: float = 0.0,
        metrics: Any = None,
        engine: Any = None,
        backend: str = "",
        workers: int = 0,
        error: BaseException | None = None,
        **extra: Any,
    ) -> "ObservationRecord":
        """The one builder of a job's record, done or failed.

        *metrics* and *engine* are the run's
        :class:`~repro.engine.metrics.JobMetrics` and
        :class:`~repro.engine.metrics.EngineMetrics` (duck-typed, so this
        module never imports the engine), or ``None`` for a plan-only
        job or a run that raised.  Plan-only records keep zeroed
        execution fields — still useful for cache-hit-rate accounting
        over time.  *backend* and *workers* name what a failed run ran
        on; engine metrics, when present, supersede them.  An *error*
        marks the record ``failed``, with the error text and the retries
        its ``attempts`` imply.  ``extra`` passes caller-measured fields
        (``commit``, ``hardware_class``, ``peak_rss_bytes``,
        ``cpu_seconds``) straight through to the constructor.
        """
        kwargs: dict[str, Any] = {
            "job_id": job_id,
            "fingerprint": fingerprint,
            "cache_hit": cache_hit,
            "wall_seconds": wall_seconds,
            "queue_seconds": queue_seconds,
            "backend": backend,
            "workers": workers,
            **extra,
        }
        if error is not None:
            kwargs.update(
                status="failed",
                error=f"{type(error).__name__}: {error}",
                task_retries=max(getattr(error, "attempts", 1) - 1, 0),
            )
        if engine is not None:
            kwargs.update(
                backend=engine.backend,
                workers=engine.num_workers,
                map_seconds=engine.timings.map_seconds,
                shuffle_seconds=engine.timings.shuffle_seconds,
                reduce_seconds=engine.timings.reduce_seconds,
                task_retries=engine.task_retries,
                pool_rebuilds=engine.pool_rebuilds,
            )
        if metrics is not None:
            kwargs.update(
                map_output_pairs=metrics.map_output_pairs,
                communication_cost=metrics.communication_cost,
                num_reducers=metrics.num_reducers,
                max_reducer_load=metrics.max_reducer_load,
                spilled_bytes=metrics.spilled_bytes,
                spill_runs=metrics.spill_runs,
                output_records=metrics.output_records,
            )
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ObservationRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in known})


class ObservationStore:
    """Bounded in-memory observation window plus optional NDJSON log.

    Args:
        path: append every record as one JSON line to this file (parent
            directory must exist); ``None`` keeps observations in memory
            only.
        capacity: in-memory records retained (oldest dropped first); the
            on-disk log is never truncated by this bound.

    Appends are thread-safe; disk-write failures raise (a service asked
    to persist observations must not drop them silently).
    """

    def __init__(
        self, path: str | None = None, capacity: int = DEFAULT_CAPACITY
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.path = path
        self._records: deque[ObservationRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.appended = 0

    def record(self, observation: ObservationRecord) -> None:
        """Append one observation (memory, then the log when configured)."""
        line = (
            json.dumps(observation.to_dict(), sort_keys=True, default=str)
            if self.path is not None
            else None
        )
        with self._lock:
            self._records.append(observation)
            self.appended += 1
            if line is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    def snapshot(self) -> list[ObservationRecord]:
        """The retained in-memory records, oldest first."""
        with self._lock:
            return list(self._records)

    def for_fingerprint(self, fingerprint: str) -> list[ObservationRecord]:
        """Retained observations of one planning request (calibration input)."""
        with self._lock:
            return [r for r in self._records if r.fingerprint == fingerprint]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def load_observations(path: str) -> list[ObservationRecord]:
    """Read an NDJSON observation log back into records.

    Blank lines are skipped.  A line is malformed when it is not JSON or
    not a JSON object.  A malformed *final* line is the signature
    of a crash mid-append (the writer died between ``write`` and the
    newline hitting disk); that partial record is skipped with a counted
    ``RuntimeWarning`` so a log survives its writer.  A malformed line
    anywhere *else* is real corruption and still raises ``ValueError``
    with its line number — a corrupt log should fail loudly, not feed
    half a dataset into a calibration fit.
    """
    records: list[ObservationRecord] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    last_content = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped)
            if not isinstance(payload, dict):
                raise TypeError(
                    f"expected a JSON object, got {type(payload).__name__}"
                )
            records.append(ObservationRecord.from_dict(payload))
        except (json.JSONDecodeError, TypeError) as exc:
            if index == last_content:
                warnings.warn(
                    f"{path}:{index + 1}: skipped truncated final "
                    f"observation record (1 record dropped): {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ValueError(
                f"{path}:{index + 1}: malformed observation line: {exc}"
            ) from exc
    return records


def summarize_observations(
    records: Iterable[ObservationRecord],
) -> list[dict[str, Any]]:
    """Aggregate observations into per-backend summary rows.

    One row per backend (plan-only records group under ``plan-only``):
    job count, cache-hit rate, latency p50/p95, mean phase seconds, and
    spill totals — the table ``repro metrics`` prints.
    """
    groups: dict[str, list[ObservationRecord]] = {}
    for record in records:
        groups.setdefault(record.backend or "plan-only", []).append(record)
    rows: list[dict[str, Any]] = []
    for backend in sorted(groups):
        group = groups[backend]
        walls = [r.wall_seconds for r in group]
        count = len(group)
        rows.append(
            {
                "backend": backend,
                "jobs": count,
                "cache_hit_rate": round(
                    sum(1 for r in group if r.cache_hit) / count, 3
                ),
                "wall_p50_s": round(percentile(walls, 0.50), 4),
                "wall_p95_s": round(percentile(walls, 0.95), 4),
                "queue_mean_s": round(
                    sum(r.queue_seconds for r in group) / count, 4
                ),
                "map_mean_s": round(
                    sum(r.map_seconds for r in group) / count, 4
                ),
                "shuffle_mean_s": round(
                    sum(r.shuffle_seconds for r in group) / count, 4
                ),
                "reduce_mean_s": round(
                    sum(r.reduce_seconds for r in group) / count, 4
                ),
                "shuffle_pairs": sum(r.map_output_pairs for r in group),
                "spilled_bytes": sum(r.spilled_bytes for r in group),
                "outputs": sum(r.output_records for r in group),
            }
        )
    return rows
