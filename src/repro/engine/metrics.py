"""Execution-side metrics: phase wall times and task-level loads.

The simulator's :class:`repro.mapreduce.metrics.JobMetrics` measures the
paper's *analytical* quantities (communication cost, reducer loads vs the
capacity ``q``).  The engine additionally measures *execution* quantities —
how long each phase actually took on a backend, how many physical tasks ran,
and how loaded each reduce task was — so schema quality can be read off as
wall-clock speedups rather than only cost numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock seconds spent in each phase of one engine run.

    ``map_seconds`` covers the parent routing each record to its reduce
    partitions (spill flushes included), ``shuffle_seconds`` only pairing
    each partition's records with its member lists, and
    ``reduce_seconds`` the reduce tasks plus the parent's post-pass that
    reassembles outputs in reducer order.  Worker-pool startup happens
    outside all three phases and is not counted.
    """

    map_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    reduce_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Sum of all phase times (the engine's end-to-end wall time)."""
        return self.map_seconds + self.shuffle_seconds + self.reduce_seconds


@dataclass(frozen=True)
class EngineMetrics:
    """Physical execution facts for one engine run.

    Attributes:
        backend: name of the backend that ran the job.
        num_workers: worker-pool size the backend was configured with
            (1 for the serial backend).
        num_reduce_tasks: reduce tasks dispatched — the non-empty
            partitions out of the fixed partition count chosen before the
            map phase.
        timings: per-phase wall times.
        bytes_moved: the job's communication cost, in the size units the
            schema counts: the value size a per-reducer shuffle would
            ship (a schema job ships each record once per reduce
            partition, so the volume that actually moves is smaller).
        pairs_shipped: pairs that actually crossed the shuffle.  Each
            record ships once per reduce partition holding one of its
            reducers, so this is at most ``records * num_reduce_tasks``
            however many reducers share a partition.
        task_loads: total value size per reduce *task* (a task batches
            one partition of reducers, so its load is the sum of its
            reducers' loads).
        capacity: the reducer capacity ``q`` the job enforced, if any.
        task_retries: task attempts replayed by the fault plane (0 on
            every run with the fault plane off — dispatch without a retry
            policy never retries).
        pool_rebuilds: worker pools rebuilt after a worker death during
            this run.
        fallback_backend: set to the backend that actually completed the
            run when the graceful-degradation chain demoted it (``None``
            when the configured backend ran it).
        num_map_tasks: always 0.  The parent routes the records and
            dispatches no map task; the field stays only because
            ``bench/layers.py`` reads it.
        encoded_bytes: always 0.  No shuffle data is block-encoded; the
            field stays only because ``bench/layers.py`` reads it.
        encode_seconds: always 0.0, for the same reason.
        decode_seconds: always 0.0, for the same reason.
        shm_segments: always 0.  The engine has no shared-memory
            transport; the field stays only because ``bench/layers.py``
            reads it.
    """

    backend: str
    num_workers: int
    num_reduce_tasks: int
    timings: PhaseTimings
    bytes_moved: int
    task_loads: tuple[int, ...]
    capacity: int | None = None
    pairs_shipped: int = 0
    task_retries: int = 0
    pool_rebuilds: int = 0
    fallback_backend: str | None = None
    num_map_tasks: int = 0
    encoded_bytes: int = 0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0
    shm_segments: int = 0

    @property
    def max_task_load(self) -> int:
        """Largest reduce-task load (bounds reduce-phase stragglers)."""
        return max(self.task_loads, default=0)

    @property
    def load_per_capacity(self) -> float:
        """Max task load / q — how far the heaviest task is above one
        reducer's worth of work (0.0 when no capacity was set)."""
        if not self.capacity:
            return 0.0
        return self.max_task_load / self.capacity

    def as_row(self) -> dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "backend": self.backend,
            "workers": self.num_workers,
            "map_tasks": self.num_map_tasks,
            "reduce_tasks": self.num_reduce_tasks,
            "map_s": round(self.timings.map_seconds, 4),
            "shuffle_s": round(self.timings.shuffle_seconds, 4),
            "reduce_s": round(self.timings.reduce_seconds, 4),
            "total_s": round(self.timings.total_seconds, 4),
            "bytes_moved": self.bytes_moved,
            "pairs_shipped": self.pairs_shipped,
            "max_task_load": self.max_task_load,
            "retries": self.task_retries,
            "encoded_bytes": self.encoded_bytes,
            "encode_s": round(self.encode_seconds, 4),
            "decode_s": round(self.decode_seconds, 4),
        }
