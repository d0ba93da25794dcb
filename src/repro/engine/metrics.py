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

    With the partitioned shuffle, ``shuffle_seconds`` covers only the
    parent's bucket transpose (grouping and size accounting happen inside
    map tasks; the final merge and capacity accounting inside reduce
    tasks), and ``reduce_seconds`` includes the parent's post-pass that
    reassembles outputs in sorted-key order.  Worker-pool startup happens
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
        num_map_tasks: map tasks (record chunks) dispatched.
        num_reduce_tasks: reduce tasks dispatched — the non-empty hash
            partitions out of the fixed partition count chosen before the
            map phase.
        timings: per-phase wall times.
        bytes_moved: total value size shipped through the shuffle, in the
            same size units the schema counts — equal to the job's
            communication cost by construction.
        task_loads: total value size per reduce *task* (a task batches one
            hash partition of keys, so its load is the sum of its keys'
            reducer loads).
        capacity: the reducer capacity ``q`` the job enforced, if any.
        task_retries: task attempts replayed by the fault plane (0 on
            every run with the fault plane off — dispatch without a retry
            policy never retries).
        pool_rebuilds: worker pools rebuilt after a worker death during
            this run.
        fallback_backend: set to the backend that actually completed the
            run when the graceful-degradation chain demoted it (``None``
            when the configured backend ran it).
        encoded_bytes: total size of the shuffle blocks map tasks pickled
            (:mod:`repro.engine.codec`); 0 on in-process backends, which
            hand buckets over by reference.
        encode_seconds: wall time map tasks spent encoding blocks (summed
            across tasks, so it can exceed the map phase wall time on a
            parallel backend).
        decode_seconds: wall time reduce tasks spent decoding block
            sources (same summation caveat).
        shm_segments: always 0.  The engine has no shared-memory
            transport; the field stays only because ``bench/layers.py``
            reads it.
    """

    backend: str
    num_workers: int
    num_map_tasks: int
    num_reduce_tasks: int
    timings: PhaseTimings
    bytes_moved: int
    task_loads: tuple[int, ...]
    capacity: int | None = None
    task_retries: int = 0
    pool_rebuilds: int = 0
    fallback_backend: str | None = None
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
            "max_task_load": self.max_task_load,
            "retries": self.task_retries,
            "encoded_bytes": self.encoded_bytes,
            "encode_s": round(self.encode_seconds, 4),
            "decode_s": round(self.decode_seconds, 4),
        }
