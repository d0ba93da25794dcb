"""Cluster scheduling model: turn reducer loads into makespan.

The paper's parallelism tradeoff (ii) says larger capacities mean fewer,
heavier reducers and therefore less parallelism.  This module quantifies
that for the tradeoff sweeps and the capacity frontier: given the
reduce-task loads of a schema and a worker pool, it schedules tasks with
Longest-Processing-Time-first (the classic 4/3-approximation for
makespan) and reports the resulting makespan in load units.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import InvalidInstanceError


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling reduce tasks on a finite worker pool.

    Attributes:
        makespan: time until the last worker finishes (max worker busy time).
        worker_loads: total load per worker after assignment.
        num_tasks: tasks scheduled.
        num_workers: pool size.
        waves: ``ceil(num_tasks / num_workers)`` — the task-wave count a
            slot-based scheduler (Hadoop-style) would need.
    """

    makespan: float
    worker_loads: tuple[float, ...]
    num_tasks: int
    num_workers: int
    waves: int

    @property
    def utilization(self) -> float:
        """Mean worker busy time / makespan; 1.0 is a perfectly full pool."""
        if self.makespan <= 0 or not self.worker_loads:
            return 0.0
        return (sum(self.worker_loads) / len(self.worker_loads)) / self.makespan


def schedule_loads(
    loads: Sequence[int | float], num_workers: int
) -> ScheduleResult:
    """LPT-schedule reduce tasks with the given *loads* on *num_workers*.

    A task's duration is its load.  Tasks go, largest first, to the
    least busy worker.  Returns the :class:`ScheduleResult` with *busy
    times* per worker; an empty task list yields a zero makespan.
    """
    if num_workers <= 0:
        raise InvalidInstanceError(f"num_workers must be positive, got {num_workers}")
    tasks = sorted((float(load) for load in loads), reverse=True)
    busy = [0.0] * num_workers
    for duration in tasks:
        least = min(range(num_workers), key=busy.__getitem__)
        busy[least] += duration
    worker_loads = tuple(sorted(busy, reverse=True))
    num_tasks = len(tasks)
    return ScheduleResult(
        makespan=worker_loads[0] if worker_loads else 0.0,
        worker_loads=worker_loads,
        num_tasks=num_tasks,
        num_workers=num_workers,
        waves=-(-num_tasks // num_workers) if num_tasks else 0,
    )
