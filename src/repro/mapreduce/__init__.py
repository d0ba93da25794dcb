"""Simulated MapReduce substrate: jobs, capacity-checked reducers, cluster.

:class:`MapReduceJob` is the reference simulator that defines the paper's
metrics; the test suite runs it as the execution engine's oracle
(:mod:`repro.engine.crossval`).
"""

from repro.mapreduce.types import MapFn, ReduceFn, SizeFn, default_size
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.shuffle import group_pairs, ordered_keys
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.cluster import ScheduleResult, SimulatedCluster, schedule_loads

__all__ = [
    "MapFn",
    "ReduceFn",
    "SizeFn",
    "default_size",
    "JobMetrics",
    "JobResult",
    "MapReduceJob",
    "ScheduleResult",
    "SimulatedCluster",
    "schedule_loads",
    "group_pairs",
    "ordered_keys",
]
