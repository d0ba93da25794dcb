"""The simulated MapReduce job: map, shuffle, reduce with capacity checks.

This is the substrate substitution for a real Hadoop-style cluster (see
DESIGN.md): the paper's metrics — communication cost, reducer count,
per-reducer load against the capacity ``q`` — are defined on this abstract
model, which the job executes faithfully in-process.

The simulator deliberately keeps the simple one-dict shuffle even though
the execution engine (:mod:`repro.engine.engine`) moved to a partitioned
task contract (the parent routes records into per-partition tables, and
each reduce task reads its own partition): the shared helpers in
:mod:`repro.mapreduce.shuffle` plus the sorted-key reduce order are what
keep the two executors byte-identical, which
:mod:`repro.engine.crossval` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.exceptions import CapacityExceededError
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.shuffle import group_pairs, ordered_keys
from repro.mapreduce.types import MapFn, ReduceFn, SizeFn, default_size


@dataclass(frozen=True)
class JobResult:
    """Outputs plus metrics of one job run."""

    outputs: list
    metrics: JobMetrics


@dataclass
class MapReduceJob:
    """A single MapReduce job over in-memory records.

    Attributes:
        map_fn: record -> iterable of (key, value).
        reduce_fn: (key, values) -> iterable of outputs.
        size_of: value-size function for capacity and communication
            accounting (defaults to :func:`default_size`).
        reducer_capacity: the paper's ``q``; when set, each reducer's total
            value size is checked against it.
        strict_capacity: when True (default) exceeding the capacity raises
            :class:`CapacityExceededError`; when False the violation is
            recorded in the metrics and the reducer still runs — used by
            experiments that *measure* how badly a baseline overflows.
    """

    map_fn: MapFn
    reduce_fn: ReduceFn
    size_of: SizeFn = default_size
    reducer_capacity: int | None = None
    strict_capacity: bool = True

    def run(self, records: Iterable[Any]) -> JobResult:
        """Execute the job: map every record, shuffle, reduce every key.

        Keys are reduced in sorted order when orderable (falling back to
        insertion order) so runs are deterministic.
        """
        groups, map_inputs, map_pairs, comm = self._map_and_shuffle(records)
        return self._reduce(groups, map_inputs, map_pairs, comm)

    def _map_and_shuffle(
        self, records: Iterable[Any]
    ) -> tuple[dict[Hashable, list[Any]], int, int, int]:
        """Run the map phase and group pairs by key."""
        groups: dict[Hashable, list[Any]] = {}
        map_inputs = 0
        map_pairs = 0
        comm = 0
        for record in records:
            map_inputs += 1
            emitted = list(self.map_fn(record))
            map_pairs += len(emitted)
            comm += sum(self.size_of(value) for _, value in emitted)
            group_pairs(emitted, groups)
        return groups, map_inputs, map_pairs, comm

    def _reduce(
        self,
        groups: dict[Hashable, list[Any]],
        map_inputs: int,
        map_pairs: int,
        comm: int,
    ) -> JobResult:
        """Run every reducer, enforcing the capacity if configured."""
        outputs: list[Any] = []
        loads: dict[Hashable, int] = {}
        violations: list[Hashable] = []
        for key in ordered_keys(groups):
            values = groups[key]
            load = sum(self.size_of(v) for v in values)
            loads[key] = load
            if self.reducer_capacity is not None and load > self.reducer_capacity:
                if self.strict_capacity:
                    raise CapacityExceededError(
                        f"reducer for key {key!r} received load {load} "
                        f"> capacity {self.reducer_capacity}",
                        key=key,
                        load=load,
                        capacity=self.reducer_capacity,
                    )
                violations.append(key)
            outputs.extend(self.reduce_fn(key, values))

        metrics = JobMetrics(
            map_input_records=map_inputs,
            map_output_pairs=map_pairs,
            communication_cost=comm,
            num_reducers=len(groups),
            reducer_loads=loads,
            max_reducer_load=max(loads.values(), default=0),
            capacity=self.reducer_capacity,
            capacity_violations=tuple(violations),
            output_records=len(outputs),
        )
        return JobResult(outputs=outputs, metrics=metrics)
