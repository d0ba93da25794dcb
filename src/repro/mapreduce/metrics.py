"""Metrics collected by simulated MapReduce jobs.

``communication_cost`` is the paper's definition verbatim: the total amount
of data transmitted from the map phase to the reduce phase, i.e. the summed
sizes of all shuffled values.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class JobMetrics:
    """Everything measured during one simulated job run.

    Attributes:
        map_input_records: records fed to mappers.
        map_output_pairs: key-value pairs emitted by mappers.
        communication_cost: total value size shuffled map -> reduce.
        num_reducers: distinct keys reduced (reducer = key + value list).
        reducer_loads: per-key total value size, keyed by reduce key.
        max_reducer_load: largest reducer load.
        capacity: the enforced reducer capacity (``None`` if unenforced).
        capacity_violations: keys whose load exceeded the capacity (only
            populated when enforcement is non-strict; strict mode raises).
        output_records: records produced by reducers.
        spilled_bytes: bytes written to on-disk shuffle runs by the map
            phase (0 for the simulator and for unbounded engine runs;
            these three counters describe the physical execution, not
            the paper's analytical model, so cross-validation against
            the simulator ignores them).
        spill_runs: run files written during the map phase.
        peak_buffered_pairs: most routed pairs the map phase held in
            memory at once, measured only in memory-budgeted runs (0
            otherwise).  It may overshoot the budget by at most one
            record's routed pairs, since the flush triggers between
            records.
    """

    map_input_records: int = 0
    map_output_pairs: int = 0
    communication_cost: int = 0
    num_reducers: int = 0
    reducer_loads: dict = field(default_factory=dict)
    max_reducer_load: int = 0
    capacity: int | None = None
    capacity_violations: tuple = ()
    output_records: int = 0
    spilled_bytes: int = 0
    spill_runs: int = 0
    peak_buffered_pairs: int = 0

    @property
    def mean_reducer_load(self) -> float:
        """Average reducer load (0.0 for an empty job)."""
        if not self.reducer_loads:
            return 0.0
        return sum(self.reducer_loads.values()) / len(self.reducer_loads)

    @property
    def load_skew(self) -> float:
        """Max load / mean load; 1.0 means perfectly balanced."""
        mean = self.mean_reducer_load
        return (self.max_reducer_load / mean) if mean else 0.0

    def as_row(self) -> dict[str, object]:
        """Flat dict for table rendering (drops the per-key load map)."""
        return {
            "map_inputs": self.map_input_records,
            "map_pairs": self.map_output_pairs,
            "comm_cost": self.communication_cost,
            "reducers": self.num_reducers,
            "max_load": self.max_reducer_load,
            "mean_load": round(self.mean_reducer_load, 2),
            "skew": round(self.load_skew, 3),
            "violations": len(self.capacity_violations),
            "outputs": self.output_records,
        }
