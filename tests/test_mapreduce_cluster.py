"""Unit tests for the LPT scheduling model behind the parallelism sweeps."""

from __future__ import annotations

import pytest

from repro.analysis import schedule_loads
from repro.exceptions import InvalidInstanceError


class TestScheduleLoads:
    def test_single_worker_serializes(self):
        result = schedule_loads([3, 5, 2], 1)
        assert result.makespan == 10.0
        assert result.waves == 3

    def test_enough_workers_parallelizes(self):
        result = schedule_loads([3, 5, 2], 3)
        assert result.makespan == 5.0
        assert result.waves == 1

    def test_lpt_assignment(self):
        # LPT on [4,3,3,2,2] with 2 workers: 4 | 3, then 3 -> worker2 (6),
        # 2 -> worker1 (6), 2 -> either (8).  LPT yields 8 (optimum is 7,
        # within the classic 4/3 guarantee).
        result = schedule_loads([4, 3, 3, 2, 2], 2)
        assert result.makespan == 8.0
        assert result.makespan <= (4 / 3) * 7 + 1

    def test_empty_loads(self):
        result = schedule_loads([], 4)
        assert result.makespan == 0.0
        assert result.waves == 0
        assert result.utilization == 0.0

    def test_utilization_perfect_when_balanced(self):
        result = schedule_loads([5, 5, 5, 5], 4)
        assert result.utilization == pytest.approx(1.0)

    def test_utilization_below_one_when_imbalanced(self):
        result = schedule_loads([10, 1], 2)
        assert result.utilization < 1.0

    def test_makespan_at_least_volume_over_workers(self):
        loads = [7, 3, 9, 2, 8, 4]
        result = schedule_loads(loads, 3)
        assert result.makespan >= sum(loads) / 3

    def test_makespan_at_least_longest_task(self):
        result = schedule_loads([20, 1, 1], 3)
        assert result.makespan == 20.0

    def test_rejects_bad_workers(self):
        with pytest.raises(InvalidInstanceError):
            schedule_loads([1], 0)
