"""Tests for heterogeneous-worker scheduling."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidInstanceError
from repro.mapreduce.cluster import schedule_loads


class TestHeterogeneousWorkers:
    def test_fast_worker_attracts_work(self):
        # One worker 3x faster: single task goes to it.
        result = schedule_loads([9], 2, worker_speeds=[1.0, 3.0])
        assert result.makespan == pytest.approx(3.0)

    def test_equal_speeds_match_default(self):
        default = schedule_loads([4, 3, 3, 2, 2], 2)
        explicit = schedule_loads([4, 3, 3, 2, 2], 2, worker_speeds=[1.0, 1.0])
        assert default.makespan == explicit.makespan

    def test_heterogeneous_balances_by_finish_time(self):
        # Speeds 1 and 2: total 12 should split ~4 / ~8 in load terms.
        result = schedule_loads([2] * 6, 2, worker_speeds=[1.0, 2.0])
        # Fast worker processes twice the load in the same time.
        assert result.makespan <= 5.0

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInstanceError, match="entries"):
            schedule_loads([1], 2, worker_speeds=[1.0])

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidInstanceError, match="positive"):
            schedule_loads([1], 2, worker_speeds=[1.0, 0.0])

    def test_makespan_never_worse_than_slowest_homogeneous(self):
        loads = [5, 4, 3, 2, 1]
        hetero = schedule_loads(loads, 3, worker_speeds=[1.0, 2.0, 4.0])
        slow = schedule_loads(loads, 3, worker_speeds=[1.0, 1.0, 1.0])
        assert hetero.makespan <= slow.makespan
