"""Backend pool lifecycle: explicit open/close, reuse across engine runs.

The satellite regression this file pins: two consecutive
``execute_schema`` runs on one ``processes`` backend instance must NOT
spawn a second worker pool.  Pool constructions are observable through
``Backend.pools_created``.
"""

from __future__ import annotations

import os

from repro.core.instance import A2AInstance
from repro.core.selector import solve_a2a
from repro.engine.backends import ProcessBackend, SerialBackend
from repro.engine.engine import execute_schema
from repro.faults import FaultInjector, FaultSpec, RetryPolicy

INSTANCE = A2AInstance([3, 5, 2, 7, 4], q=12)
SCHEMA = solve_a2a(INSTANCE)
RECORDS = [f"rec-{i}" for i in range(INSTANCE.m)]


def tally_reduce(key, values):
    """Module-level so the processes backend can pickle it."""
    yield key, sorted(i for i, _ in values)


def square_with_pid(value: int) -> tuple[int, int]:
    """Module-level so the processes backend can pickle it."""
    return value * value, os.getpid()


class TestExplicitLifecycle:
    def test_open_is_idempotent_and_close_releases(self):
        backend = ProcessBackend(max_workers=2)
        assert not backend.is_open
        backend.open()
        backend.open()
        assert backend.is_open
        assert backend.pools_created == 1
        assert backend.run_tasks(str, [1, 2]) == ["1", "2"]
        backend.close()
        assert not backend.is_open

    def test_persistent_pool_survives_context_exits(self):
        backend = ProcessBackend(max_workers=2)
        backend.open()
        with backend:
            backend.run_tasks(str, [1])
        # The engine wraps runs in a context; a persistently opened pool
        # must survive that.
        assert backend.is_open
        backend.close()
        assert not backend.is_open

    def test_scoped_context_still_closes(self):
        backend = ProcessBackend(max_workers=2)
        with backend:
            assert backend.is_open
        assert not backend.is_open
        assert backend.pools_created == 1

    def test_close_then_reopen_counts_pools(self):
        backend = ProcessBackend(max_workers=2)
        backend.open()
        backend.close()
        backend.open()
        assert backend.pools_created == 2
        backend.close()

    def test_serial_backend_is_poolless(self):
        backend = SerialBackend()
        backend.open()
        assert not backend.is_open
        assert backend.pools_created == 0
        backend.close()


class TestPoolClosedBeforeACall:
    """A pooled backend closed while a run holds its context (a service
    evicting a shared pool) still dispatches to worker processes."""

    def test_closed_pool_reopens_for_the_next_dispatch(self):
        backend = ProcessBackend(max_workers=2).open()
        tasks = list(range(12))
        spec = FaultSpec(kill=0.3, seed=3)
        injector = FaultInjector(spec)
        assert any(injector.decides("kill", "map", i, 1) for i in tasks)
        with backend:
            backend.close()
            plain = backend.run_tasks(square_with_pid, tasks)
            assert all(pid != os.getpid() for _, pid in plain)
            backend.close()
            healed = backend.run_tasks(
                square_with_pid,
                tasks,
                policy=RetryPolicy(max_attempts=6, backoff_base=0.001),
                injector=injector,
                phase="map",
            )
        expected = [value * value for value in tasks]
        assert [value for value, _ in plain] == expected
        assert [value for value, _ in healed] == expected
        assert all(pid != os.getpid() for _, pid in healed)
        assert backend.pool_rebuilds >= 1
        # The reopened pool belongs to the run, not to the evicted backend.
        assert not backend.is_open


class TestEngineReusesCallerPool:
    def test_two_process_runs_share_one_pool(self):
        """The satellite regression: no second pool on the second run."""
        backend = ProcessBackend(max_workers=1)
        try:
            first = execute_schema(SCHEMA, RECORDS, tally_reduce, backend=backend)
            assert backend.pools_created == 1
            assert backend.is_open  # engine left the caller's pool open
            second = execute_schema(SCHEMA, RECORDS, tally_reduce, backend=backend)
            assert backend.pools_created == 1
            assert first.outputs == second.outputs
        finally:
            backend.close()
        assert not backend.is_open

    def test_three_runs_on_two_workers_share_one_pool(self):
        backend = ProcessBackend(max_workers=2)
        try:
            for _ in range(3):
                execute_schema(SCHEMA, RECORDS, tally_reduce, backend=backend)
            assert backend.pools_created == 1
        finally:
            backend.close()

    def test_caller_context_lifecycle_is_respected(self):
        """A pool opened by the caller's own context closes at their exit."""
        backend = ProcessBackend(max_workers=2)
        with backend:
            execute_schema(SCHEMA, RECORDS, tally_reduce, backend=backend)
            execute_schema(SCHEMA, RECORDS, tally_reduce, backend=backend)
            assert backend.pools_created == 1
        assert not backend.is_open

    def test_named_backend_still_scoped_per_run(self):
        """Passing a backend *name* keeps the historical one-pool-per-run
        lifecycle (nothing outlives the run)."""
        result = execute_schema(
            SCHEMA, RECORDS, tally_reduce, backend="processes"
        )
        assert result.outputs
