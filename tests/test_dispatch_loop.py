"""Properties of the backends' one dispatch loop, ``Backend.run_tasks``.

The loop's contract: results come back in task order whatever the
backend or fault scenario; a seeded fault scenario fails exactly the
attempts the :class:`~repro.faults.FaultInjector` says it fails, so both
the retry count and whether the retry budget runs out are knowable in
advance and identical on every backend; and retrying never costs the
engine's streaming read of its records.

Task functions are module-level so the ``processes`` backend can pickle
them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import as_dataset
from repro.engine.backends import ProcessBackend, get_backend
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.routing import SchemaPlan
from repro.exceptions import TaskRetryExhaustedError
from repro.faults import FaultInjector, FaultSpec, RetryPolicy

PHASE = "map"


def square(value: int) -> int:
    return value * value


@pytest.fixture(scope="module")
def process_pools():
    """One open process pool per worker count, shared by every example."""
    pools = {
        workers: ProcessBackend(max_workers=workers).open()
        for workers in (1, 2, 3)
    }
    yield pools
    for pool in pools.values():
        pool.close()


def expected_failures(
    spec: FaultSpec, num_tasks: int, max_attempts: int
) -> list[int]:
    """Per task, the failed attempts before its first success (capped at
    *max_attempts*), read straight off the injector's decisions."""
    injector = FaultInjector(spec)
    failures = []
    for index in range(num_tasks):
        failed = 0
        while failed < max_attempts and (
            injector.decides("crash", PHASE, index, failed + 1)
            or injector.decides("transient", PHASE, index, failed + 1)
        ):
            failed += 1
        failures.append(failed)
    return failures


def run_loop(backend, tasks, spec: FaultSpec, max_attempts: int):
    """Run the loop with injection and no backoff; returns
    ``(results or the exhaustion error, retries observed)``."""
    retries = []
    policy = RetryPolicy(
        max_attempts=max_attempts, backoff_base=0.0, jitter=0.0
    )
    try:
        results = backend.run_tasks(
            square,
            tasks,
            policy=policy,
            injector=FaultInjector(spec),
            phase=PHASE,
            on_retry=lambda *args: retries.append(args[:3]),
        )
    except TaskRetryExhaustedError as exc:
        return exc, retries
    return results, retries


@settings(deadline=None)
@given(
    num_tasks=st.integers(0, 60),
    max_workers=st.integers(1, 3),
    backend_name=st.sampled_from(["serial", "processes"]),
    seed=st.integers(0, 10_000),
    crash=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    transient=st.sampled_from([0.0, 0.2, 0.5]),
    max_attempts=st.integers(1, 4),
)
def test_loop_matches_the_injector(
    process_pools, num_tasks, max_workers, backend_name, seed, crash,
    transient, max_attempts,
):
    spec = FaultSpec(crash=crash, transient=transient, seed=seed)
    tasks = list(range(num_tasks))
    backend = (
        process_pools[max_workers]
        if backend_name == "processes"
        else get_backend(backend_name)
    )
    outcome, retries = run_loop(backend, tasks, spec, max_attempts)
    failures = expected_failures(spec, num_tasks, max_attempts)
    if any(failed == max_attempts for failed in failures):
        assert isinstance(outcome, TaskRetryExhaustedError)
        assert outcome.attempts == max_attempts
        return
    assert outcome == [square(t) for t in tasks]
    # Every observed retry is one the injector scheduled: same task, same
    # attempt numbers, on every backend.
    assert sorted(retries) == sorted(
        (PHASE, index, attempt)
        for index, failed in enumerate(failures)
        for attempt in range(1, failed + 1)
    )
    assert len(retries) == sum(failures)


def test_processes_example_matches_the_injector():
    spec = FaultSpec(crash=0.2, transient=0.1, seed=3)
    tasks = list(range(20))
    failures = expected_failures(spec, len(tasks), 6)
    assert max(failures) < 6 and sum(failures) > 0
    with ProcessBackend(max_workers=2) as backend:
        outcome, retries = run_loop(backend, tasks, spec, 6)
    assert outcome == [square(t) for t in tasks]
    assert len(retries) == sum(failures)
    serial_outcome, serial_retries = run_loop(
        get_backend("serial"), tasks, spec, 6
    )
    assert serial_outcome == outcome
    assert sorted(serial_retries) == sorted(retries)


def count_reduce(key, values):
    yield key, len(values)


@pytest.mark.parametrize("retry", [None, RetryPolicy()])
def test_retry_keeps_a_generator_source_streaming(retry):
    """The parent reads a generator source lazily, one record for each
    record it routes, and only once, with or without a retry policy."""
    total = 400
    pulled = [0]
    pulled_when_routed = []

    def source():
        for i in range(total):
            pulled[0] += 1
            yield f"r{i}"

    def key_of(wrapped):
        # Runs in the parent as it routes, once per record.
        pulled_when_routed.append(pulled[0])
        return wrapped[0]

    plan = SchemaPlan.from_members(
        as_dataset(source()),
        [1] * total,
        [range(d, total, 10) for d in range(10)],
        capacity=None,
    )
    engine = ExecutionEngine(
        plan=replace(plan, key_of=key_of),
        reduce_fn=count_reduce,
        config=ExecutionConfig(retry=retry),
    )
    result = engine.run()
    assert result.outputs == [(d, total // 10) for d in range(10)]
    assert pulled_when_routed == list(range(1, total + 1))
    assert pulled[0] == total
