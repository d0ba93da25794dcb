"""Tests for the job service layer: scheduler, caches, lifecycle, crossval."""

from __future__ import annotations

import threading
import time

import pytest

from repro.apps.similarity_join import (
    run_similarity_join,
    similarity_reducer,
    similarity_spec,
)
from repro.engine.config import ExecutionConfig
from repro.exceptions import (
    AdmissionError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    JobCancelledError,
    ResultEvictedError,
    UnknownJobError,
)
from repro.obs.store import DEFAULT_CAPACITY as OBSERVATIONS_KEPT
from repro.planner import Environment, JobSpec, plan, plan_fingerprint
from repro.service import (
    CANCELLED,
    CANCELLING,
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    JobService,
    PlanCache,
    ResultStore,
)
from repro.service.results import JobResult
from repro.service.service import (
    TERMINAL_RECORDS_PER_RESULT,
    collect_reduce,
    spec_records,
)
from repro.workloads.documents import all_pairs_above, generate_documents

#: A tiny spec used by jobs whose outputs are irrelevant.
SMALL_SPEC = JobSpec.a2a([3, 5, 2, 7, 4], q=12)

#: Deterministic environment so plans (and fingerprints) are stable.
ENV = Environment(num_workers=2, memory_bytes=1 << 30)

SERIAL = ExecutionConfig(backend="serial")


def _await(predicate, timeout=5.0, interval=0.005):
    """Poll *predicate* until true (returns False on timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Gate:
    """A reduce-side gate: jobs block until the test releases them."""

    def __init__(self):
        self.event = threading.Event()
        self.entered = threading.Semaphore(0)

    def reduce(self, key, values):
        self.entered.release()
        assert self.event.wait(10.0), "test gate never released"
        yield key, len(values)


class TestSchedulerFairness:
    def test_eight_jobs_two_slots_priority_fifo(self):
        gate = _Gate()
        with JobService(slots=2, env=ENV) as service:
            blockers = [
                service.submit(
                    SMALL_SPEC,
                    records=spec_records(SMALL_SPEC),
                    reduce_fn=gate.reduce,
                    config=SERIAL,
                    job_id=f"blocker-{i}",
                )
                for i in range(2)
            ]
            # Both slots are busy before any test job is submitted.
            assert gate.entered.acquire(timeout=5.0)
            assert gate.entered.acquire(timeout=5.0)

            priorities = [2, 0, 1, 0, 2, 1, 0, 1]
            handles = [
                service.submit_spec(
                    SMALL_SPEC, priority=priority, job_id=f"t{index}"
                )
                for index, priority in enumerate(priorities)
            ]
            # With the slots occupied, every submission is observably queued.
            assert [h.status().state for h in handles] == [QUEUED] * 8
            assert service.scheduler.queued_count == 8

            gate.event.set()
            for handle in blockers + handles:
                assert handle.wait(timeout=30.0).state == DONE

            dispatched = [
                job_id
                for job_id in service.scheduler.dispatch_order
                if not job_id.startswith("blocker-")
            ]
            # Priority first, then strict submission (FIFO) order within a
            # priority level: that is the fairness contract.
            expected = [
                f"t{index}"
                for index, _ in sorted(
                    enumerate(priorities), key=lambda item: (item[1], item[0])
                )
            ]
            assert dispatched == expected
            # All eight completed with correct results.
            for handle in handles:
                assert handle.result().outputs

    def test_same_priority_is_submission_order(self):
        gate = _Gate()
        with JobService(slots=1, env=ENV) as service:
            service.submit(
                SMALL_SPEC,
                records=spec_records(SMALL_SPEC),
                reduce_fn=gate.reduce,
                config=SERIAL,
                job_id="blocker",
            )
            assert gate.entered.acquire(timeout=5.0)
            handles = [
                service.submit_spec(SMALL_SPEC, job_id=f"fifo-{i}")
                for i in range(4)
            ]
            gate.event.set()
            for handle in handles:
                assert handle.wait(timeout=30.0).state == DONE
        assert service.scheduler.dispatch_order == [
            "blocker", "fifo-0", "fifo-1", "fifo-2", "fifo-3",
        ]


class TestCancel:
    def test_cancel_queued_job_never_runs(self):
        gate = _Gate()
        with JobService(slots=1, env=ENV) as service:
            service.submit(
                SMALL_SPEC,
                records=spec_records(SMALL_SPEC),
                reduce_fn=gate.reduce,
                config=SERIAL,
                job_id="blocker",
            )
            assert gate.entered.acquire(timeout=5.0)
            queued = service.submit_spec(SMALL_SPEC, job_id="queued-victim")
            assert queued.status().state == QUEUED

            assert queued.cancel() is True
            assert queued.status().state == CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result(timeout=1.0)

            gate.event.set()
            service.drain(timeout=30.0)
            assert "queued-victim" not in service.scheduler.dispatch_order
            # Terminal: a second cancel is a no-op.
            assert queued.cancel() is False

    def test_cancel_running_job_discards_result(self):
        gate = _Gate()
        with JobService(slots=1, env=ENV) as service:
            running = service.submit(
                SMALL_SPEC,
                records=spec_records(SMALL_SPEC),
                reduce_fn=gate.reduce,
                config=SERIAL,
                job_id="running-victim",
            )
            assert gate.entered.acquire(timeout=5.0)
            assert running.status().state == RUNNING

            assert running.cancel() is True
            assert running.status().state == CANCELLING

            gate.event.set()
            status = running.wait(timeout=30.0)
            assert status.state == CANCELLED
            assert service.results.get("running-victim") is None
            with pytest.raises(JobCancelledError):
                running.result(timeout=1.0)

    def test_close_without_drain_terminalizes_queued_jobs(self):
        gate = _Gate()
        service = JobService(slots=1, env=ENV)
        service.submit(
            SMALL_SPEC,
            records=spec_records(SMALL_SPEC),
            reduce_fn=gate.reduce,
            config=SERIAL,
            job_id="blocker",
        )
        assert gate.entered.acquire(timeout=5.0)
        stranded = service.submit_spec(SMALL_SPEC, job_id="stranded")
        # Close while the only worker is provably inside the blocker: the
        # queued job can never be dispatched.
        service.close(drain=False, timeout=0.2)
        # The abandoned job is terminal, so result()/wait() callers
        # unblock instead of hanging on a job no worker will ever run.
        assert stranded.status().state == CANCELLED
        with pytest.raises(JobCancelledError):
            stranded.result(timeout=1.0)
        # Release the worker; its late blocker result is discarded.
        gate.event.set()
        assert _await(lambda: service.scheduler.running_count == 0)
        assert service.results.get("blocker") is None

    def test_cancel_finished_job_returns_false(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit_spec(SMALL_SPEC)
            assert handle.wait(timeout=30.0).state == DONE
            assert handle.cancel() is False


class TestPlanCache:
    def test_cache_hit_returns_byte_identical_plan(self):
        spec = JobSpec.a2a([3, 5, 2, 7, 4, 6], q=13, method=None)
        with JobService(slots=2, env=ENV) as service:
            first = service.submit_spec(spec)
            result_one = first.result(timeout=30.0)
            second = service.submit_spec(spec)
            result_two = second.result(timeout=30.0)
        assert result_one.cache_hit is False
        assert result_two.cache_hit is True
        assert result_two.plan is result_one.plan
        assert result_two.plan.to_json() == result_one.plan.to_json()
        assert result_one.fingerprint == plan_fingerprint(spec, ENV)
        assert service.plan_cache.stats()["hits"] == 1

    def test_cache_aware_plan_function(self):
        cache = PlanCache(capacity=8)
        spec = JobSpec.a2a([4, 4, 4, 4], q=9, method=None)
        first = plan(spec, ENV, cache=cache)
        second = plan(spec, ENV, cache=cache)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_environments_do_not_collide(self):
        spec = JobSpec.a2a([3, 5, 2], q=9)
        other_env = Environment(num_workers=4, memory_bytes=1 << 30)
        assert plan_fingerprint(spec, ENV) != plan_fingerprint(spec, other_env)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        specs = [JobSpec.a2a([i + 2, 3], q=9) for i in range(3)]
        plans = [plan(spec, ENV) for spec in specs]
        keys = [plan_fingerprint(spec, ENV) for spec in specs]
        cache.put(keys[0], plans[0])
        cache.put(keys[1], plans[1])
        assert cache.get(keys[0]) is plans[0]  # refresh key 0
        cache.put(keys[2], plans[2])  # evicts key 1 (LRU)
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is plans[0]
        assert cache.evictions == 1

    def test_fingerprint_is_content_based(self):
        a = JobSpec.a2a([3, 5, 2], q=9)
        b = JobSpec.a2a([3, 5, 2], q=9)
        c = JobSpec.a2a([3, 5, 2], q=9, objective="min-communication")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestResultStore:
    def test_lru_eviction_keeps_status(self):
        with JobService(slots=1, env=ENV, result_capacity=2) as service:
            handles = [
                service.submit_spec(SMALL_SPEC, job_id=f"evict-{i}")
                for i in range(3)
            ]
            for handle in handles:
                assert handle.wait(timeout=30.0).state == DONE
        assert service.results.evictions == 1
        assert service.results.get("evict-0") is None
        with pytest.raises(ResultEvictedError):
            service.result("evict-0")
        # Status survives eviction; later results are still fetchable.
        assert service.status("evict-0").state == DONE
        assert service.result("evict-2").outputs

    def test_slow_reader_never_loses_an_unread_result(self):
        # Each result is read once the next capacity - 1 jobs have
        # finished.  Evicting by recency alone would drop the oldest
        # unread result in favour of the one just read.
        capacity = 3
        with JobService(slots=1, env=ENV, result_capacity=capacity) as service:
            handles = []
            for index in range(4 * capacity):
                handle = service.submit_spec(SMALL_SPEC, job_id=f"slow-{index}")
                assert handle.wait(timeout=30.0).state == DONE
                handles.append(handle)
                if index >= capacity - 1:
                    lagging = handles[index - (capacity - 1)]
                    assert lagging.result().outputs
                    # Reading a result keeps the job's record.
                    assert lagging.status().state == DONE
            for handle in handles[-(capacity - 1):]:
                assert handle.result().outputs
            assert service.results.evictions == 3 * capacity

    def test_read_results_are_evicted_before_unread_ones(self):
        store = ResultStore(capacity=2)
        plan_obj = plan(SMALL_SPEC, ENV)

        def put(job_id):
            store.put(
                JobResult(
                    job_id=job_id, plan=plan_obj, fingerprint="x", cache_hit=False
                )
            )

        put("r0")
        put("r1")
        assert store.fetch("r0").job_id == "r0"
        put("r2")  # r0 was read: it goes, though r1 is older
        assert "r0" not in store and "r1" in store and "r2" in store
        put("r3")  # nothing read: the oldest unread goes
        assert "r1" not in store and "r2" in store and "r3" in store
        assert store.stats()["evictions"] == 2

    def test_unknown_job_is_a_key_error(self):
        store = ResultStore(capacity=2)
        with pytest.raises(KeyError):
            store.fetch("nope")

    def test_store_accounting(self):
        store = ResultStore(capacity=1)
        plan_obj = plan(SMALL_SPEC, ENV)
        for index in range(2):
            store.put(
                JobResult(
                    job_id=f"r{index}",
                    plan=plan_obj,
                    fingerprint="x",
                    cache_hit=False,
                )
            )
        assert store.stats() == {"size": 1, "capacity": 1, "evictions": 1}
        assert "r1" in store and "r0" not in store


class TestAdmissionControl:
    def test_oversubscribed_workers_rejected(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit(
                SMALL_SPEC,
                config=ExecutionConfig(backend="processes", num_workers=64),
            )
            status = handle.status()
            assert status.state == REJECTED
            assert "schedulable core" in status.detail
            with pytest.raises(AdmissionError):
                handle.result(timeout=1.0)
            assert handle.cancel() is False

    def test_oversized_input_rejected(self):
        small_env = Environment(num_workers=2, memory_bytes=1 << 20)
        big_spec = JobSpec.a2a([3000, 3000], q=10_000)
        with JobService(slots=1, env=small_env) as service:
            handle = service.submit(big_spec)
            assert handle.status().state == REJECTED
            assert "available memory" in handle.status().detail

    def test_oversized_memory_budget_rejected(self):
        small_env = Environment(num_workers=2, memory_bytes=1 << 20)
        with JobService(slots=1, env=small_env) as service:
            handle = service.submit(
                SMALL_SPEC,
                config=ExecutionConfig(
                    backend="processes", num_workers=2, memory_budget=4096
                ),
            )
            assert handle.status().state == REJECTED
            assert "memory_budget" in handle.status().detail

    def test_memory_budget_counts_mean_size_pairs(self):
        # The parent holds one routing buffer of budget pairs, each a
        # record of mean size, whatever the worker count.
        small_env = Environment(num_workers=2, memory_bytes=1 << 20)
        unit = JobSpec.a2a([1] * 40, q=8)
        wide = JobSpec.a2a([8] * 40, q=24)
        with JobService(slots=1, env=small_env) as service:
            admitted = service.submit(
                unit,
                config=ExecutionConfig(
                    backend="processes", num_workers=2, memory_budget=3000
                ),
            )
            assert admitted.wait(timeout=30.0).state == DONE
            rejected = service.submit(
                wide,
                config=ExecutionConfig(
                    backend="processes", num_workers=2, memory_budget=1024
                ),
            )
            status = rejected.status()
            assert status.state == REJECTED
            assert "memory_budget=1024 pairs" in status.detail
            assert str(1024 * 256 * 8) in status.detail
            # A spec with no inputs never reaches admission: building it
            # raises, so the mean size never divides by zero.
            with pytest.raises(InvalidInstanceError):
                JobSpec.a2a([], q=8)

    def test_fitting_job_admitted(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit_spec(
                SMALL_SPEC, config=ExecutionConfig(backend="serial")
            )
            assert handle.wait(timeout=30.0).state == DONE


class TestBoundedJobTable:
    def test_oldest_finished_records_are_dropped(self):
        limit = TERMINAL_RECORDS_PER_RESULT * 2
        with JobService(slots=1, env=ENV, result_capacity=2) as service:
            handles = [
                service.submit_spec(SMALL_SPEC, job_id=f"t-{i}")
                for i in range(limit + 3)
            ]
            # Every job finishes before the table is read.
            assert service.drain(timeout=30.0)
            listed = [status.job_id for status in service.list()]
            assert listed == [f"t-{i}" for i in range(3, limit + 3)]
            for dropped in ("t-0", "t-1", "t-2"):
                with pytest.raises(UnknownJobError):
                    service.status(dropped)
                with pytest.raises(UnknownJobError):
                    service.result(dropped)
            # A kept record outlives its evicted result.
            with pytest.raises(ResultEvictedError):
                service.result("t-3")
            # Reading a result keeps the record.
            assert handles[-1].result().outputs
            assert handles[-1].status().state == DONE
            # The counts still cover every job.
            assert service.stats()["jobs"] == {DONE: limit + 3}

    def test_a_dropped_record_still_answers_its_waiters(self):
        # Later jobs finish and drop "first" from the job table after its
        # done event fires but before wait takes its snapshot: wait answers
        # from the record it already holds, and so does the handle.
        limit = TERMINAL_RECORDS_PER_RESULT * 1
        with JobService(slots=1, env=ENV, result_capacity=1) as service:
            first = service.submit_spec(SMALL_SPEC, job_id="first")
            record = service._record("first")
            done_wait = record.done.wait

            def wait_then_drop(timeout=None):
                finished = done_wait(timeout)
                for index in range(limit):
                    later = service.submit_spec(SMALL_SPEC, job_id=f"l-{index}")
                    assert later.wait(timeout=30.0).state == DONE
                return finished

            record.done.wait = wait_then_drop
            assert service.wait("first", timeout=30.0).state == DONE
            record.done.wait = done_wait
            with pytest.raises(UnknownJobError):
                service.status("first")
            assert first.wait(timeout=30.0).state == DONE
            assert first.status().state == DONE
            with pytest.raises(ResultEvictedError):
                first.result()

    def test_unfinished_records_are_never_dropped(self):
        gate = _Gate()
        limit = TERMINAL_RECORDS_PER_RESULT * 1
        with JobService(slots=2, env=ENV, result_capacity=1) as service:
            blocker = service.submit(
                SMALL_SPEC,
                records=spec_records(SMALL_SPEC),
                reduce_fn=gate.reduce,
                config=SERIAL,
                job_id="blocker",
            )
            assert gate.entered.acquire(timeout=5.0)
            for index in range(3 * limit):
                handle = service.submit(SMALL_SPEC, job_id=f"plan-{index}")
                assert handle.wait(timeout=30.0).state == DONE
            listed = [status.job_id for status in service.list()]
            assert listed[0] == "blocker"
            assert len(listed) == limit + 1
            assert service.stats()["jobs"] == {RUNNING: 1, DONE: 3 * limit}
            gate.event.set()
            assert blocker.wait(timeout=30.0).state == DONE
            assert blocker.result().outputs
            assert len(service.list()) == limit

    def test_soak_keeps_every_table_within_its_bound(self):
        # 10k cached plan-only jobs, two slots, a closed loop of eight
        # outstanding: the job table, the result store, the observations
        # and the event log stay bounded while every job is counted.
        jobs, outstanding = 10_000, 8
        with JobService(slots=2, env=ENV) as service:
            limit = TERMINAL_RECORDS_PER_RESULT * service.results.capacity
            pending = []
            for index in range(jobs):
                pending.append(service.submit(SMALL_SPEC))
                if len(pending) == outstanding:
                    for handle in pending:
                        handle.result(timeout=30.0)
                    pending.clear()
                if index % 1000 == 999:
                    assert len(service.list()) <= limit + outstanding
            for handle in pending:
                handle.result(timeout=30.0)
            assert len(service.list()) == limit
            assert len(service.results) == service.results.capacity
            assert len(service.observations) <= OBSERVATIONS_KEPT
            assert len(service.events) <= 4096  # the event log's capacity
            stats = service.stats()
        assert stats["jobs"] == {DONE: jobs}
        assert stats["plan_cache"]["hits"] == jobs - 1


class TestLifecycleAndStats:
    def test_plan_only_job(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit(SMALL_SPEC)
            result = handle.result(timeout=30.0)
        assert result.outputs is None
        assert result.executed is False
        assert result.plan.chosen
        assert "outputs" not in result.summary()

    def test_failed_job_raises_original_exception(self):
        # Inputs 0 and 1 together exceed q: no schema can cover the pair.
        infeasible = JobSpec.a2a([3, 4], q=5)
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit(infeasible)
            status = handle.wait(timeout=30.0)
            assert status.state == FAILED
            assert "InfeasibleInstanceError" in status.error
            with pytest.raises(InfeasibleInstanceError):
                handle.result(timeout=1.0)

    def test_event_history_covers_lifecycle(self):
        with JobService(slots=1, env=ENV) as service:
            handle = service.submit_spec(SMALL_SPEC, job_id="evented")
            handle.wait(timeout=30.0)
            states = [
                event.state for event in service.events.snapshot("evented")
            ]
        assert states == [QUEUED, RUNNING, DONE]

    def test_list_in_submission_order(self):
        with JobService(slots=2, env=ENV) as service:
            for index in range(3):
                service.submit_spec(SMALL_SPEC, job_id=f"list-{index}")
            service.drain(timeout=30.0)
            listed = service.list()
        assert [status.job_id for status in listed] == [
            "list-0", "list-1", "list-2",
        ]
        assert all(status.state == DONE for status in listed)

    def test_stats_report_shared_pools_and_caches(self):
        with JobService(slots=2, env=ENV) as service:
            for _ in range(3):
                # Sequential waits keep the hit accounting deterministic.
                handle = service.submit_spec(
                    SMALL_SPEC,
                    config=ExecutionConfig(backend="processes", num_workers=2),
                )
                assert handle.wait(timeout=30.0).state == DONE
            stats = service.stats()
        # Three jobs shared ONE process pool — the service owns it.
        assert stats["backend_pools"] == {"processes@2": 1}
        assert stats["jobs"] == {DONE: 3}
        assert stats["plan_cache"]["hits"] == 2

    def test_records_without_reduce_fn_rejected(self):
        with JobService(slots=1, env=ENV) as service:
            with pytest.raises(InvalidInstanceError):
                service.submit(SMALL_SPEC, records=["a"])

    def test_duplicate_job_id_rejected(self):
        with JobService(slots=1, env=ENV) as service:
            service.submit_spec(SMALL_SPEC, job_id="dup")
            with pytest.raises(InvalidInstanceError):
                service.submit_spec(SMALL_SPEC, job_id="dup")

    def test_submit_after_close_raises(self):
        service = JobService(slots=1, env=ENV)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit_spec(SMALL_SPEC)

    def test_unknown_job_id(self):
        with JobService(slots=1, env=ENV) as service:
            with pytest.raises(KeyError):
                service.status("ghost")


class TestCrossValidation:
    """A service-executed job must match the direct one-shot app path."""

    THRESHOLD = 0.2
    Q = 60

    def test_similarity_spec_job_matches_direct_path(self):
        documents = generate_documents(24, self.Q, seed=21)
        direct = run_similarity_join(documents, self.Q, self.THRESHOLD)

        spec = similarity_spec(documents, self.Q)
        with JobService(slots=2, env=ENV) as service:
            planned = plan(spec, service.env)
            handle = service.submit(
                spec,
                records=documents,
                reduce_fn=similarity_reducer(
                    planned.schema(), documents, self.THRESHOLD
                ),
                config=ExecutionConfig(backend="processes", num_workers=2),
            )
            result = handle.result(timeout=60.0)

        assert tuple(result.outputs) == direct.pairs
        assert {(a, b) for a, b, _ in result.outputs} == all_pairs_above(
            documents, self.THRESHOLD
        )
        # The analytical job metrics agree with the simulator's run.
        assert result.metrics.communication_cost == (
            direct.metrics.communication_cost
        )
        assert result.metrics.num_reducers == direct.metrics.num_reducers

    def test_spec_records_jobs_match_one_shot_runs(self):
        specs = [
            JobSpec.a2a([3, 5, 2, 7, 4, 6], q=13, method=None),
            JobSpec.x2y([4, 2, 3], [5, 3], q=9, method=None),
            JobSpec.multiway([2, 3, 2, 3, 2, 2], q=9, r=3),
        ]
        with JobService(slots=2, env=ENV) as service:
            handles = [service.submit_spec(spec) for spec in specs]
            served = [h.result(timeout=30.0) for h in handles]
        for spec, result in zip(specs, served):
            planned = plan(spec, ENV)
            from repro.planner import run as run_plan

            direct = run_plan(
                planned, spec_records(spec), collect_reduce,
                config=planned.execution,
            )
            assert sorted(result.outputs) == sorted(direct.outputs)
