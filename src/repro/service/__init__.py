"""Job service layer: concurrent jobs over the planner/engine stack.

Everything below this package is one-shot: one spec, one plan, one engine
run, one worker pool built and torn down.  The service layer multiplexes
*many* jobs over *shared* resources:

* :class:`JobService` — submit/status/result/cancel/list lifecycle over a
  fair priority-FIFO :class:`JobScheduler` with K concurrent slots.
* Shared, long-lived backend pools — one pool per ``(backend, workers)``
  shape, opened persistently and reused by every job.
* A :class:`PlanCache` — a plan is deterministic in its spec alone, so
  repeated submissions skip enumeration entirely.
* A bounded :class:`ResultStore` that evicts read results before unread
  ones, and per-job metrics.
* Admission control against the :class:`~repro.planner.Environment`
  probe: jobs that oversubscribe cores or memory are rejected at submit.

Quickstart::

    from repro.planner import JobSpec
    from repro.service import JobService

    with JobService(slots=2) as service:
        spec = JobSpec.a2a([3, 5, 2, 7, 4], q=12, method=None)
        handle = service.submit_spec(spec)        # plan + engine run
        result = handle.result(timeout=30.0)
        print(result.plan.chosen, len(result.outputs), result.cache_hit)

The CLI surfaces the same layer as ``repro serve`` (newline-delimited
JSON job specs in, status/result lines out) and ``repro submit`` (one
spec per invocation); see the README's "Serving jobs" section.
"""

from repro.service.events import (
    CANCELLED,
    CANCELLING,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    REJECTED,
    RUNNING,
    TERMINAL_STATES,
    EventLog,
    JobEvent,
)
from repro.service.plan_cache import PlanCache
from repro.service.results import JobResult, ResultStore
from repro.service.scheduler import JobScheduler
from repro.service.service import (
    JobHandle,
    JobService,
    JobStatus,
    collect_reduce,
    spec_records,
)

__all__ = [
    "JobService",
    "JobHandle",
    "JobStatus",
    "JobScheduler",
    "JobResult",
    "ResultStore",
    "PlanCache",
    "EventLog",
    "JobEvent",
    "JOB_STATES",
    "TERMINAL_STATES",
    "QUEUED",
    "RUNNING",
    "CANCELLING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "REJECTED",
    "collect_reduce",
    "spec_records",
]
