"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError, ValueError):
    """An instance definition violates the model.

    Raised when input sizes are not positive integers, the reducer capacity
    is not a positive integer, or an instance is empty where the operation
    requires at least one input.
    """


class InfeasibleInstanceError(ReproError):
    """No mapping schema can exist for the instance.

    The canonical cause is a required pair of inputs whose combined size
    exceeds the reducer capacity ``q``: such a pair can never meet at any
    reducer, so condition (ii) of the mapping-schema definition is
    unsatisfiable.
    """

    def __init__(self, message: str, *, offending_pair: tuple[int, int] | None = None):
        super().__init__(message)
        #: The first pair of input indices found to be unsatisfiable, if any.
        self.offending_pair = offending_pair


class InvalidSchemaError(ReproError):
    """A mapping schema violates capacity or coverage constraints.

    Carries the structured :class:`repro.core.verify.VerificationReport`
    that describes every violation found, so callers can inspect exactly
    which reducers overflow and which pairs are uncovered.
    """

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        #: The verification report that triggered the error (may be ``None``).
        self.report = report


class CapacityExceededError(ReproError):
    """A reducer received more input than its capacity ``q``.

    Raised by the execution engine when a reducer's total value size
    exceeds the plan's capacity and strict enforcement is on.
    """

    def __init__(self, message: str, *, key: object = None, load: int = 0, capacity: int = 0):
        super().__init__(message)
        self.key = key
        self.load = load
        self.capacity = capacity


class SolverLimitError(ReproError):
    """A solver exceeded its configured node or size budget.

    Raised by the exact solvers when their search grows past its budget,
    and by constructions that skip instances too large for them (such as
    :func:`repro.core.a2a.grouped_covering` when every group size needs
    an oversized covering design).
    """


class SpillError(ReproError):
    """The out-of-core shuffle could not spill or read back its data.

    Raised when a memory-budgeted run's spill file is missing,
    unreadable, truncated or corrupt — including a file that loads to
    something other than a run's record dict, or has bytes after it —
    so a damaged run never reads as a shorter one.
    """


class AdmissionError(ReproError):
    """The job service refused to admit a job.

    Raised (or recorded on the rejected job) when a submission's resolved
    execution requirements oversubscribe the environment the service was
    admitted against — more workers than the machine's schedulable cores,
    or an estimated memory footprint beyond the available memory.  The
    human-readable reason is the exception message.
    """


class JobCancelledError(ReproError):
    """A job's result was requested but the job was cancelled.

    Raised by :meth:`repro.service.JobHandle.result` (and the service's
    ``result()``) when the job reached the ``cancelled`` terminal state,
    so callers waiting on a result see a typed error instead of a hang.
    """


class ResultEvictedError(ReproError, KeyError):
    """A finished job's result was evicted from the bounded result store.

    The job's status (state, timings, metrics summary) remains queryable;
    only the stored outputs are gone.  Subclasses ``KeyError`` because the
    lookup is by job id and callers may treat eviction as a missing key.
    """


class InjectedFaultError(ReproError):
    """A deterministic fault injector crashed this task attempt.

    Raised inside worker tasks by :class:`repro.faults.FaultInjector` when
    the seeded decision for ``(phase, task, attempt)`` says the attempt
    crashes.  Classified retryable by the default
    :class:`repro.faults.RetryPolicy` — an injected crash models a task
    failure whose rerun would succeed.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "crash",
        phase: str = "",
        task_index: int = -1,
        attempt: int = 0,
    ):
        super().__init__(message)
        self.kind = kind
        self.phase = phase
        self.task_index = task_index
        self.attempt = attempt


class TransientFaultError(InjectedFaultError, ConnectionError):
    """An injected *transient* fault (simulated flaky I/O).

    Subclasses :class:`ConnectionError` so it exercises the retry policy's
    generic transient-exception classification rather than the explicit
    injected-fault allowlist.
    """


class WorkerLostError(ReproError):
    """A pool worker died while tasks were in flight.

    Raised when the process backend detects a broken
    :class:`~concurrent.futures.ProcessPoolExecutor` (a worker was killed
    or segfaulted).  The backend rebuilds the pool before raising, so the
    next dispatch runs on fresh workers; under a retry policy the lost
    tasks — and only those — are replayed.
    """


class TaskTimeoutError(ReproError, TimeoutError):
    """A single task attempt exceeded the configured per-task timeout.

    The attempt is abandoned (its eventual result, if any, is discarded)
    and the task is retried under the run's retry policy.  Subclasses
    :class:`TimeoutError` so generic timeout handling also catches it.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """The whole run exceeded its per-job deadline.

    Unlike :class:`TaskTimeoutError` this is *not* retryable: the deadline
    bounds the run end to end, so the engine stops dispatching and raises
    as soon as the deadline passes between tasks or retry rounds.
    """


class TaskRetryExhaustedError(ReproError):
    """A task kept failing after every allowed retry attempt.

    Carries the attempt count and the last underlying error (also chained
    as ``__cause__``) so callers can distinguish "retries exhausted on
    worker loss" from "retries exhausted on injected crash".
    """

    def __init__(
        self, message: str, *, attempts: int = 0, last_error: BaseException | None = None
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class UnknownMethodError(ReproError, ValueError):
    """A method name does not exist in the algorithm registry.

    Subclasses ``ValueError`` for backwards compatibility with callers that
    catch the historical exception type, while also being a
    :class:`ReproError` so front-ends (the CLI) can report it as user error
    without a blanket ``ValueError`` catch that would mask library bugs.
    """


class ServiceClosedError(ReproError, RuntimeError):
    """An operation was attempted on a closed service or scheduler.

    Raised by :class:`repro.service.JobService` and
    :class:`repro.service.JobScheduler` when work is submitted after
    ``close()``/``shutdown()``.  Subclasses ``RuntimeError`` for backwards
    compatibility with callers that catch the historical exception type.
    """


class UnknownJobError(ReproError, KeyError):
    """A job id is not known to the service or result store.

    Subclasses ``KeyError`` because lookups are by job id and existing
    callers treat a missing job as a missing key.
    """


class ResultWaitTimeoutError(ReproError, TimeoutError):
    """Waiting for a job result exceeded the caller's timeout.

    Raised by ``JobService.result(..., timeout=...)`` when the job has not
    reached a terminal state within the allotted time.  Distinct from
    :class:`TaskTimeoutError` (a single task attempt timed out) and
    :class:`DeadlineExceededError` (the run blew its deadline): here the
    job may still be running — only the caller stopped waiting.
    """
