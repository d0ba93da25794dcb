"""Pluggable task-execution backends for the engine.

A backend answers one question: given a task function and an iterable of
task payloads, run them all and return the results *in task order*.
Everything schema- or MapReduce-specific lives in
:mod:`repro.engine.engine`; backends are interchangeable executors, so
correctness is backend-independent and the backends can be compared
purely on wall clock.

Three backends ship:

* ``serial`` — runs each task inline; the reference the others are
  validated against.
* ``threads`` — :class:`concurrent.futures.ThreadPoolExecutor`; wins when
  task bodies release the GIL (I/O, zlib/hashlib, numpy) and costs little
  otherwise.
* ``processes`` — :class:`concurrent.futures.ProcessPoolExecutor`; wins on
  CPU-bound reduce work, but requires the task function and payloads to
  be picklable (module-level functions and :func:`functools.partial` over
  them qualify; closures do not).  It is the one backend that sets
  :attr:`Backend.ships_blocks`: shuffle buckets cross its pipes as blocks
  (:mod:`repro.engine.codec`).

Every backend dispatches through one windowed loop,
:meth:`Backend.run_tasks`.  It pulls tasks lazily, keeps at most
``max_workers * 4`` of them in flight, and collects results in task
order, so a streaming task iterable is never materialized.  Retry, per-task
timeouts, a run deadline and deterministic fault injection
(:mod:`repro.faults`) are policy on that loop, not a second path: with
``policy=None`` and no injector every failure propagates unchanged, and
with a :class:`~repro.faults.RetryPolicy` a failed task is sent again
(safe because engine tasks are pure over their schema-assigned
partitions).  Only the in-flight payloads are kept for replay.  A worker
death breaks a process pool; the loop heals the backend (the broken pool
is torn down and rebuilt) and either replays the lost tasks or, with no
policy, raises :class:`~repro.exceptions.WorkerLostError`.

Backends have an explicit pool lifecycle.  Entering one as a context
manager opens a worker pool that every :meth:`Backend.run_tasks` call
inside the context reuses, so a multi-phase job (map, then reduce) pays
pool startup once instead of once per phase.  :meth:`Backend.open` opens
the pool *persistently*: it survives context exits (the engine wraps every
run in one) until :meth:`Backend.close`, which is how long-lived services
share one pool across many runs.  A pre-built backend handed to the engine
is treated as caller-owned — the engine opens its pool persistently and
never tears it down, so repeated runs on the same instance reuse one pool
(:attr:`Backend.pools_created` counts actual pool constructions, which is
what the regression tests pin).  Outside any of that, a
:meth:`Backend.run_tasks` call opens a pool for its own duration.
The process backend additionally ships the task function *pickled once per
``run_tasks`` call* (workers cache the unpickled callable), rather than once
per task — with schema routing tables bound into the map function, per-task
pickling used to dominate small-task runs.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import BrokenExecutor, Future, wait
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterable

from repro.exceptions import (
    InvalidInstanceError,
    TaskRetryExhaustedError,
    TaskTimeoutError,
    UnknownMethodError,
    WorkerLostError,
)
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    check_deadline,
    remaining_time,
)

#: In-flight tasks per worker: enough to keep every worker busy without
#: materializing a streaming task iterable.
_WINDOW_PER_WORKER = 4

#: Livelock backstop for worker-death replay: a task lost to pool
#: breakage consumes no retry attempt (its loss says nothing about the
#: task — one killed worker takes every in-flight neighbour with it), but
#: a task *dispatched* this many times max-attempts over is abandoned so
#: a pool that dies on every round still terminates.
_LOST_DISPATCH_FACTOR = 4

#: Marks the end of the task iterable.
_EXHAUSTED = object()


def available_workers() -> int:
    """Worker count the machine can actually run at once.

    Prefers the scheduling affinity (respects container CPU limits) and
    falls back to the raw core count; never less than 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def _injected_call(
    item: tuple[int, int, Any],
    *,
    fn: Callable[[Any], Any],
    injector: FaultInjector,
    phase: str,
    allow_kill: bool,
) -> Any:
    """Worker-side fault injection around one task attempt.

    *item* is ``(task index, dispatch number, payload)``: the injector's
    decision coordinates travel with the payload, so every backend draws
    the same faults.  An injected kill exits the worker process; any other
    injected fault raises like a task failure.  Module-level so process
    pool workers can unpickle it.
    """
    index, dispatch, payload = item
    injector.maybe_inject(phase, index, dispatch, allow_kill=allow_kill)
    return fn(payload)


class _Ran:
    """The outcome of a task run inline, read like a finished future."""

    __slots__ = ("_value", "_error")

    def __init__(self, call: Callable[[Any], Any], item: Any):
        self._value: Any = None
        self._error: Exception | None = None
        try:
            self._value = call(item)
        except Exception as exc:  # noqa: BLE001 - classified by the loop
            self._error = exc

    def cancel(self) -> bool:
        return False

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value


class _Attempt:
    """One dispatch of one task, in flight until the loop collects it."""

    __slots__ = (
        "index", "payload", "dispatch", "failures", "future", "pool",
        "overran",
    )

    #: The attempt's outcome, set by :meth:`Backend._send`.
    future: Future | _Ran

    def __init__(self, index: int, payload: Any, dispatch: int, failures: int):
        self.index = index
        self.payload = payload
        self.dispatch = dispatch
        self.failures = failures
        #: The pool it was submitted to (``None`` when run inline).
        self.pool: Any = None
        #: Whether an inline run took longer than the task timeout.
        self.overran = False


class Backend(ABC):
    """Executes a batch of independent tasks, preserving task order."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise InvalidInstanceError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers or available_workers()
        self._pool: Any = None
        self._depth = 0
        self._persistent = False
        self._lifecycle_lock = threading.Lock()
        #: Worker pools constructed over this backend's lifetime.  A
        #: long-lived backend that is reused correctly creates exactly one;
        #: the pool-reuse regression tests pin this counter.
        self.pools_created = 0
        #: Task dispatches (retries included) over this backend's
        #: lifetime; the service exports it as a pool-utilization metric
        #: for shared backends.
        self.tasks_dispatched = 0
        #: Pools rebuilt after a worker death broke them (process backend);
        #: the worker-death recovery tests pin this counter.
        self.pool_rebuilds = 0

    #: Whether tasks run inline in the calling thread, one at a time.
    #: True only for the poolless serial backend; every other backend
    #: submits each task to its worker pool.
    runs_inline: bool = False

    #: Whether an injected ``kill`` fault may really terminate a worker on
    #: this backend.  True only where workers are disposable OS processes;
    #: elsewhere the injector degrades a kill to a task crash.
    supports_worker_kill: bool = False

    #: Whether task payloads and results cross a process boundary.  The
    #: engine block-encodes shuffle buckets only when they do — on the
    #: in-process backends the dict buckets are handed over by reference,
    #: so encoding would be pure overhead.
    ships_blocks: bool = False

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        phase: str = "tasks",
        task_timeout: float | None = None,
        deadline_at: float | None = None,
        on_retry: Callable[[str, int, int, BaseException, float], None]
        | None = None,
    ) -> list[Any]:
        """Run ``fn`` over every task payload; results keep task order.

        *tasks* may be any iterable and is consumed lazily: the serial
        backend runs one task at a time, pooled backends keep at most
        ``max_workers * 4`` tasks in flight.

        With ``policy=None`` (the default) a failing task's exception
        propagates unchanged; a worker death heals the pool and raises
        :class:`~repro.exceptions.WorkerLostError`.  With a
        :class:`~repro.faults.RetryPolicy`:

        * each failure is classified by the policy: retryable failures
          are sent again after the policy's deterministic backoff (up to
          ``max_attempts`` observed failures per task); anything else
          propagates at once, exactly as with no policy.  A task lost to
          a worker death is replayed without consuming an attempt — the
          loss says nothing about the task — subject to a total-dispatch
          backstop so a dying pool still terminates.  A task that fails
          on every allowed attempt raises
          :class:`~repro.exceptions.TaskRetryExhaustedError` carrying the
          last underlying error;
        * *on_retry* is called as ``(phase, task index, failed dispatch,
          exception, backoff seconds)`` before each replay — the engine
          wires it to tracer instants and retry counters.

        A task attempt that exceeds *task_timeout* seconds is abandoned
        with :class:`~repro.exceptions.TaskTimeoutError` (the serial
        backend cannot preempt, so it discards an attempt that overran);
        *deadline_at* (an absolute ``time.monotonic`` instant) bounds the
        whole call with :class:`~repro.exceptions.DeadlineExceededError`.
        *injector* applies seeded faults at ``(phase, task index,
        dispatch number)`` inside each attempt.
        """
        if injector is not None:
            fn = partial(
                _injected_call,
                fn=fn,
                injector=injector,
                phase=phase,
                allow_kill=self.supports_worker_kill,
            )
        call = self._task_callable(fn)
        source = iter(tasks)
        results: list[Any] = []
        in_flight: deque[_Attempt] = deque()
        # Retries waiting out their backoff: (ready at, task index, attempt).
        backlog: list[tuple[float, int, _Attempt]] = []
        dispatched = 0
        window = (
            1 if self.runs_inline else self.max_workers * _WINDOW_PER_WORKER
        )
        with self:
            try:
                while True:
                    while len(in_flight) < window:
                        if backlog and backlog[0][0] <= time.monotonic():
                            attempt = heappop(backlog)[2]
                        else:
                            payload = next(source, _EXHAUSTED)
                            if payload is _EXHAUSTED:
                                break
                            attempt = _Attempt(len(results), payload, 1, 0)
                            results.append(None)
                        self._send(
                            call, attempt, injector is not None,
                            task_timeout, deadline_at, phase,
                        )
                        in_flight.append(attempt)
                        dispatched += 1
                    if not in_flight:
                        if not backlog:
                            return results
                        self._pause(backlog[0][0], deadline_at, phase)
                        continue
                    attempt = in_flight.popleft()
                    try:
                        results[attempt.index] = self._collect(
                            attempt, task_timeout, deadline_at, phase
                        )
                        continue
                    except BrokenExecutor as exc:
                        self._heal_broken_pool(attempt.pool)
                        if policy is None:
                            raise WorkerLostError(
                                "a process-pool worker died mid-batch; the "
                                "pool was rebuilt — rerun the job (or enable "
                                "a retry policy for in-place replay)"
                            ) from exc
                        error: BaseException = WorkerLostError(
                            f"worker died running {phase} task "
                            f"{attempt.index} (dispatch {attempt.dispatch})"
                        )
                    except Exception as exc:
                        if policy is None:
                            raise
                        error = exc
                        attempt.failures += 1
                    delay = self._retry_delay(
                        attempt, error, policy, phase, on_retry
                    )
                    attempt.dispatch += 1
                    heappush(
                        backlog,
                        (time.monotonic() + delay, attempt.index, attempt),
                    )
            except BaseException:
                for attempt in in_flight:
                    attempt.future.cancel()
                raise
            finally:
                with self._lifecycle_lock:
                    self.tasks_dispatched += dispatched

    def _send(
        self,
        call: Callable[[Any], Any],
        attempt: _Attempt,
        injected: bool,
        task_timeout: float | None,
        deadline_at: float | None,
        phase: str,
    ) -> None:
        """Dispatch one attempt: run it inline, or submit it to the pool."""
        check_deadline(deadline_at, what=f"{phase} phase")
        item = (
            (attempt.index, attempt.dispatch, attempt.payload)
            if injected
            else attempt.payload
        )
        if self.runs_inline:
            # Nothing preempts an inline run, so a timeout is judged after.
            started = time.monotonic()
            attempt.future = _Ran(call, item)
            attempt.overran = (
                task_timeout is not None
                and time.monotonic() - started > task_timeout
            )
            return
        # Opens the pool on first use, and reopens it when it was closed
        # before or during this call (a service evicting a shared backend).
        with self._lifecycle_lock:
            self._ensure_pool()
            pool = self._pool
        attempt.pool = pool
        try:
            attempt.future = pool.submit(call, item)
        except BrokenExecutor as exc:
            attempt.future = Future()
            attempt.future.set_exception(exc)

    @staticmethod
    def _collect(
        attempt: _Attempt,
        task_timeout: float | None,
        deadline_at: float | None,
        phase: str,
    ) -> Any:
        """Wait for one attempt and return its result, or raise its failure.

        The wait starts when the loop reaches the attempt, so a task queued
        behind a straggler keeps its full *task_timeout*; it is capped by
        the run deadline.  A result that arrives past the deadline is
        discarded.
        """
        future = attempt.future
        timeout = task_timeout
        remaining = remaining_time(deadline_at)
        if remaining is not None:
            check_deadline(deadline_at, what=f"{phase} phase")
            timeout = remaining if timeout is None else min(timeout, remaining)
        timed_out = attempt.overran or (
            timeout is not None
            and isinstance(future, Future)
            and not wait((future,), timeout).done
        )
        if timed_out:
            future.cancel()
        check_deadline(deadline_at, what=f"{phase} phase")
        if timed_out:
            raise TaskTimeoutError(
                f"{phase} task {attempt.index} attempt {attempt.dispatch} "
                f"exceeded {task_timeout:g}s timeout"
            )
        return future.result()

    @staticmethod
    def _retry_delay(
        attempt: _Attempt,
        error: BaseException,
        policy: RetryPolicy,
        phase: str,
        on_retry: Callable[[str, int, int, BaseException, float], None]
        | None,
    ) -> float:
        """Backoff before replaying a failed attempt; raises when the
        failure is not retryable or the task's budget is spent."""
        if not policy.is_retryable(error):
            raise error
        index, dispatch, failures = (
            attempt.index, attempt.dispatch, attempt.failures
        )
        if (
            failures >= policy.max_attempts
            or dispatch >= policy.max_attempts * _LOST_DISPATCH_FACTOR
        ):
            if failures:
                message = (
                    f"{phase} task {index} failed on all {failures} "
                    f"attempts ({dispatch} dispatches): {error}"
                )
            else:
                message = (
                    f"{phase} task {index} was lost to worker deaths on "
                    f"all {dispatch} dispatches: {error}"
                )
            raise TaskRetryExhaustedError(
                message, attempts=max(failures, 1), last_error=error
            ) from error
        delay = policy.delay_seconds(dispatch, key=(phase, index))
        if on_retry is not None:
            on_retry(phase, index, dispatch, error, delay)
        return delay

    @staticmethod
    def _pause(
        ready_at: float, deadline_at: float | None, phase: str
    ) -> None:
        """Sleep until the next retry is due, but not past the deadline."""
        pause = ready_at - time.monotonic()
        if pause <= 0.0:
            return
        remaining = remaining_time(deadline_at)
        if remaining is not None:
            check_deadline(deadline_at, what=f"{phase} phase")
            pause = min(pause, remaining)
        time.sleep(pause)

    def _task_callable(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """The callable actually dispatched for *fn* (once per call)."""
        return fn

    @abstractmethod
    def _make_pool(self) -> Any:
        """Build the reusable worker pool; ``None`` for poolless backends."""

    def _ensure_pool(self) -> None:
        """Construct the reusable pool if it is not already open."""
        if self._pool is None:
            pool = self._make_pool()
            if pool is not None:
                self._pool = pool
                self.pools_created += 1

    def _heal_broken_pool(self, pool: Any) -> None:
        """Tear down a broken *pool* and rebuild it if one should be open.

        A no-op when *pool* was already replaced (another attempt, or
        another job sharing this backend, saw the same breakage first).
        Keeps the lifecycle flags (persistent / context depth) untouched:
        if a pool is supposed to be open right now it is rebuilt
        immediately, otherwise the next :meth:`_ensure_pool` builds one.
        Either way :attr:`pool_rebuilds` records the breakage.
        """
        with self._lifecycle_lock:
            if pool is None or pool is not self._pool:
                return
            self._pool = None
            self.pool_rebuilds += 1
            rebuild = self._persistent or self._depth > 0
        pool.shutdown(wait=False)
        if rebuild:
            with self._lifecycle_lock:
                self._ensure_pool()

    def open(self) -> "Backend":
        """Open the worker pool persistently (idempotent).

        A persistently opened pool survives context-manager exits — the
        engine wraps every run in ``with backend:`` — and is only shut
        down by an explicit :meth:`close`.  This is the lifecycle for
        sharing one pool across many runs (services, benchmarks, repeated
        ``execute_schema`` calls on one instance).
        """
        with self._lifecycle_lock:
            self._persistent = True
            self._ensure_pool()
        return self

    @property
    def is_open(self) -> bool:
        """Whether a reusable pool is currently open (always False when
        the backend is poolless, e.g. serial)."""
        return self._pool is not None

    def __enter__(self) -> "Backend":
        with self._lifecycle_lock:
            self._depth += 1
            if self._depth == 1:
                self._ensure_pool()
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lifecycle_lock:
            self._depth -= 1
            if self._depth > 0 or self._persistent:
                self._depth = max(self._depth, 0)
                return
            self._depth = 0
        self.close()

    def close(self) -> None:
        """Shut down the reusable pool (no-op when none is open).

        Also clears the persistent flag, so a backend opened with
        :meth:`open` returns to scoped (context-manager) lifecycle.
        """
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            self._persistent = False
        if pool is not None:
            pool.shutdown()

    def __del__(self) -> None:
        """GC backstop for persistently opened pools nobody closed.

        A caller that hands a fresh backend instance to the engine and
        drops it without :meth:`close` would otherwise keep its warmed
        pool (processes, pipes) alive until interpreter exit; shut it
        down non-blockingly when the backend is collected.
        """
        pool = getattr(self, "_pool", None)
        if pool is not None:  # pragma: no cover - GC timing dependent
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialBackend(Backend):
    """Reference backend: runs every task inline, one after another."""

    name = "serial"
    runs_inline = True

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers=1)

    def _make_pool(self) -> None:
        return None


class ThreadBackend(Backend):
    """Thread-pool backend built on :class:`ThreadPoolExecutor`."""

    name = "threads"

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.max_workers)


#: Per-worker cache of recently unpickled task functions, keyed by their
#: pickle bytes.  A single engine run sees one distinct function per phase,
#: but a *shared* pool (the job service runs concurrent jobs on one
#: process pool) interleaves tasks from several phases at once — the cache
#: holds a few entries so interleaving doesn't thrash it back to
#: per-task unpickling.
_FN_CACHE: dict[bytes, Callable[[Any], Any]] = {}

#: Entries kept in :data:`_FN_CACHE`; comfortably above the number of
#: distinct phases plausibly in flight on one shared pool.
_FN_CACHE_LIMIT = 8


def _noop() -> None:
    """Warm-up task: forces lazy worker spawn at pool-creation time."""


def _call_pickled(blob: bytes, task: Any) -> Any:
    """Worker-side trampoline: unpickle the task function once, then call it.

    ``blob`` travels with every task (it is bound into the submitted
    partial), but the expensive part — unpickling a function with schema
    routing tables attached — happens once per worker per phase thanks to
    the cache.
    """
    fn = _FN_CACHE.get(blob)
    if fn is None:
        fn = pickle.loads(blob)
        while len(_FN_CACHE) >= _FN_CACHE_LIMIT:
            _FN_CACHE.pop(next(iter(_FN_CACHE)))
        _FN_CACHE[blob] = fn
    return fn(task)


class ProcessBackend(Backend):
    """Process-pool backend.

    The task function is pickled once per :meth:`run_tasks` call in the
    parent and cached per worker (see :func:`_call_pickled`); task
    payloads must still be picklable.

    This backend ships shuffle data as blocks (:attr:`ships_blocks`):
    map results and reduce payloads carry each bucket as opaque ``bytes``
    through the pool's pipes.
    """

    name = "processes"
    supports_worker_kill = True
    ships_blocks = True

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        # ProcessPoolExecutor spawns workers lazily on first submit, which
        # would bill worker startup to whatever phase runs first; spawn
        # them now so phase timings measure the phases.
        for future in [pool.submit(_noop) for _ in range(self.max_workers)]:
            future.result()
        return pool

    def _task_callable(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        return partial(_call_pickled, pickle.dumps(fn))


#: Name -> backend class; the CLI and benches iterate this.
BACKENDS: dict[str, type[Backend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def get_backend(
    spec: str | Backend, *, max_workers: int | None = None
) -> Backend:
    """Resolve a backend name (or pass through an instance).

    ``max_workers`` is forwarded when constructing by name and ignored for
    pre-built instances (they already carry their pool size).
    """
    if isinstance(spec, Backend):
        return spec
    return backend_class(spec)(max_workers=max_workers)


def backend_class(name: str) -> type[Backend]:
    """The backend class registered under *name*
    (:class:`~repro.exceptions.UnknownMethodError` for any other name)."""
    if name not in BACKENDS:
        raise UnknownMethodError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    return BACKENDS[name]
