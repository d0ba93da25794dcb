"""Trace spans: nested, monotonic, exportable as Chrome trace-event JSON.

A :class:`Tracer` produces :class:`Span` records — name, category, trace
id, span id, parent id, monotonic start, duration, and free-form
attributes.  Spans nest per thread (a ``with tracer.span(...)`` block's
children parent to it automatically); cross-thread and cross-process
relationships are expressed explicitly:

* :meth:`Tracer.activate` pushes an already-open span (e.g. a job's root
  span begun on the submitting thread) onto the current thread's stack so
  later spans nest under it.
* :meth:`Tracer.worker_context` packages ``(trace id, current span id)``
  as a small picklable tuple; :func:`worker_span` turns it back into a
  plain span *dict* inside a worker — thread- or process-pool — which the
  parent merges with :meth:`Tracer.add_worker_spans` after the task
  result travels home.  Worker spans therefore survive the engine's
  once-per-run task-pickling path with their parent linkage intact.

Timestamps are :func:`time.perf_counter` — monotonic, so durations can
never go negative, and (on the platforms this project targets) a
system-wide clock, so parent and worker-process spans share a timeline.

``Tracer(profile=True)`` turns on profiling, a mode of the same spans:
engine phase spans also record CPU seconds and RSS, and phase and task
spans carry ``cProfile`` function tables in :attr:`Span.functions` — a
field of its own, outside ``attrs``, so neither the Chrome export nor
:meth:`Span.to_dict` ships the tables.  :mod:`repro.obs.profiler`
computes the profile export from such spans.

Tracing is **zero-cost when disabled**: :data:`NULL_TRACER` (a
:class:`NullTracer`) returns one shared no-op span from every call,
records nothing, and hands workers a ``None`` context so instrumented
task code skips span construction entirely — the hot per-record loops
contain no tracing calls at all either way.

:func:`to_chrome_trace` / :func:`write_chrome_trace` export collected
spans in the Chrome trace-event format (the ``traceEvents`` array of
``ph="X"``/``ph="i"`` events), loadable in Perfetto or
``chrome://tracing``; :func:`validate_chrome_trace` is the schema check
CI runs against generated trace files.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from typing import Any, Callable, Iterable

#: Process-wide span-id counter; combined with the pid, ids stay unique
#: across the worker processes that contribute spans to one trace.
_SPAN_IDS = itertools.count(1)


def next_span_id() -> str:
    """A span id unique across threads *and* worker processes."""
    return f"{os.getpid():x}.{next(_SPAN_IDS):x}"


class Span:
    """One traced operation: a named interval with attributes.

    Spans are created by a :class:`Tracer` (``span``/``begin``/
    ``record``/``instant``) and usable as context managers; ``set``
    attaches an attribute.  ``duration`` is ``None`` while the span is
    open and seconds once finished (0.0 for instants).  ``functions``
    holds the span's ``cProfile`` table (``{"file:line:name": [calls,
    tottime, cumtime]}``) when a profiling tracer captured one, else
    ``None``.
    """

    __slots__ = (
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "pid",
        "tid",
        "attrs",
        "functions",
        "_tracer",
        "_on_stack",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str | None = None,
        category: str = "",
        start: float | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = next_span_id()
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else start
        self.duration: float | None = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.attrs = attrs if attrs is not None else {}
        self.functions: dict[str, list[float]] | None = None
        self._tracer: "Tracer | None" = None
        self._on_stack = False

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._tracer is not None:
            self._tracer.finish(self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (one NDJSON span line in the serve protocol)."""
        return {
            "name": self.name,
            "cat": self.category,
            "trace": self.trace_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "dur": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id!r}, "
            f"dur={self.duration})"
        )


class Tracer:
    """Produces nested spans into a shared, thread-safe sink.

    Args:
        trace_id: default trace id for spans (a fresh hex id when
            omitted).  :meth:`child` derives a tracer with a different
            trace id over the *same* sink — how the job service gives
            every job its own trace id while one serve session collects
            one span stream.
        on_finish: optional callback invoked with every finished span
            (the serve loop streams spans as NDJSON lines through this).
            Callback exceptions are swallowed — an observer must never
            break the traced code path.
        profile: also profile what is traced — engine phase spans record
            ``cpu_s`` and ``rss_bytes``, and phase and task spans carry
            ``cProfile`` tables in :attr:`Span.functions`.  Off by
            default; :meth:`child` tracers inherit it.
    """

    #: Class-level so instrumented code can branch cheaply; the
    #: :class:`NullTracer` subclass overrides it to ``False``.
    enabled = True

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        profile: bool = False,
        on_finish: Callable[[Span], None] | None = None,
        _sink: list[Span] | None = None,
        _lock: threading.Lock | None = None,
    ):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.profile = profile
        self._sink: list[Span] = _sink if _sink is not None else []
        self._lock = _lock if _lock is not None else threading.Lock()
        self._on_finish = on_finish
        self._local = threading.local()

    # -- span lifecycle ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_id(self) -> str | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def begin(
        self,
        name: str,
        *,
        category: str = "",
        parent: str | None = None,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span *without* making it the thread's current parent.

        Use for spans that outlive the opening call site (a job's root
        span finished on another thread); pair with :meth:`finish`, and
        :meth:`activate` to nest under it elsewhere.
        """
        span = Span(
            name,
            trace_id=trace_id or self.trace_id,
            parent_id=parent if parent is not None else self._current_id(),
            category=category,
            attrs=attrs or None,
        )
        span._tracer = self
        return span

    def span(
        self,
        name: str,
        *,
        category: str = "",
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a nested span: current parent taken from (and pushed onto)
        this thread's span stack; close it with the context manager."""
        span = self.begin(
            name, category=category, trace_id=trace_id, **attrs
        )
        span._on_stack = True
        self._stack().append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close *span*: fix its duration, record it, notify observers."""
        if span.duration is not None:
            return  # already finished (double __exit__/finish is a no-op)
        span.duration = time.perf_counter() - span.start
        if span._on_stack:
            stack = self._stack()
            if stack and stack[-1] is span:
                stack.pop()
            span._on_stack = False
        self._record(span)

    def record(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        category: str = "",
        parent: str | None = None,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-measured interval as a finished span.

        For durations measured before the span could exist — queue wait
        (submission to dispatch) is recorded from the dispatching thread
        with the submission-time start.
        """
        span = Span(
            name,
            trace_id=trace_id or self.trace_id,
            parent_id=parent,
            category=category,
            start=start,
            attrs=attrs or None,
        )
        span.duration = duration
        self._record(span)
        return span

    def instant(
        self,
        name: str,
        *,
        category: str = "",
        trace_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Record a zero-duration marker (a lifecycle event, not a phase)."""
        return self.record(
            name,
            start=time.perf_counter(),
            duration=0.0,
            category=category,
            parent=self._current_id(),
            trace_id=trace_id,
            **attrs,
        )

    def _record(self, span: Span) -> None:
        with self._lock:
            self._sink.append(span)
        if self._on_finish is not None:
            try:
                self._on_finish(span)
            except Exception:  # noqa: BLE001 - observer isolation
                pass

    # -- cross-thread / cross-process plumbing ----------------------------

    class _Activation:
        """Context manager that pins a span as the thread's parent."""

        __slots__ = ("_tracer", "_span")

        def __init__(self, tracer: "Tracer", span: Span | None):
            self._tracer = tracer
            self._span = span

        def __enter__(self) -> Span | None:
            if self._span is not None:
                self._tracer._stack().append(self._span)
            return self._span

        def __exit__(self, *exc_info: object) -> None:
            if self._span is not None:
                stack = self._tracer._stack()
                if stack and stack[-1] is self._span:
                    stack.pop()

    def activate(self, span: Span | None) -> "Tracer._Activation":
        """Make *span* the current parent on this thread for the block.

        Does not finish the span — the owner does that explicitly.  A
        ``None`` span activates nothing (convenient when tracing is off).
        """
        return Tracer._Activation(self, span)

    def worker_context(self) -> tuple[str, str | None] | None:
        """A picklable ``(trace id, parent span id)`` for worker tasks."""
        return (self.trace_id, self._current_id())

    def add_worker_spans(self, spans: Iterable[dict[str, Any]]) -> None:
        """Merge span dicts built by :func:`worker_span` in workers.

        Preserves the worker-assigned ids, parents, pids, and tids, so
        the merged trace shows work on the thread/process it actually ran
        on, nested under the dispatching phase span.  A dict's
        ``functions`` table (set by a profiled task) becomes the span's
        :attr:`Span.functions`.
        """
        for payload in spans:
            span = Span(
                payload["name"],
                trace_id=payload["trace"],
                parent_id=payload.get("parent"),
                category=payload.get("cat", ""),
                start=payload["start"],
                attrs=dict(payload.get("args") or {}),
            )
            span.span_id = payload["id"]
            span.duration = payload["dur"]
            span.pid = payload.get("pid", span.pid)
            span.tid = payload.get("tid", span.tid)
            span.functions = payload.get("functions")
            self._record(span)

    # -- access -----------------------------------------------------------

    def child(self, trace_id: str) -> "Tracer":
        """A tracer with its own trace id and span stack, same sink and
        profile mode."""
        return Tracer(
            trace_id,
            profile=self.profile,
            on_finish=self._on_finish,
            _sink=self._sink,
            _lock=self._lock,
        )

    def spans(self) -> list[Span]:
        """Snapshot of every recorded span, in completion order."""
        with self._lock:
            return list(self._sink)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sink)


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out.

    Carries empty id/name class attributes so instrumented code can read
    ``span.span_id`` (e.g. to parent a sibling span) without branching
    on whether tracing is enabled.
    """

    __slots__ = ()

    name = ""
    category = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracing: every operation is a no-op on shared singletons.

    ``span``/``begin``/``activate`` return cached no-op objects (no
    allocation beyond the call itself), ``worker_context`` returns
    ``None`` so task wrappers skip worker-side span construction
    entirely, and nothing is ever recorded.
    """

    enabled = False
    profile = False

    def __init__(self):
        self.trace_id = ""
        self._on_finish = None

    def begin(self, name, **kwargs):  # type: ignore[override]
        return _NULL_SPAN

    def span(self, name, **kwargs):  # type: ignore[override]
        return _NULL_SPAN

    def finish(self, span):  # type: ignore[override]
        pass

    def record(self, name, **kwargs):  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name, **kwargs):  # type: ignore[override]
        return _NULL_SPAN

    def activate(self, span):  # type: ignore[override]
        return _NULL_SPAN

    def worker_context(self):  # type: ignore[override]
        return None

    def add_worker_spans(self, spans):  # type: ignore[override]
        pass

    def child(self, trace_id):  # type: ignore[override]
        return self

    def spans(self):  # type: ignore[override]
        return []

    def __len__(self) -> int:
        return 0


#: The shared disabled tracer; instrumented code uses it in place of
#: ``None`` so tracing calls never need a conditional.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Tracer | None) -> Tracer:
    """Normalize an optional tracer to a real one (``None`` → disabled)."""
    return tracer if tracer is not None else NULL_TRACER


def worker_span(
    ctx: tuple[str, str | None],
    name: str,
    start: float,
    duration: float,
    **attrs: Any,
) -> dict[str, Any]:
    """Build a span *dict* inside a worker from a pickled trace context.

    The dict (not a :class:`Span`) travels back with the task result —
    plain dicts pickle cheaply and identically across backends — and the
    parent merges it with :meth:`Tracer.add_worker_spans`.
    """
    trace_id, parent_id = ctx
    return {
        "name": name,
        "cat": "task",
        "trace": trace_id,
        "id": next_span_id(),
        "parent": parent_id,
        "start": start,
        "dur": duration,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "args": attrs,
    }


# -- Chrome trace-event export -------------------------------------------


def to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object.

    Finished spans become ``ph="X"`` (complete) events, zero-duration
    spans ``ph="i"`` (instant) events; timestamps and durations are
    microseconds on the spans' shared monotonic timebase.  The trace id,
    span id, and parent id ride in ``args`` so Perfetto's flow/queries
    can reconstruct the hierarchy across pid/tid lanes.
    """
    events: list[dict[str, Any]] = []
    for span in spans:
        duration = span.duration if span.duration is not None else 0.0
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            **span.attrs,
        }
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.category or "repro",
            "ts": round(span.start * 1_000_000, 3),
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        }
        if duration <= 0.0:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(duration * 1_000_000, 3)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span]) -> int:
    """Write spans to *path* as Chrome trace-event JSON (atomically).

    Returns the number of exported events.  The write goes through
    :func:`repro.io.atomic_write_text`, so an interrupted export never
    leaves a truncated file.
    """
    from repro.io import atomic_write_text

    payload = to_chrome_trace(spans)
    atomic_write_text(path, json.dumps(payload, default=str) + "\n")
    return len(payload["traceEvents"])


#: Fields every Chrome trace event must carry, per phase type.
_REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(payload: Any) -> list[dict[str, Any]]:
    """Check *payload* is well-formed Chrome trace-event JSON.

    Accepts the object form (``{"traceEvents": [...]}``) or the bare
    array form, per the spec.  Returns the event list on success; raises
    :class:`ValueError` naming every structural problem found.  This is
    the schema check the observability tests and the CI perf-smoke job
    run against generated ``--trace`` files.
    """
    problems: list[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("object form must carry a 'traceEvents' list")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(
            f"trace must be an object or array, got {type(payload).__name__}"
        )
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        for field in _REQUIRED_EVENT_FIELDS:
            if field not in event:
                problems.append(f"event {index}: missing {field!r}")
        phase = event.get("ph")
        if phase == "X":
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"event {index}: 'X' event missing numeric dur")
            elif event["dur"] < 0:
                problems.append(f"event {index}: negative dur {event['dur']}")
        if "ts" in event and not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {index}: non-numeric ts {event['ts']!r}")
    if problems:
        raise ValueError(
            "invalid Chrome trace-event JSON: " + "; ".join(problems)
        )
    return events
