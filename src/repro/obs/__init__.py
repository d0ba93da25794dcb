"""Observability: trace spans, process metrics, and durable observations.

Three complementary views of the same running system, each a sibling
module here:

* :mod:`repro.obs.trace` — *where did this run's time go*: nested
  :class:`Span` records produced by a :class:`Tracer`, propagated into
  thread/process workers, exported as Chrome trace-event JSON
  (Perfetto-openable) or streamed as NDJSON over ``repro serve``.
  Disabled tracing (:data:`NULL_TRACER`) is zero-cost.
* :mod:`repro.obs.metrics` — *how is the system behaving over many
  runs*: a :class:`MetricsRegistry` of counters, gauges, and histograms
  (job latency p50/p95, queue depth, plan-cache hit rate, spill bytes)
  with JSON-ready snapshots.
* :mod:`repro.obs.store` — *what actually happened, durably*: one
  :class:`ObservationRecord` per executed job (plan fingerprint plus
  measured phase timings and job metrics), appended to an NDJSON log —
  the input the self-calibrating-planner roadmap item consumes next.
* :mod:`repro.obs.profiler` — *why a phase cost what it did*: an opt-in
  :class:`PhaseProfiler` pairing a background RSS/CPU sampler with
  per-phase ``cProfile`` capture (worker-side for map/reduce, via the
  same pickling path as worker spans), exported as JSON with
  flamegraph-ready collapsed stacks.  Disabled profiling
  (:data:`NULL_PROFILER`) is zero-cost, mirroring the tracer.
* :mod:`repro.obs.history` — *how the numbers move across commits*: a
  :class:`ProfileHistory` append-only NDJSON trajectory keyed by
  (bench, scenario, hardware class, commit) with a rolling-median trend
  gate — ``check_baseline`` generalized to an enforced time-series.

The engine, planner, and service accept an optional ``tracer`` and
``profiler``; the CLI surfaces every layer (``--trace``, ``--profile``,
``repro metrics``, ``repro history``, ``repro serve --obs-log`` and its
``{"health": true}`` request).
"""

from repro.obs.history import (
    HistoryRecord,
    ProfileHistory,
    current_commit,
    hardware_class,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    ProfileCapture,
    ResourceSampler,
    as_profiler,
    validate_collapsed,
    write_profile,
)
from repro.obs.store import (
    ObservationRecord,
    ObservationStore,
    load_observations,
    summarize_observations,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    next_span_id,
    to_chrome_trace,
    validate_chrome_trace,
    worker_span,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistoryRecord",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "ObservationRecord",
    "ObservationStore",
    "PhaseProfiler",
    "ProfileCapture",
    "ProfileHistory",
    "ResourceSampler",
    "Span",
    "Tracer",
    "as_profiler",
    "as_tracer",
    "current_commit",
    "hardware_class",
    "load_observations",
    "next_span_id",
    "percentile",
    "summarize_observations",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_collapsed",
    "worker_span",
    "write_chrome_trace",
    "write_profile",
]
