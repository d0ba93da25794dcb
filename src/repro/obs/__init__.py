"""Observability: trace spans, process metrics, and durable observations.

Three complementary views of the same running system, each a sibling
module here, plus a profile export computed from the spans:

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
  measured phase timings and job metrics, stamped with
  :func:`current_commit` and :func:`hardware_class`), appended to an
  NDJSON log — the input the self-calibrating-planner roadmap item
  consumes next.
* :mod:`repro.obs.profiler` — *why a phase cost what it did*: a
  profiling tracer (``Tracer(profile=True)``) puts CPU seconds, RSS and
  ``cProfile`` function tables (worker-side for map/reduce) on the
  engine's spans, and :func:`profile_export` turns those spans plus a
  background :class:`ResourceSampler` into JSON with flamegraph-ready
  collapsed stacks.

The engine, planner, apps, and service accept an optional ``tracer``;
the CLI surfaces every view (``--trace``, ``--profile``,
``repro metrics``, ``repro serve --obs-log`` and its ``{"health": true}``
request).  Performance across commits is measured by the ``bench/``
harness (``python -m bench``), not by this package.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.profiler import (
    ProfileCapture,
    ResourceSampler,
    profile_export,
    validate_collapsed,
    write_profile,
)
from repro.obs.store import (
    ObservationRecord,
    ObservationStore,
    current_commit,
    hardware_class,
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
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObservationRecord",
    "ObservationStore",
    "ProfileCapture",
    "ResourceSampler",
    "Span",
    "Tracer",
    "as_tracer",
    "current_commit",
    "hardware_class",
    "load_observations",
    "next_span_id",
    "percentile",
    "profile_export",
    "summarize_observations",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_collapsed",
    "worker_span",
    "write_chrome_trace",
    "write_profile",
]
