"""Profiling: phase-attributed CPU/RSS plus ``cProfile`` capture.

Spans (:mod:`repro.obs.trace`) say *where wall-clock time went*; a
profiled tracer (``Tracer(profile=True)``) also says *why* — which
functions burned the CPU and how much memory the process held while each
engine phase ran.  Profiling is a mode of the tracer, not a second
channel:

* :func:`phase_span` opens an engine phase span.  When the tracer
  profiles, the span also records ``cpu_s`` (an ``os.times`` delta) and
  ``rss_bytes`` at phase end, and parent-side phases (shuffle, post)
  capture a ``cProfile`` table onto :attr:`Span.functions`.
* Worker tasks (map, reduce) run under a :class:`ProfileCapture` and put
  their function table on the worker span, so it rides home on the same
  pickling path as the span itself.
* :class:`ResourceSampler` — a daemon thread that samples resident-set
  size (``/proc/self/statm``) and cumulative CPU seconds (``os.times``,
  including children, so process-pool work is visible from the parent)
  on the spans' clock, :func:`time.perf_counter`.

:func:`profile_export` computes the JSON export — per-phase wall, CPU,
peak RSS, counters and function tables, plus collapsed-stack lines every
flamegraph tool accepts — from the spans and a sampler.  Function tables
live outside span attributes, so neither the Chrome trace nor the span
stream of ``repro serve`` carries them.

An unprofiled tracer (the default, and :data:`~repro.obs.trace.NULL_TRACER`)
never wraps a phase in a capture, reads no extra clocks, and starts no
thread.

``cProfile`` cannot nest on one thread, so captures are guarded by a
thread-local flag: on the serial backend (tasks run inline in the
parent) worker-task capture simply yields to any enclosing capture
instead of raising.
"""

from __future__ import annotations

import bisect
import cProfile
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.obs.trace import Span, Tracer

__all__ = [
    "ProfileCapture",
    "ResourceSampler",
    "merge_stats",
    "phase_span",
    "profile_export",
    "read_cpu_seconds",
    "read_rss_bytes",
    "validate_collapsed",
    "write_profile",
]

#: Default seconds between resource samples.
DEFAULT_SAMPLE_INTERVAL = 0.02

#: Maximum timeline samples kept in an export payload (oldest dropped).
MAX_EXPORT_SAMPLES = 2000

#: Function-table rows kept per phase in an export payload.
MAX_EXPORT_FUNCTIONS = 400

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


def read_rss_bytes() -> int:
    """Resident-set size of this process in bytes (0 when unreadable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


def read_cpu_seconds() -> float:
    """Cumulative CPU seconds: user+system of this process *and* children.

    Including reaped children means work done by a process pool shows up
    in the parent's delta once workers exit — exactly what a per-run CPU
    attribution wants.
    """
    times = os.times()
    return (
        times.user + times.system + times.children_user + times.children_system
    )


class ResourceSampler:
    """Background RSS/CPU sampler on the spans' clock.

    One daemon thread (named ``repro-sampler`` so shutdown checks can
    find it) wakes every *interval* seconds and records
    ``(perf_counter_t, rss_bytes, cpu_seconds)``; the timestamps share
    :func:`time.perf_counter` with span starts, so a span's interval
    selects the samples taken while it ran.  ``start``/``stop`` are
    idempotent and thread-safe; samples are kept in a bounded window.
    """

    THREAD_NAME = "repro-sampler"

    def __init__(
        self,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        max_samples: int = 65536,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.max_samples = max_samples
        self._samples: list[tuple[float, int, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._sample_locked()
            self._thread = threading.Thread(
                target=self._run, name=self.THREAD_NAME, daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)
        with self._lock:
            self._sample_locked()

    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "ResourceSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling -----------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                self._sample_locked()

    def _sample_locked(self) -> None:
        self._samples.append(
            (time.perf_counter(), read_rss_bytes(), read_cpu_seconds())
        )
        if len(self._samples) > self.max_samples:
            del self._samples[: -self.max_samples]

    def sample_now(self) -> tuple[float, int, float]:
        """Take (and record) one sample immediately."""
        with self._lock:
            self._sample_locked()
            return self._samples[-1]

    def samples(self) -> list[tuple[float, int, float]]:
        with self._lock:
            return list(self._samples)

    def peak_rss_bytes(self, since: float | None = None) -> int:
        """Largest observed RSS (bytes), optionally only at/after *since*.

        Always includes a fresh reading, so short windows that no
        background sample landed in still report a real figure.
        """
        current = read_rss_bytes()
        with self._lock:
            values = [
                rss
                for t, rss, _ in self._samples
                if since is None or t >= since
            ]
        if current > 0:
            values.append(current)
        return max(values, default=0)

    def cpu_seconds(self) -> float:
        """CPU seconds accumulated across the sampled window."""
        with self._lock:
            if len(self._samples) < 2:
                return 0.0
            return max(0.0, self._samples[-1][2] - self._samples[0][2])

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


# --------------------------------------------------------------------------
# cProfile capture and deterministic aggregation
# --------------------------------------------------------------------------

# ``cProfile`` cannot nest on one thread; this flag lets inline task
# capture (serial backend) yield to an enclosing phase capture instead
# of fighting over the profile hook.
_CAPTURE_ACTIVE = threading.local()


def _capture_slot_acquire() -> bool:
    if getattr(_CAPTURE_ACTIVE, "busy", False):
        return False
    _CAPTURE_ACTIVE.busy = True
    return True


def _capture_slot_release() -> None:
    _CAPTURE_ACTIVE.busy = False


def _function_key(code: Any) -> str:
    """Stable key for one profiled function: ``file:line:name``.

    Paths are reduced to their basename so keys compare across machines
    and virtualenvs; built-ins (plain strings in ``getstats``) pass
    through unchanged.
    """
    if isinstance(code, str):
        return code
    return (
        f"{os.path.basename(code.co_filename)}"
        f":{code.co_firstlineno}:{code.co_name}"
    )


def profile_to_stats(profile: cProfile.Profile) -> dict[str, list[float]]:
    """Aggregate a finished profile into ``{key: [calls, tot, cum]}``.

    ``tot`` is inline time (excluding callees), ``cum`` cumulative —
    the two numbers flamegraphs and top-N tables need.  Aggregation by
    stable key makes merging across tasks and runs a plain per-key sum,
    independent of dict order or worker scheduling.
    """
    stats: dict[str, list[float]] = {}
    for entry in profile.getstats():  # type: ignore[attr-defined]
        key = _function_key(entry.code)
        row = stats.get(key)
        if row is None:
            stats[key] = [
                float(entry.callcount),
                entry.inlinetime,
                entry.totaltime,
            ]
        else:
            row[0] += entry.callcount
            row[1] += entry.inlinetime
            row[2] += entry.totaltime
    return stats


def merge_stats(
    into: dict[str, list[float]], source: dict[str, list[float]]
) -> None:
    """Fold one aggregated stats table into another (per-key sums)."""
    for key, row in source.items():
        target = into.get(key)
        if target is None:
            into[key] = list(row)
        else:
            target[0] += row[0]
            target[1] += row[1]
            target[2] += row[2]


class ProfileCapture:
    """Context manager: ``cProfile`` the block into :attr:`stats`.

    ``stats`` stays empty when *enabled* is false or another capture
    already owns this thread (the serial backend runs tasks inline, under
    a capturing phase) — ``cProfile`` cannot nest.  Used for parent-side
    phase captures and, inside worker tasks, by the engine's task wrapper.
    """

    __slots__ = ("stats", "_enabled", "_prof")

    def __init__(self, enabled: bool = True):
        self.stats: dict[str, list[float]] = {}
        self._enabled = enabled
        self._prof: cProfile.Profile | None = None

    def __enter__(self) -> "ProfileCapture":
        if self._enabled and _capture_slot_acquire():
            self._prof = cProfile.Profile()
            self._prof.enable()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._prof is None:
            return
        try:
            self._prof.disable()
            self.stats = profile_to_stats(self._prof)
        finally:
            self._prof = None
            _capture_slot_release()


@contextmanager
def phase_span(
    tracer: Tracer,
    name: str,
    *,
    capture: bool = False,
    **attrs: Any,
) -> Iterator[Span]:
    """Open one engine phase span; profile it when the tracer profiles.

    On a profiling tracer the span also records ``cpu_s`` (process CPU
    seconds, children included, over the phase) and ``rss_bytes`` (the
    resident-set size at phase end), and with *capture* the phase's
    parent-side ``cProfile`` table lands on :attr:`Span.functions`.
    Phases that dispatch worker tasks pass ``capture=False``: their CPU
    belongs to the tasks, which carry their own tables.
    """
    with tracer.span(name, category="engine", **attrs) as span:
        if not tracer.profile:
            yield span
            return
        cpu0 = read_cpu_seconds()
        with ProfileCapture(enabled=capture) as profile:
            yield span
        span.set("cpu_s", round(max(0.0, read_cpu_seconds() - cpu0), 6))
        span.set("rss_bytes", read_rss_bytes())
        if profile.stats:
            span.functions = profile.stats


#: The engine phases an export reports, and the task spans whose
#: function tables belong to each phase.
_PHASES = ("map", "shuffle", "reduce", "post", "spill")
_TASK_PHASE = {"reduce_task": "reduce"}

#: Span attributes summed into a phase's export counters.
_COUNTERS = {"spill": ("bytes", "runs")}


def _window_peak(
    samples: list[tuple[float, int, float]],
    times: list[float],
    span: Span,
) -> int:
    """Largest sampled RSS inside *span*'s interval (0 when none landed)."""
    end = span.start + (span.duration or 0.0)
    lo = bisect.bisect_left(times, span.start)
    hi = bisect.bisect_right(times, end)
    return max((rss for _, rss, _ in samples[lo:hi]), default=0)


def _collapsed(phases: dict[str, dict[str, Any]]) -> list[str]:
    """Flamegraph-compatible collapsed lines: ``phase;func weight``.

    Weights are inline-time microseconds (integer, minimum 1 for any
    function that consumed measurable time); phases without function
    tables contribute one phase-level line weighted by CPU (falling
    back to wall) so the graph still shows where the run went.
    Output is sorted, hence deterministic for equal inputs.
    """
    lines: list[str] = []
    for name, entry in phases.items():
        emitted = False
        for key, (_, tot, _) in sorted(entry["functions"].items()):
            weight = int(round(tot * 1e6))
            if weight <= 0:
                continue
            lines.append(f"{name};{key} {weight}")
            emitted = True
        if not emitted:
            weight = int(
                round((entry["cpu_seconds"] or entry["wall_seconds"]) * 1e6)
            )
            if weight > 0:
                lines.append(f"{name} {weight}")
    return sorted(lines)


def profile_export(
    spans: Iterable[Span], sampler: ResourceSampler
) -> dict[str, Any]:
    """The profile JSON export, computed from spans and a sampler.

    Each engine phase (``map``/``shuffle``/``reduce``/``post`` and
    ``spill``) accumulates over every span of that name, so one export
    covers many runs or a service's many jobs: wall time is the sum of
    span durations, CPU the sum of their ``cpu_s``, ``count`` the span
    count, and peak RSS the largest of the spans' ``rss_bytes`` and the
    sampler readings taken inside their intervals.  Function tables come
    from the phase spans (map, shuffle, post) and from the
    ``reduce_task`` spans (reduce), merged per key; the spill phase
    sums its spans' ``bytes`` and ``runs`` into counters.  The top level
    carries the sampler's window: wall and CPU seconds between its first
    and last sample, its peak RSS, and the (newest) samples themselves.
    """
    samples = sampler.samples()
    times = [t for t, _, _ in samples]
    phases: dict[str, dict[str, Any]] = {}

    def entry_for(name: str) -> dict[str, Any]:
        entry = phases.get(name)
        if entry is None:
            entry = phases[name] = {
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "peak_rss_bytes": 0,
                "count": 0,
                "functions": {},
                "counters": dict.fromkeys(_COUNTERS.get(name, ()), 0),
            }
        return entry

    for span in spans:
        task_phase = _TASK_PHASE.get(span.name)
        if task_phase is not None:
            if span.functions:
                table = entry_for(task_phase)["functions"]
                merge_stats(table, span.functions)
            continue
        if span.name not in _PHASES or span.category != "engine":
            continue
        entry = entry_for(span.name)
        attrs = span.attrs
        entry["wall_seconds"] += span.duration or 0.0
        entry["cpu_seconds"] += attrs.get("cpu_s", 0.0)
        entry["peak_rss_bytes"] = max(
            entry["peak_rss_bytes"],
            attrs.get("rss_bytes", 0),
            _window_peak(samples, times, span),
        )
        entry["count"] += 1
        for key in entry["counters"]:
            entry["counters"][key] += attrs.get(key, 0)
        if span.functions:
            merge_stats(entry["functions"], span.functions)

    phases_out: dict[str, Any] = {}
    for name, entry in sorted(phases.items()):
        table = sorted(
            entry["functions"].items(),
            key=lambda item: (-item[1][1], item[0]),
        )[:MAX_EXPORT_FUNCTIONS]
        phases_out[name] = {
            "wall_seconds": round(entry["wall_seconds"], 6),
            "cpu_seconds": round(entry["cpu_seconds"], 6),
            "peak_rss_bytes": entry["peak_rss_bytes"],
            "count": entry["count"],
            "counters": dict(sorted(entry["counters"].items())),
            "functions": [
                {
                    "func": key,
                    "calls": int(calls),
                    "tottime_s": round(tot, 6),
                    "cumtime_s": round(cum, 6),
                }
                for key, (calls, tot, cum) in table
            ],
        }
    return {
        "version": 1,
        "wall_seconds": round(times[-1] - times[0], 6) if times else 0.0,
        "cpu_seconds": round(sampler.cpu_seconds(), 6),
        "peak_rss_bytes": sampler.peak_rss_bytes(),
        "sample_interval": sampler.interval,
        "samples": [
            [round(t, 4), rss, round(cpu, 4)]
            for t, rss, cpu in samples[-MAX_EXPORT_SAMPLES:]
        ],
        "phases": phases_out,
        "collapsed": _collapsed(phases),
    }


# --------------------------------------------------------------------------
# Export helpers
# --------------------------------------------------------------------------


def write_profile(payload: dict[str, Any], path: str) -> None:
    """Atomically write a profile export as JSON."""
    from repro.io import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def validate_collapsed(lines: Iterable[str]) -> int:
    """Validate collapsed-stack lines; returns the line count.

    Each line must be ``frame(;frame)* <positive integer>`` — the format
    ``flamegraph.pl`` and speedscope ingest.  Raises ``ValueError`` on
    the first malformed line.
    """
    count = 0
    for index, line in enumerate(lines, start=1):
        stack, sep, weight = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError(f"collapsed line {index}: missing stack/weight")
        if not weight.isdigit() or int(weight) <= 0:
            raise ValueError(
                f"collapsed line {index}: weight must be a positive "
                f"integer, got {weight!r}"
            )
        if any(not frame for frame in stack.split(";")):
            raise ValueError(f"collapsed line {index}: empty frame")
        count += 1
    return count
