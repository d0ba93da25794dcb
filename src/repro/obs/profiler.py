"""Continuous profiling: phase-attributed CPU/RSS plus ``cProfile`` capture.

Spans (:mod:`repro.obs.trace`) say *where wall-clock time went*; this
module says *why* — which functions burned the CPU and how much memory
the process held while each engine phase ran.  Two cooperating pieces:

* :class:`ResourceSampler` — a daemon thread that samples resident-set
  size (``/proc/self/statm``) and cumulative CPU seconds (``os.times``,
  including children, so process-pool work is visible from the parent)
  on a monotonic clock.  Queries are windowed, so callers can attribute
  a peak-RSS figure to one phase or one service job.
* :class:`PhaseProfiler` — accumulates per-phase wall/CPU/peak-RSS plus
  deterministically aggregated ``cProfile`` function tables.  Phases
  that dispatch worker tasks (map/reduce) get their function tables from
  *inside* the tasks: the engine's one worker wrapper runs the task under
  a :class:`ProfileCapture` and the table rides home on the task result,
  next to the worker span; parent-side phases (shuffle/post) are
  captured in-process.
  The export is JSON (:meth:`PhaseProfiler.to_dict`) including
  collapsed-stack lines every flamegraph tool accepts.

Mirroring the tracer, the disabled path is zero-cost:
:data:`NULL_PROFILER` answers every call with a no-op and
``worker_context()`` returns ``None``, so the engine never wraps task
functions, starts threads, or touches ``cProfile`` unless a caller
passes a live profiler (``--profile out.json`` on ``run``/``submit``).

``cProfile`` cannot nest on one thread, so captures are guarded by a
thread-local flag: on the serial backend (tasks run inline in the
parent) worker-task capture simply yields to any enclosing capture
instead of raising.
"""

from __future__ import annotations

import cProfile
import json
import os
import threading
import time
from typing import Any, Iterable

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "ProfileCapture",
    "ResourceSampler",
    "as_profiler",
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
    """Background RSS/CPU sampler on a monotonic clock.

    One daemon thread (named ``repro-sampler`` so shutdown checks can
    find it) wakes every *interval* seconds and records
    ``(monotonic_t, rss_bytes, cpu_seconds)``.  ``start``/``stop`` are
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
            (time.monotonic(), read_rss_bytes(), read_cpu_seconds())
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


# --------------------------------------------------------------------------
# PhaseProfiler
# --------------------------------------------------------------------------


class _PhaseHandle:
    """Context manager recording one phase occurrence into the profiler."""

    __slots__ = ("_profiler", "_name", "_capture", "_mono0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str, capture: bool):
        self._profiler = profiler
        self._name = name
        self._capture = ProfileCapture(enabled=capture)

    def __enter__(self) -> "_PhaseHandle":
        self._mono0 = time.monotonic()
        self._cpu0 = read_cpu_seconds()
        self._capture.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._capture.__exit__()
        self._profiler._record_phase(
            self._name,
            wall_seconds=time.monotonic() - self._mono0,
            cpu_seconds=max(0.0, read_cpu_seconds() - self._cpu0),
            peak_rss_bytes=self._profiler.sampler.peak_rss_bytes(
                since=self._mono0
            ),
            stats=self._capture.stats,
        )


class _NullPhaseHandle:
    __slots__ = ()

    def __enter__(self) -> "_NullPhaseHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_PHASE = _NullPhaseHandle()


class PhaseProfiler:
    """Accumulates per-phase wall/CPU/peak-RSS and function profiles.

    One profiler may span many engine runs (a bench sweep, a service's
    lifetime); repeated phases accumulate — wall and CPU sum, peak RSS
    maxes, function tables merge per key.  The engine drives it through
    four touchpoints, each a no-op on :data:`NULL_PROFILER`:

    * ``phase(name, capture=...)`` around map/shuffle/reduce/post (the
      engine captures parent-side cProfile only for shuffle/post —
      map/reduce CPU belongs to the workers);
    * ``worker_context()`` → truthy token or ``None``, exactly like
      ``Tracer.worker_context`` — ``None`` means "do not wrap tasks";
    * ``add_functions(phase, stats)`` to fold the function tables worker
      tasks carried home on their results;
    * ``add_counter(phase, ...)`` for phase-adjacent counters (spill
      bytes/runs).

    Args:
        sample_interval: seconds between background resource samples.
        capture_tasks: profile inside worker tasks (function tables for
            map/reduce).  Off leaves only sampler-derived numbers.
        autostart: start the sampler lazily on first ``phase()`` entry;
            callers may also ``start()``/``stop()`` explicitly (both
            idempotent; ``stop`` leaves recorded data intact).
    """

    enabled = True

    def __init__(
        self,
        *,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
        capture_tasks: bool = True,
        autostart: bool = True,
    ):
        self.sampler = ResourceSampler(interval=sample_interval)
        self.capture_tasks = capture_tasks
        self.autostart = autostart
        self._lock = threading.Lock()
        self._phases: dict[str, dict[str, Any]] = {}
        self._started_mono = time.monotonic()
        self._cpu0 = read_cpu_seconds()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()

    def __enter__(self) -> "PhaseProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- engine touchpoints -------------------------------------------

    def phase(self, name: str, capture: bool = False) -> Any:
        """Context manager timing one occurrence of phase *name*.

        ``capture=True`` additionally runs a parent-side ``cProfile``
        for the duration (used for phases that do their work in this
        process; nested/concurrent captures degrade to sampling only).
        """
        if self.autostart:
            self.sampler.start()
        return _PhaseHandle(self, name, capture)

    def worker_context(self) -> bool | None:
        """Truthy (picklable) token when tasks should be profiled."""
        return True if self.capture_tasks else None

    def add_functions(
        self, phase: str, stats: dict[str, list[float]]
    ) -> None:
        """Fold an aggregated function table into *phase*."""
        with self._lock:
            merge_stats(self._phase_entry(phase)["functions"], stats)

    def add_counter(self, phase: str, **counters: float) -> None:
        """Accumulate named counters (e.g. spill bytes) under *phase*."""
        with self._lock:
            entry = self._phase_entry(phase)
            for key, value in counters.items():
                entry["counters"][key] = entry["counters"].get(key, 0) + value

    def record(self, phase: str, wall_seconds: float, **counters: float) -> None:
        """Record a measured-elsewhere phase occurrence (e.g. spill flushes)."""
        self._record_phase(
            phase,
            wall_seconds=wall_seconds,
            cpu_seconds=0.0,
            peak_rss_bytes=0,
            stats=None,
        )
        if counters:
            self.add_counter(phase, **counters)

    def _phase_entry(self, name: str) -> dict[str, Any]:
        entry = self._phases.get(name)
        if entry is None:
            entry = {
                "wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "peak_rss_bytes": 0,
                "count": 0,
                "functions": {},
                "counters": {},
            }
            self._phases[name] = entry
        return entry

    def _record_phase(
        self,
        name: str,
        *,
        wall_seconds: float,
        cpu_seconds: float,
        peak_rss_bytes: int,
        stats: dict[str, list[float]] | None,
    ) -> None:
        with self._lock:
            entry = self._phase_entry(name)
            entry["wall_seconds"] += wall_seconds
            entry["cpu_seconds"] += cpu_seconds
            entry["peak_rss_bytes"] = max(
                entry["peak_rss_bytes"], peak_rss_bytes
            )
            entry["count"] += 1
            if stats:
                merge_stats(entry["functions"], stats)

    # -- queries and export -------------------------------------------

    def phases(self) -> dict[str, dict[str, Any]]:
        """Deep-enough copy of the per-phase accumulators."""
        with self._lock:
            return {
                name: {
                    **{
                        k: v
                        for k, v in entry.items()
                        if k not in ("functions", "counters")
                    },
                    "functions": dict(entry["functions"]),
                    "counters": dict(entry["counters"]),
                }
                for name, entry in self._phases.items()
            }

    def collapsed_stacks(self) -> list[str]:
        """Flamegraph-compatible collapsed lines: ``phase;func weight``.

        Weights are inline-time microseconds (integer, minimum 1 for any
        function that consumed measurable time); phases without function
        tables contribute one phase-level line weighted by CPU (falling
        back to wall) so the graph still shows where the run went.
        Output is sorted, hence deterministic for equal inputs.
        """
        lines: list[str] = []
        for name, entry in self.phases().items():
            functions = entry["functions"]
            emitted = False
            for key, (_, tot, _) in sorted(functions.items()):
                weight = int(round(tot * 1e6))
                if weight <= 0:
                    continue
                lines.append(f"{name};{key} {weight}")
                emitted = True
            if not emitted:
                weight = int(
                    round(
                        (entry["cpu_seconds"] or entry["wall_seconds"]) * 1e6
                    )
                )
                if weight > 0:
                    lines.append(f"{name} {weight}")
        return sorted(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready export: totals, timeline, per-phase tables, stacks."""
        samples = self.sampler.samples()[-MAX_EXPORT_SAMPLES:]
        phases_out: dict[str, Any] = {}
        for name, entry in sorted(self.phases().items()):
            table = sorted(
                entry["functions"].items(),
                key=lambda item: (-item[1][1], item[0]),
            )[:MAX_EXPORT_FUNCTIONS]
            phases_out[name] = {
                "wall_seconds": round(entry["wall_seconds"], 6),
                "cpu_seconds": round(entry["cpu_seconds"], 6),
                "peak_rss_bytes": entry["peak_rss_bytes"],
                "count": entry["count"],
                "counters": {
                    k: entry["counters"][k] for k in sorted(entry["counters"])
                },
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
            "wall_seconds": round(time.monotonic() - self._started_mono, 6),
            "cpu_seconds": round(
                max(0.0, read_cpu_seconds() - self._cpu0), 6
            ),
            "peak_rss_bytes": self.sampler.peak_rss_bytes(),
            "sample_interval": self.sampler.interval,
            "samples": [
                [round(t, 4), rss, round(cpu, 4)] for t, rss, cpu in samples
            ],
            "phases": phases_out,
            "collapsed": self.collapsed_stacks(),
        }

    def write(self, path: str) -> dict[str, Any]:
        """Stop sampling and atomically write the JSON export to *path*."""
        self.stop()
        payload = self.to_dict()
        write_profile(payload, path)
        return payload

    def __len__(self) -> int:
        with self._lock:
            return len(self._phases)


class NullProfiler(PhaseProfiler):
    """Disabled profiler: every operation is a no-op.

    Mirrors :class:`~repro.obs.trace.NullTracer` — ``worker_context``
    returns ``None`` so the engine never wraps task functions, and
    ``phase`` hands back a shared do-nothing context manager.  No
    sampler thread is ever started.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D401 - no sampler, no state
        self.capture_tasks = False
        self.autostart = False
        self.sampler = ResourceSampler()  # never started
        self._lock = threading.Lock()
        self._phases = {}
        self._started_mono = 0.0
        self._cpu0 = 0.0

    def start(self) -> None:
        return None

    def stop(self) -> None:
        return None

    def phase(self, name: str, capture: bool = False) -> Any:
        return _NULL_PHASE

    def worker_context(self) -> None:
        return None

    def add_functions(
        self, phase: str, stats: dict[str, list[float]]
    ) -> None:
        return None

    def add_counter(self, phase: str, **counters: float) -> None:
        return None

    def _record_phase(self, name: str, **kwargs: Any) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
            "peak_rss_bytes": 0,
            "sample_interval": 0.0,
            "samples": [],
            "phases": {},
            "collapsed": [],
        }


#: Shared disabled profiler (the engine's default via ``as_profiler``).
NULL_PROFILER = NullProfiler()


def as_profiler(profiler: PhaseProfiler | None) -> PhaseProfiler:
    """Normalize an optional profiler: ``None`` becomes the null profiler."""
    return profiler if profiler is not None else NULL_PROFILER


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
