"""Measurement core: speed calibration, timed repeats and their summaries.

Every timed repeat is bracketed by a fixed pure-Python reference loop
(:func:`calibrate`).  A shared host's speed drifts by tens of percent
from one minute to the next, so each time is reported *normalized*:
multiplied by ``CALIB_REF_S / calib_s``, where ``calib_s`` is the mean of
the two calibrations around the repeat.  A normalized second is a second
on a host as fast as the one the baseline was recorded on.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

#: Iterations of the reference loop (0.04-0.07 s on a 2-vCPU cloud VM).
CALIB_ITERATIONS = 1_000_000

#: Median ``calib_s`` of the first committed baseline set
#: (``bench/results/baseline-1.json``).  Changing it rescales every
#: normalized time, so it changes only together with a new baseline.
CALIB_REF_S = 0.05674

#: Fewest timed repeats (or sessions) per run, however short ``--seconds``.
MIN_REPEATS = 3

#: Most failure messages a run keeps for its report.
MAX_PROBLEMS = 20

#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36

#: Longest wait for descendants to end once a run is over.
REAP_S = 10.0


def load_spec() -> dict[str, Any]:
    """The benchmark definition, ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def adopt_orphans() -> None:
    """Become the parent of any descendant whose own parent exits first.

    A killed measuring process leaves its pool workers and resource
    tracker behind; adopted, they are reaped by :func:`stop_children`.
    Linux only; elsewhere orphans go to init as usual.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (AttributeError, OSError):
        pass


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The processes backend starts a multiprocessing resource tracker (for
    its shared-memory segments) that would otherwise outlive the run.
    Pool workers still alive are killed first, because the tracker only
    exits once no process holds its pipe.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + REAP_S
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def calibrate() -> float:
    """Seconds the fixed reference loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i % 7
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped.

    ``getrusage`` counts in microseconds; ``os.times`` only in clock
    ticks, too coarse for short operations.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def median_iqr(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def p95(values: list[float]) -> float:
    """95th percentile, interpolated inside the observed range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


@dataclass
class Repeat:
    """What one timed repeat hands back to the harness.

    ``results`` holds one program output per operation, checked after
    the clock stops.  ``latencies`` gives per-operation seconds when a
    repeat holds many operations (a service session); ``None`` means the
    repeat is one operation and its wall time is the latency.  ``spans``
    are the repeat's trace spans when it ran traced, and ``statuses``
    the service's per-job status snapshots.
    """

    results: list[Any]
    latencies: list[float] | None = None
    spans: list[Any] = field(default_factory=list)
    statuses: list[Any] = field(default_factory=list)


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self._keep(problems)

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self._keep(other.problems)

    def _keep(self, problems: list[str]) -> None:
        room = MAX_PROBLEMS - len(self.problems)
        self.problems.extend(problems[: max(room, 0)])


@dataclass
class Sample:
    """One finished repeat, reduced to numbers (outputs are not kept)."""

    traced: bool
    wall: float
    cpu: float
    calib: float
    latencies: list[float]
    costs: tuple[float, float]
    layers: dict[str, Any] | None = None

    @property
    def factor(self) -> float:
        return CALIB_REF_S / self.calib

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_repeats(
    workload: Any,
    seconds: float,
    tally: Tally,
    *,
    trace: bool = False,
    on_traced: Callable[[Repeat, float, float], dict[str, Any]] | None = None,
) -> list[Sample]:
    """Repeat the workload for *seconds* (at least :data:`MIN_REPEATS`).

    With *trace*, repeats alternate untraced and traced, and *on_traced*
    turns each traced repeat (with its wall time and normalizing factor)
    into per-layer numbers.  Outputs are checked after each repeat's
    clock stops and then dropped, so they never pile up in memory.
    """
    samples: list[Sample] = []
    index = 1
    before = calibrate()
    started = time.perf_counter()
    while (
        len(samples) < MIN_REPEATS * (2 if trace else 1)
        or time.perf_counter() - started < seconds
    ):
        traced = trace and index % 2 == 0
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        repeat = workload.repeat(index, traced)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        after = calibrate()
        calib = (before + after) / 2
        before = after
        for problems in map(workload.check, repeat.results):
            tally.record(problems)
        layers = None
        if traced and on_traced is not None:
            layers = on_traced(repeat, wall, CALIB_REF_S / calib)
        samples.append(
            Sample(
                traced=traced,
                wall=wall,
                cpu=cpu,
                calib=calib,
                latencies=repeat.latencies or [wall],
                costs=workload.costs(repeat.results),
                layers=layers,
            )
        )
        # Drop the outputs before the next repeat allocates its own, so
        # peak memory counts one operation's outputs, not two.
        del repeat
        index += 1
    return samples


def end_to_end(
    samples: list[Sample],
    setups: list[tuple[float, float]],
) -> dict[str, dict[str, float]]:
    """End-to-end metrics from untraced samples and set-up measurements.

    Each time metric is computed per repeat — the mean and 95th
    percentile of its operations' latency, operations per second, CPU
    seconds per operation — and reported as the median across repeats
    (``value``, normalized), with the ``iqr`` across repeats, the count
    ``n`` and the unnormalized median ``raw``.  A batch repeat is one
    operation, so its mean and p95 are both its wall time.  The service's
    per-job latency is bimodal and its median jumps between the modes
    from run to run; the mean does not.  *setups* are ``(raw seconds,
    calib_s)`` pairs, one per fresh-process set-up.
    """

    def per_repeat(s: Sample, f: float) -> dict[str, float]:
        latencies = [x * f for x in s.latencies]
        return {
            "wall_s": statistics.fmean(latencies),
            "latency_p95_s": p95(latencies),
            "throughput_jobs_s": s.ops / (s.wall * f),
            "cpu_s": s.cpu * f / s.ops,
        }

    out: dict[str, dict[str, float]] = {}

    def put(name: str, values: list[float], raws: list[float]) -> None:
        median, iqr = median_iqr(values)
        out[name] = {
            "value": median,
            "iqr": iqr,
            "n": len(values),
            "raw": statistics.median(raws),
        }

    normalized = [per_repeat(s, s.factor) for s in samples]
    raw = [per_repeat(s, 1.0) for s in samples]
    for name in normalized[0]:
        put(name, [r[name] for r in normalized], [r[name] for r in raw])
    put(
        "setup_s",
        [seconds * CALIB_REF_S / calib for seconds, calib in setups],
        [seconds for seconds, _ in setups],
    )
    rss = peak_rss_mb()
    out["peak_rss_mb"] = {"value": rss, "iqr": 0.0, "n": 1, "raw": rss}
    comm, reducers = samples[0].costs
    n = len(samples)
    out["comm_cost"] = {"value": comm, "iqr": 0.0, "n": n, "raw": comm}
    out["reducers"] = {"value": reducers, "iqr": 0.0, "n": n, "raw": reducers}
    return out
