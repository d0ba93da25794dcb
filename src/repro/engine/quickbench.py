"""Quick, self-contained engine benchmarks: scenarios plus a speedup table.

Three synthetic scenarios stress the engine's three phases one at a time —
the workload shapes E18 measures — and a small skew join reproduces E17's
shape.  Everything here is module-level and picklable, so every scenario
runs unchanged on the ``processes`` backend, and the map/reduce functions
live in ``src`` (not ``benchmarks/``) so worker processes can import them
regardless of how the interpreter was launched.

* ``map_heavy`` — the mapper compresses a 64 KiB payload per record
  (``zlib`` releases the GIL, so the ``threads`` backend scales on real
  cores); the reduce is a trivial sum.
* ``reduce_heavy`` — trivial mapper; each reducer compresses the payload
  once per value.
* ``shuffle_heavy`` — each record fans out to 24 keys across a 509-key
  space with a trivial sum reduce, so wall clock is dominated by
  partitioning, merging, and task plumbing rather than user code.

:func:`run_scenarios` and :func:`run_join_bench` both return plain row
dicts (one per scenario × backend) ready for
:func:`repro.utils.tables.format_table`; ``repro bench`` prints them and
``benchmarks/bench_e18_engine_scenarios.py`` persists them.
"""

from __future__ import annotations

import time
import zlib
from functools import partial
from typing import Any, Iterable, Iterator

from repro.dataset import Dataset
from repro.engine.backends import BACKENDS
from repro.engine.engine import EngineResult, ExecutionEngine
from repro.obs.trace import Tracer

#: 64 KiB of incompressible-ish payload the GIL-releasing scenarios chew on.
_BLOB = bytes(range(256)) * 256

#: Default record counts per scenario at ``scale=1.0`` — each lands the
#: serial wall clock in the few-hundred-millisecond range.
_SCENARIO_RECORDS = {
    "map_heavy": 400,
    "reduce_heavy": 800,
    "shuffle_heavy": 4000,
}


def compress_map(record: int) -> Iterator[tuple[int, int]]:
    """Map-heavy mapper: two GIL-releasing compressions per record."""
    digest = zlib.crc32(zlib.compress(_BLOB, 6))
    digest = zlib.crc32(zlib.compress(_BLOB[::-1], 6), digest)
    yield record % 32, (record + digest) & 0xFFFF


def tag_map(record: int) -> Iterator[tuple[int, int]]:
    """Trivial mapper: tag each record with one of 48 keys."""
    yield record % 48, record


def fanout_map(record: int) -> list[tuple[int, int]]:
    """Shuffle-heavy mapper: 24 small pairs across a 509-key space."""
    base = record * 31
    return [((base + f * 67) % 509, 1) for f in range(24)]


def sum_reduce(key: Any, values: Iterable[int]) -> Iterator[tuple[Any, int]]:
    """Trivial reducer: sum the values."""
    yield key, sum(values)


def compress_reduce(key: Any, values: Iterable[int]) -> Iterator[tuple[Any, int]]:
    """Reduce-heavy reducer: one GIL-releasing compression per value."""
    acc = 0
    for value in values:
        acc = zlib.crc32(zlib.compress(_BLOB, 6), acc + (value & 0xFF))
    yield key, acc


#: Scenario name -> (map_fn, reduce_fn).
SCENARIOS = {
    "map_heavy": (compress_map, sum_reduce),
    "reduce_heavy": (tag_map, compress_reduce),
    "shuffle_heavy": (fanout_map, sum_reduce),
}

#: Pairs each scenario's mapper emits per record.  The spill trigger fires
#: between records, so a budgeted run's peak buffered pairs can overshoot
#: the budget by up to one record's fan-out; :func:`run_out_of_core` turns
#: this into the per-row ``peak_bound`` that :func:`check_spill` enforces.
_SCENARIO_FANOUT = {
    "map_heavy": 1,
    "reduce_heavy": 1,
    "shuffle_heavy": 24,
}


def _ordered_backends(backends: Iterable[str] | None) -> list[str]:
    """Backend run order with ``serial`` first, so every later backend has
    a baseline for its speedup column and an output set to check against."""
    names = list(backends) if backends else list(BACKENDS)
    if "serial" in names:
        names.remove("serial")
        names.insert(0, "serial")
    return names


def run_scenario(
    name: str,
    backend: str,
    *,
    scale: float = 1.0,
    num_workers: int | None = None,
    memory_budget: int | None = None,
    map_chunk_size: int | None = None,
    num_reduce_tasks: int | None = None,
    retry: Any = None,
    faults: Any = None,
    tracer: Tracer | None = None,
    profiler: Any = None,
) -> tuple[EngineResult, float]:
    """Run one scenario on one backend; returns the result and wall seconds.

    Records are fed as a streaming :class:`~repro.dataset.Dataset` (a
    range factory), so the engine's out-of-core data path — lazy chunking
    plus, with a *memory_budget*, the spill-to-disk shuffle — is what gets
    measured.  A *tracer* records the run's phase and task spans; a
    *profiler* (:class:`~repro.obs.profiler.PhaseProfiler`) attributes
    CPU/RSS and function time to the phases.
    *retry*/*faults* (with pinned *map_chunk_size*/*num_reduce_tasks*, so
    the task decomposition — and therefore the injected fault pattern —
    is identical on every backend) drive the fault-injection bench.
    """
    map_fn, reduce_fn = SCENARIOS[name]
    count = max(1, int(_SCENARIO_RECORDS[name] * scale))
    records = Dataset.from_factory(partial(range, count), length=count)
    engine = ExecutionEngine(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        backend=backend,
        num_workers=num_workers,
        memory_budget=memory_budget,
        map_chunk_size=map_chunk_size,
        num_reduce_tasks=num_reduce_tasks,
        retry=retry,
        faults=faults,
        tracer=tracer,
        profiler=profiler,
    )
    started = time.perf_counter()
    result = engine.run(records)
    return result, time.perf_counter() - started


def run_scenarios(
    *,
    scenarios: Iterable[str] | None = None,
    backends: Iterable[str] | None = None,
    scale: float = 1.0,
    repeat: int = 1,
    num_workers: int | None = None,
    memory_budget: int | None = None,
    tracer: Tracer | None = None,
    profiler: Any = None,
) -> list[dict[str, object]]:
    """Benchmark scenarios × backends; best-of-*repeat* wall per cell.

    Each scenario's serial run is the speedup baseline; every backend's
    outputs are asserted identical to serial's, so a row in the table is
    also a correctness check.  With a *memory_budget* every cell runs the
    spill-to-disk shuffle (and the serial baseline proves budgeted output
    identity across backends).
    """
    rows: list[dict[str, object]] = []
    for name in scenarios or sorted(SCENARIOS):
        serial_wall: float | None = None
        serial_outputs: list | None = None
        for backend in _ordered_backends(backends):
            best: tuple[EngineResult, float] | None = None
            for _ in range(max(1, repeat)):
                result, wall = run_scenario(
                    name,
                    backend,
                    scale=scale,
                    num_workers=num_workers,
                    memory_budget=memory_budget,
                    tracer=tracer,
                    profiler=profiler,
                )
                if best is None or wall < best[1]:
                    best = (result, wall)
            result, wall = best
            if backend == "serial":
                serial_wall, serial_outputs = wall, result.outputs
            elif serial_outputs is not None:
                assert result.outputs == serial_outputs, (name, backend)
            rows.append(
                {
                    "scenario": name,
                    "backend": backend,
                    "wall_s": round(wall, 3),
                    "speedup_vs_serial": (
                        round(serial_wall / wall, 2) if serial_wall else ""
                    ),
                    "map_s": round(result.engine.timings.map_seconds, 3),
                    "shuffle_s": round(
                        result.engine.timings.shuffle_seconds, 3
                    ),
                    "reduce_s": round(result.engine.timings.reduce_seconds, 3),
                    "reduce_tasks": result.engine.num_reduce_tasks,
                    "outputs": len(result.outputs),
                }
            )
    return rows


def run_join_bench(
    *,
    tuples: int = 500,
    keys: int = 8,
    q: int = 120,
    skew: float = 1.3,
    seed: int = 7,
    method: str = "auto",
    backends: Iterable[str] | None = None,
    repeat: int = 1,
    num_workers: int | None = None,
    memory_budget: int | None = None,
) -> list[dict[str, object]]:
    """A fast subset of E17: the schema skew join across backends."""
    from repro.apps.skew_join import schema_skew_join
    from repro.engine.config import ExecutionConfig
    from repro.workloads.relations import generate_join_workload

    x, y = generate_join_workload(tuples, tuples, keys, skew, seed=seed)
    rows: list[dict[str, object]] = []
    serial_wall: float | None = None
    serial_triples = None
    for backend in _ordered_backends(backends):
        config = ExecutionConfig(
            backend=backend,
            num_workers=num_workers,
            memory_budget=memory_budget,
        )
        best_wall: float | None = None
        best_run = None
        for _ in range(max(1, repeat)):
            started = time.perf_counter()
            run = schema_skew_join(x, y, q, method=method, config=config)
            wall = time.perf_counter() - started
            if best_wall is None or wall < best_wall:
                best_wall, best_run = wall, run
        if backend == "serial":
            serial_wall, serial_triples = best_wall, best_run.triple_set()
        elif serial_triples is not None:
            assert best_run.triple_set() == serial_triples, backend
        rows.append(
            {
                "scenario": "skew_join",
                "backend": backend,
                "wall_s": round(best_wall, 3),
                "speedup_vs_serial": (
                    round(serial_wall / best_wall, 2) if serial_wall else ""
                ),
                "map_s": round(best_run.engine.timings.map_seconds, 3),
                "shuffle_s": round(
                    best_run.engine.timings.shuffle_seconds, 3
                ),
                "reduce_s": round(best_run.engine.timings.reduce_seconds, 3),
                "reduce_tasks": best_run.engine.num_reduce_tasks,
                "outputs": len(best_run.triples),
            }
        )
    return rows


def run_planned_join(
    *,
    tuples: int = 500,
    keys: int = 8,
    q: int = 120,
    skew: float = 1.3,
    seed: int = 7,
    objective: str = "min-reducers",
    repeat: int = 1,
) -> list[dict[str, object]]:
    """One planner-driven row for the join bench (``bench --plan auto``).

    Runs the skew join with ``method="planned"``: every heavy key's
    schema is chosen cost-based under *objective* and the execution
    configuration is resolved from the environment probe, so the row
    shows what the planner would pick against the fixed backend sweep.
    """
    from repro.apps.skew_join import schema_skew_join
    from repro.workloads.relations import generate_join_workload

    x, y = generate_join_workload(tuples, tuples, keys, skew, seed=seed)
    best_wall: float | None = None
    best_run = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        run = schema_skew_join(x, y, q, method="planned", objective=objective)
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall, best_run = wall, run
    engine = best_run.engine
    return [
        {
            "scenario": "skew_join",
            "backend": f"planned[{engine.backend}]",
            "wall_s": round(best_wall, 3),
            "speedup_vs_serial": "",
            "map_s": round(engine.timings.map_seconds, 3),
            "shuffle_s": round(engine.timings.shuffle_seconds, 3),
            "reduce_s": round(engine.timings.reduce_seconds, 3),
            "reduce_tasks": engine.num_reduce_tasks,
            "outputs": len(best_run.triples),
        }
    ]


def run_out_of_core(
    *,
    scenario: str = "shuffle_heavy",
    backends: Iterable[str] | None = None,
    scale: float = 1.0,
    memory_budget: int = 512,
    repeat: int = 1,
    num_workers: int | None = None,
) -> list[dict[str, object]]:
    """E19: one scenario, unbounded vs memory-budgeted, per backend.

    For every backend the scenario runs twice — fully in-memory and with
    *memory_budget* — and the two output lists are asserted identical, so
    each pair of rows is a correctness proof of the spill path on that
    backend.  Rows carry the spill counters (bytes, runs, peak buffered
    pairs) next to the wall clocks, which is the bench's point: what does
    bounding memory cost in time, and how much actually hit disk.
    """
    rows: list[dict[str, object]] = []
    for backend in _ordered_backends(backends):
        per_mode: dict[str, tuple[EngineResult, float]] = {}
        for mode, budget in (("unbounded", None), ("budgeted", memory_budget)):
            best: tuple[EngineResult, float] | None = None
            for _ in range(max(1, repeat)):
                result, wall = run_scenario(
                    scenario,
                    backend,
                    scale=scale,
                    num_workers=num_workers,
                    memory_budget=budget,
                )
                if best is None or wall < best[1]:
                    best = (result, wall)
            per_mode[mode] = best
        unbounded, budgeted = per_mode["unbounded"], per_mode["budgeted"]
        assert budgeted[0].outputs == unbounded[0].outputs, (
            scenario,
            backend,
            "spilled outputs diverged from in-memory outputs",
        )
        for mode, (result, wall) in per_mode.items():
            metrics = result.metrics
            rows.append(
                {
                    "scenario": scenario,
                    "backend": backend,
                    "mode": mode,
                    "memory_budget": (
                        memory_budget if mode == "budgeted" else ""
                    ),
                    "wall_s": round(wall, 3),
                    "spill_runs": metrics.spill_runs,
                    "spilled_bytes": metrics.spilled_bytes,
                    "peak_buffered": metrics.peak_buffered_pairs,
                    "peak_bound": (
                        memory_budget - 1 + _SCENARIO_FANOUT[scenario]
                        if mode == "budgeted"
                        else ""
                    ),
                    "outputs": len(result.outputs),
                }
            )
    return rows


def run_trace_overhead(
    *,
    scenario: str = "map_heavy",
    backend: str = "serial",
    scale: float = 1.0,
    repeat: int = 3,
    num_workers: int | None = None,
) -> list[dict[str, object]]:
    """E22: tracing overhead on one scenario — off, null tracer, enabled.

    Runs the scenario three ways, best-of-*repeat* each: with no tracer at
    all (the default code path), with :data:`~repro.obs.trace.NULL_TRACER`
    passed explicitly (proves the disabled object costs nothing beyond the
    ``None`` default), and with a live :class:`~repro.obs.trace.Tracer`
    (every phase and task span recorded).  Rows carry the wall clock, the
    span count, and the overhead ratio against the untraced run — the
    numbers E22 commits and the observability docs quote.
    """
    from repro.obs.trace import NULL_TRACER

    rows: list[dict[str, object]] = []
    base_wall: float | None = None
    for mode in ("off", "null", "on"):
        best_wall: float | None = None
        best_spans = 0
        for _ in range(max(1, repeat)):
            tracer = {"off": None, "null": NULL_TRACER, "on": Tracer()}[mode]
            _, wall = run_scenario(
                scenario,
                backend,
                scale=scale,
                num_workers=num_workers,
                tracer=tracer,
            )
            spans = len(tracer) if tracer is not None and tracer.enabled else 0
            if best_wall is None or wall < best_wall:
                best_wall, best_spans = wall, spans
        if mode == "off":
            base_wall = best_wall
        rows.append(
            {
                "scenario": scenario,
                "backend": backend,
                "tracing": mode,
                "wall_s": round(best_wall, 3),
                "overhead_vs_off": (
                    round(best_wall / base_wall, 3) if base_wall else ""
                ),
                "spans": best_spans,
            }
        )
    return rows


def run_profile_overhead(
    *,
    scenario: str = "map_heavy",
    backend: str = "serial",
    scale: float = 1.0,
    repeat: int = 3,
    num_workers: int | None = None,
) -> list[dict[str, object]]:
    """E25: profiler overhead on one scenario — off, null profiler, enabled.

    The profiling twin of :func:`run_trace_overhead`: best-of-*repeat*
    with no profiler at all (the default code path), with
    :data:`~repro.obs.profiler.NULL_PROFILER` passed explicitly (proves
    the disabled object costs nothing beyond the ``None`` default), and
    with a live :class:`~repro.obs.profiler.PhaseProfiler` (background
    sampler plus worker-side ``cProfile``).  Rows carry the wall clock,
    the overhead ratio against the unprofiled run, and — for the enabled
    row — the phase count, profiled-function count, and peak RSS, so the
    committed artifact also documents what enabling profiling buys.
    """
    from repro.obs.profiler import NULL_PROFILER, PhaseProfiler

    rows: list[dict[str, object]] = []
    base_wall: float | None = None
    for mode in ("off", "null", "on"):
        best_wall: float | None = None
        best_phases = 0
        best_functions = 0
        best_rss = 0
        for _ in range(max(1, repeat)):
            profiler = {
                "off": None,
                "null": NULL_PROFILER,
                "on": PhaseProfiler(),
            }[mode]
            _, wall = run_scenario(
                scenario,
                backend,
                scale=scale,
                num_workers=num_workers,
                profiler=profiler,
            )
            phases = functions = rss = 0
            if profiler is not None and profiler.enabled:
                profiler.stop()
                payload = profiler.to_dict()
                phases = len(payload["phases"])
                functions = sum(
                    len(entry["functions"])
                    for entry in payload["phases"].values()
                )
                rss = payload["peak_rss_bytes"]
            if best_wall is None or wall < best_wall:
                best_wall = wall
                best_phases, best_functions, best_rss = phases, functions, rss
        if mode == "off":
            base_wall = best_wall
        rows.append(
            {
                "scenario": scenario,
                "backend": backend,
                "profiling": mode,
                "wall_s": round(best_wall, 3),
                "overhead_vs_off": (
                    round(best_wall / base_wall, 3) if base_wall else ""
                ),
                "phases": best_phases,
                "functions": best_functions,
                "peak_rss_mb": round(best_rss / (1024 * 1024), 1),
            }
        )
    return rows


#: Pinned task geometry for the fault-injection bench: identical task
#: decomposition on every backend means identical injector decisions, so
#: one spec tests the *same* failure scenario on serial, threads, and
#: processes (the cross-backend byte-identity claim of E23).
_FAULT_GEOMETRY = {"map_chunk_size": 32, "num_reduce_tasks": 8}

#: Retry budget the fault-injection bench runs under; rows carry the
#: resulting per-run bound so :func:`check_faults` can assert retries
#: stayed inside it.
_FAULT_MAX_ATTEMPTS = 6


def run_fault_injection(
    *,
    scenario: str = "shuffle_heavy",
    backends: Iterable[str] | None = None,
    spec: Any = "crash=0.2,seed=7",
    rates: Iterable[float] | None = None,
    scale: float = 1.0,
    repeat: int = 1,
    num_workers: int | None = None,
) -> list[dict[str, object]]:
    """E23: completion time under deterministic fault injection.

    For every backend the scenario first runs with the fault plane fully
    off (mode ``faults-off`` — no retry policy and no injector, which is
    also the overhead baseline), then once per injected mode: *spec* as
    given, or, with *rates*, *spec* with its crash rate swept over the
    non-zero rates.  Every injected run's outputs are asserted identical to the
    same backend's fault-free outputs **and** to serial's — recovery must
    be invisible in the results — and each row carries the retry/rebuild
    counters plus the documented retry bound.

    Task geometry is pinned (:data:`_FAULT_GEOMETRY`) so the injector's
    deterministic decisions hit the same tasks on every backend.
    """
    from dataclasses import replace as dc_replace

    from repro.faults import RetryPolicy, as_fault_spec

    base = as_fault_spec(spec)
    modes: list[tuple[str, Any]] = [("faults-off", None)]
    if rates is None:
        modes.append((base.format(), base))
    else:
        for rate in rates:
            if rate <= 0:
                continue
            modes.append(
                (f"crash={rate:g}", dc_replace(base, crash=float(rate)))
            )
    # Small backoff: the bench measures recovery work, not sleep time,
    # and determinism comes from the seed, not the backoff schedule.
    policy = RetryPolicy(
        max_attempts=_FAULT_MAX_ATTEMPTS, backoff_base=0.002, backoff_max=0.02
    )
    rows: list[dict[str, object]] = []
    serial_off_outputs: list | None = None
    for backend in _ordered_backends(backends):
        off_wall: float | None = None
        off_outputs: list | None = None
        for mode, fault_spec in modes:
            injected = fault_spec is not None
            best: tuple[EngineResult, float] | None = None
            for _ in range(max(1, repeat)):
                result, wall = run_scenario(
                    scenario,
                    backend,
                    scale=scale,
                    num_workers=num_workers,
                    retry=policy if injected else None,
                    faults=fault_spec,
                    **_FAULT_GEOMETRY,
                )
                if best is None or wall < best[1]:
                    best = (result, wall)
            result, wall = best
            if not injected:
                off_wall, off_outputs = wall, result.outputs
                if backend == "serial":
                    serial_off_outputs = result.outputs
                elif serial_off_outputs is not None:
                    assert result.outputs == serial_off_outputs, (
                        scenario,
                        backend,
                        "fault-free outputs diverged from serial",
                    )
            else:
                assert result.outputs == off_outputs, (
                    scenario,
                    backend,
                    mode,
                    "outputs under injected faults diverged from the "
                    "fault-free run",
                )
            total_tasks = (
                result.engine.num_map_tasks + result.engine.num_reduce_tasks
            )
            rows.append(
                {
                    "scenario": scenario,
                    "backend": backend,
                    "mode": mode,
                    "wall_s": round(wall, 3),
                    "overhead_vs_off": (
                        round(wall / off_wall, 2)
                        if injected and off_wall
                        else ""
                    ),
                    "retries": result.engine.task_retries,
                    "retry_bound": (
                        total_tasks * (_FAULT_MAX_ATTEMPTS - 1)
                        if injected
                        else ""
                    ),
                    "pool_rebuilds": result.engine.pool_rebuilds,
                    "outputs": len(result.outputs),
                }
            )
    return rows


def check_faults(rows: Iterable[dict[str, object]]) -> list[str]:
    """Smoke check for the fault-injection rows (the chaos gate).

    Injected rows must show the fault plane actually working — retries
    observed (a 5%+ crash rate over a hundred-plus tasks that retries
    nothing means injection silently stopped) — and working *boundedly*:
    retries within the row's documented bound, and outputs matching the
    fault-free run's count (the full identity assert already ran inside
    :func:`run_fault_injection`).  Returns failure strings (empty = pass).
    """
    failures: list[str] = []
    checked = 0
    off_outputs: dict[str, int] = {}
    for row in rows:
        if row.get("mode") == "faults-off":
            off_outputs[str(row["backend"])] = int(row["outputs"])
    for row in rows:
        if row.get("mode") == "faults-off":
            continue
        checked += 1
        label = f"{row['scenario']}/{row['backend']}/{row['mode']}"
        retries = int(row["retries"])
        bound = int(row["retry_bound"])
        if retries < 1:
            failures.append(
                f"{label}: injected faults produced no retries — "
                "injection or retry accounting is broken"
            )
        if retries > bound:
            failures.append(
                f"{label}: {retries} retries exceed the bound {bound}"
            )
        expected = off_outputs.get(str(row["backend"]))
        if expected is not None and int(row["outputs"]) != expected:
            failures.append(
                f"{label}: {row['outputs']} outputs != fault-free "
                f"{expected}"
            )
    if not checked:
        failures.append("fault check compared nothing: no injected rows")
    return failures


def check_baseline(
    rows: Iterable[dict[str, object]],
    baseline: dict[str, object],
    *,
    workers: int | None = None,
    params: dict[str, object] | None = None,
    max_slowdown: float = 1.3,
    min_wall: float = 0.02,
) -> tuple[list[str], list[str]]:
    """Regression gate: current bench rows against a committed baseline.

    *baseline* is a previously committed ``bench --json-out`` payload
    (``{"workers": ..., "params": ..., "rows": [...]}``; a
    ``fault_rows`` list, when present, is gated the same way so the
    no-faults E23 configuration stays covered).  Rows are
    matched by ``(scenario, backend, mode)`` and a match fails when its
    wall clock exceeds *max_slowdown* × the baseline's.  The gate only
    bites for same-hardware-class runs: when the baseline was recorded
    with a different worker count or different bench parameters, every
    comparison is skipped with an explanatory note instead of a flaky
    failure.  Baseline cells under *min_wall* seconds are skipped too
    (millisecond ratios are noise), but a same-class run in which
    *nothing* could be compared fails rather than passing vacuously.

    Returns ``(failures, notes)`` — both human-readable; empty failures
    means pass.
    """
    failures: list[str] = []
    notes: list[str] = []
    if workers is None:
        from repro.engine.backends import available_workers

        workers = available_workers()
    base_workers = baseline.get("workers")
    if base_workers != workers:
        notes.append(
            f"baseline check skipped: baseline recorded with "
            f"{base_workers} workers, this machine has {workers}"
        )
        return failures, notes
    base_params = baseline.get("params")
    if params is not None and base_params is not None and params != base_params:
        notes.append(
            f"baseline check skipped: bench params differ "
            f"(baseline {base_params}, run {params})"
        )
        return failures, notes

    def _key(row: dict[str, object]) -> tuple[str, str, str]:
        return (
            str(row.get("scenario", "")),
            str(row.get("backend", "")),
            str(row.get("mode", "")),
        )

    base_rows = list(baseline.get("rows", [])) + list(
        baseline.get("fault_rows", [])
    )
    base_walls = {
        _key(row): float(row["wall_s"]) for row in base_rows if "wall_s" in row
    }
    compared = 0
    for row in rows:
        base = base_walls.get(_key(row))
        if base is None:
            continue
        label = "/".join(part for part in _key(row) if part)
        if base < min_wall:
            notes.append(
                f"{label}: baseline wall {base:.3f}s under the "
                f"{min_wall}s floor, skipped"
            )
            continue
        compared += 1
        wall = float(row["wall_s"])
        if wall > base * max_slowdown:
            failures.append(
                f"{label}: wall {wall:.3f}s > {max_slowdown}x "
                f"baseline {base:.3f}s"
            )
    if not compared:
        failures.append(
            "baseline check compared nothing: no overlapping rows at or "
            "above the wall floor (same hardware class, "
            f"{len(base_walls)} baseline rows)"
        )
    return failures, notes


def check_spill(rows: Iterable[dict[str, object]]) -> list[str]:
    """Smoke check for the out-of-core rows: budgeted cells must spill.

    A budgeted run that wrote zero runs means the budget never bound —
    the scenario was sized wrong or the spill trigger regressed — and a
    peak above the row's ``peak_bound`` (budget plus one record's fan-out,
    the documented overshoot of the between-records flush trigger) means
    the budget did not actually bound memory.  Returns human-readable
    failure strings (empty = pass).
    """
    failures: list[str] = []
    checked = 0
    for row in rows:
        if row.get("mode") != "budgeted":
            continue
        checked += 1
        label = f"{row['scenario']}/{row['backend']}"
        if int(row["spill_runs"]) < 1:
            failures.append(
                f"{label}: budgeted run spilled no runs "
                f"(budget {row['memory_budget']})"
            )
        bound = row.get("peak_bound")
        if bound not in (None, "") and int(row["peak_buffered"]) > int(bound):
            failures.append(
                f"{label}: peak buffered pairs {row['peak_buffered']} "
                f"exceeds bound {bound} "
                f"(budget {row['memory_budget']} + one record's fan-out)"
            )
    if not checked:
        failures.append("spill check compared nothing: no budgeted rows")
    return failures


def check_regression(
    rows: Iterable[dict[str, object]],
    *,
    max_threads_slowdown: float = 1.3,
    min_serial_seconds: float = 0.02,
) -> list[str]:
    """Perf smoke check: threads must not be grossly slower than serial.

    Returns human-readable failure strings (empty = pass).  The bound is
    deliberately generous — it catches engine-level regressions (a serial
    bottleneck reappearing in the parallel path) without flaking on
    scheduler noise or single-core machines, where threads ≈ serial.
    Scenarios whose serial wall is under *min_serial_seconds* are skipped
    (at millisecond scale the ratio is rounding noise, not signal), and a
    run in which *no* scenario could be compared — missing serial/threads
    rows, or everything too fast — fails rather than passing vacuously.
    """
    failures: list[str] = []
    compared = 0
    by_scenario: dict[str, dict[str, float]] = {}
    for row in rows:
        by_scenario.setdefault(str(row["scenario"]), {})[
            str(row["backend"])
        ] = float(row["wall_s"])
    for scenario, walls in by_scenario.items():
        serial = walls.get("serial")
        threads = walls.get("threads")
        if serial is None or threads is None or serial < min_serial_seconds:
            continue
        compared += 1
        if threads > serial * max_threads_slowdown:
            failures.append(
                f"{scenario}: threads {threads:.3f}s > "
                f"{max_threads_slowdown}x serial {serial:.3f}s"
            )
    if not compared:
        failures.append(
            "perf check compared nothing: need serial and threads rows "
            f"with serial >= {min_serial_seconds}s (got scenarios: "
            f"{sorted(by_scenario) or 'none'})"
        )
    return failures
