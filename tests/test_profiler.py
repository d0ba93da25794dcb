"""Continuous profiler: sampler lifecycle, phase capture, export format."""

import threading

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.engine import (
    ExecutionEngine,
    TaskResult,
    _instrumented_task,
    _merge_task_telemetry,
)
from repro.engine.quickbench import run_profile_overhead, run_scenario
from repro.obs.profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    ResourceSampler,
    as_profiler,
    merge_stats,
    read_cpu_seconds,
    read_rss_bytes,
    validate_collapsed,
)
from repro.obs.trace import NULL_TRACER


def _doubling_task(value):
    return TaskResult(outputs=value * 2, counters={})


def _summing_task(values):
    return TaskResult(outputs=sum(values), counters={"records": len(values)})


def _repro_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-")
    ]


class TestResourceSampler:
    def test_reads_are_positive_on_linux(self):
        assert read_rss_bytes() > 0
        assert read_cpu_seconds() > 0.0

    def test_start_stop_idempotent_and_thread_named(self):
        sampler = ResourceSampler(interval=0.005)
        assert not sampler.running
        sampler.start()
        sampler.start()
        assert sampler.running
        names = [t.name for t in _repro_threads()]
        assert ResourceSampler.THREAD_NAME in names
        sampler.stop()
        sampler.stop()
        assert not sampler.running
        assert ResourceSampler.THREAD_NAME not in [
            t.name for t in _repro_threads()
        ]
        # start() and stop() each take one bracketing sample.
        assert len(sampler) >= 2

    def test_peak_rss_windowed_and_always_fresh(self):
        sampler = ResourceSampler(interval=0.005)
        # Never started: the query still reads the process right now.
        assert sampler.peak_rss_bytes() > 0
        t0, _, _ = sampler.sample_now()
        assert sampler.peak_rss_bytes(since=t0) > 0
        # A window starting after the last sample still reports fresh RSS.
        assert sampler.peak_rss_bytes(since=t0 + 1e9) > 0

    def test_bounded_window(self):
        sampler = ResourceSampler(interval=0.005, max_samples=4)
        for _ in range(10):
            sampler.sample_now()
        assert len(sampler) == 4

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)

    def test_context_manager(self):
        with ResourceSampler(interval=0.005) as sampler:
            assert sampler.running
        assert not sampler.running


class TestNullProfiler:
    def test_singleton_is_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        assert NULL_PROFILER.worker_context() is None
        with NULL_PROFILER.phase("map", capture=True):
            pass
        NULL_PROFILER.add_counter("map", bytes=10)
        assert len(NULL_PROFILER) == 0
        assert not NULL_PROFILER.sampler.running
        payload = NULL_PROFILER.to_dict()
        assert payload["phases"] == {} and payload["collapsed"] == []

    def test_as_profiler_normalizes_none(self):
        assert as_profiler(None) is NULL_PROFILER
        live = PhaseProfiler(autostart=False)
        assert as_profiler(live) is live
        live.stop()

    def test_add_functions_is_inert(self):
        null = NullProfiler()
        null.add_functions("map", {"f": [1, 0.1, 0.1]})
        assert null.phases() == {}


class TestPhaseProfiler:
    def test_phase_accumulates_across_occurrences(self):
        profiler = PhaseProfiler(autostart=False)
        with profiler.phase("map"):
            pass
        with profiler.phase("map"):
            pass
        profiler.stop()
        entry = profiler.phases()["map"]
        assert entry["count"] == 2
        assert entry["wall_seconds"] >= 0.0
        assert entry["peak_rss_bytes"] > 0

    def test_capture_records_function_table(self):
        profiler = PhaseProfiler(autostart=False)
        with profiler.phase("post", capture=True):
            sorted(range(1000), key=lambda v: -v)
        profiler.stop()
        functions = profiler.phases()["post"]["functions"]
        assert functions, "capture=True must produce a function table"
        for key, row in functions.items():
            assert len(row) == 3 and row[0] >= 1

    def test_nested_capture_degrades_instead_of_fighting(self):
        # cProfile cannot nest on one thread: an inline worker task under
        # a capturing phase must yield, not raise (the serial backend).
        profiler = PhaseProfiler(autostart=False)
        with profiler.phase("post", capture=True):
            result = _instrumented_task(
                3, inner=_doubling_task, name="map_task", trace_ctx=None,
                profile=True,
            )
        profiler.stop()
        assert result.outputs == 6 and result.profile == {}

    def test_worker_task_roundtrip_and_merge(self):
        results = [
            _instrumented_task(
                list(range(50)), inner=_summing_task, name="map_task",
                trace_ctx=None, profile=True,
            )
            for _ in range(2)
        ]
        assert [r.outputs for r in results] == [sum(range(50))] * 2
        first, second = (r.profile for r in results)
        assert first, "an unnested capture must produce stats"
        profiler = PhaseProfiler(autostart=False)
        _merge_task_telemetry(results, "map", NULL_TRACER, profiler)
        table = profiler.phases()["map"]["functions"]
        # Folding both tasks' tables sums every call count per key.
        for key in first:
            expected = first[key][0] + second.get(key, [0.0])[0]
            assert table[key][0] == expected

    def test_merge_stats_sums_per_key(self):
        into = {"a": [1.0, 0.5, 0.6]}
        merge_stats(into, {"a": [2.0, 0.25, 0.3], "b": [1.0, 0.1, 0.1]})
        assert into["a"] == pytest.approx([3.0, 0.75, 0.9])
        assert into["b"] == [1.0, 0.1, 0.1]

    def test_record_and_counters(self):
        profiler = PhaseProfiler(autostart=False)
        profiler.record("spill", 0.5, bytes=100, runs=2)
        profiler.record("spill", 0.25, bytes=50, runs=1)
        entry = profiler.phases()["spill"]
        assert entry["wall_seconds"] == pytest.approx(0.75)
        assert entry["counters"] == {"bytes": 150, "runs": 3}

    def test_to_dict_and_collapsed_validate(self):
        profiler = PhaseProfiler(autostart=False)
        with profiler.phase("post", capture=True):
            sorted(range(2000), key=lambda v: -v)
        profiler.record("spill", 0.5)
        profiler.stop()
        payload = profiler.to_dict()
        assert payload["version"] == 1
        assert set(payload["phases"]) == {"post", "spill"}
        post = payload["phases"]["post"]
        assert post["functions"], "export keeps the function table"
        tots = [row["tottime_s"] for row in post["functions"]]
        assert tots == sorted(tots, reverse=True)
        assert validate_collapsed(payload["collapsed"]) == len(
            payload["collapsed"]
        )
        # The capture-free spill phase falls back to a phase-level line.
        assert any(
            line.startswith("spill ") for line in payload["collapsed"]
        )

    def test_write_is_atomic_json_and_stops_sampler(self, tmp_path):
        import json

        profiler = PhaseProfiler(sample_interval=0.005)
        with profiler.phase("map"):
            pass
        path = tmp_path / "profile.json"
        payload = profiler.write(str(path))
        assert not profiler.sampler.running
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload, default=str)
        )

    def test_autostart_starts_sampler_on_phase(self):
        profiler = PhaseProfiler(sample_interval=0.005)
        assert not profiler.sampler.running
        with profiler.phase("map"):
            assert profiler.sampler.running
        profiler.stop()
        assert not profiler.sampler.running


class TestValidateCollapsed:
    def test_accepts_flamegraph_format(self):
        lines = ["map;engine.py:10:run 120", "reduce 3"]
        assert validate_collapsed(lines) == 2

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            validate_collapsed(["map;f 0"])
        with pytest.raises(ValueError, match="weight"):
            validate_collapsed(["map;f -5"])
        with pytest.raises(ValueError, match="weight"):
            validate_collapsed(["map;f 1.5"])

    def test_rejects_missing_stack_or_empty_frame(self):
        with pytest.raises(ValueError, match="missing"):
            validate_collapsed(["justoneword"])
        with pytest.raises(ValueError, match="empty frame"):
            validate_collapsed(["map;;f 10"])


class TestEngineIntegration:
    def _run(self, backend, profiler, **config_kwargs):
        def map_fn(value):
            yield value % 4, value

        def reduce_fn(key, values):
            yield key, sum(values)

        engine = ExecutionEngine.from_config(
            ExecutionConfig(backend=backend, **config_kwargs),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            reducer_capacity=10_000,
            profiler=profiler,
        )
        return engine.run(list(range(200)))

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_phases_and_worker_tables_recorded(self, backend):
        profiler = PhaseProfiler(sample_interval=0.005)
        result = self._run(backend, profiler)
        profiler.stop()
        phases = profiler.phases()
        assert {"map", "shuffle", "reduce", "post"} <= set(phases)
        assert phases["map"]["functions"], backend
        assert phases["reduce"]["functions"], backend
        assert validate_collapsed(profiler.collapsed_stacks()) > 0
        assert sorted(result.outputs) == sorted(
            self._run(backend, None).outputs
        )

    def test_spill_phase_recorded_under_memory_budget(self, tmp_path):
        profiler = PhaseProfiler(sample_interval=0.005)
        budgeted = self._run(
            "serial",
            profiler,
            memory_budget=16,
            spill_dir=str(tmp_path),
        )
        profiler.stop()
        assert budgeted.metrics.spill_runs > 0
        spill = profiler.phases()["spill"]
        assert spill["counters"]["runs"] == budgeted.metrics.spill_runs
        assert spill["counters"]["bytes"] == budgeted.metrics.spilled_bytes

    def test_null_profiler_leaves_no_trace_and_same_outputs(self):
        baseline = self._run("serial", None)
        nulled = self._run("serial", NULL_PROFILER)
        assert sorted(baseline.outputs) == sorted(nulled.outputs)
        assert len(NULL_PROFILER) == 0
        assert not NULL_PROFILER.sampler.running


class TestProfileOverheadBench:
    def test_modes_and_loose_bounds(self):
        rows = run_profile_overhead(
            scenario="map_heavy", backend="serial", scale=0.2, repeat=2
        )
        by_mode = {r["profiling"]: r for r in rows}
        assert set(by_mode) == {"off", "null", "on"}
        assert by_mode["off"]["functions"] == 0
        assert by_mode["null"]["functions"] == 0
        assert by_mode["on"]["phases"] > 0
        assert by_mode["on"]["functions"] > 0
        assert by_mode["on"]["peak_rss_mb"] > 0
        # Loose in-test sanity (the committed E25 artifact carries the
        # real ratios): a disabled profiler must not double the wall.
        off = float(by_mode["off"]["wall_s"])
        assert float(by_mode["null"]["wall_s"]) <= off * 1.25 + 0.05

    def test_run_scenario_accepts_profiler(self):
        profiler = PhaseProfiler(sample_interval=0.005)
        outputs, wall = run_scenario(
            "map_heavy", "serial", scale=0.2, profiler=profiler
        )
        profiler.stop()
        assert outputs and wall > 0
        assert "map" in profiler.phases()
