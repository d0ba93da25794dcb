"""Profiling as a tracer mode: sampler lifecycle, span capture, export."""

import json
import os
import pickle
import threading
import time

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.engine import (
    ExecutionEngine,
    TaskResult,
    _instrumented_task,
    _merge_task_telemetry,
)
from repro.engine.routing import SchemaPlan
from repro.obs.profiler import (
    ResourceSampler,
    merge_stats,
    phase_span,
    profile_export,
    read_cpu_seconds,
    read_rss_bytes,
    validate_collapsed,
    write_profile,
)
from repro.obs.trace import NULL_TRACER, Tracer, as_tracer, to_chrome_trace


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


class TestProfilingOff:
    def test_singleton_is_disabled_and_inert(self):
        assert NULL_TRACER.profile is False
        assert NULL_TRACER.worker_context() is None
        with phase_span(NULL_TRACER, "map", capture=True) as span:
            pass
        assert span.span_id == "" and len(NULL_TRACER) == 0
        sampler = ResourceSampler()
        payload = profile_export(NULL_TRACER.spans(), sampler)
        assert payload["phases"] == {} and payload["collapsed"] == []
        assert not sampler.running

    def test_as_tracer_normalizes_none(self):
        assert as_tracer(None) is NULL_TRACER
        assert Tracer().profile is False
        # Per-job child tracers inherit the mode and share the sink.
        parent = Tracer(profile=True)
        child = parent.child("job-1")
        assert child.profile is True
        with child.span("x"):
            pass
        assert [s.trace_id for s in parent.spans()] == ["job-1"]

    def test_unprofiled_tracer_captures_nothing(self):
        # An unprofiled tracer traces tasks and phases but captures no
        # function table and measures no CPU or RSS.
        tracer = Tracer()
        result = _instrumented_task(
            list(range(50)), inner=_summing_task, name="map_task",
            trace_ctx=tracer.worker_context(), profile=tracer.profile,
        )
        assert "functions" not in result.span
        _merge_task_telemetry([result], tracer)
        with phase_span(tracer, "post", capture=True):
            sorted(range(1000), key=lambda v: -v)
        for span in tracer.spans():
            assert span.functions is None
            assert "cpu_s" not in span.attrs and "rss_bytes" not in span.attrs


class TestProfileExport:
    def test_phase_accumulates_across_occurrences(self):
        tracer = Tracer(profile=True)
        with phase_span(tracer, "map"):
            pass
        with phase_span(tracer, "map"):
            pass
        entry = profile_export(tracer.spans(), ResourceSampler())["phases"][
            "map"
        ]
        assert entry["count"] == 2
        assert entry["wall_seconds"] >= 0.0
        assert entry["cpu_seconds"] >= 0.0
        assert entry["peak_rss_bytes"] > 0

    def test_capture_records_function_table(self):
        tracer = Tracer(profile=True)
        with phase_span(tracer, "post", capture=True) as span:
            sorted(range(1000), key=lambda v: -v)
        assert span.functions, "capture=True must produce a function table"
        for key, row in span.functions.items():
            assert len(row) == 3 and row[0] >= 1
        assert span.attrs["rss_bytes"] > 0 and span.attrs["cpu_s"] >= 0.0

    def test_nested_capture_degrades_instead_of_fighting(self):
        # cProfile cannot nest on one thread: an inline worker task under
        # a capturing phase must yield, not raise (the serial backend).
        tracer = Tracer(profile=True)
        with phase_span(tracer, "post", capture=True):
            result = _instrumented_task(
                3, inner=_doubling_task, name="map_task",
                trace_ctx=tracer.worker_context(), profile=True,
            )
        assert result.outputs == 6 and result.span["functions"] == {}

    def test_worker_task_roundtrip_and_merge(self):
        tracer = Tracer(profile=True)
        results = [
            # The pickle round trip is the process backend's path home.
            pickle.loads(pickle.dumps(_instrumented_task(
                list(range(50)), inner=_summing_task, name="map_task",
                trace_ctx=tracer.worker_context(), profile=True,
            )))
            for _ in range(2)
        ]
        assert [r.outputs for r in results] == [sum(range(50))] * 2
        first, second = (r.span["functions"] for r in results)
        assert first, "an unnested capture must produce stats"
        _merge_task_telemetry(results, tracer)
        table = {
            row["func"]: row
            for row in profile_export(tracer.spans(), ResourceSampler())[
                "phases"
            ]["map"]["functions"]
        }
        # Folding both tasks' tables sums every call count per key.
        for key in first:
            expected = first[key][0] + second.get(key, [0.0])[0]
            assert table[key]["calls"] == expected

    def test_merge_stats_sums_per_key(self):
        into = {"a": [1.0, 0.5, 0.6]}
        merge_stats(into, {"a": [2.0, 0.25, 0.3], "b": [1.0, 0.1, 0.1]})
        assert into["a"] == pytest.approx([3.0, 0.75, 0.9])
        assert into["b"] == [1.0, 0.1, 0.1]

    def test_spill_spans_become_counters(self):
        tracer = Tracer(profile=True)
        now = time.perf_counter()
        for duration, nbytes, runs in ((0.5, 100, 2), (0.25, 50, 1)):
            tracer.record(
                "spill", start=now, duration=duration, category="engine",
                bytes=nbytes, runs=runs,
            )
        entry = profile_export(tracer.spans(), ResourceSampler())["phases"][
            "spill"
        ]
        assert entry["wall_seconds"] == pytest.approx(0.75)
        assert entry["count"] == 2
        assert entry["counters"] == {"bytes": 150, "runs": 3}

    def test_export_and_collapsed_validate(self):
        tracer = Tracer(profile=True)
        with phase_span(tracer, "post", capture=True):
            sorted(range(2000), key=lambda v: -v)
        tracer.record(
            "spill", start=time.perf_counter(), duration=0.5,
            category="engine", bytes=10, runs=1,
        )
        payload = profile_export(tracer.spans(), ResourceSampler())
        assert payload["version"] == 1
        assert set(payload) == {
            "version", "wall_seconds", "cpu_seconds", "peak_rss_bytes",
            "sample_interval", "samples", "phases", "collapsed",
        }
        assert set(payload["phases"]) == {"post", "spill"}
        post = payload["phases"]["post"]
        assert set(post) == {
            "wall_seconds", "cpu_seconds", "peak_rss_bytes", "count",
            "counters", "functions",
        }
        assert post["functions"], "export keeps the function table"
        tots = [row["tottime_s"] for row in post["functions"]]
        assert tots == sorted(tots, reverse=True)
        assert validate_collapsed(payload["collapsed"]) == len(
            payload["collapsed"]
        )
        # The table-free spill phase falls back to a phase-level line.
        assert any(
            line.startswith("spill ") for line in payload["collapsed"]
        )

    def test_phase_peak_rss_reads_sampler_window(self):
        tracer = Tracer(profile=True)
        sampler = ResourceSampler()
        with phase_span(tracer, "map") as span:
            pass
        inside = span.start + span.duration / 2
        outside = span.start + span.duration + 1.0
        sampler._samples[:] = [(inside, 1 << 40, 0.0), (outside, 1 << 41, 0.0)]
        payload = profile_export(tracer.spans(), sampler)
        assert payload["phases"]["map"]["peak_rss_bytes"] == 1 << 40

    def test_function_tables_stay_out_of_trace_exports(self):
        tracer = Tracer(profile=True)
        with phase_span(tracer, "post", capture=True) as span:
            sorted(range(1000), key=lambda v: -v)
        assert span.functions
        assert "functions" not in json.dumps(span.to_dict(), default=str)
        assert "functions" not in json.dumps(to_chrome_trace([span]))

    def test_write_is_atomic_json(self, tmp_path):
        sampler = ResourceSampler(interval=0.005)
        tracer = Tracer(profile=True)
        with sampler, phase_span(tracer, "map"):
            pass
        payload = profile_export(tracer.spans(), sampler)
        path = tmp_path / "profile.json"
        path.write_text("stale")
        write_profile(payload, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload, default=str)
        )
        # The write renames a finished temp file into place.
        assert os.listdir(tmp_path) == ["profile.json"]
        assert payload["wall_seconds"] >= 0.0 and len(payload["samples"]) >= 2


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
    def _run(self, backend, tracer, **config_kwargs):
        def reduce_fn(key, values):
            yield key, sum(value for _, value in values)

        engine = ExecutionEngine(
            plan=SchemaPlan.from_members(
                list(range(200)),
                [1] * 200,
                [range(k, 200, 4) for k in range(4)],
                capacity=10_000,
            ),
            reduce_fn=reduce_fn,
            tracer=tracer,
            config=ExecutionConfig(backend=backend, **config_kwargs),
        )
        return engine.run()

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_phases_and_worker_tables_recorded(self, backend):
        tracer = Tracer(profile=True)
        with ResourceSampler(interval=0.005) as sampler:
            result = self._run(backend, tracer)
            self._run(backend, tracer)
        phases = profile_export(tracer.spans(), sampler)["phases"]
        assert {"map", "shuffle", "reduce", "post"} <= set(phases)
        # Two runs on one tracer accumulate.
        assert all(phases[name]["count"] == 2 for name in phases)
        assert phases["map"]["functions"], backend
        assert phases["reduce"]["functions"], backend
        assert validate_collapsed(
            profile_export(tracer.spans(), sampler)["collapsed"]
        ) > 0
        assert sorted(result.outputs) == sorted(
            self._run(backend, None).outputs
        )

    def test_spill_phase_recorded_under_memory_budget(self, tmp_path):
        tracer = Tracer(profile=True)
        budgeted = self._run(
            "serial",
            tracer,
            memory_budget=16,
            spill_dir=str(tmp_path),
        )
        assert budgeted.metrics.spill_runs > 0
        spill = profile_export(tracer.spans(), ResourceSampler())["phases"][
            "spill"
        ]
        assert spill["counters"]["runs"] == budgeted.metrics.spill_runs
        assert spill["counters"]["bytes"] == budgeted.metrics.spilled_bytes

    def test_null_profiler_leaves_no_trace_and_same_outputs(self):
        baseline = self._run("serial", None)
        traced = Tracer()
        unprofiled = self._run("serial", traced)
        profiled = self._run("serial", Tracer(profile=True))
        for run in (unprofiled, profiled):
            assert run.outputs == baseline.outputs
            assert run.metrics == baseline.metrics
        assert len(NULL_TRACER) == 0
        assert all(span.functions is None for span in traced.spans())
