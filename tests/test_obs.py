"""Unit tests for the observability layer: tracing, metrics, observations."""

from __future__ import annotations

import json
import pickle
import threading
import tracemalloc

import pytest

from repro.dataset import Dataset
from repro.engine.config import ExecutionConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.routing import SchemaPlan
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs import store as obs_store
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
    Tracer,
    as_tracer,
    to_chrome_trace,
    validate_chrome_trace,
    worker_span,
    write_chrome_trace,
)


def mod4_plan(count: int = 40) -> SchemaPlan:
    """Records ``0..count-1`` over four reducers by ``record % 4``."""
    return SchemaPlan.from_members(
        list(range(count)),
        [1] * count,
        [range(k, count, 4) for k in range(4)],
        capacity=None,
    )


def sum_reduce(key, values):
    yield key, sum(record for _, record in values)


class TestSpans:
    def test_with_block_nesting_sets_parent_ids(self):
        tracer = Tracer("t1")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert all(s.trace_id == "t1" for s in spans)
        assert all(s.duration is not None and s.duration >= 0 for s in spans)

    def test_begin_finish_double_finish_is_noop(self):
        tracer = Tracer()
        span = tracer.begin("root")
        tracer.finish(span)
        first = span.duration
        tracer.finish(span)
        assert span.duration == first
        assert len(tracer) == 1

    def test_activate_pins_parent_for_block(self):
        tracer = Tracer()
        root = tracer.begin("root")
        with tracer.activate(root):
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
        with tracer.span("sibling") as sibling:
            assert sibling.parent_id is None
        tracer.finish(root)

    def test_child_tracer_shares_sink_with_own_trace_id(self):
        tracer = Tracer("parent")
        child = tracer.child("job-1")
        with child.span("work"):
            pass
        spans = tracer.spans()
        assert len(spans) == 1 and spans[0].trace_id == "job-1"

    def test_record_and_instant(self):
        tracer = Tracer()
        tracer.record("queue", start=1.0, duration=0.5, wait=True)
        marker = tracer.instant("job:done")
        assert marker.duration == 0.0
        names = [s.name for s in tracer.spans()]
        assert names == ["queue", "job:done"]

    def test_on_finish_callback_streams_and_isolates_errors(self):
        seen: list[str] = []

        def observer(span):
            seen.append(span.name)
            raise RuntimeError("observer bug")

        tracer = Tracer(on_finish=observer)
        with tracer.span("a"):
            pass
        assert seen == ["a"]
        assert len(tracer) == 1

    def test_spans_are_thread_safe(self):
        tracer = Tracer()

        def work():
            for _ in range(50):
                with tracer.span("w"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 200


class TestWorkerPropagation:
    def test_worker_context_pickle_round_trip(self):
        tracer = Tracer("tr")
        with tracer.span("map") as phase:
            ctx = tracer.worker_context()
            ctx = pickle.loads(pickle.dumps(ctx))
            payload = worker_span(ctx, "map_task", 1.0, 0.25, records=3)
        payload = pickle.loads(pickle.dumps(payload))
        assert payload["trace"] == "tr"
        assert payload["parent"] == phase.span_id
        tracer.add_worker_spans([payload])
        merged = {s.name: s for s in tracer.spans()}
        task = merged["map_task"]
        assert task.parent_id == phase.span_id
        assert task.duration == 0.25
        assert task.attrs["records"] == 3

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_engine_task_spans_carry_parent_trace(self, backend):
        tracer = Tracer("engine-trace")
        engine = ExecutionEngine(
            plan=mod4_plan(),
            reduce_fn=sum_reduce,
            tracer=tracer,
            config=ExecutionConfig(backend=backend, num_workers=2),
        )
        result = engine.run()
        assert result.outputs
        spans = {s.name: s for s in tracer.spans()}
        for phase in ("map", "shuffle", "reduce", "post"):
            assert phase in spans, (backend, sorted(spans))
        tasks = [s for s in tracer.spans() if s.name == "map_task"]
        assert tasks, backend
        for task in tasks:
            assert task.trace_id == "engine-trace"
            assert task.parent_id == spans["map"].span_id
        reduce_tasks = [s for s in tracer.spans() if s.name == "reduce_task"]
        assert reduce_tasks and all(
            t.parent_id == spans["reduce"].span_id for t in reduce_tasks
        )

    def test_retried_tasks_export_unique_spans_under_faults(self, tmp_path):
        # Injected faults retry tasks on the processes backend; every
        # worker span (original and retried attempts) must still carry a
        # unique span id and the export must stay a valid Chrome trace —
        # a duplicated id would make Perfetto merge distinct attempts.
        from repro.faults import RetryPolicy

        tracer = Tracer("faulty")
        engine = ExecutionEngine(
            plan=mod4_plan(),
            reduce_fn=sum_reduce,
            tracer=tracer,
            config=ExecutionConfig(
                backend="processes",
                num_workers=2,
                map_chunk_size=2,
                num_reduce_tasks=4,
                retry=RetryPolicy(
                    max_attempts=6, backoff_base=0.001, backoff_max=0.01
                ),
                faults="crash=0.2,seed=7",
            ),
        )
        result = engine.run()
        assert result.outputs
        assert result.engine.task_retries >= 1
        spans = tracer.spans()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "duplicate span ids"
        phase = {s.name: s for s in spans}
        worker_spans = [
            s for s in spans if s.name in ("map_task", "reduce_task")
        ]
        assert worker_spans
        for span in worker_spans:
            parent = "map" if span.name == "map_task" else "reduce"
            assert span.parent_id == phase[parent].span_id
            assert span.trace_id == "faulty"
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), spans)
        events = validate_chrome_trace(json.loads(path.read_text()))
        assert count == len(events) == len(spans)

    def test_disabled_tracer_records_nothing_and_output_matches(self):
        traced = ExecutionEngine(
            plan=mod4_plan(),
            reduce_fn=sum_reduce,
            tracer=NULL_TRACER,
        )
        plain = ExecutionEngine(plan=mod4_plan(), reduce_fn=sum_reduce)
        assert traced.run().outputs == plain.run().outputs
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.spans() == []

    def test_null_tracer_hot_loop_allocates_nothing_measurable(self):
        tracer = as_tracer(None)
        assert isinstance(tracer, NullTracer)
        assert tracer.worker_context() is None
        assert tracer.span("x") is tracer.span("y")  # shared no-op span

        def hot_loop():
            for _ in range(5000):
                with tracer.span("hot", category="engine"):
                    tracer.record("r", start=0.0, duration=0.0)

        hot_loop()  # warm up bytecode/caches before measuring
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        hot_loop()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before < 16 * 1024  # no per-iteration allocations


class TestChromeExport:
    def test_export_validates_and_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("map", category="engine", tasks=2):
            tracer.instant("job:running")
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer.spans())
        assert count == 2
        payload = json.loads(path.read_text())
        events = validate_chrome_trace(payload)
        by_name = {e["name"]: e for e in events}
        assert by_name["map"]["ph"] == "X" and by_name["map"]["dur"] >= 0
        assert by_name["job:running"]["ph"] == "i"
        assert by_name["map"]["args"]["tasks"] == 2

    def test_validate_accepts_bare_array_form(self):
        assert validate_chrome_trace(to_chrome_trace([])["traceEvents"]) == []
        assert validate_chrome_trace(
            [{"name": "x", "ph": "i", "s": "t", "ts": 1, "pid": 1, "tid": 1}]
        )

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace([{"name": "x", "ph": "i", "pid": 1, "tid": 1}])
        with pytest.raises(ValueError, match="missing numeric dur"):
            validate_chrome_trace(
                [{"name": "x", "ph": "X", "ts": 1, "pid": 1, "tid": 1}]
            )


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("jobs.done").inc()
        registry.counter("jobs.done").inc(2)
        registry.gauge("queue.depth").set(3)
        for value in (0.1, 0.2, 0.3, 0.4, 0.5):
            registry.histogram("latency").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["jobs.done"] == 3
        assert snapshot["gauges"]["queue.depth"] == 3
        latency = snapshot["histograms"]["latency"]
        assert latency["count"] == 5
        assert latency["p50"] == pytest.approx(0.3)
        assert latency["max"] == pytest.approx(0.5)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_add(self):
        gauge = Gauge()
        gauge.set(2)
        gauge.add(3)
        assert gauge.value == 5

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.95) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_histogram_reservoir_is_bounded(self):
        histogram = Histogram()
        for value in range(5000):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5000
        assert snapshot["max"] == 4999.0


class TestObservationStore:
    def make_record(self, job_id="j1", **overrides):
        fields = {
            "job_id": job_id,
            "fingerprint": "fp",
            "cache_hit": False,
            "backend": "serial",
            "wall_seconds": 0.5,
            "map_output_pairs": 10,
            "output_records": 4,
        }
        fields.update(overrides)
        return ObservationRecord(**fields)

    def test_append_and_ndjson_round_trip(self, tmp_path):
        path = tmp_path / "obs.ndjson"
        store = ObservationStore(path=str(path))
        store.record(self.make_record("a"))
        store.record(self.make_record("b", cache_hit=True))
        assert len(store) == 2 and store.appended == 2
        loaded = load_observations(str(path))
        assert [r.job_id for r in loaded] == ["a", "b"]
        assert loaded[1].cache_hit is True
        assert loaded[0] == store.snapshot()[0]

    def test_capacity_bounds_memory_not_log(self, tmp_path):
        path = tmp_path / "obs.ndjson"
        store = ObservationStore(path=str(path), capacity=2)
        for index in range(5):
            store.record(self.make_record(f"j{index}"))
        assert [r.job_id for r in store.snapshot()] == ["j3", "j4"]
        assert len(load_observations(str(path))) == 5

    def test_for_fingerprint_filters(self):
        store = ObservationStore()
        store.record(self.make_record("a", fingerprint="x"))
        store.record(self.make_record("b", fingerprint="y"))
        assert [r.job_id for r in store.for_fingerprint("x")] == ["a"]

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        # Corruption anywhere but the final line is real damage, not a
        # crash mid-append — it must still raise with the line number.
        path = tmp_path / "obs.ndjson"
        path.write_text(
            '{"job_id": "a", "fingerprint": "f", "cache_hit": false}\n'
            "not json\n"
            '{"job_id": "b", "fingerprint": "f", "cache_hit": false}\n'
        )
        with pytest.raises(ValueError, match=":2:"):
            load_observations(str(path))
        # Valid JSON that is not an object is malformed too: an error
        # with the line number mid-log, a counted skip as the final line.
        for line in ("[1, 2]", '"x"', "7", "null"):
            path.write_text(
                '{"job_id": "a", "fingerprint": "f", "cache_hit": false}\n'
                f"{line}\n"
                '{"job_id": "b", "fingerprint": "f", "cache_hit": false}\n'
            )
            with pytest.raises(ValueError, match=":2: .*JSON object"):
                load_observations(str(path))
            path.write_text(
                '{"job_id": "a", "fingerprint": "f", "cache_hit": false}\n'
                f"{line}\n"
            )
            with pytest.warns(RuntimeWarning, match="1 record dropped"):
                loaded = load_observations(str(path))
            assert [r.job_id for r in loaded] == ["a"]

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        # A crash mid-append leaves a half-written last line; loading
        # must keep every complete record and warn about the dropped one.
        path = tmp_path / "obs.ndjson"
        path.write_text(
            '{"job_id": "a", "fingerprint": "f", "cache_hit": false}\n'
            '{"job_id": "b", "fingerprint": "f", "cache_hit": true}\n'
            '{"job_id": "c", "fingerprint": "f", "cache_'
        )
        with pytest.warns(RuntimeWarning, match="1 record dropped"):
            loaded = load_observations(str(path))
        assert [r.job_id for r in loaded] == ["a", "b"]

    def test_commit_and_hardware_fields_default_and_round_trip(
        self, tmp_path
    ):
        # Old logs (no commit/hardware_class/peak_rss/cpu fields, or a
        # field records no longer carry, like shm_segments) must still
        # load; new records carry the new fields through the NDJSON log.
        path = tmp_path / "obs.ndjson"
        path.write_text(
            '{"job_id": "old", "fingerprint": "f", "cache_hit": false}\n'
            '{"job_id": "older", "fingerprint": "f", "cache_hit": false, '
            '"encoded_bytes": 64, "shm_segments": 3}\n'
        )
        store = ObservationStore(path=str(path))
        store.record(
            self.make_record(
                "new",
                commit="abc123def456",
                hardware_class="8w",
                peak_rss_bytes=1 << 20,
                cpu_seconds=0.25,
            )
        )
        old, older, new = load_observations(str(path))
        assert older.job_id == "older" and older.encoded_bytes == 64
        assert not hasattr(older, "shm_segments")
        assert old.commit == "" and old.hardware_class == ""
        assert old.peak_rss_bytes == 0 and old.cpu_seconds == 0.0
        assert new.commit == "abc123def456"
        assert new.hardware_class == "8w"
        assert new.peak_rss_bytes == 1 << 20
        assert new.cpu_seconds == 0.25

    def test_hardware_class_format(self):
        assert hardware_class(8) == "8w"
        # Default probes this machine: always "<positive int>w".
        label = hardware_class()
        assert label.endswith("w") and int(label[:-1]) >= 1

    def test_current_commit_env_override(self, monkeypatch):
        monkeypatch.setattr(obs_store, "_COMMIT_CACHE", {})
        monkeypatch.setenv("REPRO_COMMIT", "abcdef0123456789")
        assert current_commit() == "abcdef012345"  # truncated to 12

    def test_summarize_groups_by_backend(self):
        records = [
            self.make_record("a", wall_seconds=0.2),
            self.make_record("b", wall_seconds=0.4, cache_hit=True),
            self.make_record("c", backend="", wall_seconds=0.0),
        ]
        rows = summarize_observations(records)
        assert [row["backend"] for row in rows] == ["plan-only", "serial"]
        serial = rows[1]
        assert serial["jobs"] == 2
        assert serial["cache_hit_rate"] == 0.5
        assert serial["wall_p50_s"] == pytest.approx(0.2)
        assert serial["shuffle_pairs"] == 20
