"""Unit behavior of the two observability primitives.

``repro.obs.trace``: span nesting through contextvars, both sinks, the
no-op disabled path, and the ``REPRO_TRACE`` process default.
``repro.obs.metrics``: counter / gauge / histogram semantics and
disabled registries.  Thread-level guarantees live in
``test_concurrency.py``.
"""

import json

import pytest

import repro
from repro import Database, MetricsRegistry, Null, Tracer
from repro.algebra import parse_ra
from repro.obs import (
    DISABLED_METRICS,
    JSONLSink,
    RingBufferSink,
    current_metrics,
    current_tracer,
    entry_scope,
    metrics_scope,
    span,
)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_sum_and_default_increment(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a")
        registry.count("b", 5)
        assert registry.counter_value("a") == 2
        assert registry.counters() == {"a": 2, "b": 5}
        assert registry.counter_value("missing") == 0

    def test_histograms_track_count_sum_min_max_mean(self):
        registry = MetricsRegistry()
        for sample in (0.5, 0.1, 0.4):
            registry.observe("lat", sample)
        histogram = registry.histograms()["lat"]
        assert histogram["count"] == 3
        assert histogram["sum"] == pytest.approx(1.0)
        assert histogram["min"] == pytest.approx(0.1)
        assert histogram["max"] == pytest.approx(0.5)
        assert histogram["mean"] == pytest.approx(1.0 / 3)

    def test_gauges_are_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 3)
        registry.gauge("depth", 1)
        assert registry.gauges() == {"depth": 1}

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("a")
        registry.observe("h", 1.0)
        registry.gauge("g", 1.0)
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not DISABLED_METRICS.enabled

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.observe("h", 0.25)
        registry.gauge("g", 4)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 4}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_metrics_scope_arms_and_restores_ambient_registry(self):
        registry = MetricsRegistry()
        assert current_metrics() is None
        with metrics_scope(registry) as armed:
            assert armed is registry
            assert current_metrics() is registry
        assert current_metrics() is None

    def test_metrics_scope_ignores_none_and_disabled(self):
        with metrics_scope(None) as armed:
            assert armed is None
            assert current_metrics() is None
        with metrics_scope(DISABLED_METRICS) as armed:
            assert armed is None
            assert current_metrics() is None


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_through_the_ambient_context(self):
        tracer = Tracer()
        with entry_scope(tracer, None, "query.certain") as entry:
            with tracer.span("outer", kind="test") as outer:
                with span("inner") as inner:
                    inner.set(rows=3)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id == entry.span_id
        assert entry.parent_id is None
        assert spans["inner"].attrs == {"rows": 3}
        assert spans["outer"].attrs == {"kind": "test"}
        assert spans["outer"].duration >= spans["inner"].duration >= 0

    def test_a_tracers_own_span_nests_without_an_ambient_tracer(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert current_tracer() is None
            with tracer.span("inner") as inner:
                pass
            tracer.event("marker")
        (marker,) = [s for s in tracer.spans() if s.name == "marker"]
        assert inner.parent_id == marker.parent_id == outer.span_id

    def test_module_span_is_shared_noop_when_tracing_is_off(self):
        assert current_tracer() is None
        first = span("anything", a=1)
        second = span("else")
        assert first is second  # the shared no-op scope, no allocation
        with first as sp:
            assert sp.set(rows=1) is sp  # attribute setting is accepted

    def test_exception_marks_span_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with entry_scope(tracer, None, "query.certain"):
                with span("failing"):
                    raise ValueError("boom")
        failing, entry = tracer.spans()
        assert failing.status == entry.status == "ValueError"

    def test_record_and_event_hang_off_the_ambient_span(self):
        tracer = Tracer()
        with entry_scope(tracer, None, "query.certain"):
            with span("parent"):
                tracer.record("timed", 0.125, rows=2)
                tracer.event("marker", note="x")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["timed"].parent_id == spans["parent"].span_id
        assert spans["timed"].duration == pytest.approx(0.125)
        assert spans["marker"].parent_id == spans["parent"].span_id
        assert spans["marker"].duration == 0.0

    def test_ring_buffer_sink_is_bounded(self):
        tracer = Tracer(RingBufferSink(maxlen=4))
        for index in range(10):
            tracer.record(f"s{index}")
        names = [s.name for s in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_a_fresh_tracer_does_not_nest_under_another_tracers_span(self):
        # An inner scope inherits the outer scope's ambient span; the
        # inner tracer must not link to that foreign id.
        parent, child = Tracer(), Tracer()
        with entry_scope(parent, None, "query.certain"):
            with parent.span("query.step") as step:
                with entry_scope(child, None, "world.evaluate") as world:
                    child.event("world.marker")
                with parent.span("after") as after:
                    pass
        assert world.parent_id is None
        (marker,) = [s for s in child.spans() if s.name == "world.marker"]
        assert marker.parent_id == world.span_id
        assert after.parent_id == step.span_id

    def test_a_span_of_another_tracer_is_no_parent(self):
        # Span ids are per tracer: a traced session answering inside
        # another tracer's span must not take that span's id as parent,
        # since in its own id space that id may name one of its own
        # descendants (a parent cycle).
        outer_tracer, tracer = Tracer(), Tracer()
        with outer_tracer.span("before"):
            pass
        with repro.connect(_database(), tracer=tracer) as session:
            with outer_tracer.span("outer") as outer:
                session.query(QUERY).certain()
            tracer.event("after")
        spans = tracer.spans()
        (entry,) = [s for s in spans if s.name == "query.certain"]
        # ``outer``'s id names the entry's first child in ``tracer``'s space.
        assert any(s.span_id == outer.span_id and s is not entry for s in spans)
        assert entry.parent_id is None
        assert spans[-1].parent_id is None
        parents = {s.span_id: s.parent_id for s in spans}
        for span_obj in spans:
            seen = set()
            cursor = span_obj.span_id
            while cursor is not None:
                assert cursor not in seen, "parent cycle"
                seen.add(cursor)
                cursor = parents.get(cursor)

    def test_jsonl_sink_writes_one_object_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JSONLSink(str(path)))
        with tracer.span("query.certain", rows=Null("n")):
            pass
        tracer.sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "query.certain"
        assert record["status"] == "ok"
        assert "Null" in record["attrs"]["rows"]  # non-JSON values go via repr
        with pytest.raises(TypeError):
            tracer.spans()  # file sinks do not buffer

    def test_entry_scope_counts_times_and_opens_span(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with entry_scope(tracer, registry, "query.certain") as sp:
            assert current_tracer() is tracer
            assert current_metrics() is registry
            sp.set(mode="test")
        assert current_tracer() is None
        assert registry.counter_value("query.certain") == 1
        assert registry.histograms()["query.certain.seconds"]["count"] == 1
        (entry,) = tracer.spans()
        assert entry.name == "query.certain"
        assert entry.attrs == {"mode": "test"}

    def test_entry_scope_is_shared_noop_when_everything_off(self):
        disabled = entry_scope(None, DISABLED_METRICS, "query.certain")
        assert disabled is entry_scope(None, None, "query.possible")

    def test_a_session_picks_its_entry_scope_kind_once(self):
        db = Database.from_dict({"R": [(1,)]})
        quiet = repro.connect(db, metrics=False)
        assert quiet._obs("query.certain") is quiet._obs("query.possible")
        with quiet._obs("query.certain"):
            assert current_metrics() is None and current_tracer() is None
        # The factory picked at connect() serves every request.
        tracer = Tracer()
        for session in (repro.connect(db), repro.connect(db, tracer=tracer)):
            session.query(parse_ra("R")).certain()
            session.query(parse_ra("R")).certain()
            assert session.metrics()["counters"]["query.certain"] == 2
            assert current_tracer() is None
        assert [s.name for s in tracer.spans() if s.parent_id is None] == ["query.certain"] * 2


# ---------------------------------------------------------------------------
# session wiring
# ---------------------------------------------------------------------------
QUERY = parse_ra("project[#0](R)")


def _database():
    return Database.from_dict({"R": [(1, 2), (2, 3), (Null("x"), 4)]})


class TestSessionWiring:
    def test_session_entry_points_trace_and_count(self):
        tracer = Tracer()
        with repro.connect(_database(), tracer=tracer) as session:
            query = session.query(QUERY)
            query.certain()
            query.possible()
            query.boolean()
        names = {s.name for s in tracer.spans()}
        assert {"query.certain", "query.possible", "query.boolean"} <= names
        counters = session.metrics()["counters"]
        assert counters["query.certain"] == 1
        assert counters["query.possible"] == 1
        assert counters["query.boolean"] == 1

    def test_plan_cache_counters_reach_session_metrics(self):
        with repro.connect(_database(), engine="plan") as session:
            query = session.query(QUERY)
            query.certain()
            query.certain()
            stats = session.plan_cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        metrics = session.metrics()
        assert metrics["plan_cache"] == stats
        assert "kernel" in metrics

    def test_metrics_false_disables_recording(self):
        with repro.connect(_database(), metrics=False) as session:
            session.query(QUERY).certain()
            snapshot = session.metrics()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}

    def test_env_tracer_defaults_sessions_to_jsonl(self, tmp_path, monkeypatch):
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        with repro.connect(_database()) as session:
            assert isinstance(session.tracer.sink, JSONLSink)
            session.query(QUERY).certain()
        lines = path.read_text().strip().splitlines()
        assert any(json.loads(line)["name"] == "query.certain" for line in lines)

    def test_no_env_var_means_no_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with repro.connect(_database()) as session:
            assert session.tracer is None

    def test_sqlite_backend_spans_nest_under_entry(self):
        tracer = Tracer()
        with repro.connect(_database(), engine="sqlite", tracer=tracer) as session:
            session.query(QUERY).certain()
        spans = {s.name: s for s in tracer.spans()}
        assert "backend.evaluate" in spans
        entry = spans["query.certain"]
        backend = spans["backend.evaluate"]
        # The backend span hangs somewhere under the entry span.
        parents = {s.span_id: s.parent_id for s in tracer.spans()}
        cursor = backend.parent_id
        seen = set()
        while cursor is not None and cursor not in seen:
            if cursor == entry.span_id:
                break
            seen.add(cursor)
            cursor = parents.get(cursor)
        assert cursor == entry.span_id
        assert backend.attrs["rows"] >= 0

    def test_retry_attempts_are_counted(self):
        from repro.resilience import RetryPolicy, with_retries

        registry = MetricsRegistry()
        tracer = Tracer()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(
            retries=4, base_delay=0.0, retryable=lambda e: isinstance(e, OSError)
        )
        with entry_scope(tracer, registry, "query.certain"):
            result = with_retries(flaky, policy=policy, sleep=lambda _s: None)
        assert result == "ok"
        assert registry.counter_value("retry.attempts") == 2
        assert sum(1 for s in tracer.spans() if s.name == "retry.attempt") == 2
