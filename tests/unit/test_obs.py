"""The unified telemetry layer (ISSUE-8 tentpole).

Registry primitives and collector merging, span tracing (no-op fast
path, nesting, capture windows, JSON-lines sinks), per-query cost
profiles, and the exporters.  Component integration — sessions, stores
and the CLI publishing into the registry — is covered in
``test_session.py`` / ``test_store.py`` / ``test_cli.py``; the
Hypothesis guarantee that tracing never changes answers lives in
``tests/property/test_prop_obs.py``.
"""

import math

import pytest

from repro.obs import (
    NULL_SPAN,
    CostProfile,
    MetricsRegistry,
    Sample,
    Tracer,
    build_profiles,
    capture,
    disable_tracing,
    enable_tracing,
    get_registry,
    metrics_table,
    prometheus_text,
    read_spans_jsonl,
    render_span_dicts,
    span,
    take_spans,
    tracing_enabled,
    write_spans_jsonl,
)
from repro.prob import QuerySession, query_answer
from repro.workloads.synthetic import batch_workload


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends on the disabled fast path."""
    was_enabled = tracing_enabled()
    disable_tracing()
    take_spans()
    yield
    disable_tracing()
    take_spans()
    if was_enabled:  # pragma: no cover - REPRO_TRACE=1 runs
        enable_tracing()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", help="a test count")
        counter.inc()
        counter.inc(4)
        assert registry.counter("repro_test_total") is counter
        assert registry.snapshot() == {"repro_test_total": 5}

    def test_labelled_children_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", {"kind": "a"}).inc(1)
        registry.counter("repro_x_total", {"kind": "b"}).inc(2)
        assert registry.snapshot() == {
            "repro_x_total{kind=a}": 1,
            "repro_x_total{kind=b}": 2,
        }

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.read() == 8

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_probe_seconds", buckets=(0.001, 0.1)
        )
        for value in (0.0005, 0.05, 0.05, 5.0):
            histogram.observe(value)
        reading = histogram.read()
        assert reading["count"] == 4
        assert math.isclose(reading["sum"], 5.1005)
        assert reading["buckets"] == {0.001: 1, 0.1: 3}

    def test_collector_samples_merge_with_direct(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total").inc(10)
        registry.register_collector(
            lambda: [Sample("repro_hits_total", "counter", (), 32)]
        )
        assert registry.snapshot() == {"repro_hits_total": 42}

    def test_reset_zeroes_direct_metrics(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(7)
        registry.histogram("repro_b_seconds").observe(0.5)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["repro_a_total"] == 0
        assert snapshot["repro_b_seconds"]["count"] == 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_span_is_the_falsy_null_span(self):
        sp = span("anything", queries=3)
        assert sp is NULL_SPAN
        assert not sp
        with sp:
            sp.set("key", "value")
            sp.inc("count")
        assert take_spans() == []

    def test_enabled_spans_nest_and_record(self):
        enable_tracing()
        with span("outer", queries=2) as outer:
            with span("inner") as inner:
                inner.inc("visits", 5)
            outer.set("answers", 1)
        roots = take_spans()
        assert [root.name for root in roots] == ["outer"]
        root = roots[0]
        assert root.attrs == {"queries": 2, "answers": 1}
        assert [child.name for child in root.children] == ["inner"]
        assert root.children[0].attrs == {"visits": 5}
        assert root.duration >= root.children[0].duration >= 0.0

    def test_exception_unwinds_through_open_spans(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        (root,) = take_spans()
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["inner"]

    def test_root_ring_drops_oldest(self):
        tracer = Tracer(max_roots=2)
        tracer.enabled = True
        for index in range(4):
            with tracer.span("s", index=index):
                pass
        assert tracer.dropped == 2
        assert [root.attrs["index"] for root in tracer.take()] == [2, 3]

    def test_capture_restores_disabled_state(self):
        with capture() as cap:
            assert tracing_enabled()
            with span("captured"):
                pass
        assert not tracing_enabled()
        assert [root.name for root in cap.spans] == ["captured"]
        assert take_spans() == []  # drained by the capture window

    def test_capture_keeps_outside_roots(self):
        enable_tracing()
        with span("before"):
            pass
        with capture() as cap:
            with span("inside"):
                pass
        assert [root.name for root in cap.spans] == ["inside"]
        assert [root.name for root in take_spans()] == ["before"]
        assert tracing_enabled()  # restored to the prior enabled state

    def test_span_counter_publishes_to_registry(self):
        before = get_registry().snapshot().get("repro_trace_spans_total", 0)
        enable_tracing()
        with span("one"):
            pass
        take_spans()
        after = get_registry().snapshot()["repro_trace_spans_total"]
        assert after == before + 1

    def test_sink_streams_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        enable_tracing(sink=path)
        with span("root", queries=1):
            with span("child"):
                pass
        disable_tracing()
        (entry,) = read_spans_jsonl(path)
        assert entry["name"] == "root"
        assert entry["attrs"] == {"queries": 1}
        assert [child["name"] for child in entry["children"]] == ["child"]


# ----------------------------------------------------------------------
# Cost profiles
# ----------------------------------------------------------------------
class TestProfiles:
    def test_profiles_split_wall_time_evenly(self):
        enable_tracing()
        with span("session.answer_many", queries=2) as sp:
            sp.inc("node_visits", 8)
        roots = take_spans()
        total = sum(root.duration for root in roots)
        profiles = build_profiles(roots, ["q0", "q1"])
        assert [profile.label for profile in profiles] == ["q0", "q1"]
        assert math.isclose(sum(p.wall_s for p in profiles), total)
        assert math.isclose(sum(p.share for p in profiles), 1.0)
        for profile in profiles:
            assert profile.batch_queries == 2
            rendered = profile.render()
            assert profile.label in rendered
            as_dict = profile.to_dict()
            assert as_dict["label"] == profile.label
            assert math.isclose(as_dict["wall_s"], profile.wall_s)

    def test_session_profile_matches_plain_answers(self):
        p, queries = batch_workload(persons=6, projects=2, seed=1)
        session = QuerySession(p)
        expected = session.answer_many(queries)
        answers, profiles = session.answer_many(queries, profile=True)
        assert answers == expected
        assert not tracing_enabled()  # profiling never leaks the switch
        assert len(profiles) == len(queries)
        assert all(isinstance(p_, CostProfile) for p_ in profiles)
        assert [p_.label for p_ in profiles] == [q.xpath() for q in queries]
        assert all(p_.wall_s >= 0.0 for p_ in profiles)

    def test_batch_memo_replay_is_labelled(self):
        # A replayed batch is a cache replay, not an evaluation: its span
        # says so and carries no traversal child.
        p, queries = batch_workload(persons=4, projects=2, seed=1)
        session = QuerySession(p)
        expected = session.answer_many(queries)
        enable_tracing()
        assert session.answer_many(queries) == expected
        (root,) = take_spans()
        assert root.name == "session.answer_many"
        assert root.attrs.get("memo_replay") is True
        assert not root.children

    def test_query_answer_profile_matches_plain_answer(self):
        p, queries = batch_workload(persons=4, projects=1, seed=2)
        q = queries[0]
        expected = query_answer(p, q)
        answer, profile = query_answer(p, q, profile=True)
        assert answer == expected
        assert profile.label == q.xpath()
        assert profile.wall_s >= 0.0
        assert "engine.answer" in {entry["name"] for entry in profile.spans}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_hits_total", {"kind": "memory"}, help="memo hits"
        ).inc(3)
        registry.histogram("repro_probe_seconds", buckets=(0.1,)).observe(0.05)
        return registry

    def test_metrics_table_lists_every_sample(self):
        table = metrics_table(self._registry())
        assert "repro_hits_total{kind=memory}" in table
        assert "3" in table
        assert "count=1" in table

    def test_metrics_table_empty_registry(self):
        assert metrics_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_prometheus_text_format(self):
        text = prometheus_text(self._registry())
        assert "# HELP repro_hits_total memo hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{kind="memory"} 3' in text
        assert "# TYPE repro_probe_seconds histogram" in text
        assert 'repro_probe_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_probe_seconds_count 1" in text

    def test_spans_jsonl_roundtrip(self, tmp_path):
        enable_tracing()
        with span("a", n=1):
            with span("b"):
                pass
        with span("c"):
            pass
        roots = take_spans()
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(roots, path) == 2
        assert read_spans_jsonl(path) == [root.to_dict() for root in roots]

    def test_render_span_dicts_indents_children(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        rendered = render_span_dicts(take_spans())
        lines = rendered.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
