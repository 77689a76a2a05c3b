"""Tests for the observability layer: registry, spans, merges, views."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import (
    LATENCY_EDGES_MS,
    MetricsRegistry,
    diff_snapshots,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounters:
    def test_counter_get_or_create(self, registry):
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter("a").value == 5

    def test_labels_make_distinct_series(self, registry):
        registry.counter("d", solver="spider").inc()
        registry.counter("d", solver="chain").inc(2)
        assert registry.counter("d", solver="spider").value == 1
        assert registry.counter("d", solver="chain").value == 2

    def test_label_order_is_canonical(self, registry):
        registry.counter("d", b=1, a=2).inc()
        assert registry.counter("d", a=2, b=1).value == 1
        assert "d{a=2,b=1}" in registry.snapshot()["counters"]

    def test_set_enabled_noops_mutation(self, registry):
        prev = obs_metrics.set_enabled(False)
        try:
            registry.counter("k").inc()
            registry.histogram("h").observe(1.0)
        finally:
            obs_metrics.set_enabled(prev)
        snap = registry.snapshot()
        assert snap["counters"]["k"] == 0
        assert snap["histograms"]["h"]["count"] == 0


class TestHistograms:
    def test_buckets_and_overflow(self, registry):
        h = registry.histogram("h", edges=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]
        assert h.count == 4 and h.min == 0.5 and h.max == 50.0

    def test_percentile_is_bucket_upper_edge(self, registry):
        h = registry.histogram("h", edges=(1.0, 10.0, 100.0))
        for v in [0.5] * 50 + [5.0] * 45 + [50.0] * 5:
            h.observe(v)
        assert h.percentile(0.50) == 1.0
        assert h.percentile(0.95) == 10.0
        assert h.percentile(0.99) == 100.0

    def test_percentile_overflow_reports_max(self, registry):
        h = registry.histogram("h", edges=(1.0,))
        h.observe(500.0)
        assert h.percentile(0.99) == 500.0

    def test_empty_percentile_is_none(self, registry):
        assert registry.histogram("h").percentile(0.5) is None

    def test_default_edges_are_the_latency_ladder(self, registry):
        assert registry.histogram("h").edges == LATENCY_EDGES_MS


class TestSnapshotMergeDiff:
    def test_snapshot_is_json_roundtrippable(self, registry):
        registry.counter("c").inc(3)
        registry.histogram("h", edges=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"]["c"] == 3
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_merge_adds_counters_and_buckets(self, registry):
        other = MetricsRegistry()
        other.counter("c").inc(2)
        other.histogram("h", edges=(1.0,)).observe(0.5)
        registry.counter("c").inc(1)
        registry.histogram("h", edges=(1.0,)).observe(5.0)
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["histograms"]["h"]["counts"] == [1, 1]
        assert snap["histograms"]["h"]["min"] == 0.5
        assert snap["histograms"]["h"]["max"] == 5.0

    def test_snapshot_holds_counters_and_histograms_only(self, registry):
        registry.counter("c").inc()
        assert set(registry.snapshot()) == {"counters", "histograms"}
        assert set(diff_snapshots({}, registry.snapshot())) == {
            "counters", "histograms"}

    def test_merge_ignores_an_older_snapshots_gauges(self, registry):
        registry.merge({"counters": {"c": 2}, "gauges": {"pool.size": 8},
                        "histograms": {}})
        assert registry.snapshot() == {"counters": {"c": 2},
                                       "histograms": {}}

    def test_merge_rejects_mismatched_edges(self, registry):
        other = MetricsRegistry()
        other.histogram("h", edges=(2.0,)).observe(1.0)
        registry.histogram("h", edges=(1.0,))
        with pytest.raises(ValueError, match="cannot merge edges"):
            registry.merge(other.snapshot())

    def test_diff_then_merge_never_double_counts(self, registry):
        # the worker loop: repeated (snapshot, work, diff, ship) windows
        worker = MetricsRegistry()
        parent_total = 0
        for round_hits in (3, 2, 4):
            before = worker.snapshot()
            worker.counter("hits").inc(round_hits)
            delta = diff_snapshots(before, worker.snapshot())
            registry.merge(delta)
            parent_total += round_hits
        assert registry.counter("hits").value == parent_total == 9

    def test_diff_drops_unchanged_series(self, registry):
        registry.counter("quiet").inc(5)
        before = registry.snapshot()
        registry.counter("busy").inc()
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"busy": 1}

    def test_reset_by_prefix(self, registry):
        registry.counter("a.x").inc()
        registry.counter("b.x").inc()
        registry.reset("a.")
        snap = registry.snapshot()
        assert "a.x" not in snap["counters"]
        assert snap["counters"]["b.x"] == 1


class TestCounterGroup:
    def test_dict_view_matches_declaration_order(self, registry):
        group = registry.counter_group("fam", ("hits", "misses"))
        group.inc("misses")
        group.inc("hits", 3)
        assert group.to_dict() == {"hits": 3, "misses": 1}

    def test_reset_zeroes_without_forgetting(self, registry):
        group = registry.counter_group("fam", ("hits",))
        group.inc("hits", 2)
        group.reset()
        assert group.to_dict() == {"hits": 0}
        assert "fam.hits" in registry.snapshot()["counters"]


class TestMigratedFamilies:
    def test_compile_stats_is_a_registry_view(self):
        from repro.core.compiled import clear_compile_cache, compile_stats
        from repro.platforms.chain import Chain
        from repro.sim.replay_fast import verify_schedule
        from repro.solve import Problem, solve

        clear_compile_cache()
        sol = solve(Problem(Chain([2, 3], [3, 5]), "makespan", n=8))
        verify_schedule(sol.schedule)
        stats = compile_stats()
        assert stats["compiles"] >= 1
        for key in ("compiles", "binds"):
            assert obs_metrics.counter(f"compile.{key}").value == stats[key]

    def test_store_stats_mirror_into_global_counters(self, tmp_path):
        from repro.service.store import SolutionStore
        from repro.platforms.chain import Chain
        from repro.solve import Problem, solve

        before = obs_metrics.counter("store.writes").value
        store = SolutionStore()
        sol = solve(Problem(Chain([2, 3], [3, 5]), "makespan", n=8))
        store.put("fp", sol)
        assert store.stats.writes == 1  # per-instance stays canonical
        assert obs_metrics.counter("store.writes").value == before + 1

    def test_spider_run_totals_accumulate_globally(self):
        from repro.platforms.chain import Chain
        from repro.platforms.spider import Spider
        from repro.solve import Problem, solve

        before = obs_metrics.counter("spider.legs_scheduled").value
        sol = solve(
            Problem(Spider([Chain([2], [3]), Chain([1], [4])]),
                    "makespan", n=6),
        )
        legs = sol.stats["legs_scheduled"]
        assert legs >= 1
        assert (obs_metrics.counter("spider.legs_scheduled").value
                == before + legs)

    def test_solve_dispatch_is_counted(self):
        from repro.platforms.chain import Chain
        from repro.solve import Problem, solve

        counter = obs_metrics.counter(
            "solve.dispatch", solver="chain", mode="offline",
            kind="makespan",
        )
        before = counter.value
        solve(Problem(Chain([2, 3], [3, 5]), "makespan", n=8))
        assert counter.value == before + 1


class TestTracing:
    @pytest.fixture(autouse=True)
    def _tracing_on(self):
        prev = obs_tracing.set_tracing(True)
        obs_tracing.clear_spans()
        yield
        obs_tracing.set_tracing(prev)
        obs_tracing.clear_spans()

    def test_off_by_default_returns_shared_noop(self):
        obs_tracing.set_tracing(False)
        a = obs_tracing.span("x")
        b = obs_tracing.span("y", any="attr")
        assert a is b  # one shared no-op object: no allocation when off
        with a:
            pass
        assert obs_tracing.spans() == []

    def test_parent_child_nesting(self):
        with obs_tracing.span("outer", kind="makespan"):
            with obs_tracing.span("inner"):
                pass
        inner, outer = obs_tracing.spans()  # inner closes first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "makespan"}
        assert inner["dur_s"] >= 0 and inner["start_s"] >= 0

    def test_siblings_share_a_parent(self):
        with obs_tracing.span("root"):
            with obs_tracing.span("a"):
                pass
            with obs_tracing.span("b"):
                pass
        a, b, root = obs_tracing.spans()
        assert a["parent"] == root["id"] and b["parent"] == root["id"]

    def test_take_spans_drains(self):
        with obs_tracing.span("x"):
            pass
        taken = obs_tracing.take_spans()
        assert [s["name"] for s in taken] == ["x"]
        assert obs_tracing.spans() == []

    def test_add_spans_appends_foreign_records(self):
        obs_tracing.add_spans([{"id": 1, "parent": None, "name": "w",
                                "pid": 999, "start_s": 0.0, "dur_s": 0.1,
                                "attrs": {}}])
        assert obs_tracing.spans()[0]["pid"] == 999

    def test_buffer_is_bounded(self):
        obs_tracing.add_spans(
            {"id": i, "parent": None, "name": "s", "pid": 1,
             "start_s": 0.0, "dur_s": 0.0, "attrs": {}}
            for i in range(obs_tracing.SPAN_CAPACITY + 50)
        )
        assert len(obs_tracing.spans()) == obs_tracing.SPAN_CAPACITY

    def test_export_spans_writes_json_lines(self, tmp_path):
        with obs_tracing.span("solve", solver="spider"):
            pass
        path = tmp_path / "spans.jsonl"
        assert obs_tracing.export_spans(path) == 1
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        assert record["name"] == "solve"
        assert record["attrs"] == {"solver": "spider"}

    def test_solve_emits_a_span(self):
        from repro.platforms.chain import Chain
        from repro.solve import Problem, solve

        solve(Problem(Chain([2, 3], [3, 5]), "makespan", n=8))
        names = [s["name"] for s in obs_tracing.spans()]
        assert "solve" in names
