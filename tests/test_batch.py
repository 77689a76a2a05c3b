"""Tests of the batch scenario engine (:mod:`repro.batch`)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchRunner,
    Scenario,
    ScenarioResult,
    load_scenarios,
    run_batch,
    save_results,
    scenarios_from_dict,
)
from repro.batch.scenarios import BatchError
from repro.core.chain import chain_makespan
from repro.core.spider import spider_schedule_deadline, spider_makespan
from repro.io.json_io import platform_to_dict
from repro.platforms.generators import random_chain, random_spider, random_star

from conftest import spiders


def _spider_dict(seed=1):
    return platform_to_dict(random_spider(3, 3, seed=seed))


class TestScenarioRecords:
    def test_roundtrip(self):
        sc = Scenario("s1", _spider_dict(), "deadline", n=5, t_lim=20)
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_makespan_needs_n(self):
        with pytest.raises(BatchError):
            Scenario("bad", _spider_dict(), "makespan")

    def test_deadline_needs_tlim(self):
        with pytest.raises(BatchError):
            Scenario("bad", _spider_dict(), "deadline")

    def test_unknown_kind_rejected(self):
        with pytest.raises(BatchError):
            Scenario("bad", _spider_dict(), "steady")

    def test_payload_parsing(self):
        payload = {
            "schema": 1,
            "scenarios": [
                {"id": "a", "platform": _spider_dict(), "kind": "makespan", "n": 3}
            ],
        }
        (sc,) = scenarios_from_dict(payload)
        assert sc.id == "a" and sc.n == 3

    def test_payload_without_list_rejected(self):
        with pytest.raises(BatchError):
            scenarios_from_dict({"schema": 1})


class TestRunnerCorrectness:
    def test_results_keep_input_order(self):
        p1, p2 = _spider_dict(1), _spider_dict(2)
        scs = [
            Scenario("a", p1, "deadline", t_lim=10),
            Scenario("b", p2, "makespan", n=3),
            Scenario("c", p1, "deadline", t_lim=20),
            Scenario("d", p1, "makespan", n=4),
        ]
        results = run_batch(scs)
        assert [r.scenario_id for r in results] == ["a", "b", "c", "d"]

    def test_matches_direct_solves(self):
        sp = random_spider(3, 3, seed=9)
        ch = random_chain(4, seed=9)
        scs = [
            Scenario("sp", platform_to_dict(sp), "makespan", n=7),
            Scenario("ch", platform_to_dict(ch), "makespan", n=7),
            Scenario("sp-d", platform_to_dict(sp), "deadline", t_lim=25),
        ]
        sp_r, ch_r, spd_r = run_batch(scs)
        assert sp_r.makespan == spider_makespan(sp, 7)
        assert ch_r.makespan == chain_makespan(ch, 7)
        assert spd_r.n_tasks == spider_schedule_deadline(sp, 25).n_tasks
        # a capacity ladder: one scenario per n on one 16-processor chain
        ladder = random_chain(16, seed=11)
        ns = [64, 128, 256, 512]
        results = run_batch([
            Scenario(f"n{n}", platform_to_dict(ladder), "makespan", n=n)
            for n in ns
        ])
        assert [r.makespan for r in results] == [
            chain_makespan(ladder, n) for n in ns
        ]

    @given(spiders(max_legs=3, max_depth=2), st.lists(st.integers(0, 30),
                                                      min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_warm_deadline_sweep_matches_cold_runs(self, sp, t_lims):
        """The descending-Tlim warm sweep must answer exactly like isolated
        cold runs — warm caps are a pure optimisation."""
        pdict = platform_to_dict(sp)
        scs = [
            Scenario(f"t{i}", pdict, "deadline", t_lim=t)
            for i, t in enumerate(t_lims)
        ]
        results = run_batch(scs)
        for t, r in zip(t_lims, results):
            cold = spider_schedule_deadline(sp, t)
            assert r.ok and r.n_tasks == cold.n_tasks
            assert r.makespan == cold.schedule.makespan

    def test_budgeted_and_unbudgeted_mix(self):
        """A budgeted scenario's caps must not clip a later unbudgeted one."""
        sp = random_spider(3, 2, seed=4)
        pdict = platform_to_dict(sp)
        scs = [
            Scenario("big", pdict, "deadline", t_lim=30, n=2),
            Scenario("small-unbounded", pdict, "deadline", t_lim=25),
        ]
        _, unbounded = run_batch(scs)
        assert unbounded.n_tasks == spider_schedule_deadline(sp, 25).n_tasks

    def test_star_scenarios(self):
        star = random_star(5, seed=3)
        scs = [
            Scenario("mk", platform_to_dict(star), "makespan", n=6),
            Scenario("dl", platform_to_dict(star), "deadline", t_lim=15),
        ]
        mk, dl = run_batch(scs)
        assert mk.ok and mk.n_tasks == 6
        assert dl.ok and dl.makespan <= 15
        # volunteer scale: 60 children, a deadline that fits real work
        wide = random_star(60, profile="volunteer", seed=83)
        (vol,) = run_batch([Scenario("vol", platform_to_dict(wide),
                                     "deadline", t_lim=120)])
        assert vol.ok and vol.n_tasks > 20

    def test_bad_scenario_does_not_sink_batch(self):
        pdict = _spider_dict()
        scs = [
            Scenario("good", pdict, "makespan", n=2),
            Scenario("bad", {"kind": "spider", "legs": []}, "makespan", n=2),
        ]
        good, bad = run_batch(scs)
        assert good.ok
        assert not bad.ok and bad.error and "spider" in bad.error

    def test_stats_surface_counters(self):
        (r,) = run_batch([Scenario("s", _spider_dict(), "makespan", n=6)])
        assert r.stats["probes"] >= 1
        assert r.stats["alloc_structure_ops"] > 0
        assert r.wall_s > 0


class TestRunnerModes:
    def _scenarios(self):
        return [
            Scenario(f"s{seed}-{t}", _spider_dict(seed), "deadline", t_lim=t)
            for seed in (1, 2, 3)
            for t in (24, 12, 6)
        ]

    def test_process_pool_matches_serial(self):
        scs = self._scenarios()
        serial = run_batch(scs, workers=1)
        procs = run_batch(scs, workers=2)
        assert [(r.scenario_id, r.n_tasks) for r in serial] == [
            (r.scenario_id, r.n_tasks) for r in procs
        ]

    def test_empty_batch_with_workers(self):
        assert run_batch([], workers=4) == []

    def test_single_platform_group_is_split_across_workers(self):
        """A one-platform sweep must still saturate the pool: the group is
        chunked (losing only cross-chunk warm caps), answers unchanged."""
        from repro.batch.runner import _split_for_workers

        pdict = _spider_dict(5)
        scs = [
            Scenario(f"t{t}", pdict, "deadline", t_lim=t)
            for t in range(30, 2, -3)
        ]
        units = _split_for_workers([list(enumerate(scs))], workers=4)
        assert len(units) == 4
        assert sorted(i for u in units for i, _ in u) == list(range(len(scs)))
        serial = run_batch(scs, workers=1)
        pooled = run_batch(scs, workers=4)
        assert [(r.scenario_id, r.n_tasks, r.makespan) for r in serial] == [
            (r.scenario_id, r.n_tasks, r.makespan) for r in pooled
        ]


class TestObsAcrossExecutors:
    """Worker-side metrics/spans must land in the parent registry."""

    def _scenarios(self):
        return [
            Scenario(f"s{seed}", _spider_dict(seed), "makespan", n=8)
            for seed in (1, 2, 3, 4)
        ]

    def _dispatches(self):
        from repro.obs import metrics as obs_metrics

        counters = obs_metrics.snapshot()["counters"]
        return sum(
            v for k, v in counters.items() if k.startswith("solve.dispatch")
        )

    def test_process_pool_merges_worker_metrics(self):
        from repro.obs import metrics as obs_metrics

        scs = self._scenarios()
        kernel_before = obs_metrics.counter(
            "solve_kernel.kernel_solves"
        ).value
        dispatch_before = self._dispatches()
        results = run_batch(scs, workers=2)
        assert all(r.ok for r in results)
        # the solves ran in pool workers, yet both the dispatch counters
        # and the kernel-stat family advanced in *this* process
        assert self._dispatches() == dispatch_before + len(scs)
        assert (
            obs_metrics.counter("solve_kernel.kernel_solves").value
            >= kernel_before + len(scs)
        )

    def test_process_pool_ships_worker_spans(self):
        from repro.obs import tracing as obs_tracing

        prev = obs_tracing.set_tracing(True)
        obs_tracing.clear_spans()
        try:
            run_batch(self._scenarios(), workers=2)
            spans = obs_tracing.take_spans()
        finally:
            obs_tracing.set_tracing(prev)
            obs_tracing.clear_spans()
        solve_spans = [s for s in spans if s["name"] == "solve"]
        assert len(solve_spans) >= 4
        # every solve ran in a pool worker, so every span carries a
        # foreign pid — proof they crossed the process boundary
        import os

        assert all(s["pid"] != os.getpid() for s in solve_spans)

    def test_serial_counts_once_per_scenario(self):
        before = self._dispatches()
        run_batch(self._scenarios(), workers=1)
        assert self._dispatches() == before + 4


class TestSerialisation:
    def test_results_roundtrip(self, tmp_path):
        results = run_batch(
            [Scenario("s", _spider_dict(), "deadline", t_lim=18)]
        )
        path = save_results(results, tmp_path / "res.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        back = [ScenarioResult.from_dict(d) for d in payload["results"]]
        assert back[0].scenario_id == "s"
        assert back[0].n_tasks == results[0].n_tasks

    def test_scenario_file_loading(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "x", "platform": _spider_dict(), "kind": "makespan", "n": 2}
            ],
        }))
        (sc,) = load_scenarios(path)
        assert sc.id == "x"


class TestTreeScenarios:
    """kind: "tree" platforms end-to-end through the registry dispatch."""

    def _tree_dict(self, seed=310):
        from repro.io.json_io import platform_to_dict
        from repro.platforms.generators import random_tree

        return platform_to_dict(random_tree(9, profile="cpu_heavy", seed=seed))

    def test_tree_deadline_end_to_end(self):
        (r,) = run_batch([
            Scenario("t", self._tree_dict(), "deadline", t_lim=90),
        ])
        assert r.ok and r.n_tasks > 0 and r.makespan <= 90
        assert r.rounds >= 1
        assert 0 < r.coverage <= 1

    def test_tree_makespan_end_to_end(self):
        (r,) = run_batch([
            Scenario("t", self._tree_dict(), "makespan", n=12),
        ])
        assert r.ok and r.n_tasks == 12

    def test_tree_options_flow_through(self):
        pdict = self._tree_dict()
        retired, plain, bad = run_batch([
            Scenario("retired", pdict, "deadline", t_lim=120,
                     options={"max_rounds": 1}),
            Scenario("plain", pdict, "deadline", t_lim=120),
            Scenario("bad", pdict, "deadline", t_lim=120,
                     options={"max_rounds": 0}),
        ])
        assert retired.ok and plain.ok and not bad.ok
        assert retired.rounds == plain.rounds == 1
        assert retired.n_tasks == plain.n_tasks
        assert "max_rounds" in bad.error

    def test_tree_results_serialise_rounds_and_coverage(self, tmp_path):
        import json

        results = run_batch([
            Scenario("t", self._tree_dict(), "deadline", t_lim=90),
        ])
        payload = json.loads(save_results(results, tmp_path / "r.json").read_text())
        row = payload["results"][0]
        assert row["rounds"] >= 1 and 0 < row["coverage"] <= 1
        back = ScenarioResult.from_dict(row)
        assert back.rounds == results[0].rounds
        assert back.coverage == results[0].coverage

    def test_unknown_platform_kind_is_a_clear_batch_error(self):
        with pytest.raises(BatchError, match="ring"):
            Scenario("bad", {"kind": "ring", "nodes": 3}, "makespan", n=2)

    def test_unclaimed_platform_type_reports_no_solver(self, monkeypatch):
        """If no registered solver claims the platform, the scenario fails
        with an error naming the registered solvers, without sinking the
        batch."""
        from repro.platforms.tree import Tree
        from repro.solve import registry

        monkeypatch.setitem(
            registry.__dict__, "_REGISTRY",
            {k: v for k, v in registry._REGISTRY.items() if k[1] is not Tree},
        )
        good_dict = _spider_dict()
        bad, good = run_batch([
            Scenario("bad", self._tree_dict(), "makespan", n=2),
            Scenario("good", good_dict, "makespan", n=2),
        ])
        assert good.ok
        assert not bad.ok and "no registered solver" in bad.error

    def test_bad_tree_option_fails_that_scenario_only(self):
        pdict = self._tree_dict()
        bad, good = run_batch([
            Scenario("bad", pdict, "makespan", n=2, options={"wat": 1}),
            Scenario("good", pdict, "makespan", n=2),
        ])
        assert not bad.ok and "wat" in bad.error
        assert good.ok


class TestCachedBatch:
    """run_batch(cache=...): offline scenarios served from the store."""

    def _scenarios(self):
        from repro.platforms.chain import Chain
        from repro.platforms.spider import Spider

        legs = [Chain([2, 3], [3, 5]), Chain([1], [4])]
        a = platform_to_dict(Spider(legs))
        b = platform_to_dict(Spider(legs[::-1]))  # relabeled isomorph
        return [
            Scenario("a-mk", a, "makespan", n=8),
            Scenario("b-mk", b, "makespan", n=8),
            Scenario("a-dl", a, "deadline", t_lim=30),
            Scenario("on", a, "online", n=4,
                     options={"policy": "round_robin"}),
        ]

    def test_live_store_serial(self):
        from repro.service import SolutionStore

        store = SolutionStore()
        results = run_batch(self._scenarios(), cache=store, validate=True)
        by_id = {r.scenario_id: r for r in results}
        assert all(r.ok for r in results)
        # the relabeled spider is a hit; answers agree bit-exactly
        assert by_id["a-mk"].cached is False
        assert by_id["b-mk"].cached is True
        assert by_id["b-mk"].makespan == by_id["a-mk"].makespan
        # online scenarios never consult the cache
        assert by_id["on"].cached is None
        assert store.stats.writes == 2  # a-mk + a-dl

    def test_results_identical_with_and_without_cache(self):
        from repro.service import SolutionStore

        scenarios = self._scenarios()[:3]  # offline only (online re-runs sim)
        plain = run_batch(scenarios)
        cached = run_batch(scenarios, cache=SolutionStore())
        for p, c in zip(plain, cached):
            assert (p.scenario_id, p.makespan, p.n_tasks) == (
                c.scenario_id, c.makespan, c.n_tasks
            )

    def test_path_cache_shared_across_runs(self, tmp_path):
        path = tmp_path / "batch.sqlite"
        first = run_batch(self._scenarios(), cache=path)
        second = run_batch(self._scenarios(), cache=path)
        assert sum(bool(r.cached) for r in first) == 1
        assert sum(bool(r.cached) for r in second) == 3  # all offline rows
        assert all(r.ok for r in first + second)

    def test_process_pool_rejects_live_store(self):
        from repro.service import SolutionStore

        runner = BatchRunner(workers=2, cache=SolutionStore())
        with pytest.raises(BatchError, match="store \\*path\\*"):
            runner.run(self._scenarios())

    def test_process_pool_accepts_path(self, tmp_path):
        results = run_batch(self._scenarios(), workers=2,
                            cache=str(tmp_path / "proc.sqlite"))
        assert all(r.ok for r in results)

    def test_cached_flag_roundtrips_results_json(self, tmp_path):
        from repro.service import SolutionStore

        results = run_batch(self._scenarios(), cache=SolutionStore())
        path = save_results(results, tmp_path / "r.json")
        loaded = json.loads(path.read_text())["results"]
        by_id = {r["scenario_id"]: r for r in loaded}
        assert by_id["b-mk"]["cached"] is True
        assert "cached" not in by_id["on"]
        back = [ScenarioResult.from_dict(r) for r in loaded]
        assert [r.cached for r in back] == [r.cached for r in results]
