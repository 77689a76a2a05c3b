"""The unified execution layer: replay validation, the online solver, and
the mode-keyed registry dispatch.

The centrepiece is the seeded property sweep: every registered offline
solver's `Solution` — chain, star, spider, tree; makespan and deadline —
must pass `Solution.validate()` and replay through the discrete-event
executor (`Solution.replay()`), which independently enforces port
serialisation, relay-FIFO forwarding and CPU cadence, reproducing the
claimed makespan bit-exactly.
"""

import pytest

from repro.batch import Scenario, run_batch
from repro.core.commvector import CommVector
from repro.core.schedule import Schedule, TaskAssignment, adapter_for
from repro.core.types import EventBudgetExceeded, SimulationError
from repro.io.json_io import platform_to_dict
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.star import Star
from repro.sim.engine import Simulator
from repro.sim.online import ONLINE_POLICIES
from repro.solve import (
    Problem,
    Solution,
    SolveError,
    ValidationError,
    solve,
    solver_for,
)

#: one generator per platform family — the replay sweep runs all of them.
GENERATORS = {
    "chain": lambda seed: random_chain(4, profile="balanced", seed=seed),
    "star": lambda seed: random_star(5, profile="volunteer", seed=seed),
    "spider": lambda seed: random_spider(3, 3, profile="comm_bound", seed=seed),
    "tree": lambda seed: random_tree(7, profile="cpu_heavy", seed=seed),
}

SEEDS = range(40, 48)


class TestReplayValidation:
    """Satellite: seeded replay property over every registered solver."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_makespan_solutions_replay_bit_exact(self, family, seed):
        platform = GENERATORS[family](seed)
        sol = solve(Problem(platform, "makespan", n=9))
        sol.validate()  # raises on any replay violation
        trace = sol.replay()
        assert trace.makespan == sol.makespan
        assert trace.tasks_completed() == sol.n_tasks == 9

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deadline_solutions_replay_within_tlim(self, family, seed):
        platform = GENERATORS[family](seed)
        # a horizon generous enough that every family schedules something
        t_lim = 4 * solve(Problem(platform, "makespan", n=4)).makespan
        sol = solve(Problem(platform, "deadline", t_lim=t_lim))
        sol.validate()
        trace = sol.replay()
        assert trace.makespan == sol.makespan
        assert sol.makespan <= t_lim

    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_online_solutions_replay_bit_exact(self, policy):
        platform = random_spider(3, 2, seed=11)
        sol = solve(Problem(platform, "makespan", n=8, mode="online",
                            options={"policy": policy}))
        sol.validate()
        trace = sol.replay()
        assert trace.makespan == sol.makespan

    def test_replay_returns_fresh_trace(self):
        sol = solve(Problem(random_chain(3, seed=1), "makespan", n=5))
        trace = sol.replay()
        assert trace.makespan == sol.makespan
        assert trace is not sol.trace  # offline solutions had no trace

    def test_validate_rejects_port_conflict(self):
        """A hand-corrupted schedule must not survive replay."""
        star = Star([(2, 3), (2, 5)])
        sol = solve(Problem(star, "makespan", n=4))
        victim = max(sol.schedule.tasks())
        a = sol.schedule[victim]
        # drag the last task's emission onto the master's busy port
        sol.schedule = Schedule(sol.schedule.platform, {
            **sol.schedule.assignments,
            victim: TaskAssignment(a.task, a.processor, a.start, CommVector([0])),
        })
        with pytest.raises(ValidationError):
            sol.validate()

    def test_validate_rejects_missed_deadline(self):
        chain = Chain(c=(2,), w=(3,))
        good = solve(Problem(chain, "makespan", n=3))
        lying = Solution(
            Problem(chain, "deadline", t_lim=good.makespan - 1),
            good.schedule, "chain",
        )
        with pytest.raises(ValidationError, match="missed the deadline"):
            lying.validate()

    def test_trace_only_solution_cannot_replay(self):
        sol = solve(Problem(random_star(3, seed=5), "makespan", n=6,
                            mode="online",
                            options={"failures": [{"time": 4, "processor": 1}]}))
        assert sol.schedule is None
        sol.validate()  # trace exclusivity re-check passes
        with pytest.raises(SolveError, match="trace-only"):
            sol.replay()


class TestOnlineSolverDispatch:
    def test_mode_axis_resolves_different_solvers(self):
        spider = random_spider(2, 2, seed=3)
        assert solver_for(spider).name == "spider"
        assert solver_for(spider, "online").name == "online"

    def test_every_platform_family_answers_online(self):
        for family, gen in GENERATORS.items():
            sol = solve(Problem(gen(1), "makespan", n=5, mode="online"))
            assert sol.solver == "online", family
            assert sol.n_tasks == 5

    def test_online_never_beats_offline(self):
        for seed in range(30, 36):
            spider = random_spider(3, 2, seed=seed)
            off = solve(Problem(spider, "makespan", n=10))
            for policy in ONLINE_POLICIES:
                on = solve(Problem(spider, "makespan", n=10, mode="online",
                                   options={"policy": policy}))
                assert on.makespan >= off.makespan

    def test_unknown_policy_rejected(self):
        with pytest.raises(SolveError, match="warp_speed"):
            solve(Problem(random_chain(2, seed=1), "makespan", n=3,
                          mode="online", options={"policy": "warp_speed"}))

    def test_unknown_option_rejected(self):
        with pytest.raises(SolveError, match="bogus"):
            solve(Problem(random_chain(2, seed=1), "makespan", n=3,
                          mode="online", options={"bogus": 1}))

    def test_online_deadline_kind_rejected(self):
        with pytest.raises(SolveError, match="deadline"):
            solve(Problem(random_chain(2, seed=1), "deadline", t_lim=20,
                          mode="online"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(SolveError, match="sideline"):
            Problem(random_chain(2, seed=1), "makespan", n=2, mode="sideline")

    def test_arrivals_flow_through(self):
        star = random_star(3, seed=2)
        burst = solve(Problem(star, "makespan", n=4, mode="online",
                              options={"arrivals": [0, 0, 50, 50]}))
        assert burst.makespan >= 50

    def test_failure_run_reports_reissues(self):
        spider = random_spider(2, 2, seed=8)
        sol = solve(Problem(spider, "makespan", n=12, mode="online",
                            options={"failures": [
                                {"time": 6, "processor": [1, 1]}]}))
        assert sol.stats["completed"] == 12
        assert sol.stats["attempts"] >= 12
        assert (1, 1) not in sol.extra["survivors"]

    def test_malformed_failure_spec_rejected(self):
        with pytest.raises(SolveError, match="time"):
            solve(Problem(random_star(3, seed=2), "makespan", n=4,
                          mode="online", options={"failures": [{"when": 3}]}))


class TestEventBudget:
    """Satellite: configurable max_events with a named overflow error."""

    def _livelock(self, sim):
        def loop(s):
            s.after(1, loop)
        sim.at(0, loop)

    def test_instance_budget(self):
        sim = Simulator(max_events=50)
        self._livelock(sim)
        with pytest.raises(EventBudgetExceeded) as err:
            sim.run()
        assert err.value.max_events == 50
        assert isinstance(err.value, SimulationError)  # old handlers still catch it

    def test_run_override_wins(self):
        sim = Simulator(max_events=10)
        seen = []
        for t in range(20):
            sim.at(t, lambda s: seen.append(s.now))
        sim.run(max_events=100)  # larger per-run budget: completes fine
        assert len(seen) == 20

    def test_invalid_budget_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(max_events=0)

    def test_online_solver_threads_the_option(self):
        with pytest.raises(EventBudgetExceeded):
            solve(Problem(random_chain(3, seed=1), "makespan", n=50,
                          mode="online", options={"max_events": 10}))


class TestAdapterHelpers:
    """Satellite: the deduplicated schedule-key helpers."""

    def test_master_port_per_family(self):
        assert adapter_for(random_chain(3, seed=1)).master_port() == 0
        assert adapter_for(random_star(3, seed=1)).master_port() == "master"
        assert adapter_for(random_spider(2, 2, seed=1)).master_port() == "master"
        tree = random_tree(4, seed=1)
        assert adapter_for(tree).master_port() == 0  # the root

    def test_route_cost_matches_explicit_sum(self):
        for gen in GENERATORS.values():
            adapter = adapter_for(gen(2))
            for proc in adapter.processors():
                assert adapter.route_cost(proc) == sum(
                    adapter.latency(l) for l in adapter.route(proc)
                )

    def test_route_nodes_end_at_the_processor(self):
        adapter = adapter_for(random_spider(2, 3, seed=2))
        for proc in adapter.processors():
            nodes = adapter.route_nodes(proc)
            assert nodes[-1] == proc
            assert len(nodes) == len(adapter.route(proc))


class TestBatchOnlineScenarios:
    def _spider_dict(self, seed=7):
        return platform_to_dict(random_spider(3, 2, seed=seed))

    def test_online_kind_end_to_end(self):
        pdict = self._spider_dict()
        off, on = run_batch([
            Scenario("off", pdict, "makespan", n=8),
            Scenario("on", pdict, "online", n=8,
                     options={"policy": "round_robin"}),
        ])
        assert off.ok and on.ok
        assert on.kind == "online"
        assert on.policy == "round_robin"
        assert on.makespan >= off.makespan
        assert on.n_tasks == 8

    def test_online_kind_needs_n(self):
        from repro.batch.scenarios import BatchError

        with pytest.raises(BatchError, match="online needs n"):
            Scenario("bad", self._spider_dict(), "online")

    def test_online_kind_rejects_tlim(self):
        """Policies have no deadline notion — a t_lim that would be
        silently ignored must fail loudly instead."""
        from repro.batch.scenarios import BatchError

        with pytest.raises(BatchError, match="no t_lim"):
            Scenario("bad", self._spider_dict(), "online", n=5, t_lim=10)

    def test_fault_scenarios_in_batch(self):
        (r,) = run_batch([
            Scenario("faulty", self._spider_dict(), "online", n=10,
                     options={"failures": [{"time": 5, "processor": [1, 1]}]}),
        ])
        assert r.ok
        assert r.n_tasks == 10
        assert r.stats["reissues"] >= 0 and r.stats["attempts"] >= 10

    def test_validate_flag_stamps_results(self):
        pdict = self._spider_dict()
        results = run_batch(
            [Scenario("a", pdict, "makespan", n=5),
             Scenario("b", pdict, "online", n=5)],
            validate=True,
        )
        assert all(r.ok and r.validated for r in results)
        plain = run_batch([Scenario("a", pdict, "makespan", n=5)])
        assert plain[0].validated is None

    def test_validated_roundtrips_through_json(self, tmp_path):
        import json

        from repro.batch import ScenarioResult, save_results

        results = run_batch(
            [Scenario("on", self._spider_dict(), "online", n=4)],
            validate=True,
        )
        payload = json.loads(
            save_results(results, tmp_path / "r.json").read_text()
        )
        row = payload["results"][0]
        assert row["validated"] is True and row["policy"] == "demand_driven"
        back = ScenarioResult.from_dict(row)
        assert back.validated and back.policy == "demand_driven"

    def test_mixed_group_warm_sweep_unaffected_by_online_rows(self):
        """Online scenarios in a spider group must not disturb the
        deadline sweep's warm-cap answers."""
        from repro.core.spider import spider_schedule_deadline

        sp = random_spider(3, 2, seed=4)
        pdict = platform_to_dict(sp)
        scs = [
            Scenario("on", pdict, "online", n=6),
            Scenario("d30", pdict, "deadline", t_lim=30),
            Scenario("d20", pdict, "deadline", t_lim=20),
        ]
        _, d30, d20 = run_batch(scs)
        assert d30.n_tasks == spider_schedule_deadline(sp, 30).n_tasks
        assert d20.n_tasks == spider_schedule_deadline(sp, 20).n_tasks


class TestRegret:
    def test_ratio_at_least_one(self):
        from repro.analysis import regret

        r = regret(random_spider(3, 2, seed=9), 12, "round_robin",
                   validate=True)
        assert r.ratio >= 1.0
        assert r.absolute == r.online_makespan - r.offline_makespan

    def test_table_covers_all_policies(self):
        from repro.analysis import DEFAULT_POLICIES, regret_table

        rows = regret_table(random_star(4, seed=3), 10)
        assert [r.policy for r in rows] == list(DEFAULT_POLICIES)
        assert all(r.ratio >= 1.0 for r in rows)

    def test_failures_cost_extra(self):
        from repro.analysis import regret

        clean = regret(random_spider(3, 2, seed=9), 12)
        faulty = regret(random_spider(3, 2, seed=9), 12,
                        failures=[{"time": 5, "processor": [1, 1]}])
        assert faulty.failures == 1
        assert faulty.online_makespan >= clean.online_makespan


class TestCliOnlineDispatch:
    def test_simulate_routes_through_registry(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--leg", "2/3,3/5", "--leg", "1/4",
                     "-n", "6", "--policy", "bandwidth_centric"]) == 0
        out = capsys.readouterr().out
        assert "policy: bandwidth_centric" in out
        assert "tasks: 6" in out

    def test_batch_workers_flag(self, capsys, tmp_path):
        import json

        from repro.cli import main

        pdict = platform_to_dict(random_spider(3, 2, seed=7))
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [
                {"id": "mk", "platform": pdict, "kind": "makespan", "n": 5},
                {"id": "on", "platform": pdict, "kind": "online", "n": 5},
            ],
        }))
        assert main(["batch", "--scenarios", str(path), "--workers", "2",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "2/2 scenarios ok" in out
        assert "replay-validated" in out
        # the pool is always processes: the old flavour flag is a usage error
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--scenarios", str(path), "--workers", "2",
                  "--executor", "threads"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_no_simulate_ladders_left(self):
        """Acceptance guard: the CLI's online verbs contain no direct
        simulator calls — everything dispatches through repro.solve."""
        import inspect

        import repro.cli as cli_mod

        source = inspect.getsource(cli_mod)
        assert "simulate_online(" not in source
