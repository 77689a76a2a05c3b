"""The compiled replay kernel: differential equivalence with the
event-driven executor, the compile cache, and the engine escape hatch.

The acceptance property of this PR: for every registered solver and for
random platforms, ``sim.replay_fast`` and ``sim.executor`` must agree on
accept/reject, on the emitted trace (bit-for-bit: same event order, same
busy intervals) and on the makespan — including mutated/corrupted
schedules, which must be *rejected* by both.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commvector import CommVector
from repro.core.compiled import (
    CompileError,
    CompiledPlatform,
    clear_compile_cache,
    compile_platform,
    compile_stats,
)
from repro.core.schedule import (
    PlatformAdapter,
    Schedule,
    TaskAssignment,
    adapter_for,
)
from repro.core.types import SimulationError
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.sim.executor import execute, verify_by_execution
from repro.sim.online import ONLINE_POLICIES
from repro.sim.replay_fast import (
    ENGINES,
    execute_fast,
    replay_schedule,
    resolve_engine,
    verify_fast,
    verify_schedule,
)
from repro.solve import Problem, ValidationError, solve

GENERATORS = {
    "chain": lambda seed: random_chain(5, profile="balanced", seed=seed),
    "star": lambda seed: random_star(6, profile="volunteer", seed=seed),
    "spider": lambda seed: random_spider(3, 3, profile="comm_bound", seed=seed),
    "tree": lambda seed: random_tree(8, profile="cpu_heavy", seed=seed),
}


def outcome(fn, schedule):
    """(\"ok\", trace) when the engine accepts, (\"err\", type) when not."""
    try:
        return "ok", fn(schedule)
    except SimulationError as exc:
        return "err", type(exc)


def assert_traces_identical(t1, t2):
    assert len(t1.events) == len(t2.events)
    assert t1.events == t2.events
    for a, b in zip(t1.events, t2.events):
        assert a.info == b.info  # info is excluded from Event.__eq__
    assert t1.busy == t2.busy
    assert t1.makespan == t2.makespan


class TestDifferentialAccept:
    """Accepted schedules: every registered solver, all platform families."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(60, 66))
    def test_makespan_solutions_bit_identical(self, family, seed):
        sol = solve(Problem(GENERATORS[family](seed), "makespan", n=9))
        assert_traces_identical(execute(sol.schedule), execute_fast(sol.schedule))

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(60, 64))
    def test_deadline_solutions_bit_identical(self, family, seed):
        platform = GENERATORS[family](seed)
        t_lim = 3 * solve(Problem(platform, "makespan", n=4)).makespan
        sol = solve(Problem(platform, "deadline", t_lim=t_lim))
        if sol.schedule.n_tasks == 0:
            pytest.skip("empty schedule at this deadline")
        assert_traces_identical(execute(sol.schedule), execute_fast(sol.schedule))

    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_online_solutions_bit_identical(self, policy):
        sol = solve(Problem(random_spider(3, 2, seed=13), "makespan", n=8,
                            mode="online", options={"policy": policy}))
        assert_traces_identical(execute(sol.schedule), execute_fast(sol.schedule))

    def test_verify_matches_verify_by_execution(self):
        sol = solve(Problem(random_tree(7, seed=3), "makespan", n=7))
        assert_traces_identical(
            verify_by_execution(sol.schedule), verify_fast(sol.schedule)
        )

    def test_empty_schedule(self):
        sched = Schedule(random_chain(3, seed=1))
        assert_traces_identical(execute(sched), execute_fast(sched))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_zero_latency_links_bit_identical(self, n):
        """The computing-master hatch (first link c=0) makes SEND_END land
        at the same instant as its own SEND_START — the executor emits the
        start first (the end is only scheduled once the start pops), and
        the reconstruction must preserve that order."""
        from repro.platforms.chain import Chain

        chain = Chain([1, 2], [2, 3]).with_computing_master(2)
        sol = solve(Problem(chain, "makespan", n=n))
        assert_traces_identical(execute(sol.schedule), execute_fast(sol.schedule))


def _mutate(schedule, mutation, task, delta):
    """Apply one corruption in place (bypassing construction checks, the
    way a buggy solver would)."""
    tasks = schedule.tasks()
    victim = tasks[task % len(tasks)]
    a = schedule.assignments[victim]
    times = list(a.comms.times)
    if mutation == "early_emit":
        times[0] = max(0, times[0] - delta)
    elif mutation == "negative_emit":
        times[-1] = -delta
    elif mutation == "swap_hops" and len(times) > 1:
        times[0], times[-1] = times[-1], times[0]
    elif mutation == "early_start":
        schedule.assignments[victim] = TaskAssignment(
            a.task, a.processor, max(0, a.start - delta), a.comms
        )
        return
    elif mutation == "negative_start":
        schedule.assignments[victim] = TaskAssignment(
            a.task, a.processor, -delta, a.comms
        )
        return
    elif mutation == "truncate_comms" and len(times) > 1:
        times = times[:-1]
    else:  # mutation not applicable to this shape: nudge the emission
        times[0] = times[0] + delta
    schedule.assignments[victim] = TaskAssignment(
        a.task, a.processor, a.start, CommVector(times)
    )


class TestDifferentialReject:
    """Corrupted schedules: both engines must agree on accept/reject, and
    still on the trace whenever the mutation happens to stay legal."""

    MUTATIONS = ("early_emit", "negative_emit", "swap_hops", "early_start",
                 "negative_start", "truncate_comms")

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(GENERATORS)),
        seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        mutation=st.sampled_from(MUTATIONS),
        task=st.integers(0, 9),
        delta=st.integers(1, 7),
    )
    def test_engines_agree(self, family, seed, n, mutation, task, delta):
        sol = solve(Problem(GENERATORS[family](seed), "makespan", n=n))
        schedule = copy.deepcopy(sol.schedule)
        _mutate(schedule, mutation, task, delta)
        kind_event, got_event = outcome(execute, schedule)
        kind_fast, got_fast = outcome(execute_fast, schedule)
        assert kind_event == kind_fast, (
            f"engines disagree on accept/reject: event={kind_event} "
            f"({got_event}), compiled={kind_fast} ({got_fast})"
        )
        if kind_event == "ok":
            assert_traces_identical(got_event, got_fast)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_family_rejected_identically(self, mutation):
        """A deterministic rejection per mutation kind (the hypothesis
        sweep above may not hit a rejecting example for each)."""
        sol = solve(Problem(random_spider(3, 3, seed=5), "makespan", n=8))
        schedule = copy.deepcopy(sol.schedule)
        # aggressive parameters so every mutation actually corrupts
        _mutate(schedule, mutation, 1, 5)
        kind_event, _ = outcome(execute, schedule)
        kind_fast, _ = outcome(execute_fast, schedule)
        assert kind_event == kind_fast

    def test_validate_rejects_through_compiled_engine(self):
        sol = solve(Problem(random_star(4, seed=2), "makespan", n=6))
        _mutate(sol.schedule, "early_emit", 2, 5)
        with pytest.raises(ValidationError):
            sol.validate(engine="compiled")
        with pytest.raises(ValidationError):
            sol.validate(engine="event")


class TestCompileCache:
    def test_isomorphs_share_one_core(self):
        clear_compile_cache()
        legs = [random_chain(3, seed=s) for s in (1, 2, 3)]
        from repro.platforms.spider import Spider

        a = Spider(legs)
        b = Spider(legs[::-1])  # relabeled isomorph
        ca, cb = compile_platform(a), compile_platform(b)
        stats = compile_stats()
        assert stats["core_misses"] == 1 and stats["core_hits"] == 1
        assert ca.fingerprint == cb.fingerprint
        # numeric arrays are literally shared; key tables are rebound
        assert ca.works is cb.works and ca.route_links is cb.route_links
        assert ca.procs != cb.procs

    def test_per_object_memo(self):
        platform = random_tree(6, seed=9)
        assert compile_platform(platform) is compile_platform(platform)

    def test_clear_invalidates_per_object_memo(self):
        platform = random_star(3, seed=4)
        first = compile_platform(platform)
        clear_compile_cache()
        second = compile_platform(platform)  # must recompile, not serve stale
        assert second is not first
        assert compile_stats()["core_misses"] == 1

    def test_compiled_arrays_match_adapter(self):
        for family, gen in GENERATORS.items():
            platform = gen(4)
            adapter = adapter_for(platform)
            cp = compile_platform(platform)
            for i, proc in enumerate(cp.procs):
                assert cp.works[i] == adapter.work(proc), family
                assert cp.route_cost[i] == adapter.route_cost(proc), family
                route = adapter.route(proc)
                assert [cp.link_keys[l] for l in cp.route_of(i)] == route
                assert [cp.port_keys[cp.sender_port[l]]
                        for l in cp.route_of(i)] == [
                    adapter.sender(link) for link in route
                ]
            assert cp.port_keys[0] == adapter.master_port()

    def test_uncanonicalisable_platform_compiles_directly(self):
        class FakePlatform:
            pass

        class FakeAdapter(PlatformAdapter):
            def __init__(self):
                self.platform = FakePlatform()

            def processors(self):
                return [1, 2]

            def work(self, proc):
                return 3

            def latency(self, link):
                return 2

            def route(self, proc):
                return [proc]

            def sender(self, link):
                return "hub"

            def receiver(self, link):
                return link

        adapter = FakeAdapter()
        clear_compile_cache()
        cp = compile_platform(adapter.platform, adapter)
        assert cp.fingerprint is None
        assert compile_stats()["direct"] == 1
        assert cp.route_cost == (2, 2)

    def test_unflattenable_adapter_raises_compile_error(self):
        class WeirdAdapter(PlatformAdapter):
            platform = object()

            def processors(self):
                return [1]

            def work(self, proc):
                return 1

            def latency(self, link):
                return 1

            def route(self, proc):
                return ["not-a-proc"]

            def sender(self, link):
                return "hub"

            def receiver(self, link):
                return "not-a-proc"

        with pytest.raises(CompileError):
            compile_platform(WeirdAdapter.platform, WeirdAdapter())


class TestEngineEscapeHatch:
    def test_resolve_engine(self):
        assert resolve_engine(None) == "compiled"
        assert resolve_engine("event") == "event"
        with pytest.raises(SimulationError, match="warp"):
            resolve_engine("warp")

    def test_validate_engine_param(self):
        sol = solve(Problem(random_chain(3, seed=1), "makespan", n=5))
        t_compiled = sol.validate()  # default: compiled
        t_event = sol.validate(engine="event")
        assert t_compiled.makespan == t_event.makespan
        assert t_compiled.events == t_event.events
        # a typo'd engine is a usage error, not the solver's fault
        with pytest.raises(SimulationError, match="warp"):
            sol.validate(engine="warp")

    def test_replay_engine_param(self):
        sol = solve(Problem(random_star(3, seed=1), "makespan", n=4))
        assert_traces_identical(sol.replay(engine="event"),
                                sol.replay(engine="compiled"))

    def test_lazy_trace_materialises_on_access(self):
        sol = solve(Problem(random_spider(2, 2, seed=1), "makespan", n=6))
        trace = verify_schedule(sol.schedule, lazy_trace=True)
        oracle = verify_by_execution(sol.schedule)
        assert trace.tasks_completed() == 6
        assert trace.makespan == oracle.makespan
        assert trace.events == oracle.events and trace.busy == oracle.busy
        # whole-object comparison must also hold, both ways around
        assert trace == oracle and oracle == trace

    def test_replay_schedule_unknown_engine(self):
        sol = solve(Problem(random_chain(2, seed=1), "makespan", n=2))
        with pytest.raises(SimulationError, match="unknown replay engine"):
            replay_schedule(sol.schedule, "bogus")

    def test_batch_validated_by_column(self):
        from repro.batch import Scenario, run_batch
        from repro.io.json_io import platform_to_dict

        pdict = platform_to_dict(random_spider(2, 2, seed=3))
        compiled_row, = run_batch(
            [Scenario("a", pdict, "makespan", n=4)], validate=True)
        assert compiled_row.validated and compiled_row.validated_by == "compiled"
        plain_row, = run_batch([Scenario("a", pdict, "makespan", n=4)])
        assert plain_row.validated_by is None
        # trace-only fault runs are checked by the exclusivity scan, and
        # must say so rather than claim a replay engine ran
        fault_row, = run_batch(
            [Scenario("f", pdict, "online", n=6,
                      options={"failures": [{"time": 4, "processor": [1, 1]}]})],
            validate=True)
        assert fault_row.ok and fault_row.validated_by == "trace"
        d = compiled_row.to_dict()
        assert d["validated_by"] == "compiled"
        from repro.batch import ScenarioResult

        assert ScenarioResult.from_dict(d).validated_by == "compiled"

    def test_cli_batch_prints_validated_by(self, capsys, tmp_path):
        import json

        from repro.cli import main
        from repro.io.json_io import platform_to_dict

        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenarios": [{
                "id": "mk", "kind": "makespan", "n": 3,
                "platform": platform_to_dict(random_chain(2, seed=1)),
            }],
        }))
        assert main(["batch", "--scenarios", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validated_by" in out and "compiled" in out


class TestRebindVerification:
    def test_cached_solve_verify_rebind(self):
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        store = SolutionStore()
        problem = Problem(random_star(5, seed=11), "makespan", n=6)
        miss = cached_solve(problem, store, verify_rebind=True)
        hit = cached_solve(problem, store, verify_rebind=True)
        assert not miss.cached and hit.cached
        assert hit.solution.makespan == miss.solution.makespan

    def test_corrupt_store_entry_is_caught_on_rebind(self):
        from repro.service.engine import cache_key, cached_solve
        from repro.service.store import SolutionStore

        problem = Problem(random_star(4, seed=3), "makespan", n=5)
        store = SolutionStore(validate_on_write=False)  # let corruption in
        fingerprint, canon = cache_key(problem)
        canonical = solve(Problem(canon.platform, "makespan", n=5))
        _mutate(canonical.schedule, "early_emit", 1, 6)
        store.put(fingerprint, canonical)
        # the corrupt hit is detected on rebind, quarantined, and answered
        # by a fresh solve instead of raising through the serving loop
        outcome = cached_solve(problem, store, verify_rebind=True)
        assert not outcome.cached
        outcome.solution.validate()
        # the fresh (valid) answer replaced the quarantined entry
        again = cached_solve(problem, store, verify_rebind=True)
        assert again.cached

    def test_service_verifies_rebinds_by_default(self):
        import asyncio

        from repro.service.engine import ScheduleService
        from repro.service.store import SolutionStore

        async def go():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                problem = Problem(random_spider(2, 2, seed=5), "makespan", n=6)
                first = await service.submit(problem)
                second = await service.submit(problem)
            finally:
                service._pool.shutdown(wait=True)
            return service, first, second

        service, first, second = asyncio.run(go())
        assert service.verify_rebinds
        assert not first.cached and second.cached


class TestSimulatorErrorContext:
    """Satellite: livelock/budget failures name the offending handler."""

    def test_at_in_the_past_reports_context(self):
        from repro.sim.engine import Simulator

        sim = Simulator()

        def naughty(s):
            s.at(s.now - 5, naughty)

        sim.at(3, lambda s: None)
        sim.at(2, naughty)
        with pytest.raises(SimulationError) as err:
            sim.run()
        message = str(err.value)
        assert "cannot schedule in the past" in message
        assert "1 events pending" in message
        assert "naughty" in message

    def test_seeding_phase_context(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.now = 4
        with pytest.raises(SimulationError, match="seeding phase"):
            sim.at(1, lambda s: None)

    def test_budget_error_carries_context(self):
        from repro.core.types import EventBudgetExceeded
        from repro.sim.engine import Simulator

        sim = Simulator(max_events=10)

        def loop(s):
            s.after(1, loop)

        sim.at(0, loop)
        with pytest.raises(EventBudgetExceeded) as err:
            sim.run()
        assert err.value.max_events == 10
        assert "loop" in err.value.context
        assert "pending" in str(err.value)


class TestAdapterMemos:
    """Satellite: per-adapter route memoization."""

    def test_route_cost_memoized_and_correct(self):
        for gen in GENERATORS.values():
            adapter = adapter_for(gen(2))
            for proc in adapter.processors():
                expected = sum(
                    adapter.latency(link) for link in adapter.route(proc)
                )
                assert adapter.route_cost(proc) == expected
                assert adapter.route_cost(proc) == expected  # memo hit

    def test_route_nodes_cached_identity(self):
        adapter = adapter_for(random_spider(2, 3, seed=2))
        for proc in adapter.processors():
            first = adapter.route_nodes(proc)
            assert adapter.route_nodes(proc) is first  # cached tuple
            assert first[-1] == proc

    def test_master_port_memoized(self):
        adapter = adapter_for(random_tree(5, seed=1))
        assert adapter.master_port() == adapter.master_port() == 0
