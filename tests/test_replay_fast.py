"""The array replay validator: differential equivalence with the
event-driven executor, the compiled platform a schedule carries, its
relabel on a rebind, and the replay contract.

For every registered solver and for random platforms,
``sim.replay_fast.verify_schedule`` (the validator every production
caller runs) and ``sim.executor.verify_by_execution`` (the oracle) must
agree on accept/reject and, on accept, on the makespan — exactly, in the
schedule's own number type — including mutated/corrupted schedules,
which must be *rejected* by both.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commvector import CommVector
from repro.core.chain import schedule_chain
from repro.core.compiled import (
    CompileError,
    clear_compile_cache,
    compile_platform,
    compile_stats,
)
from repro.core.schedule import (
    Columns,
    PlatformAdapter,
    Schedule,
    TaskAssignment,
    adapter_for,
)
from repro.core.feasibility import check
from repro.core.types import ScheduleError, SimulationError
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.sim.executor import execute, verify_by_execution
from repro.sim.online import ONLINE_POLICIES
from repro.sim.replay_fast import replay_stats, verify_schedule
from repro.solve import (
    Problem,
    Solution,
    SolveError,
    ValidationError,
    registered_solvers,
    solve,
)

GENERATORS = {
    "chain": lambda seed: random_chain(5, profile="balanced", seed=seed),
    "star": lambda seed: random_star(6, profile="volunteer", seed=seed),
    "spider": lambda seed: random_spider(3, 3, profile="comm_bound", seed=seed),
    "tree": lambda seed: random_tree(8, profile="cpu_heavy", seed=seed),
}

#: exact non-integer time scales: dyadic floats (exact in binary) and
#: Fractions.  The oracles answer these; the kernels do not.
NUMERICS = {
    "float": lambda v: v / 4,
    "fraction": lambda v: Fraction(v, 3),
}


def _scaled(platform, to):
    """``platform`` with every latency and work mapped through ``to``."""
    if isinstance(platform, Chain):
        return Chain([to(c) for c in platform.c], [to(w) for w in platform.w])
    if isinstance(platform, Star):
        return Star([(to(ch.c), to(ch.w)) for ch in platform.children])
    return Spider([_scaled(leg, to) for leg in platform.legs])


def non_integer_problem(numeric, family, seed, kind, n):
    """A chain, star or spider problem on a float or Fraction platform.

    The deadline is three times the makespan of four tasks, so it places
    a handful.  A Fraction spider only gets deadline problems: the spider
    oracle's makespan bisection fails on Fraction covers (a known defect).
    """
    to = NUMERICS[numeric]
    platform = GENERATORS[family](seed)
    scaled = _scaled(platform, to)
    if kind == "makespan":
        return Problem(scaled, "makespan", n=n)
    t_lim = to(3 * solve(Problem(platform, "makespan", n=4)).makespan)
    return Problem(scaled, "deadline", t_lim=t_lim, n=n)


NON_INTEGER = [(numeric, family) for numeric in sorted(NUMERICS)
               for family in ("chain", "spider", "star")]


def outcome(fn, schedule):
    """(\"ok\", makespan) when ``fn`` accepts, (\"err\", type) when not."""
    try:
        return "ok", fn(schedule)
    except SimulationError as exc:
        return "err", type(exc)


def oracle(schedule):
    """The executor's verdict: the replayed trace's makespan."""
    return verify_by_execution(schedule).makespan


def assert_agree(schedule):
    """The validator and the oracle agree on accept/reject and, on
    accept, on the makespan (same value, same type); returns the
    oracle's outcome."""
    kind_event, got_event = outcome(oracle, schedule)
    kind_fast, got_fast = outcome(verify_schedule, schedule)
    assert kind_event == kind_fast, (
        f"validator and oracle disagree on accept/reject: event="
        f"{kind_event} ({got_event}), array={kind_fast} ({got_fast})"
    )
    if kind_event == "ok":
        assert got_fast == got_event
        assert type(got_fast) is type(got_event)
    return kind_event, got_event


class TestDifferentialAccept:
    """Accepted schedules: every registered solver, all platform families."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(60, 66))
    def test_makespan_solutions_agree(self, family, seed):
        sol = solve(Problem(GENERATORS[family](seed), "makespan", n=9))
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", range(60, 64))
    def test_deadline_solutions_agree(self, family, seed):
        platform = GENERATORS[family](seed)
        t_lim = 3 * solve(Problem(platform, "makespan", n=4)).makespan
        sol = solve(Problem(platform, "deadline", t_lim=t_lim))
        if sol.schedule.n_tasks == 0:
            pytest.skip("empty schedule at this deadline")
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)

    @pytest.mark.parametrize("numeric,family", NON_INTEGER)
    @pytest.mark.parametrize("seed", range(60, 63))
    def test_non_integer_solutions_agree(self, numeric, family, seed):
        """Float and Fraction answers (the oracles') replay to the same
        makespan on both validators, times exact in their own type."""
        kinds = ["deadline"]
        if (numeric, family) != ("fraction", "spider"):
            kinds.append("makespan")
        for kind in kinds:
            sol = solve(non_integer_problem(numeric, family, seed, kind, 7))
            assert sol.schedule.n_tasks > 0
            assert assert_agree(sol.schedule) == ("ok", sol.makespan)
            sol.validate()

    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_online_solutions_agree(self, policy):
        sol = solve(Problem(random_spider(3, 2, seed=13), "makespan", n=8,
                            mode="online", options={"policy": policy}))
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)

    def test_verify_matches_verify_by_execution(self):
        sol = solve(Problem(random_tree(7, seed=3), "makespan", n=7))
        assert verify_schedule(sol.schedule) == oracle(sol.schedule)

    def test_empty_schedule(self):
        sched = Schedule(random_chain(3, seed=1))
        assert assert_agree(sched) == ("ok", 0)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_zero_latency_links_agree(self, n):
        """The computing-master hatch (first link c=0) gives sends that
        end at the instant they start: both validators accept them."""
        chain = Chain([1, 2], [2, 3]).with_computing_master(2)
        sol = solve(Problem(chain, "makespan", n=n))
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)


def _mutate(schedule, mutation, task, delta):
    """A copy of ``schedule`` with one corruption, built from columns
    without the construction checks (the way a buggy solver would): the
    copy shares the original's key table."""
    tasks = schedule.tasks()
    victim = tasks[task % len(tasks)]
    a = schedule[victim]
    times = list(a.comms.times)
    start = a.start
    if mutation == "early_emit":
        times[0] = max(0, times[0] - delta)
    elif mutation == "negative_emit":
        times[-1] = -delta
    elif mutation == "swap_hops" and len(times) > 1:
        times[0], times[-1] = times[-1], times[0]
    elif mutation == "early_start":
        start = max(0, a.start - delta)
    elif mutation == "negative_start":
        start = -delta
    elif mutation == "truncate_comms" and len(times) > 1:
        times = times[:-1]
    else:  # mutation not applicable to this shape: nudge the emission
        times[0] = times[0] + delta
    rows = [(b.processor, b.start, b.comms.times) if b.task != victim
            else (a.processor, start, tuple(times)) for b in schedule]
    index = {key: j for j, key in enumerate(schedule.keys)}
    ptr = [0]
    for _, _, comms in rows:
        ptr.append(ptr[-1] + len(comms))
    return Schedule._make(
        schedule.compiled, Columns(
            [index[p] for p, _, _ in rows], [s for _, s, _ in rows], ptr,
            [t for _, _, c in rows for t in c], tasks,
        ),
    )


class TestDifferentialReject:
    """Corrupted schedules: the validator and the oracle must agree on
    accept/reject, and still on the makespan whenever the mutation happens
    to stay legal."""

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
        schedule = _mutate(sol.schedule, mutation, task, delta)
        assert_agree(schedule)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(NON_INTEGER),
        kind=st.sampled_from(("makespan", "deadline")),
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        mutation=st.sampled_from(MUTATIONS),
        task=st.integers(0, 9),
        delta=st.integers(1, 7),
    )
    def test_engines_agree_on_non_integer_schedules(
        self, case, kind, seed, n, mutation, task, delta
    ):
        numeric, family = case
        if case == ("fraction", "spider"):
            kind = "deadline"
        sol = solve(non_integer_problem(numeric, family, seed, kind, n))
        if sol.schedule.n_tasks == 0:
            return
        schedule = _mutate(sol.schedule, mutation, task, NUMERICS[numeric](delta))
        assert_agree(schedule)

    @pytest.mark.parametrize("numeric,family", NON_INTEGER)
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_rejected_on_non_integer_schedules(
        self, numeric, family, mutation
    ):
        sol = solve(non_integer_problem(numeric, family, 5, "deadline", 8))
        schedule = _mutate(sol.schedule, mutation, 1, NUMERICS[numeric](5))
        assert_agree(schedule)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_family_rejected_identically(self, mutation):
        """A deterministic rejection per mutation kind (the hypothesis
        sweep above may not hit a rejecting example for each)."""
        sol = solve(Problem(random_spider(3, 3, seed=5), "makespan", n=8))
        # aggressive parameters so every mutation actually corrupts
        schedule = _mutate(sol.schedule, mutation, 1, 5)
        assert_agree(schedule)

    def test_relay_before_arrival_rejected(self):
        """Relay-FIFO alone: the second hop leaves processor 1 at 1, before
        the first arrives there at 2; no port, link or CPU is shared."""
        schedule = Schedule(Chain([2, 3], [3, 5]), {
            1: TaskAssignment(1, 2, 4, CommVector([0, 1]))})
        assert (outcome(oracle, schedule) == outcome(verify_schedule, schedule)
                == ("err", SimulationError))

    def test_validate_and_oracle_reject_a_corrupt_schedule(self):
        sol = solve(Problem(random_star(4, seed=2), "makespan", n=6))
        sol.schedule = _mutate(sol.schedule, "early_emit", 2, 5)
        with pytest.raises(ValidationError):
            sol.validate()
        with pytest.raises(SimulationError):
            verify_by_execution(sol.schedule)


class TestBigIntegers:
    """Times past int64's exact range: every validator compares Python
    ints exactly (the EPS slack is for floats)."""

    def test_kernel_answer_past_int64_is_exact(self):
        sol = solve(Problem(Chain([1], [2 ** 62]), "makespan", n=2))
        assert sol.solver == "chain" and sol.makespan == 2 ** 63 + 1
        # task 2 claims the CPU at 2**62 + 1, the very instant task 1
        # frees it: no float holds that time, an int compare accepts it
        sol.validate()
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)

    def test_exact_big_answer_validates_identically(self):
        sol = solve(Problem(Chain([2 ** 62, 2 ** 61], [2 ** 62, 2 ** 63]),
                            "makespan", n=4))
        assert sol.solver == "chain" and sol.makespan > 2 ** 64
        sol.validate()
        assert assert_agree(sol.schedule) == ("ok", sol.makespan)

    def test_hand_built_big_star_accepted_identically(self):
        big = 2 ** 62
        schedule = Schedule(Star([(big, big), (big // 2, big)]), {
            1: TaskAssignment(1, 1, big, CommVector([0])),
            2: TaskAssignment(2, 2, big + big // 2, CommVector([big]))})
        assert schedule.makespan == 2 ** 63 + big // 2
        assert assert_agree(schedule) == ("ok", schedule.makespan)

    def test_hand_built_schedule_rejected_identically(self):
        # task 2 claims the CPU one unit before task 1 frees it
        schedule = Schedule(Chain([1], [2 ** 62]), {
            1: TaskAssignment(1, 1, 1, CommVector([0])),
            2: TaskAssignment(2, 1, 2 ** 62, CommVector([1]))})
        assert (outcome(oracle, schedule) == outcome(verify_schedule, schedule)
                == ("err", SimulationError))

    def test_back_to_back_claims_past_2_54_in_all_three_validators(self):
        """The kernel's (and the oracle's) answer for ``Chain([2**61, 1],
        [2**61, 2])``, n = 3, claims processor 1 and processor 2 at the
        very instants they free up, past 2**62.  ``Solution.validate``,
        the executor and the static checker accept it; with task 2 moved
        one unit earlier all three refuse it."""
        chain = Chain([2 ** 61, 1], [2 ** 61, 2])
        sol = solve(Problem(chain, "makespan", n=3))
        assert sol.stats["engine"] == "compiled"
        assert sol.schedule.assignments == schedule_chain(chain, 3).assignments
        sol.validate()
        verify_by_execution(sol.schedule)
        assert check(sol.schedule) == []

        sol.schedule = Schedule(chain, {
            a.task: a if a.task != 2 else TaskAssignment(
                2, a.processor, a.start - 1,
                CommVector([t - 1 for t in a.comms.times]))
            for a in sol.schedule})
        with pytest.raises(ValidationError):
            sol.validate()
        with pytest.raises(SimulationError):
            verify_by_execution(sol.schedule)
        assert check(sol.schedule)


class TestCompileCache:
    def test_per_object_memo(self):
        platform = random_tree(6, seed=9)
        clear_compile_cache()
        assert compile_platform(platform) is compile_platform(platform)
        assert Schedule(platform).compiled is compile_platform(platform)
        assert compile_stats() == {"compiles": 1, "binds": 0}

    def test_clear_invalidates_per_object_memo(self):
        platform = random_star(3, seed=4)
        first = compile_platform(platform)
        clear_compile_cache()
        second = compile_platform(platform)  # must recompile, not serve stale
        assert second is not first
        assert compile_stats()["compiles"] == 1

    def test_compiled_arrays_match_adapter(self):
        for family, gen in GENERATORS.items():
            platform = gen(4)
            adapter = adapter_for(platform)
            cp = compile_platform(platform)
            assert list(cp.procs) == adapter.processors(), family
            for i, proc in enumerate(cp.procs):
                assert cp.works[i] == adapter.work(proc), family
                route = adapter.route(proc)
                links = cp.route_links[cp.route_start[i]:cp.route_start[i + 1]]
                assert [cp.link_keys[l] for l in links] == route
                assert cp.hops[i] == len(route)
                assert [cp.latency[l] for l in links] == [
                    adapter.latency(link) for link in route
                ]
                assert [cp.port_keys[cp.sender_port[l]] for l in links] == [
                    adapter.sender(link) for link in route
                ]
            assert cp.port_keys[0] == adapter.master_port()

    def test_unflattenable_adapter_raises_compile_error(self, monkeypatch):
        """An adapter that breaks the link-per-processor model is refused
        by the compiler, so no schedule on its platform can be built,
        solved or served."""
        from repro.core import compiled
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        class WeirdAdapter(PlatformAdapter):
            def __init__(self, platform):
                self.platform = platform

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

        star = random_star(3, seed=4)  # a fresh object: nothing memoized
        monkeypatch.setattr(compiled, "adapter_for", WeirdAdapter)
        with pytest.raises(CompileError):
            compile_platform(star)
        with pytest.raises(CompileError):
            Schedule(star)
        problem = Problem(star, "makespan", n=4)
        with pytest.raises(CompileError):
            solve(problem)
        store = SolutionStore()
        with pytest.raises(CompileError):
            cached_solve(problem, store)
        assert len(store) == 0


class TestRebind:
    """``Schedule.rebound`` relabels the schedule's compiled platform onto
    an isomorphic platform, checking every key's work, latency and
    sender there; a hit compiles nothing."""

    @staticmethod
    def _swapped(schedule, a, b):
        keys = list(schedule.keys)
        i, j = keys.index(a), keys.index(b)
        keys[i], keys[j] = keys[j], keys[i]
        return tuple(keys)

    @pytest.mark.parametrize("edges, n", [
        # 3 and 4 differ in latency
        ([(0, 1, 1, 1), (0, 2, 1, 1), (1, 3, 1, 5), (2, 4, 2, 5)], 6),
        # equal c and w, but their parents are not isomorphic
        ([(0, 1, 1, 1), (0, 2, 1, 1), (1, 3, 1, 5), (2, 4, 1, 5),
          (1, 5, 3, 2)], 8),
    ])
    def test_refuses_a_relabel_that_is_no_isomorphism(self, edges, n):
        from repro.platforms.tree import Tree

        schedule = solve(Problem(Tree(edges), "makespan", n=n)).schedule
        with pytest.raises(ScheduleError):
            schedule.rebound(Tree(edges), self._swapped(schedule, 3, 4))

    def test_refuses_keys_that_are_not_the_processors(self):
        star = random_star(3, seed=4)
        schedule = solve(Problem(star, "makespan", n=4)).schedule
        for keys in ((1, 2), (1, 2, 2), (1, 2, 7), (1, 2, 3, 3)):
            with pytest.raises(ScheduleError, match="permutation"):
                schedule.rebound(star, keys)

    def test_relabel_shares_every_array(self):
        from repro.platforms.spider import Spider

        legs = [random_chain(3, seed=s) for s in (1, 2, 3)]
        schedule = solve(Problem(Spider(legs), "makespan", n=9)).schedule
        other = Spider(legs[::-1])
        keys = tuple((4 - leg, pos) for leg, pos in schedule.keys)
        rebound = schedule.rebound(other, keys)
        a, b = schedule.compiled, rebound.compiled
        assert rebound.platform is other and rebound.keys == keys
        assert b.works is a.works and b.route_links is a.route_links
        assert b.port_keys[1:] == tuple(
            keys[a.proc_index[p]] for p in a.port_keys[1:])
        assert rebound.columns is schedule.columns
        assert assert_agree(rebound) == ("ok", schedule.makespan)

    def test_a_hit_compiles_nothing(self):
        import random

        from benchmarks.kernels import relabeled_platform, service_workload
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        problems = service_workload()
        store = SolutionStore(capacity=64)
        for problem in problems:  # warm-up: every platform class stored
            cached_solve(problem, store, verify_rebind=True)
        rng = random.Random(7)
        hits = [Problem(relabeled_platform(p.platform, rng), "makespan",
                        n=p.n) for p in (problems * 2)[:200]]
        before = compile_stats()
        outcomes = [cached_solve(p, store, verify_rebind=True) for p in hits]
        after = compile_stats()
        assert all(o.cached for o in outcomes)
        assert after["compiles"] == before["compiles"]
        assert after["binds"] == before["binds"] + 200


@pytest.fixture()
def validate_calls(monkeypatch):
    """Wrap ``Solution.validate`` the way perfbench's replay hook does
    (``validate(self, engine=None)`` forwarding ``engine`` positionally)
    and count its calls."""
    calls = []
    original = Solution.validate

    def validate(self, engine=None):
        calls.append(engine)
        return original(self, engine)

    monkeypatch.setattr(Solution, "validate", validate)
    return calls


class TestReplayContract:
    """One validator, one oracle: ``validate()`` runs the array scan and
    returns nothing, ``replay()`` is the executor's trace."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_replay_is_the_executor(self, family):
        sol = solve(Problem(GENERATORS[family](7), "makespan", n=6))
        trace = sol.replay()
        assert trace == execute(sol.schedule)
        assert trace.makespan == sol.makespan

    def test_validate_returns_nothing(self):
        sol = solve(Problem(random_chain(3, seed=1), "makespan", n=5))
        assert sol.validate() is None

    @pytest.mark.parametrize("engine", ["event", "compiled", "warp"])
    def test_validate_refuses_the_retired_engine_parameter(self, engine):
        sol = solve(Problem(random_chain(3, seed=1), "makespan", n=5))
        with pytest.raises(SolveError, match="'engine' parameter is retired"
                           ) as err:
            sol.validate(engine=engine)
        # a usage error, not the solver's fault
        assert not isinstance(err.value, ValidationError)
        assert "repro.sim.executor" in str(err.value)

    def test_perfbench_style_wrapper_sees_every_check(self, validate_calls):
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        store = SolutionStore()
        problem = Problem(random_spider(2, 2, seed=4), "makespan", n=5)
        assert not cached_solve(problem, store, verify_rebind=True).cached
        assert validate_calls == [None, None]  # store write + rebind
        assert cached_solve(problem, store, verify_rebind=True).cached
        assert validate_calls == [None] * 3  # the hit: rebind only

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
        # must say so rather than claim the replay validator ran
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
        store = SolutionStore()
        fingerprint, canon = cache_key(problem)
        store.put(fingerprint, solve(Problem(canon.platform, "makespan", n=5)))
        # in-memory damage after the write check passed
        stored = store.get(fingerprint)
        stored.schedule = _mutate(stored.schedule, "early_emit", 1, 6)
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


def _scans() -> int:
    return replay_stats()["scans"]


def _read_only(array) -> bool:
    """``array`` and every array under it (``base``) are read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


def _scaled_any(platform, to):
    """:func:`_scaled`, trees included."""
    from repro.platforms.tree import Tree

    if isinstance(platform, Tree):
        return Tree([(platform.parent(v), v, to(platform.latency(v)),
                      to(platform.work(v))) for v in platform.workers])
    return _scaled(platform, to)


class TestVerdictMemo:
    """A passing scan is kept on the columns with the compiled arrays it
    read; a call on those very arrays reuses it, and nothing else does.
    ``replay.scans`` counts the scans run."""

    def test_the_same_arrays_reuse_the_verdict(self):
        legs = [random_chain(3, seed=s) for s in (1, 2, 3)]
        schedule = solve(Problem(Spider(legs), "makespan", n=9)).schedule
        keys = tuple((4 - leg, pos) for leg, pos in schedule.keys)
        rebound = schedule.rebound(Spider(legs[::-1]), keys)
        before = _scans()
        for checked in (schedule, schedule, rebound, rebound):
            assert verify_schedule(checked) == schedule.makespan
        assert _scans() - before == 1

    @pytest.mark.parametrize("field", [
        "works", "latency", "sender_port", "route_start", "route_links",
        "port_keys",
    ])
    def test_other_arrays_scan_again(self, field):
        schedule = solve(Problem(random_spider(3, 2, seed=4), "makespan",
                                 n=8)).schedule
        verify_schedule(schedule)
        cp = schedule.compiled
        value = getattr(cp, field)
        if field == "port_keys":  # same arrays, another port count
            value = (*value, "spare")
        else:  # equal values in another array
            value = value.copy()
            value.flags.writeable = False
        other = Schedule._make(replace(cp, **{field: value}), schedule.columns)
        before = _scans()
        assert verify_schedule(other) == schedule.makespan
        assert verify_schedule(other) == schedule.makespan
        assert verify_schedule(schedule) == schedule.makespan
        # the verdict follows the last scan: back on the first arrays, the
        # schedule scans again
        assert _scans() - before == 2

    def test_threads_sharing_columns_get_their_own_tables_verdict(self):
        """Threads check one answer's columns under two key tables whose
        works differ, so the verdict flips between them and each table
        has its own makespan: a verdict read across a flip would fail the
        makespan claim."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        schedule = solve(Problem(random_star(4, seed=5), "makespan",
                                 n=12)).schedule
        cp = schedule.compiled
        works = np.maximum(cp.works - 1, 1)
        works.flags.writeable = False
        lighter = Schedule._make(replace(cp, works=works), schedule.columns)
        expected = {id(schedule): schedule.makespan,
                    id(lighter): lighter.makespan}
        assert len(set(expected.values())) == 2
        checks = [(schedule, lighter)[i % 2] for i in range(400)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(verify_schedule, checks, timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert got == [expected[id(s)] for s in checks]

    def test_a_failing_scan_memoizes_nothing(self):
        sol = solve(Problem(random_star(4, seed=3), "makespan", n=5))
        verify_schedule(sol.schedule)
        bad = _mutate(sol.schedule, "negative_start", 1, 2)
        for _ in range(2):
            before = _scans()
            with pytest.raises(SimulationError):
                verify_schedule(bad)
            assert _scans() - before == 1
            assert bad.columns.verdict is None

    def test_a_sqlite_load_scans_once_then_reuses_its_verdict(self, tmp_path):
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        star = random_star(5, seed=11)
        problem = Problem(star, "makespan", n=6)
        relabeled = Problem(Star(star.children[::-1]), "makespan", n=6)
        path = tmp_path / "store.sqlite"
        with SolutionStore(path) as store:
            before = _scans()
            assert not cached_solve(problem, store, verify_rebind=True).cached
            assert _scans() - before == 1  # the write check only
        with SolutionStore(path) as store:  # a new process's store
            before = _scans()
            for p in (relabeled, problem, relabeled):
                outcome = cached_solve(p, store, verify_rebind=True)
                assert outcome.cached
            assert store.stats.sqlite_hits == 1
            assert store.stats.memory_hits == 2
            assert _scans() - before == 1  # the load only

    @pytest.mark.parametrize("numeric", ["int", "float", "fraction"])
    @pytest.mark.parametrize(
        "solver", registered_solvers("offline"), ids=lambda s: s.name
    )
    def test_every_array_a_verdict_rests_on_is_read_only(self, solver,
                                                         numeric):
        """The memo's premise: for each offline solver's answer, as solved,
        as rebound on a hit and as loaded from JSON, every column and
        compiled array and its base is read-only."""
        from repro.io.json_io import solution_from_dict, solution_to_dict
        from repro.service.engine import cached_solve
        from repro.service.store import SolutionStore

        to = NUMERICS.get(numeric, lambda v: v)
        platform = _scaled_any(GENERATORS[solver.name](3), to)
        # a Fraction spider answers deadlines only (see non_integer_problem)
        kinds = (("deadline",) if (numeric, solver.name) == ("fraction",
                                                             "spider")
                 else ("makespan", "deadline"))
        answers = []
        for kind in kinds:
            problem = Problem(platform, kind, n=12,
                              t_lim=to(40) if kind == "deadline" else None)
            store = SolutionStore()
            cached_solve(problem, store)
            answers += [
                solve(problem),
                cached_solve(problem, store, verify_rebind=True).solution,
                solution_from_dict(solution_to_dict(solve(problem))),
            ]
        for sol in answers:
            cols, cp = sol.schedule.columns, sol.schedule.compiled
            assert len(cols)
            if numeric != "int":
                assert cols.start.dtype == object and cp.works.dtype == object
            for owner, names in (
                (cols, ("tasks", "proc", "start", "ptr", "comm")),
                (cp, ("works", "latency", "sender_port", "route_start",
                      "route_links")),
            ):
                for name in names:
                    assert _read_only(getattr(owner, name)), (
                        f"{solver.name} {numeric} {sol.problem.kind}: "
                        f"{name} is writable"
                    )


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
