"""Churn model, online churn execution and the repatch repair layer.

Covers the timed event model (:mod:`repro.sim.churn`), its online
execution through the simulator, and the incremental ``repatch`` solver
(:mod:`repro.solve.repatch`) — including the three committed properties:

* the repaired schedule replay-validates on the *mutated* platform
  through **both** engines;
* the pre-churn prefix is kept **bit-identically** (same start, same
  emission vector, processor key mapped through the churn's key map);
* the repaired completion never exceeds :data:`REPATCH_TOLERANCE` × the
  cold re-solve of the remaining work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms.chain import Chain
from repro.platforms.generators import random_spider, random_star, random_tree
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree
from repro.sim.churn import (
    BandwidthDrift,
    ChurnError,
    ProcessorJoin,
    ProcessorLeave,
    apply_churn,
    parse_churn_event,
    parse_churn_events,
    random_churn,
)
from repro.sim.executor import verify_by_execution
from repro.sim.online import simulate_online
from repro.sim.trace import assert_trace_exclusive
from repro.solve import Problem, solve
from repro.solve.repatch import (
    REPATCH_TOLERANCE,
    cold_resolve,
    repatch_schedule,
)
from repro.solve.problem import SolveError

from conftest import chains, spiders, stars


def fig_chain() -> Chain:
    return Chain([2, 3], [3, 5])


# ---------------------------------------------------------------------------
# Event parsing
# ---------------------------------------------------------------------------


class TestEventParsing:
    def test_json_shapes_round_trip(self):
        specs = [
            {"op": "leave", "time": 5, "processor": [2, 1]},
            {"op": "join", "time": 3, "c": 2, "w": 4},
            {"op": "drift", "time": 7, "processor": 1, "w_factor": 2},
        ]
        events = parse_churn_events(specs)
        assert isinstance(events[0], ProcessorLeave)
        assert events[0].processor == (2, 1)  # lists become tuple keys
        assert isinstance(events[1], ProcessorJoin)
        assert events[1].spec == {"c": 2, "w": 4}
        assert isinstance(events[2], BandwidthDrift)
        assert [e.to_dict() for e in events] == specs

    def test_event_objects_pass_through(self):
        ev = ProcessorLeave(4, 2)
        assert parse_churn_event(ev) is ev

    @pytest.mark.parametrize("bad", [
        {"op": "leave", "time": 1},                      # no processor
        {"op": "drift", "time": 1, "processor": 1},      # no factor != 1
        {"op": "warp", "time": 1, "processor": 1},       # unknown op
        {"time": 1, "processor": 1},                     # no op
        {"op": "leave", "processor": 1},                 # no time
        "leave@1",                                       # not a mapping
    ])
    def test_malformed_events_rejected(self, bad):
        with pytest.raises(ChurnError):
            parse_churn_event(bad)

    def test_negative_time_rejected(self):
        with pytest.raises(ChurnError, match=">= 0"):
            parse_churn_events([{"op": "leave", "time": -1, "processor": 2}])


# ---------------------------------------------------------------------------
# apply_churn: platform mutation + the trace record
# ---------------------------------------------------------------------------


class TestApplyChurn:
    def test_chain_leave_truncates_tail(self):
        trace = apply_churn(fig_chain(),
                            [{"op": "leave", "time": 4, "processor": 2}])
        assert trace.platform_after.to_dict() == Chain([2], [3]).to_dict()
        assert trace.key_map == {1: 1}
        assert trace.departed == [2]
        assert trace.instant == 4

    def test_chain_leave_of_head_rejected(self):
        with pytest.raises(ChurnError, match="no platform"):
            apply_churn(fig_chain(),
                        [{"op": "leave", "time": 1, "processor": 1}])

    def test_star_leave_renumbers_survivors(self):
        star = Star(((1, 2), (2, 3), (3, 4)))
        trace = apply_churn(star, [{"op": "leave", "time": 2, "processor": 1}])
        assert trace.key_map == {2: 1, 3: 2}
        assert [(ch.c, ch.w) for ch in trace.platform_after.children] == \
            [(2, 3), (3, 4)]

    def test_spider_leg_leave_renumbers_legs(self):
        spider = Spider([Chain([1], [4]), Chain([2, 3], [3, 5])])
        trace = apply_churn(
            spider, [{"op": "leave", "time": 3, "processor": [1, 1]}]
        )
        assert trace.key_map == {(2, 1): (1, 1), (2, 2): (1, 2)}
        assert trace.platform_after.arity == 1

    def test_spider_mid_leg_leave_truncates(self):
        spider = Spider([Chain([2, 3], [3, 5])])
        trace = apply_churn(
            spider, [{"op": "leave", "time": 3, "processor": [1, 2]}]
        )
        assert trace.key_map == {(1, 1): (1, 1)}
        assert trace.platform_after.leg(1).p == 1

    def test_tree_leave_takes_subtree(self):
        tree = Tree([(0, 1, 1, 2), (1, 2, 2, 3), (0, 3, 1, 1)])
        trace = apply_churn(tree, [{"op": "leave", "time": 1, "processor": 1}])
        assert sorted(trace.platform_after.workers) == [3]
        assert trace.departed == [1, 2]

    def test_joins_add_keys_and_record_instants(self):
        spider = Spider([Chain([1], [4])])
        trace = apply_churn(spider, [
            {"op": "join", "time": 2, "c": [2, 1], "w": [3, 2]},  # new leg
            {"op": "join", "time": 5, "leg": 1, "c": 1, "w": 1},  # extend leg 1
        ])
        assert trace.joined == {(2, 1): 2, (2, 2): 2, (1, 2): 5}
        assert trace.key_map == {(1, 1): (1, 1)}
        assert trace.instant == 2

    def test_tree_join_attaches_leaf(self):
        tree = random_tree(3, seed=7)
        trace = apply_churn(tree, [{"op": "join", "time": 1, "parent": 0,
                                    "c": 2, "w": 3}])
        new = set(trace.joined)
        assert len(new) == 1
        assert new.isdisjoint(tree.workers)

    def test_drift_rescales_and_records(self):
        trace = apply_churn(fig_chain(), [
            {"op": "drift", "time": 3, "processor": 2,
             "c_factor": 2, "w_factor": 0.5},
        ])
        after = trace.platform_after
        assert after.c == (2, 6)
        assert after.w == (3, 2.5)
        assert trace.drifted_c == {2: 3}
        assert trace.drifted_w == {2: 3}

    def test_events_address_original_keys(self):
        # leave child 1, then drift "child 2" = original numbering
        star = Star(((1, 2), (2, 3), (3, 4)))
        trace = apply_churn(star, [
            {"op": "leave", "time": 1, "processor": 1},
            {"op": "drift", "time": 2, "processor": 2, "w_factor": 2},
        ])
        # original child 2 is final child 1; its w doubled
        first = trace.platform_after.children[0]
        assert (first.c, first.w) == (2, 6)
        assert trace.drifted_w == {1: 2}

    def test_leave_twice_rejected(self):
        with pytest.raises(ChurnError, match="already departed"):
            apply_churn(Star(((1, 2), (2, 3))), [
                {"op": "leave", "time": 1, "processor": 2},
                {"op": "leave", "time": 2, "processor": 2},
            ])

    def test_empty_event_list_rejected(self):
        with pytest.raises(ChurnError, match="at least one"):
            apply_churn(fig_chain(), [])

    def test_summary_shape(self):
        trace = apply_churn(fig_chain(), [
            {"op": "join", "time": 2, "c": 1, "w": 2},
        ])
        s = trace.summary()
        assert s["events"] == 1 and s["instant"] == 2 and s["joined"] == 1
        assert s["fingerprint_after"] == trace.steps[-1].fingerprint

    @pytest.mark.parametrize("seed", range(4))
    def test_random_churn_always_applies(self, seed):
        platform = random_spider(2, 2, seed=seed)
        events = random_churn(platform, seed, events=3)
        trace = apply_churn(platform, events)
        assert len(trace.steps) == 3


# ---------------------------------------------------------------------------
# Online execution under churn (simulate_online's churn=)
# ---------------------------------------------------------------------------


class TestOnlineChurn:
    def test_clean_run_matches_no_churn_reissues(self):
        star = Star(((1, 2), (2, 3)))
        res = simulate_online(
            star, 6, churn=[{"op": "drift", "time": 10_000, "processor": 1,
                             "w_factor": 2}]
        )
        assert res.completed == 6
        assert res.reissues == 0 and res.reissue_of == {}

    def test_leave_reissues_under_fresh_ids(self):
        star = Star(((1, 2), (2, 3)))
        res = simulate_online(
            star, 8, churn=[{"op": "leave", "time": 3, "processor": 1}]
        )
        assert res.completed == 8
        assert res.reissues == len(res.reissue_of) >= 1
        # fresh ids live above n and map back to original task ids
        for fresh, orig in res.reissue_of.items():
            assert fresh > 8 and 1 <= orig <= 8
        assert 1 not in {p for p in res.survivors}

    def test_join_adds_dispatchable_capacity(self):
        chain = Chain([2], [9])
        slow = simulate_online(
            chain, 6, churn=[{"op": "drift", "time": 10_000, "processor": 1,
                              "c_factor": 2}]
        )
        fast = simulate_online(
            chain, 6, churn=[{"op": "join", "time": 0, "c": 1, "w": 2}]
        )
        assert fast.makespan < slow.makespan
        assert 2 in fast.survivors

    def test_deterministic(self):
        spider = random_spider(2, 2, seed=3)
        events = random_churn(spider, 5, events=2)
        a = simulate_online(spider, 10, churn=events)
        b = simulate_online(spider, 10, churn=events)
        assert a.makespan == b.makespan
        assert a.reissue_of == b.reissue_of
        assert a.trace.makespan == b.trace.makespan

    def test_all_dead_raises(self):
        from repro.core.types import SimulationError

        with pytest.raises(SimulationError, match="dead"):
            simulate_online(
                Star(((1, 2),)), 50,
                churn=[{"op": "leave", "time": 1, "processor": 1}],
            )

    def test_unknown_processor_raises(self):
        with pytest.raises(ChurnError, match="no processor 7 to remove"):
            simulate_online(Chain([1, 1], [2, 2]), 4,
                            churn=[{"op": "leave", "time": 1, "processor": 7}])
        with pytest.raises(ChurnError, match="no processor 7 to drift"):
            simulate_online(Chain([1, 1], [2, 2]), 4,
                            churn=[{"op": "drift", "time": 1, "processor": 7,
                                    "w_factor": 2}])

    def test_registry_dispatch_and_trace_only_solution(self):
        star = Star(((1, 2), (2, 3)))
        sol = solve(Problem(star, "makespan", n=8, mode="online",
                            options={"churn": [
                                {"op": "leave", "time": 3, "processor": 1},
                            ]}))
        assert sol.schedule is None  # trace-only, like fault runs
        sol.validate()
        assert sol.stats["completed"] == 8
        assert sol.extra["reissue_of"]
        assert sol.extra["churn"][0]["op"] == "leave"

    def test_churn_failures_and_arrivals_combine(self):
        """One loop takes any mix of options: failures (as leaves), churn
        and release times together still complete every task."""
        star = Star(((1, 2), (2, 3), (1, 4)))
        sol = solve(Problem(star, "makespan", n=8, mode="online",
                            options={
                                "churn": [{"op": "drift", "time": 1,
                                           "processor": 2, "w_factor": 2},
                                          {"op": "join", "time": 5,
                                           "c": 1, "w": 1}],
                                "failures": [{"time": 4, "processor": 1}],
                                "arrivals": [0, 0, 0, 6, 6, 6, 12, 12],
                            }))
        sol.validate()
        assert sol.stats["completed"] == 8
        assert [ev["op"] for ev in sol.extra["churn"]] == [
            "drift", "leave", "join"]
        # release times hold back original tasks only
        first_send = {}
        for ev in sol.trace.events:
            if ev.kind.value == "send_start" and ev.resource == "master":
                first_send.setdefault(ev.task, ev.time)
        assert all(first_send[t] >= 6 for t in (4, 5, 6))
        assert all(first_send[t] >= 12 for t in (7, 8))

    def test_reissues_skip_the_release_queue(self):
        """A lost task was already released: it goes out while the next
        original task is still waiting for its release."""
        star = Star(((1, 4), (1, 4)))
        res = simulate_online(
            star, 3, "round_robin", arrivals=[0, 0, 50],
            churn=[{"op": "leave", "time": 2, "processor": 1}],
        )
        assert res.reissues == 1
        (fresh,) = res.reissue_of
        sends = {ev.task: ev.time for ev in res.trace.events
                 if ev.kind.value == "send_start"}
        assert sends[fresh] < 50 <= sends[3]


class TestDriftNeverDoubleBooks:
    """A drift changes the work/latency of sends and executions queued
    behind one already claimed: a queued start re-checks that the resource
    really freed."""

    def test_stretched_execution_delays_the_queue(self):
        sol = solve(Problem(Chain(c=[2], w=[6]), "makespan", n=3,
                            mode="online", options={"churn": [
                                {"op": "drift", "time": 7, "processor": 1,
                                 "w_factor": 2}]}))
        sol.validate()
        runs = sorted(sol.trace.busy[("proc", 1)])
        # task 1 keeps its pre-drift 6; the queue behind it runs 12 each
        assert runs == [(2, 8, 1), (8, 20, 2), (20, 32, 3)]
        assert sol.makespan == 32

    @pytest.mark.parametrize("seed", range(24))
    def test_random_drift_mixes_validate(self, seed):
        gen = (random_spider, random_star, random_tree)[seed % 3]
        platform = (gen(3, 3, seed=seed) if gen is random_spider
                    else gen(4, seed=seed))
        events = random_churn(platform, seed, events=4, join_weight=0,
                              leave_weight=0)
        events += random_churn(platform, seed + 100, events=3)
        for policy in ("bandwidth_centric", "demand_driven", "round_robin"):
            sol = solve(Problem(platform, "makespan", n=16, mode="online",
                                options={"policy": policy, "churn": events}))
            sol.validate()
            assert sol.stats["completed"] == 16


class TestPolicyNone:
    def test_none_stops_and_the_short_run_raises(self):
        from repro.core.types import SimulationError

        def two_then_stop(state, procs, adapter):
            return procs[0] if sum(state.dispatched.values()) < 2 else None

        with pytest.raises(SimulationError, match="only 2/5 tasks completed"):
            simulate_online(Star(((1, 2), (1, 3))), 5, two_then_stop)
        with pytest.raises(SimulationError, match="only 2/5"):
            solve(Problem(Star(((1, 2), (1, 3))), "makespan", n=5,
                          mode="online", options={"policy": two_then_stop}))

    def test_policy_must_choose_a_live_processor(self):
        from repro.core.types import SimulationError

        with pytest.raises(SimulationError, match="not a live processor"):
            simulate_online(
                Star(((1, 2), (1, 3))), 4, lambda state, procs, adapter: 1,
                churn=[{"op": "leave", "time": 1, "processor": 1}],
            )


# ---------------------------------------------------------------------------
# Fail-stop reissue attribution (failures are leave events)
# ---------------------------------------------------------------------------


class TestFailureReissueMap:
    def test_reissue_of_maps_fresh_to_original(self):
        star = Star(((1, 2), (2, 3)))
        res = simulate_online(star, 8, churn=[ProcessorLeave(3, 1)])
        assert res.completed == 8
        assert res.reissues == len(res.reissue_of) >= 1
        for fresh, orig in res.reissue_of.items():
            assert fresh > 8 and 1 <= orig <= 8
        # chained losses collapse to the *original* id, never a fresh one
        assert set(res.reissue_of.values()).isdisjoint(res.reissue_of)
        assert_trace_exclusive(res.trace)

    def test_clean_run_has_empty_map(self):
        res = simulate_online(Star(((1, 2), (2, 3))), 5)
        assert res.reissue_of == {}

    def test_exposed_through_online_solver_extra(self):
        sol = solve(Problem(Star(((1, 2), (2, 3))), "makespan", n=8,
                            mode="online",
                            options={"failures": [
                                {"time": 3, "processor": 1},
                            ]}))
        assert sol.extra["reissue_of"]
        # the failure is reported as the leave event it runs as
        assert sol.extra["churn"] == [
            {"op": "leave", "time": 3, "processor": 1}]


# ---------------------------------------------------------------------------
# Repatch: examples
# ---------------------------------------------------------------------------


def repatch_parts(platform, n, events):
    """(base solution, churn trace, repatch result) for one episode."""
    base = solve(Problem(platform, "makespan", n=n))
    churn = apply_churn(platform, events)
    return base, churn, repatch_schedule(base.schedule, churn)


class TestRepatchExamples:
    def test_leave_reroutes_orphans(self):
        spider = Spider([Chain([1], [4]), Chain([2], [3])])
        base, churn, result = repatch_parts(
            spider, 10, [{"op": "leave", "time": 6, "processor": [1, 1]}]
        )
        # every task of the dead leg is gone from its old processor
        assert all(a.processor[0] == 1 for a in result.schedule)
        assert result.t == 6
        assert set(result.replanned) | set(result.kept) | set(
            result.kept_done) | set(result.done_off) == set(range(1, 11))

    def test_pure_join_keeps_whole_prefix(self):
        base, churn, result = repatch_parts(
            fig_chain(), 8,
            [{"op": "join", "time": 5, "c": 1, "w": 2}],
        )
        # nothing departed or drifted: every already-started task is kept
        assert not result.done_off
        started = [t for t in base.schedule.tasks()
                   if base.schedule[t].first_emission < 5]
        assert set(started) <= set(result.kept) | set(result.kept_done) \
            | set(result.moved)

    def test_join_of_fast_worker_improves_on_keeping(self):
        # one slow chain proc; a much faster joiner at t=2 must attract
        # most of the remaining work
        chain = Chain([2], [10])
        base, churn, result = repatch_parts(
            chain, 8, [{"op": "join", "time": 2, "c": 1, "w": 1}]
        )
        assert result.completed_makespan < base.makespan
        on_new = sum(1 for a in result.schedule if a.processor == 2)
        assert on_new >= 4

    def test_drift_orphans_touched_tasks_only(self):
        base, churn, result = repatch_parts(
            fig_chain(), 8,
            [{"op": "drift", "time": 6, "processor": 2, "w_factor": 2}],
        )
        # tasks on untouched proc 1 that started before t stay put
        for task in result.kept + result.kept_done:
            a = result.schedule[task]
            old = base.schedule[task]
            assert a.processor == 1
            assert (a.start, tuple(a.comms)) == (old.start, tuple(old.comms))

    def test_mismatched_platform_rejected(self):
        base = solve(Problem(fig_chain(), "makespan", n=4))
        churn = apply_churn(Chain([1, 1], [2, 2]),
                            [{"op": "join", "time": 1, "c": 1, "w": 1}])
        with pytest.raises(SolveError, match="own platform"):
            repatch_schedule(base.schedule, churn)

    def test_solver_requires_events(self):
        with pytest.raises(SolveError, match="at least one event"):
            solve(Problem(fig_chain(), "makespan", n=4, mode="repatch"))

    def test_solver_answer_shape(self):
        sol = solve(Problem(fig_chain(), "makespan", n=8, mode="repatch",
                            options={"churn": [
                                {"op": "drift", "time": 6, "processor": 2,
                                 "w_factor": 2},
                            ]}))
        assert sol.solver == "repatch"
        assert sol.extra["base_solver"] == "chain"
        assert sol.extra["instant"] == 6
        assert sol.extra["completed_makespan"] >= sol.makespan
        assert sol.extra["platform_after"]["kind"] == "chain"
        assert set(sol.stats) >= {"kept", "kept_done", "replanned",
                                  "moved", "done_off", "placements"}
        sol.validate()

    def test_base_options_forwarded_to_tree_solve(self):
        tree = random_tree(6, seed=11)
        churn = [{"op": "join", "time": 2, "parent": 0, "c": 1, "w": 2}]
        sol = solve(Problem(tree, "makespan", n=10, mode="repatch",
                            options={"churn": churn,
                                     "base": {"max_rounds": 1}}))
        sol.validate()
        assert sol.extra["base_solver"] == "tree"
        # the tree solver still value-checks its retired options, so a bad
        # value proves the base options reach it
        with pytest.raises(SolveError, match="max_rounds"):
            solve(Problem(tree, "makespan", n=10, mode="repatch",
                          options={"churn": churn,
                                   "base": {"max_rounds": 0}}))

    def test_repatch_caches_by_exact_fingerprint(self, tmp_path):
        import asyncio

        from repro.service import ScheduleService, SolutionStore

        problem = Problem(
            random_star(3, seed=5), "makespan", n=9, mode="repatch",
            options={"churn": [
                {"op": "drift", "time": 4, "processor": 1, "w_factor": 2},
            ]},
        )

        async def run():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                first = await service.submit(problem)
                second = await service.submit(problem)
                return first, second
            finally:
                service.close()

        first, second = asyncio.run(run())
        assert first.cached is False and second.cached is True
        assert first.fingerprint == second.fingerprint
        assert second.solution.makespan == first.solution.makespan
        second.solution.validate()


# ---------------------------------------------------------------------------
# Repatch: the committed properties, randomized
# ---------------------------------------------------------------------------


def episodes():
    """(platform, n, events) triples for the property suite."""
    platform_s = st.one_of(chains(max_p=3), stars(max_k=3),
                           spiders(max_legs=2, max_depth=2))
    return st.tuples(platform_s, st.integers(4, 12), st.integers(0, 10_000))


@st.composite
def churn_episodes(draw):
    platform, n, seed = draw(episodes())
    try:
        events = random_churn(platform, seed, events=draw(st.integers(1, 3)))
    except ChurnError:  # e.g. 1-proc chain where most draws are leaves
        events = [ProcessorJoin(draw(st.integers(1, 8)), {"c": 1, "w": 2})
                  if not isinstance(platform, Spider)
                  else ProcessorJoin(draw(st.integers(1, 8)),
                                     {"c": [1], "w": [2]})]
    return platform, n, events


class TestRepatchProperties:
    @given(churn_episodes())
    @settings(max_examples=30, deadline=None)
    def test_validates_on_mutated_platform_via_both_engines(self, episode):
        platform, n, events = episode
        specs = [e.to_dict() for e in events]
        sol = solve(Problem(platform, "makespan", n=n, mode="repatch",
                            options={"churn": specs}))
        assert sol.schedule.platform.to_dict() == sol.extra["platform_after"]
        sol.validate()
        verify_by_execution(sol.schedule)

    @given(churn_episodes())
    @settings(max_examples=30, deadline=None)
    def test_prefix_bit_identity(self, episode):
        platform, n, events = episode
        base, churn, result = repatch_parts(platform, n, events)
        kmap = churn.key_map
        for task in result.kept + result.kept_done:
            old = base.schedule[task]
            new = result.schedule[task]
            assert new.processor == kmap[old.processor]
            assert new.start == old.start
            assert tuple(new.comms) == tuple(old.comms)
        # done-off tasks really were done by the churn instant
        adapter = base.schedule.adapter
        for task in result.done_off:
            a = base.schedule[task]
            assert a.start + adapter.work(a.processor) <= result.t

    @given(churn_episodes())
    @settings(max_examples=30, deadline=None)
    def test_never_loses_to_cold_resolve_beyond_tolerance(self, episode):
        platform, n, events = episode
        base, churn, result = repatch_parts(platform, n, events)
        _, remaining, cold_total = cold_resolve(base.schedule, churn)
        assert result.completed_makespan <= REPATCH_TOLERANCE * cold_total

    @given(churn_episodes())
    @settings(max_examples=20, deadline=None)
    def test_repair_is_deterministic(self, episode):
        platform, n, events = episode
        _, _, a = repatch_parts(platform, n, events)
        _, _, b = repatch_parts(platform, n, events)
        assert a.schedule.to_dict() == b.schedule.to_dict()
        assert a.summary() == b.summary()


# ---------------------------------------------------------------------------
# Batch + CLI surfaces
# ---------------------------------------------------------------------------


class TestChurnBatch:
    def scenario(self, sid="c1", **over):
        from repro.batch import Scenario

        spec = dict(
            id=sid,
            platform=random_spider(2, 2, seed=4).to_dict(),
            kind="churn",
            n=10,
            options={"churn": [
                {"op": "leave", "time": 5, "processor": [1, 1]},
            ]},
        )
        spec.update(over)
        return Scenario(**spec)

    def test_churn_scenarios_dispatch_repatch(self):
        from repro.batch import run_batch

        results = run_batch([self.scenario()], validate=True)
        (row,) = results
        assert row.ok, row.error
        assert row.kind == "churn"
        assert row.validated and row.validated_by == "compiled"
        assert row.stats["replanned"] >= 1

    def test_churn_rows_cache_through_store(self):
        from repro.batch import run_batch
        from repro.service.store import SolutionStore

        store = SolutionStore()
        rows = run_batch(
            [self.scenario("c1"), self.scenario("c2")], cache=store
        )
        assert [r.cached for r in rows] == [False, True]
        assert rows[0].makespan == rows[1].makespan

    def test_churn_scenario_validation(self):
        from repro.batch.scenarios import BatchError

        with pytest.raises(BatchError, match="options\\['churn'\\]"):
            self.scenario(options={})
        with pytest.raises(BatchError, match="needs n"):
            self.scenario(n=None)
        with pytest.raises(BatchError, match="no t_lim"):
            self.scenario(t_lim=20)

    def test_reissue_of_round_trips_rows(self):
        from repro.batch import Scenario, run_batch
        from repro.batch.scenarios import ScenarioResult

        sc = Scenario(
            id="f1", platform=Star(((1, 2), (2, 3))).to_dict(),
            kind="online", n=8,
            options={"failures": [{"time": 3, "processor": 1}]},
        )
        (row,) = run_batch([sc])
        assert row.reissue_of
        back = ScenarioResult.from_dict(row.to_dict())
        assert back.reissue_of == row.reissue_of
        assert all(isinstance(k, int) for k in back.reissue_of)


class TestChurnCLI:
    def test_repatch_command(self, capsys):
        from repro.cli import main

        assert main(["repatch", "--leg", "1/4", "--leg", "2/3",
                     "-n", "10", "--leave", "6@1,1"]) == 0
        out = capsys.readouterr().out
        assert "replanned:" in out and "completed makespan:" in out

    def test_repatch_join_and_drift_specs(self, capsys):
        from repro.cli import main

        assert main(["repatch", "--c", "2,3", "--w", "3,5", "-n", "8",
                     "--join", "10@c=1,w=2", "--drift", "5@1*w2,c0.5"]) == 0
        out = capsys.readouterr().out
        assert "churn: 2 event(s)" in out

    def test_repatch_without_events_is_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["repatch", "--c", "2", "--w", "3", "-n", "4"])

    def test_library_errors_exit_code(self, capsys):
        from repro.cli import EXIT_FAILURE, main

        # leaving the chain head empties the platform: ChurnError -> 1
        code = main(["repatch", "--c", "2", "--w", "3", "-n", "4",
                     "--leave", "2@1"])
        assert code == EXIT_FAILURE
        assert "error:" in capsys.readouterr().err
