"""Tests of the discrete-event engine, the schedule executor and the online
policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import schedule_chain
from repro.core.commvector import CommVector
from repro.core.feasibility import check
from repro.core.schedule import Schedule, TaskAssignment
from repro.core.spider import spider_schedule
from repro.core.types import SimulationError
from repro.platforms.chain import Chain
from repro.platforms.presets import paper_fig2_chain, seti_like_spider
from repro.platforms.star import Star
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind, event_sort_key
from repro.sim.executor import execute, verify_by_execution
from repro.sim.online import ONLINE_POLICIES, simulate_online
from repro.sim.trace import trace_to_schedule

from conftest import chains, spiders


class TestEngine:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.at(5, lambda s: seen.append(5))
        sim.at(1, lambda s: seen.append(1))
        sim.at(3, lambda s: seen.append(3))
        sim.run()
        assert seen == [1, 3, 5]

    def test_fifo_at_same_time(self):
        sim = Simulator()
        seen = []
        sim.at(1, lambda s: seen.append("a"))
        sim.at(1, lambda s: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]

    def test_priority_orders_simultaneous(self):
        sim = Simulator()
        seen = []
        sim.at(1, lambda s: seen.append("low"), priority=5)
        sim.at(1, lambda s: seen.append("high"), priority=0)
        sim.run()
        assert seen == ["high", "low"]

    def test_handlers_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def first(s):
            seen.append(s.now)
            s.after(2, lambda s2: seen.append(s2.now))

        sim.at(1, first)
        end = sim.run()
        assert seen == [1, 3] and end == 3

    def test_cannot_schedule_in_past(self):
        sim = Simulator()

        def bad(s):
            s.at(0, lambda s2: None)

        sim.at(5, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        sim.at(1, lambda s: s.after(-1, lambda s2: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until(self):
        sim = Simulator()
        seen = []
        sim.at(1, lambda s: seen.append(1))
        sim.at(10, lambda s: seen.append(10))
        sim.run(until=5)
        assert seen == [1] and sim.pending == 1

    def test_event_budget(self):
        sim = Simulator()

        def loop(s):
            s.after(1, loop)

        sim.at(0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_event_sort_key_ends_before_starts(self):
        e_end = Event(5, EventKind.SEND_END, 1, "x")
        e_start = Event(5, EventKind.SEND_START, 1, "x")
        assert event_sort_key(e_end) < event_sort_key(e_start)


class TestExecutor:
    def test_fig2_executes_exactly(self, fig2_chain):
        s = schedule_chain(fig2_chain, 5)
        trace = verify_by_execution(s)
        assert trace.makespan == 14
        assert trace.tasks_completed() == 5

    def test_detects_port_conflict(self):
        ch = Chain(c=(2,), w=(10,))
        s = Schedule(ch, {
            1: TaskAssignment(1, 1, 2, CommVector([0])),
            2: TaskAssignment(2, 1, 12, CommVector([1])),  # overlap
        })
        with pytest.raises(SimulationError):
            execute(s)

    def test_detects_premature_execution(self):
        ch = Chain(c=(2,), w=(3,))
        s = Schedule(ch, {1: TaskAssignment(1, 1, 1, CommVector([0]))})  # arrives at 2
        with pytest.raises(SimulationError):
            execute(s)

    def test_detects_premature_relay(self):
        ch = Chain(c=(2, 2), w=(3, 3))
        s = Schedule(ch, {1: TaskAssignment(1, 2, 10, CommVector([0, 1]))})
        with pytest.raises(SimulationError):
            execute(s)

    def test_detects_processor_overlap(self):
        ch = Chain(c=(1,), w=(5,))
        s = Schedule(ch, {
            1: TaskAssignment(1, 1, 1, CommVector([0])),
            2: TaskAssignment(2, 1, 3, CommVector([1])),
        })
        with pytest.raises(SimulationError):
            execute(s)

    @given(chains(max_p=4), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_every_algorithm_schedule_executes(self, ch, n):
        trace = verify_by_execution(schedule_chain(ch, n))
        assert trace.tasks_completed() == n

    @given(spiders(max_legs=3, max_depth=2), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_spider_schedules_execute(self, sp, n):
        trace = verify_by_execution(spider_schedule(sp, n))
        assert trace.tasks_completed() == n

    def test_trace_roundtrip_to_schedule(self, fig2_chain):
        s = schedule_chain(fig2_chain, 5)
        trace = execute(s)
        back = trace_to_schedule(trace, fig2_chain)
        assert back.makespan == s.makespan
        assert back.task_counts() == s.task_counts()

    def test_utilisation_bounds(self, fig2_chain):
        trace = execute(schedule_chain(fig2_chain, 5))
        for resource in trace.busy:
            assert 0.0 <= trace.utilisation(resource) <= 1.0

    def test_summary_fields(self, fig2_chain):
        trace = execute(schedule_chain(fig2_chain, 3))
        summary = trace.summary()
        assert summary["tasks"] == 3
        assert summary["makespan"] == trace.makespan


class TestOnlinePolicies:
    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_all_tasks_complete_and_feasible_on_chain(self, policy):
        ch = Chain(c=(2, 3), w=(3, 5))
        res = simulate_online(ch, 7, policy)
        assert res.trace.tasks_completed() == 7
        assert check(res.schedule) == []

    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_all_tasks_complete_and_feasible_on_spider(self, policy):
        sp = seti_like_spider()
        res = simulate_online(sp, 12, policy)
        assert res.trace.tasks_completed() == 12
        assert check(res.schedule) == []

    @pytest.mark.parametrize("policy", sorted(ONLINE_POLICIES))
    def test_star_feasible(self, policy):
        star = Star([(1, 3), (2, 2), (4, 1)])
        res = simulate_online(star, 9, policy)
        assert res.trace.tasks_completed() == 9
        assert check(res.schedule) == []

    def test_online_never_beats_offline_optimal(self):
        sp = seti_like_spider()
        opt = spider_schedule(sp, 15).makespan
        makespans = {policy: simulate_online(sp, 15, policy).makespan
                     for policy in ONLINE_POLICIES}
        assert min(makespans.values()) >= opt
        # bandwidth-aware allocation beats the speed-blind policy
        assert makespans["bandwidth_centric"] <= makespans["round_robin"]

    def test_custom_policy_callable(self):
        ch = Chain(c=(1,), w=(2,))

        def always_first(state, procs, adapter):
            return procs[0]

        res = simulate_online(ch, 3, always_first)
        assert res.policy == "always_first"
        assert res.trace.tasks_completed() == 3

    @given(chains(max_p=3), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_demand_driven_feasible_random(self, ch, n):
        res = simulate_online(ch, n, "demand_driven")
        assert res.trace.tasks_completed() == n
        assert check(res.schedule) == []
