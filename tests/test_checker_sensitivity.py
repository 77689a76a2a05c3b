"""Adversarial sensitivity tests: the validators must *catch* corruption.

A checker that always says "feasible" would pass every other test in this
suite.  Here we take provably-feasible schedules from the algorithms,
corrupt them in targeted ways, and assert both validators (static checker
and discrete-event executor) reject the corruption.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import schedule_chain
from repro.core.commvector import CommVector
from repro.core.feasibility import check, is_feasible
from repro.core.schedule import Schedule, TaskAssignment
from repro.core.spider import spider_schedule
from repro.core.types import SimulationError
from repro.platforms.presets import paper_fig5_spider
from repro.sim.executor import execute

from conftest import chains


def _with_assignment(schedule: Schedule, task: int, a: TaskAssignment) -> Schedule:
    """Copy of ``schedule`` with one assignment replaced."""
    return Schedule(schedule.platform, {**schedule.assignments, task: a})


class TestStaticCheckerCatchesCorruption:
    @given(chains(max_p=4), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_start_before_arrival_always_caught(self, ch, n):
        s = schedule_chain(ch, n)
        for t in s.tasks():
            a = s[t]
            route_latency = sum(
                ch.latency(j) for j in range(1, a.processor + 1)
            )
            bad_start = a.first_emission + route_latency - 1  # 1 unit early
            corrupted = _with_assignment(
                s, t, TaskAssignment(t, a.processor, bad_start, a.comms)
            )
            assert not is_feasible(corrupted), f"task {t} corruption missed"

    @given(chains(max_p=4), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_duplicated_emission_always_caught(self, ch, n):
        """Two tasks emitted at the same instant on link 1 must clash."""
        s = schedule_chain(ch, n)
        t1, t2 = s.tasks()[0], s.tasks()[1]
        a2 = s[t2]
        stolen = list(a2.comms.times)
        stolen[0] = s[t1].comms[1]  # same first emission as task 1
        corrupted = _with_assignment(
            s, t2, TaskAssignment(t2, a2.processor, a2.start, CommVector(stolen))
        )
        violations = check(corrupted)
        assert violations, "duplicate emission not caught"

    @given(chains(max_p=4), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_colliding_executions_always_caught(self, ch, n):
        s = schedule_chain(ch, n)
        counts = s.task_counts()
        proc, cnt = max(counts.items(), key=lambda kv: kv[1])
        if cnt < 2:
            return
        tasks = s.tasks_on(proc)
        a_first, a_second = s[tasks[0]], s[tasks[1]]
        corrupted = _with_assignment(
            s,
            tasks[1],
            TaskAssignment(tasks[1], proc, a_first.start, a_second.comms),
        )
        assert any("condition 3" in v or "condition 2" in v for v in check(corrupted))

    def test_relay_before_reception_caught_on_spider(self):
        sp = paper_fig5_spider()
        s = spider_schedule(sp, 6)
        deep = [t for t in s.tasks() if len(s[t].comms) >= 2]
        if not deep:
            pytest.skip("no relayed task in this schedule")
        t = deep[0]
        a = s[t]
        times = list(a.comms.times)
        times[1] = times[0]  # relay starts the instant the emission starts
        corrupted = _with_assignment(
            s, t, TaskAssignment(t, a.processor, a.start, CommVector(times))
        )
        assert any("condition 1" in v for v in check(corrupted))


class TestExecutorCatchesCorruption:
    @given(chains(max_p=3), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_executor_agrees_with_checker_on_corruption(self, ch, n):
        """Any start-before-arrival corruption must also fail execution."""
        s = schedule_chain(ch, n)
        t = s.tasks()[0]
        a = s[t]
        route_latency = sum(ch.latency(j) for j in range(1, a.processor + 1))
        bad = _with_assignment(
            s,
            t,
            TaskAssignment(
                t, a.processor, a.first_emission + route_latency - 1, a.comms
            ),
        )
        with pytest.raises(SimulationError):
            execute(bad)

    def test_two_independent_validators(self, fig2_chain):
        """The validators are independent implementations: corrupting the
        port discipline trips them both."""
        s = schedule_chain(fig2_chain, 4)
        t2 = s.tasks()[1]
        a = s[t2]
        times = list(a.comms.times)
        times[0] = s[1].comms[1]  # collide with task 1 on link 1
        bad = _with_assignment(
            s, t2, TaskAssignment(t2, a.processor, a.start, CommVector(times))
        )
        assert check(bad)
        with pytest.raises(SimulationError):
            execute(bad)
