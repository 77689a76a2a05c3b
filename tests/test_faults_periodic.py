"""Tests for failure injection and constructive periodic schedules."""

import pytest
from fractions import Fraction

from repro.analysis.periodic import (
    achieved_rate,
    periodic_star_schedule,
    star_periodic_pattern,
)
from repro.analysis.steady_state import star_steady_state
from repro.core.feasibility import check
from repro.core.types import PlatformError, SimulationError
from repro.platforms.chain import Chain
from repro.platforms.presets import seti_like_spider
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.sim.churn import ProcessorLeave
from repro.sim.online import simulate_online
from repro.sim.trace import Trace, assert_trace_exclusive


def fail_stop(platform, n, *failures):
    """An online run where each ``(time, processor)`` failure is a leave."""
    return simulate_online(
        platform, n, churn=[ProcessorLeave(t, p) for t, p in failures]
    )


class TestFailureInjection:
    def test_no_failures_matches_plain_online(self):
        star = Star([(1, 3), (2, 2)])
        res = fail_stop(star, 8)
        assert res.completed == 8
        assert res.attempts == 8 and res.reissues == 0
        assert_trace_exclusive(res.trace)

    def test_single_failure_reissues(self):
        star = Star([(1, 3), (2, 2)])
        res = fail_stop(star, 8, (3, 1))
        assert res.completed == 8
        assert res.attempts >= 8
        assert res.survivors == [2]
        assert res.schedule is None  # reissued ids: trace-only
        assert_trace_exclusive(res.trace)

    def test_failure_degrades_makespan(self):
        star = Star([(1, 3), (1, 3), (1, 3)])
        clean = fail_stop(star, 12)
        faulty = fail_stop(star, 12, (2, 1))
        assert faulty.makespan >= clean.makespan
        # losing a fast cluster node of the SETI-like spider hurts too
        sp = seti_like_spider()
        clean = fail_stop(sp, 25)
        faulty = fail_stop(sp, 25, (6, (1, 2)))
        assert faulty.completed == 25
        assert faulty.makespan >= clean.makespan

    def test_relay_failure_kills_subtree(self):
        # a chain: killing proc 1 strands proc 2 as well
        ch = Chain(c=(1, 1), w=(2, 2))
        with pytest.raises(SimulationError):
            fail_stop(ch, 4, (1, 1))

    def test_mid_leg_failure_on_spider(self):
        sp = seti_like_spider()
        res = fail_stop(sp, 15, (5, (1, 2)))
        assert res.completed == 15
        # (1,2) and its downstream (1,3) are gone
        assert (1, 2) not in res.survivors and (1, 3) not in res.survivors
        assert (1, 1) in res.survivors
        assert_trace_exclusive(res.trace)

    def test_all_dead_raises(self):
        star = Star([(1, 2)])
        with pytest.raises(SimulationError):
            fail_stop(star, 5, (1, 1))

    def test_multiple_failures(self):
        sp = seti_like_spider()
        res = fail_stop(sp, 20, (4, (3, 1)), (8, (4, 1)))
        assert res.completed == 20
        assert res.reissues >= 0
        assert_trace_exclusive(res.trace)
        # rolling churn of three hosts forces at least one reissue
        res = fail_stop(sp, 25, (4, (3, 1)), (9, (5, 1)), (14, (6, 1)))
        assert res.completed == 25 and res.reissues >= 1
        assert_trace_exclusive(res.trace)

    def test_failure_after_completion_is_noop(self):
        star = Star([(1, 2), (1, 2)])
        res = fail_stop(star, 4, (10_000, 1))
        assert res.reissues == 0

    def test_trace_exclusive_detects_overlap(self):
        trace = Trace()
        trace.record_interval("x", 0, 5, 1)
        trace.record_interval("x", 3, 8, 2)
        with pytest.raises(SimulationError):
            assert_trace_exclusive(trace)


class TestPeriodicSchedules:
    def test_pattern_rate_equals_throughput(self):
        star = Star([(1, 4), (2, 3), (1, 6)])
        pattern = star_periodic_pattern(star)
        assert pattern.rate == star_steady_state(star).throughput

    def test_pattern_counts_fit_budgets(self):
        star = Star([(2, 3), (3, 5), (1, 9)])
        p = star_periodic_pattern(star)
        assert sum(k * ch.c for k, ch in zip(p.per_child, star.children)) <= p.period
        assert all(
            k * ch.w <= p.period for k, ch in zip(p.per_child, star.children)
        )

    @pytest.mark.parametrize("periods", [1, 3, 10])
    def test_unrolled_schedule_feasible(self, periods):
        star = Star([(1, 4), (2, 3), (1, 6)])
        s = periodic_star_schedule(star, periods)
        assert check(s) == []
        assert s.n_tasks == periods * star_periodic_pattern(star).tasks_per_period

    def test_rate_converges_to_throughput(self):
        star = Star([(1, 4), (2, 3), (1, 6)])
        thr = float(star_steady_state(star).throughput)
        rates = [achieved_rate(periodic_star_schedule(star, k)) for k in (1, 4, 16)]
        assert all(r <= thr + 1e-9 for r in rates)
        assert rates[0] < rates[-1]
        assert rates[-1] > 0.95 * thr

    def test_port_saturated_star(self):
        star = Star([(2, 1), (2, 1)])  # CPUs fast, port limits to 1/2
        p = star_periodic_pattern(star)
        assert p.rate == Fraction(1, 2)
        s = periodic_star_schedule(star, 4)
        assert check(s) == []

    def test_rejects_zero_periods(self):
        with pytest.raises(PlatformError):
            periodic_star_schedule(Star([(1, 1)]), 0)

    def test_single_child(self):
        star = Star([(3, 2)])
        s = periodic_star_schedule(star, 5)
        assert check(s) == []
        assert achieved_rate(s) <= 1 / 3 + 1e-9
