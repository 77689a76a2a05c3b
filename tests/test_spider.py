"""Tests of the spider algorithm (§7, Theorems 2–3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import max_tasks_within as bf_max_tasks
from repro.baselines.bruteforce import optimal_makespan
from repro.core.chain import chain_makespan, max_tasks_within
from repro.core.feasibility import check, check_deadline
from repro.core.solve_fast import fast_spider_schedule
from repro.core.spider import (
    SpiderRunStats,
    spider_makespan,
    spider_max_tasks,
    spider_schedule,
    spider_schedule_deadline,
)
from repro.core.types import PlatformError
from repro.platforms.chain import Chain
from repro.platforms.presets import paper_fig2_chain, paper_fig5_spider
from repro.platforms.spider import Spider

from conftest import small_spiders, spiders
from test_fork import moore_hodgson


class TestChainFork7Transformation:
    """Fig. 7 (experiment E2): the chain→fork node construction."""

    def test_fig7_nodes(self):
        sp = Spider([paper_fig2_chain()])
        res = spider_schedule_deadline(sp, 14)
        works = sorted(s.work for s in res.fork_nodes)
        assert works == [3, 6, 8, 10, 12]
        assert all(s.c == 2 for s in res.fork_nodes)

    def test_fig7_node_8_is_the_proc2_task(self):
        sp = Spider([paper_fig2_chain()])
        res = spider_schedule_deadline(sp, 14)
        node8 = next(s for s in res.fork_nodes if s.work == 8)
        _leg, task = node8.tag
        leg_sched = res.leg_schedules[1]
        assert leg_sched[task].processor == 2

    def test_all_five_accepted_at_14(self):
        sp = Spider([paper_fig2_chain()])
        res = spider_schedule_deadline(sp, 14)
        assert res.n_tasks == 5
        assert check_deadline(res.schedule, 14) == []


class TestSpiderDeadline:
    @given(small_spiders(), st.integers(0, 18))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive_max_tasks(self, sp, t_lim):
        ours = spider_max_tasks(sp, t_lim)
        if ours >= 8:  # exhaustive search unaffordable beyond this
            return
        theirs = bf_max_tasks(sp, t_lim, cap=8).schedule.n_tasks
        assert ours == theirs

    @given(spiders(max_legs=3, max_depth=3), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_schedule_feasible_within_deadline(self, sp, t_lim):
        res = spider_schedule_deadline(sp, t_lim)
        assert check_deadline(res.schedule, t_lim) == []

    @given(spiders(max_legs=3, max_depth=2), st.integers(0, 25))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_tlim(self, sp, t_lim):
        assert spider_max_tasks(sp, t_lim) <= spider_max_tasks(sp, t_lim + 1)

    @given(spiders(max_legs=3, max_depth=2), st.integers(0, 25))
    @settings(max_examples=40, deadline=None)
    def test_single_leg_equals_chain_deadline(self, sp, t_lim):
        leg1 = sp.leg(1)
        single = Spider([leg1])
        assert spider_max_tasks(single, t_lim) == max_tasks_within(leg1, t_lim)

    @given(spiders(max_legs=3, max_depth=2), st.integers(0, 25))
    @settings(max_examples=30, deadline=None)
    def test_at_least_best_single_leg(self, sp, t_lim):
        """The spider must do at least as well as its best leg alone."""
        best_leg = max(max_tasks_within(leg, t_lim) for leg in sp)
        assert spider_max_tasks(sp, t_lim) >= best_leg

    def test_task_budget_respected(self):
        res = spider_schedule_deadline(paper_fig5_spider(), 40, n=3)
        assert res.n_tasks == 3

    def test_negative_tlim_rejected(self):
        with pytest.raises(PlatformError):
            spider_schedule_deadline(paper_fig5_spider(), -1)

    @given(spiders(max_legs=2, max_depth=2), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_allocators_agree(self, sp, t_lim):
        """The greedy's task count matches the Moore–Hodgson witness on the
        spider's fork nodes (Theorem 3 rests on the fork optimum)."""
        nodes = spider_schedule_deadline(sp, t_lim).fork_nodes
        kept, _ = moore_hodgson(nodes, t_lim)
        assert spider_max_tasks(sp, t_lim) == len(kept)


class TestSpiderMakespan:
    @given(small_spiders(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_optimum(self, sp, n):
        s = spider_schedule(sp, n)
        assert s.n_tasks == n
        assert check(s) == []
        assert s.makespan == optimal_makespan(sp, n).makespan

    @given(spiders(max_legs=3, max_depth=3), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_feasible_at_scale(self, sp, n):
        s = spider_schedule(sp, n)
        assert s.n_tasks == n
        assert check(s) == []

    @given(spiders(max_legs=1, max_depth=4), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_single_leg_equals_chain_algorithm(self, sp, n):
        assert spider_makespan(sp, n) == chain_makespan(sp.leg(1), n)

    def test_rejects_zero_tasks(self):
        with pytest.raises(PlatformError):
            spider_schedule(paper_fig5_spider(), 0)

    def test_star_spider_consistency(self):
        """A depth-1 spider must agree with the fork algorithm."""
        from repro.core.fork import fork_schedule

        sp = Spider([Chain(c=(2,), w=(3,)), Chain(c=(1,), w=(4,))])
        star = sp.as_star()
        for n in range(1, 7):
            assert spider_makespan(sp, n) == fork_schedule(star, n).makespan

    @given(spiders(max_legs=2, max_depth=2), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_makespan_monotone_in_n(self, sp, n):
        assert spider_makespan(sp, n) <= spider_makespan(sp, n + 1)

    def test_extra_leg_never_hurts(self):
        base = Spider([paper_fig2_chain()])
        extended = Spider([paper_fig2_chain(), Chain(c=(1,), w=(2,))])
        for n in (1, 3, 6):
            assert spider_makespan(extended, n) <= spider_makespan(base, n)

    def test_float_platform_bisection(self):
        sp = Spider([Chain(c=(1.5,), w=(2.5,)), Chain(c=(2.0,), w=(1.0,))])
        s = spider_schedule(sp, 3)
        assert s.n_tasks == 3
        assert check(s) == []


class TestWarmStartAndStats:
    """The warm-started bisection is a pure optimisation: same schedules,
    fewer operations, and the win is visible in SpiderRunStats."""

    @given(spiders(max_legs=3, max_depth=2), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_warm_caps_transparent_for_deadline_runs(self, sp, n):
        """Feeding a run its own leg counts as caps must change nothing."""
        t_lim = sp.t_infinity(n)
        cold = spider_schedule_deadline(sp, t_lim, n)
        warm = spider_schedule_deadline(sp, t_lim, n, leg_caps=cold.leg_counts)
        assert warm.schedule.assignments == cold.schedule.assignments

    @given(spiders(max_legs=3, max_depth=2), st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_caps_from_larger_tlim_transparent(self, sp, t_lim):
        wide = spider_schedule_deadline(sp, t_lim + 5)
        cold = spider_schedule_deadline(sp, t_lim)
        warm = spider_schedule_deadline(sp, t_lim, leg_caps=wide.leg_counts)
        assert warm.schedule.assignments == cold.schedule.assignments
        assert warm.n_tasks == cold.n_tasks

    def test_stats_counters_populated(self):
        stats = SpiderRunStats()
        sched = spider_schedule(paper_fig5_spider(), 6, stats=stats)
        assert sched.n_tasks == 6
        assert stats.probes >= 1
        assert stats.legs_scheduled >= stats.probes  # several legs per probe
        assert stats.fork_nodes > 0
        assert stats.alloc.candidates == stats.fork_nodes
        assert stats.chain.tasks_placed > 0

    def test_stats_do_not_change_result(self):
        stats = SpiderRunStats()
        sp = paper_fig5_spider()
        with_stats = spider_schedule(sp, 5, stats=stats)
        without = spider_schedule(sp, 5)
        assert with_stats.assignments == without.assignments

    def test_short_circuit_fires_and_preserves_answer(self):
        """A leg that cannot contribute at small Tlim lets low probes be
        refuted by the cheap bounds alone — without changing the optimum."""
        sp = Spider([Chain(c=(1,), w=(1,)), Chain(c=(50,), w=(1,))])
        stats = SpiderRunStats()
        sched = spider_schedule(sp, 20, stats=stats)
        assert stats.probes_short_circuited > 0
        assert sched.makespan == fast_spider_schedule(sp, 20)[0].makespan

    def test_leg_counts_reported(self):
        res = spider_schedule_deadline(paper_fig5_spider(), 20)
        assert set(res.leg_counts) == {1, 2, 3}
        assert all(v >= 0 for v in res.leg_counts.values())
        assert sum(res.leg_counts.values()) >= res.n_tasks
