"""Tests for metrics, steady-state throughput and complexity fitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    chain_opcount_in_n,
    chain_opcount_in_p,
    fit_power_law,
    timed,
    wallclock_in_n,
)
from repro.analysis.metrics import (
    comparison_table,
    compute_metrics,
    format_table,
    optimality_ratio,
    speedup_over_single,
)
from repro.analysis.steady_state import (
    chain_steady_state,
    spider_steady_state,
    star_steady_state,
    tree_steady_state,
)
from repro.cli import main
from repro.core.chain import chain_makespan, schedule_chain
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree

from conftest import chains, stars


class TestMetrics:
    def test_fig2_metrics(self, fig2_chain):
        s = schedule_chain(fig2_chain, 5)
        m = compute_metrics(s)
        assert m.n_tasks == 5 and m.makespan == 14
        assert m.counts == {1: 4, 2: 1}
        # proc 1 runs 4 tasks x 3 units in 14 units
        assert math.isclose(m.proc_utilisation[1], 12 / 14)
        assert math.isclose(m.proc_utilisation[2], 5 / 14)

    def test_buffer_wait_positive_when_delayed(self, fig2_chain):
        s = schedule_chain(fig2_chain, 5)
        assert compute_metrics(s).buffer_wait > 0

    def test_bottleneck_port(self, fig2_chain):
        m = compute_metrics(schedule_chain(fig2_chain, 5))
        assert m.bottleneck_port == 0  # the master's port

    def test_mean_utilisation_bounds(self, fig2_chain):
        m = compute_metrics(schedule_chain(fig2_chain, 5))
        assert 0 < m.mean_proc_utilisation <= 1

    def test_optimality_ratio(self):
        assert optimality_ratio(15, 10) == 1.5
        assert optimality_ratio(0, 0) == 1.0
        assert optimality_ratio(5, 0) == float("inf")

    def test_comparison_table_sorted(self):
        rows = comparison_table({"opt": 10, "slow": 20, "mid": 15}, "opt")
        assert [r.label for r in rows] == ["opt", "mid", "slow"]
        assert rows[0].ratio == 1.0 and rows[2].ratio == 2.0

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "33" in lines[3]

    def test_speedup(self, fig2_chain):
        s = schedule_chain(fig2_chain, 5)
        t_inf = fig2_chain.t_infinity(5)
        assert speedup_over_single(s, t_inf) == t_inf / 14


class TestSteadyState:
    def test_star_port_bound(self):
        # two children (1, 10): each can eat 1/10; port allows 1/c=1 total
        star = Star([(1, 10), (1, 10)])
        ss = star_steady_state(star)
        assert ss.throughput == Fraction(2, 10)

    def test_star_port_saturates(self):
        # child CPUs are fast; master port c=2 limits to 1/2
        star = Star([(2, 1), (2, 1)])
        ss = star_steady_state(star)
        assert ss.throughput == Fraction(1, 2)

    def test_star_greedy_prefers_cheap_link(self):
        star = Star([(1, 2), (4, 1)])
        ss = star_steady_state(star)
        # cheap link child eats 1/2 using 1/2 port budget; remaining 1/2
        # buys 1/8 from the expensive child: total 5/8
        assert ss.throughput == Fraction(5, 8)
        assert ss.child_rates == (Fraction(1, 2), Fraction(1, 8))

    def test_chain_single(self):
        assert chain_steady_state(Chain(c=(2,), w=(3,))).throughput == Fraction(1, 3)
        assert chain_steady_state(Chain(c=(3,), w=(2,))).throughput == Fraction(1, 3)

    def test_chain_nested_aggregation(self):
        # (c=2, w=3) then (c=3, w=5): tail eats 1/5 capped by 1/3;
        # head absorbs 1/3 + 1/5 = 8/15 capped by link 1/2
        ch = Chain(c=(2, 3), w=(3, 5))
        assert chain_steady_state(ch).throughput == Fraction(1, 2)

    def test_chain_deep_link_bound(self):
        ch = Chain(c=(1, 10), w=(100, 1))
        # tail: min(1/10, 1/1) = 1/10; head: min(1/1, 1/100 + 1/10) = 11/100
        assert chain_steady_state(ch).throughput == Fraction(11, 100)

    def test_spider_consistency_with_star(self):
        star = Star([(1, 2), (4, 1)])
        sp = Spider.from_star(star)
        assert spider_steady_state(sp).throughput == star_steady_state(star).throughput

    def test_zero_latency_legs_cost_no_port_time(self, capsys):
        # legs opening with c = 0 get their whole demand: 1/3 + 1/2 and
        # 1/4 + 1/2, and the port budget is left for the legs that pay
        sp = Spider([Chain(c=(0, 1), w=(3, 2)), Chain(c=(0, 1), w=(4, 2))])
        ss = spider_steady_state(sp)
        assert ss.throughput == Fraction(19, 12)
        assert ss.child_rates == (Fraction(5, 6), Fraction(3, 4))
        mixed = Spider([Chain(c=(0,), w=(2,)), Chain(c=(1,), w=(1,))])
        assert spider_steady_state(mixed).throughput == Fraction(3, 2)
        assert main(["steady", "--leg", "0/3,1/2", "--leg", "0/4,1/2"]) == 0
        assert "throughput: 19/12 " in capsys.readouterr().out

    def test_tree_consistency_with_chain(self):
        ch = Chain(c=(2, 3), w=(3, 5))
        t = Tree([(0, 1, 2, 3), (1, 2, 3, 5)])
        assert tree_steady_state(t).throughput == chain_steady_state(ch).throughput

    def test_tree_consistency_with_star(self):
        star = Star([(1, 2), (4, 1)])
        t = Tree([(0, 1, 1, 2), (0, 2, 4, 1)])
        assert tree_steady_state(t).throughput == star_steady_state(star).throughput

    @given(stars(max_k=4))
    @settings(max_examples=40, deadline=None)
    def test_star_throughput_bounds(self, star):
        ss = star_steady_state(star)
        # cannot beat the port nor the sum of CPUs
        assert ss.throughput <= Fraction(1, min(ch.c for ch in star.children))
        assert ss.throughput <= sum(Fraction(1, ch.w) for ch in star.children)

    @given(chains(max_p=4))
    @settings(max_examples=40, deadline=None)
    def test_chain_rate_matches_asymptotic_makespan(self, ch):
        """E9's shape: n/makespan(n) approaches the steady-state rate."""
        thr = chain_steady_state(ch).throughput
        n = 64
        rate = Fraction(n, chain_makespan(ch, n))
        assert rate <= thr  # throughput is an upper bound
        # and within ~ O(1/n) of it
        assert float(thr - rate) <= float(thr) * 0.35

    def test_period_hint(self):
        ss = star_steady_state(Star([(2, 1)]))
        assert ss.period_hint == 1 / ss.throughput


class TestComplexityFits:
    def test_fit_power_law_exact(self):
        xs = [1, 2, 4, 8]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert math.isclose(fit.exponent, 2.0, abs_tol=1e-9)
        assert math.isclose(fit.prefactor, 3.0, rel_tol=1e-9)
        assert fit.r_squared > 0.999

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_opcount_linear_in_n(self):
        ch = Chain.homogeneous(4, 2, 3)
        counts, fit = chain_opcount_in_n(ch, [8, 16, 32, 64, 128])
        assert math.isclose(fit.exponent, 1.0, abs_tol=1e-6)
        # exactly n * p(p+1)/2 elements
        assert counts[0] == 8 * 10

    def test_opcount_quadratic_in_p(self):
        counts, fit = chain_opcount_in_p(
            lambda p: Chain.homogeneous(p, 2, 3), [4, 8, 16, 32], n=16
        )
        # Σk = p(p+1)/2 per task: slope tends to 2 from above
        assert 1.8 <= fit.exponent <= 2.3

    def test_timed_returns_positive(self):
        assert timed(lambda: sum(range(1000))) > 0

    def test_wallclock_fit_runs(self):
        ch = Chain.homogeneous(3, 1, 2)
        times, fit = wallclock_in_n(ch, [16, 32, 64], repeats=1)
        assert len(times) == 3 and all(t > 0 for t in times)

    def test_str_format(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert "x^" in str(fit)
