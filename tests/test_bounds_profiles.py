"""Tests for analytic lower bounds and the makespan/deadline staircases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    makespan_lower_bound,
    port_bound,
    processor_bound,
    route_bound,
    steady_state_bound,
)
from repro.analysis.profiles import (
    StaircaseProfile,
    makespan_profile,
    verify_staircase_duality,
)
from repro.analysis.steady_state import chain_steady_state, spider_steady_state
from repro.core.chain import chain_makespan
from repro.core.fork import fork_schedule
from repro.core.spider import spider_makespan
from repro.core.types import PlatformError
from repro.platforms.chain import Chain
from repro.platforms.generators import random_chain, random_spider
from repro.platforms.presets import paper_fig2_chain, paper_fig5_spider
from repro.platforms.star import Star
from repro.solve import Problem, solve

from conftest import chains, spiders, stars


class TestLowerBounds:
    @given(chains(max_p=4), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_chain_bounds_hold(self, ch, n):
        assert makespan_lower_bound(ch, n) <= chain_makespan(ch, n) + 1e-9

    @given(stars(max_k=3), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_star_bounds_hold(self, star, n):
        assert makespan_lower_bound(star, n) <= fork_schedule(star, n).makespan + 1e-9

    @given(spiders(max_legs=3, max_depth=2), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_spider_bounds_hold(self, sp, n):
        assert makespan_lower_bound(sp, n) <= spider_makespan(sp, n) + 1e-9

    def test_bound_tight_on_master_only_chain(self):
        ch = Chain(c=(2,), w=(3,))
        # port bound: (n-1)*2 + 5; processor bound: 2 + 3n — proc wins
        assert processor_bound(ch, 4) == 2 + 12
        assert chain_makespan(ch, 4) == 14 == makespan_lower_bound(ch, 4)

    def test_port_bound_on_fig2(self, fig2_chain):
        assert port_bound(fig2_chain, 5) == 4 * 2 + 5

    def test_route_bound(self, fig2_chain):
        assert route_bound(fig2_chain) == 5  # c1 + w1

    def test_steady_state_bound_large_n(self, fig2_chain):
        n = 200
        ss = steady_state_bound(fig2_chain, n)
        thr = chain_steady_state(fig2_chain).throughput
        assert ss == pytest.approx((n - 1) / float(thr))
        assert ss <= chain_makespan(fig2_chain, n)

    def test_lower_bound_at_scale(self):
        """The sanity rail brute force cannot provide: n=500."""
        sp = paper_fig5_spider()
        n = 500
        mk = spider_makespan(sp, n)
        lb = makespan_lower_bound(sp, n)
        assert lb <= mk
        assert mk <= 1.2 * lb  # the algorithm lands close to the bound
        # and the sandwich tightens with n on random platforms too
        cases = [(random_chain(5, seed=s), 2000, 1.05) for s in range(4)]
        cases += [(random_spider(3, 2, seed=s), 500, 1.1) for s in range(3)]
        cases.append((Star([(1, 4), (2, 3), (1, 6)]), 256, 1.05))
        for platform, n, slack in cases:
            mk = solve(Problem(platform, "makespan", n=n)).makespan
            lb = makespan_lower_bound(platform, n)
            assert lb <= mk <= slack * lb, (platform, n, mk / lb)


class TestStaircaseProfiles:
    def test_fig2_breakpoints(self, fig2_chain):
        profile = makespan_profile(fig2_chain, 5)
        assert profile.makespan(5) == 14
        assert profile.breakpoints == tuple(
            chain_makespan(fig2_chain, n) for n in (1, 2, 3, 4, 5)
        )

    def test_tasks_within_inverts(self, fig2_chain):
        profile = makespan_profile(fig2_chain, 6)
        assert profile.tasks_within(14) == 5
        assert profile.tasks_within(13) == 4
        assert profile.tasks_within(0) == 0

    def test_marginal_costs_converge_to_cadence(self, fig2_chain):
        profile = makespan_profile(fig2_chain, 20)
        costs = profile.marginal_costs()
        thr = chain_steady_state(fig2_chain).throughput
        # tail marginal cost equals the steady-state cadence 1/throughput = 2
        assert costs[-1] == 1 / thr
        # a spider's saturated tail pays between one and two cadences
        spider = paper_fig5_spider()
        tail = makespan_profile(spider, 25).marginal_costs()[-1]
        cadence = 1 / spider_steady_state(spider).throughput
        assert cadence <= tail <= 2 * cadence

    def test_out_of_range(self, fig2_chain):
        profile = makespan_profile(fig2_chain, 3)
        with pytest.raises(PlatformError):
            profile.makespan(4)
        with pytest.raises(PlatformError):
            profile.makespan(0)

    def test_rejects_bad_max_n(self, fig2_chain):
        with pytest.raises(PlatformError):
            makespan_profile(fig2_chain, 0)

    @given(chains(max_p=3))
    @settings(max_examples=25, deadline=None)
    def test_duality_on_chains(self, ch):
        verify_staircase_duality(ch, 6)

    @given(spiders(max_legs=2, max_depth=2))
    @settings(max_examples=15, deadline=None)
    def test_duality_on_spiders(self, sp):
        verify_staircase_duality(sp, 5)

    def test_duality_on_star(self):
        verify_staircase_duality(Star([(1, 3), (2, 2)]), 6)

    def test_profile_from_breakpoints_directly(self):
        profile = StaircaseProfile((3, 5, 9))
        assert profile.max_tasks == 3
        assert profile.tasks_within(5) == 2
        assert profile.marginal_costs() == [2, 4]
