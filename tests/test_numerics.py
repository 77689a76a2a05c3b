"""Numeric-domain coverage: floats, Fractions, zero-latency masters, scale.

The core algorithms are plain arithmetic, so they must work over any ordered
numeric field: ints (exact, the default), ``fractions.Fraction`` (exact
rationals) and floats (with EPS-tolerant feasibility checking).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import optimal_makespan
from repro.core.chain import chain_makespan, schedule_chain
from repro.core.solve_fast import chain_schedule
from repro.core.feasibility import check, is_feasible
from repro.core.fork import fork_schedule
from repro.core.spider import spider_schedule
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.sim.executor import verify_by_execution


class TestFloatPlatforms:
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=9.0, allow_nan=False),
            min_size=2,
            max_size=6,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_feasible_on_floats(self, values, n):
        p = len(values) // 2
        ch = Chain(values[:p], values[p : 2 * p])
        s = schedule_chain(ch, n)
        assert s.n_tasks == n
        assert check(s) == []

    def test_float_chain_matches_bruteforce(self):
        ch = Chain(c=(1.5, 2.25), w=(3.5, 1.75))
        for n in (1, 2, 3, 4):
            ours = chain_makespan(ch, n)
            exact = optimal_makespan(ch, n).makespan
            assert ours == pytest.approx(exact)

    def test_float_star(self):
        star = Star([(0.5, 1.5), (1.25, 0.75)])
        s = fork_schedule(star, 4)
        assert s.n_tasks == 4
        assert check(s) == []

    def test_float_executes_on_simulator(self):
        ch = Chain(c=(0.5, 1.5), w=(2.5, 1.0))
        verify_by_execution(schedule_chain(ch, 5))


class TestFractionPlatforms:
    def test_chain_exact_rationals(self):
        ch = Chain(
            c=(Fraction(1, 2), Fraction(3, 4)), w=(Fraction(5, 3), Fraction(2, 1))
        )
        s = schedule_chain(ch, 4)
        assert check(s) == []
        assert isinstance(s.makespan, Fraction)

    def test_fraction_matches_scaled_integers(self):
        """Scaling a platform by a rational scales the makespan exactly."""
        ints = Chain(c=(2, 3), w=(3, 5))
        scaled = Chain(
            c=(Fraction(2, 7), Fraction(3, 7)), w=(Fraction(3, 7), Fraction(5, 7))
        )
        for n in (1, 3, 5):
            assert chain_makespan(scaled, n) == Fraction(chain_makespan(ints, n), 7)

    def test_fast_path_on_fractions(self):
        ch = Chain(c=(Fraction(1, 3), Fraction(1, 2)), w=(Fraction(2, 3), Fraction(1, 1)))
        a = schedule_chain(ch, 5)
        b, stats = chain_schedule(ch, 5)  # Fractions go to the oracle
        assert stats["engine"] == "object"
        assert a.to_dict() == b.to_dict()


class TestZeroLatencyMaster:
    """c₁ = 0 models a master that computes (allowed by the escape hatch)."""

    def test_chain_with_computing_master(self):
        ch = Chain(c=(2,), w=(4,)).with_computing_master(3)
        assert ch.c == (0, 2)
        s = schedule_chain(ch, 6)
        assert check(s) == []
        # the "master" (zero-latency first worker) picks up work
        assert s.task_counts().get(1, 0) > 0

    def test_zero_latency_matches_bruteforce(self):
        ch = Chain(c=(0, 2), w=(3, 4))
        for n in (1, 2, 4):
            assert chain_makespan(ch, n) == optimal_makespan(ch, n).makespan

    def test_t_infinity_zero_latency(self):
        ch = Chain(c=(0,), w=(5,))
        assert ch.t_infinity(3) == 0 + 2 * 5 + 5

    def test_executes(self):
        ch = Chain(c=(0, 1), w=(2, 2))
        verify_by_execution(schedule_chain(ch, 4))


class TestScale:
    def test_chain_5000_tasks(self):
        ch = Chain(c=(2, 3, 1), w=(3, 5, 4))
        s = chain_schedule(ch, 5000)[0]
        assert s.n_tasks == 5000
        # spot-check feasibility invariants cheaply: makespan rate near bound
        from repro.analysis.steady_state import chain_steady_state

        thr = chain_steady_state(ch).throughput
        assert 5000 / float(s.makespan) <= float(thr) + 1e-9

    def test_wide_spider_200_tasks(self):
        sp = Spider(
            [Chain(c=(i % 3 + 1,), w=(i % 5 + 1,)) for i in range(12)]
        )
        s = spider_schedule(sp, 200)
        assert s.n_tasks == 200
        assert check(s) == []

    def test_deep_chain_feasibility(self):
        ch = Chain(c=tuple([1] * 40), w=tuple([3] * 40))
        s = chain_schedule(ch, 60)[0]
        assert check(s) == []
