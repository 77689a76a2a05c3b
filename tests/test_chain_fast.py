"""The chain kernel (universal sequences built by the O(n·p) closed form)
must be bit-for-bit equivalent to the paper-literal chain construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import ChainRunStats, schedule_chain, schedule_chain_deadline
from repro.core.feasibility import check
from repro.core.solve_fast import (
    _FastState,
    clear_solve_kernels,
    fast_chain_deadline,
    fast_chain_schedule,
)
from repro.core.types import PlatformError
from repro.platforms.chain import Chain
from repro.platforms.generators import random_chain

from conftest import chains


def kernel_schedule(chain, n):
    return fast_chain_schedule(chain, n)[0]


class TestEquivalence:
    @given(chains(max_p=6), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_identical_schedules(self, ch, n):
        ref = schedule_chain(ch, n)
        fast = kernel_schedule(ch, n)
        assert ref.to_dict() == fast.to_dict()

    @given(chains(max_p=6), st.integers(0, 35))
    @settings(max_examples=80, deadline=None)
    def test_identical_deadline_schedules(self, ch, t_lim):
        ref = schedule_chain_deadline(ch, t_lim)
        fast, _ = fast_chain_deadline(ch, t_lim)
        assert ref.to_dict() == fast.to_dict()

    def test_identical_on_homogeneous_max_ties(self):
        """Homogeneous chains tie every candidate's first emission — the
        worst case for the closed form's tie resolution."""
        for p in (2, 4, 8):
            for c, w in ((1, 1), (2, 3), (3, 2)):
                ch = Chain.homogeneous(p, c, w)
                for n in (1, 5, 17):
                    assert (
                        schedule_chain(ch, n).to_dict()
                        == kernel_schedule(ch, n).to_dict()
                    )

    def test_fig2(self, fig2_chain):
        fast = kernel_schedule(fig2_chain, 5)
        assert fast.makespan == 14
        assert fast.task_counts() == {1: 4, 2: 1}

    def test_seeded_regression_sweep(self):
        rng = random.Random(99)
        for _ in range(50):
            ch = random_chain(rng.randint(1, 8), rng=rng)
            n = rng.randint(1, 15)
            assert (
                schedule_chain(ch, n).to_dict()
                == kernel_schedule(ch, n).to_dict()
            )


class TestFastPathInternals:
    def test_first_emissions_match_full_vectors(self, fig2_chain):
        state = _FastState(fig2_chain)
        for _ in range(4):  # fresh state, then after each placement
            firsts = state.first_emissions()
            for k in range(1, fig2_chain.p + 1):
                assert firsts[k] == state.full_vector(k)[0]
            state.commit(state.choose())

    def test_rejects_zero_tasks(self, fig2_chain):
        with pytest.raises(PlatformError):
            kernel_schedule(fig2_chain, 0)

    def test_feasible(self, fig2_chain):
        assert check(kernel_schedule(fig2_chain, 9)) == []

    def test_opcount_linear_in_p_without_ties(self):
        """On a strictly heterogeneous chain (no first-emission ties) the
        closed form materialises one O(k) vector per task."""
        clear_solve_kernels()
        ch = Chain(c=(1, 2, 3, 4, 5), w=(2, 3, 4, 5, 6))
        _, stats = fast_chain_schedule(ch, 10)
        # reference would do 10 * Σk = 10*15 = 150 elements; fast stays lower
        ref_stats = ChainRunStats()
        schedule_chain(ch, 10, stats=ref_stats)
        assert stats["vector_elements"] < ref_stats.vector_elements

    def test_speedup_on_wide_chain(self):
        """Wall-clock sanity: the kernel wins on large p, even cold."""
        import time

        clear_solve_kernels()
        ch = random_chain(48, seed=5)
        t0 = time.perf_counter()
        schedule_chain(ch, 300)
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        kernel_schedule(ch, 300)
        t_fast = time.perf_counter() - t0
        assert t_fast < t_ref  # conservative: any win suffices in CI noise
