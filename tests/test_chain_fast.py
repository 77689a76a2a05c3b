"""The chain kernel (universal sequences built by the closed form, ≺ ties
broken on it too) must be bit-for-bit equivalent to the paper-literal
chain construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import (
    ChainRunStats,
    _BackwardState,
    schedule_chain,
    schedule_chain_deadline,
)
from repro.core.feasibility import check
from repro.core.solve_fast import (
    _ChainSeq,
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


#: the chain sizes the tie-heavy families below are drawn at.
TIE_PS = (2, 3, 4, 6, 8, 12)


def tie_heavy_chains(seed: int) -> list[Chain]:
    """Per size in :data:`TIE_PS`: a homogeneous chain (every candidate's
    first emission ties), a two-valued one (long partial ties) and a
    random one."""
    rng = random.Random(seed)
    out = []
    for p in TIE_PS:
        c, w = rng.randint(1, 4), rng.randint(1, 8)
        out.append(Chain.homogeneous(p, c, w))
        cs, ws = (rng.randint(1, 3), rng.randint(1, 3)), (2, rng.randint(3, 9))
        out.append(Chain([rng.choice(cs) for _ in range(p)],
                         [rng.choice(ws) for _ in range(p)]))
        out.append(random_chain(p, rng=rng))
    return out


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


class TestLongRuns:
    """Past the first few placements ties reach deep into the vectors;
    the hypothesis properties above stop at n ≤ 10 and t_lim ≤ 35."""

    @pytest.mark.parametrize("n", [200, 600])
    def test_makespan(self, n):
        for ch in tie_heavy_chains(seed=n):
            assert (
                schedule_chain(ch, n).to_dict()
                == kernel_schedule(ch, n).to_dict()
            ), ch

    def test_deadline_places_hundreds(self):
        for ch in tie_heavy_chains(seed=3):
            t_lim = kernel_schedule(ch, 300).makespan
            ref = schedule_chain_deadline(ch, t_lim)
            fast, _ = fast_chain_deadline(ch, t_lim)
            assert ref.n_tasks >= 300
            assert ref.to_dict() == fast.to_dict(), ch


def placement(seq: _ChainSeq, i: int) -> tuple:
    """Placement ``i`` of a sequence at horizon 0, as the oracle's
    ``commit`` reports it and the vector it committed:
    ``(processor, start, vector)``."""
    lo, hi = seq.vbase[i], seq.vbase[i + 1]
    return seq.procs[i], -seq.soff[i], tuple(-v for v in seq.voff[lo:hi])


class TestFastPathInternals:
    def test_first_emissions_match_full_vectors(self, fig2_chain):
        """Each step's placement is the oracle's, and its first emission
        is the largest over every candidate the oracle builds."""
        seq = _ChainSeq(fig2_chain)
        ref = _BackwardState(fig2_chain, 0)
        for i in range(6):  # fresh state, then after each placement
            seq.ensure_len(i + 1)
            proc, start, vector = placement(seq, i)
            firsts = [
                ref.candidate(k, None)[0]
                for k in range(1, fig2_chain.p + 1)
            ]
            assert vector == ref.best_candidate(None)
            assert vector[0] == max(firsts)
            assert (proc, start) == ref.commit(vector)

    def test_every_step_matches_the_oracle(self):
        """Step-level pin: from horizon 0, the sequence's placement ``i``
        (processor, start offset, vector), all 640 built by one extension
        loop, is the oracle's ``best_candidate()`` and ``commit`` at each
        of 640 consecutive placements."""
        for ch in tie_heavy_chains(seed=11):
            seq = _ChainSeq(ch)
            seq.ensure_len(640)
            assert len(seq) == 640
            ref = _BackwardState(ch, 0)
            for step in range(640):
                proc, start, vector = placement(seq, step)
                assert vector == ref.best_candidate(None), (ch, step)
                assert (proc, start) == ref.commit(vector), (ch, step)

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
