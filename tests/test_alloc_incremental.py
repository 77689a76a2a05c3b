"""The kernel's vectorised port allocator must be *bit-identical* to the
paper's greedy.

:func:`repro.core.solve_fast._run_greedy` replays the fork/spider EDF
greedy in accept/reject runs; every production star and spider solve
runs on it.  These tests hold it to the strongest standard available: not
just equal accepted counts (the Moore–Hodgson witness in ``test_fork.py``
covers cardinality) but element-for-element equal accepted sets, EDF
emissions and rejection order against the paper-literal
``allocate_greedy`` — over raw random slave sets, star expansions and
spider-derived virtual-slave sets alike.  Inputs outside the kernel's
integer contract go to the greedy oracle, which the last cases check
through the star entry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fork import (
    AllocStats,
    VirtualSlave,
    allocate_greedy,
    expand_star,
    fork_schedule_deadline,
)
from repro.core.solve_fast import _run_greedy, solve_kernel_stats, star_deadline
from repro.core.spider import spider_schedule_deadline
from repro.platforms.star import Star

from conftest import spiders, stars

#: raw (c, W) populations, heavy on ties to stress the stable-sort matching
slave_sets = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 12)), min_size=0, max_size=24
)


def kernel_allocate(candidates, t_lim):
    """The kernel allocator on ``candidates``: ``(accepted, emissions,
    rejected, ops)`` in the greedy's own orders (EDF, EDF, scan)."""
    scan = sorted(candidates, key=lambda s: (s.c, s.work))
    by_slot = sorted(
        range(len(scan)), key=lambda r: (scan[r].deadline(t_lim), scan[r].c, r)
    )
    slot = np.empty(len(scan), dtype=np.int64)
    slot[by_slot] = np.arange(len(scan))
    c = np.array([s.c for s in scan], dtype=np.int64)
    d = np.array([s.deadline(t_lim) for s in scan], dtype=np.int64)
    mask, ops = _run_greedy(c, d, slot)
    accepted = [scan[r] for r in by_slot if mask[r]]
    emissions = np.concatenate(([0], np.cumsum([s.c for s in accepted])))
    rejected = [s for s, ok in zip(scan, mask) if not ok]
    return accepted, emissions[:-1].tolist(), rejected, ops


def _assert_identical(candidates, t_lim):
    ref = allocate_greedy(candidates, t_lim)
    accepted, emissions, rejected, _ = kernel_allocate(candidates, t_lim)
    assert accepted == ref.accepted
    assert emissions == ref.emissions
    assert rejected == ref.rejected


class TestBitIdentity:
    @given(slave_sets, st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_random_slave_sets(self, raw, t_lim):
        slaves = [VirtualSlave(c, w, i) for i, (c, w) in enumerate(raw)]
        _assert_identical(slaves, t_lim)

    @given(slave_sets, st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_duplicate_heavy_sets(self, raw, t_lim):
        """Every slave twice: equal (deadline, c) keys everywhere, so any
        tie-break mismatch against the stable reference sorts would show."""
        slaves = [
            VirtualSlave(c, w, (i, rep))
            for i, (c, w) in enumerate(raw)
            for rep in (0, 1)
        ]
        _assert_identical(slaves, t_lim)

    @given(stars(max_k=4), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_star_expansions(self, star, t_lim):
        """Candidates as the fork algorithm produces them (Fig. 6 ladders)."""
        _assert_identical(expand_star(star, t_lim), t_lim)

    @given(spiders(max_legs=3, max_depth=3), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_spider_derived_nodes(self, sp, t_lim):
        """Candidates as the spider pipeline produces them (Fig. 7 nodes)."""
        nodes = spider_schedule_deadline(sp, t_lim).fork_nodes
        _assert_identical(nodes, t_lim)

    def test_zero_latency_first_link(self):
        """Spider legs may have a zero-latency first link → c = 0 slaves."""
        slaves = [VirtualSlave(0, 5, "a"), VirtualSlave(2, 3, "b"),
                  VirtualSlave(0, 9, "c")]
        _assert_identical(slaves, 10)

    def test_float_inputs_delegate_to_greedy(self):
        """Re-associated float sums can flip marginal accept decisions, so
        the kernel refuses floats and the greedy oracle answers: the star
        entry's schedule is the oracle's, and the refusal is counted."""
        star = Star([(0.6, 0.6), (1.1, 2.8), (0.3, 0.30000000000000004),
                     (0.7, 1.1)])
        before = solve_kernel_stats()["fallbacks"]
        sched, stats = star_deadline(star, 4.2)
        assert stats["engine"] == "object"
        assert solve_kernel_stats()["fallbacks"] == before + 1
        assert sched.to_dict() == fork_schedule_deadline(star, 4.2).to_dict()

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 4, allow_nan=False),
                st.floats(0.1, 9, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(0, 25, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_slave_sets(self, raw, t_lim):
        star = Star(raw)
        sched, stats = star_deadline(star, t_lim)
        assert stats["engine"] == "object"
        assert sched.to_dict() == fork_schedule_deadline(star, t_lim).to_dict()


class TestStatsCounters:
    def test_incremental_work_is_subquadratic(self):
        """On a big ladder the kernel's run-wise replay must do
        asymptotically less work than the reference rescan."""
        k = 512
        slaves = [VirtualSlave(1 + i % 3, 1 + i, i) for i in range(k)]
        t_lim = 2 * k
        ref_stats = AllocStats()
        ref = allocate_greedy(slaves, t_lim, stats=ref_stats)
        accepted, _, _, ops = kernel_allocate(slaves, t_lim)
        assert accepted == ref.accepted
        assert ref_stats.candidates == k
        # reference is Ω(accepted²); the kernel stays far below it
        assert ref_stats.structure_ops > ops

    def test_counters_accumulate(self):
        stats = AllocStats()
        slaves = [VirtualSlave(1, 2, 0), VirtualSlave(1, 3, 1)]
        allocate_greedy(slaves, 10, stats=stats)
        allocate_greedy(slaves, 10, stats=stats)
        assert stats.candidates == 4
        assert stats.accepted + stats.rejected == 4
        assert stats.structure_ops > 0


class TestEmissionLookup:
    def test_dict_backed_lookup(self):
        slaves = [VirtualSlave(2, 3, "a"), VirtualSlave(1, 5, "b")]
        alloc = allocate_greedy(slaves, 12)
        for slave, emit in zip(alloc.accepted, alloc.emissions):
            assert alloc.emission_of(slave.tag) == emit
