"""Tests of the fork/star algorithm (§6, Beaumont et al. [2]).

Moore–Hodgson (the textbook optimum for maximising on-time unit-profit
jobs on one machine) lives here as an independent cardinality witness
for the paper's greedy allocator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import max_tasks_within as bf_max_tasks
from repro.baselines.bruteforce import optimal_makespan
from repro.core.feasibility import check, check_deadline
from repro.core.fork import (
    VirtualSlave,
    allocate_greedy,
    expand_star,
    fork_max_tasks,
    fork_schedule,
    fork_schedule_deadline,
)
from repro.platforms.star import Star

from conftest import stars


def moore_hodgson(candidates, t_lim):
    """Moore–Hodgson: scan EDF, drop the longest kept job on overflow.
    Returns the kept slaves in EDF order with their emission times."""
    kept, total = [], 0
    for cand in sorted(candidates, key=lambda s: (s.deadline(t_lim), s.c)):
        kept.append(cand)
        total += cand.c
        if total > cand.deadline(t_lim):
            longest = max(kept, key=lambda s: s.c)
            kept.remove(longest)
            total -= longest.c
    kept.sort(key=lambda s: (s.deadline(t_lim), s.c))
    emissions, clock = [], 0
    for s in kept:
        emissions.append(clock)
        clock += s.c
    return kept, emissions


class TestExpansion:
    """Fig. 6: one physical node becomes a ladder of single-task slaves."""

    def test_virtual_works_are_arithmetic(self):
        star = Star([(2, 3)])  # m = max(2,3) = 3
        slaves = expand_star(star, t_lim=20)
        works = sorted(s.work for s in slaves)
        assert works == [3, 6, 9, 12, 15, 18]
        assert all(s.c == 2 for s in slaves)

    def test_comm_bound_node_cadence(self):
        star = Star([(5, 2)])  # m = 5: link is the bottleneck
        slaves = expand_star(star, t_lim=18)
        assert sorted(s.work for s in slaves) == [2, 7, 12]

    def test_infeasible_copies_not_generated(self):
        star = Star([(2, 3)])
        assert expand_star(star, t_lim=4) == []  # c + w = 5 > 4

    def test_cap(self):
        star = Star([(1, 1)])
        assert len(expand_star(star, t_lim=100, cap=3)) == 3

    def test_tags_identify_origin(self):
        star = Star([(1, 2), (1, 3)])
        tags = {s.tag for s in expand_star(star, t_lim=6)}
        assert (1, 0) in tags and (2, 0) in tags


class TestAllocators:
    def cases(self):
        return [
            ([VirtualSlave(2, 3, "a"), VirtualSlave(2, 6, "b")], 10),
            ([VirtualSlave(1, 1, i) for i in range(5)], 4),
            ([VirtualSlave(3, 2, "x"), VirtualSlave(1, 8, "y"), VirtualSlave(2, 5, "z")], 9),
        ]

    def test_greedy_feasible_and_edf_serialised(self):
        for slaves, t_lim in self.cases():
            alloc = allocate_greedy(slaves, t_lim)
            clock = 0
            for s, e in zip(alloc.accepted, alloc.emissions):
                assert e == clock
                clock += s.c
                assert e + s.c <= s.deadline(t_lim)

    def test_moore_hodgson_feasible(self):
        for slaves, t_lim in self.cases():
            kept, emissions = moore_hodgson(slaves, t_lim)
            for s, e in zip(kept, emissions):
                assert e + s.c <= s.deadline(t_lim)

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 9)), min_size=0, max_size=8
        ),
        st.integers(0, 25),
    )
    @settings(max_examples=100, deadline=None)
    def test_greedy_matches_moore_hodgson_cardinality(self, raw, t_lim):
        """The paper's greedy is optimal (ref [2]); Moore–Hodgson is the
        textbook optimum — their accepted counts must agree always."""
        slaves = [VirtualSlave(c, w, i) for i, (c, w) in enumerate(raw)]
        g = allocate_greedy(slaves, t_lim)
        kept, _ = moore_hodgson(slaves, t_lim)
        assert g.n_tasks == len(kept)

    def test_emission_of_lookup(self):
        alloc = allocate_greedy([VirtualSlave(2, 3, "a")], 10)
        assert alloc.emission_of("a") == 0
        with pytest.raises(KeyError):
            alloc.emission_of("zzz")


class TestForkDeadline:
    def test_single_child_counts(self):
        star = Star([(2, 3)])
        # q tasks need 2 + 3 + (q-1)*3 <= Tlim
        assert fork_max_tasks(star, 4) == 0
        assert fork_max_tasks(star, 5) == 1
        assert fork_max_tasks(star, 8) == 2
        assert fork_max_tasks(star, 11) == 3

    def test_schedules_feasible(self):
        star = Star([(2, 3), (1, 4), (3, 2)])
        for t_lim in range(0, 15):
            s = fork_schedule_deadline(star, t_lim)
            assert check_deadline(s, t_lim) == []

    def test_negative_tlim_rejected(self):
        with pytest.raises(Exception):
            fork_schedule_deadline(Star([(1, 1)]), -1)

    @given(stars(max_k=3), st.integers(0, 16))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive_max_tasks(self, star, t_lim):
        ours = fork_max_tasks(star, t_lim)
        if ours >= 9:  # exhaustive search unaffordable beyond this
            return
        theirs = bf_max_tasks(star, t_lim, cap=9).schedule.n_tasks
        assert ours == theirs

    @given(stars(max_k=3), st.integers(0, 16))
    @settings(max_examples=50, deadline=None)
    def test_both_allocators_agree_on_stars(self, star, t_lim):
        kept, _ = moore_hodgson(expand_star(star, t_lim), t_lim)
        assert fork_max_tasks(star, t_lim) == len(kept)

    def test_task_budget_respected(self):
        star = Star([(1, 1), (1, 1)])
        s = fork_schedule_deadline(star, 50, n=4)
        assert s.n_tasks == 4


class TestForkMakespan:
    @given(stars(max_k=3), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_optimum(self, star, n):
        s = fork_schedule(star, n)
        assert s.n_tasks == n
        assert check(s) == []
        assert s.makespan == optimal_makespan(star, n).makespan

    def test_bus_example(self):
        """Homogeneous links (the bus of ref [10]): port saturates first."""
        star = Star([(2, 4), (2, 4), (2, 4)])
        s = fork_schedule(star, 6)
        assert s.makespan == optimal_makespan(star, 6).makespan

    def test_heterogeneous_prefers_fast_link(self):
        star = Star([(1, 5), (4, 2)])
        s = fork_schedule(star, 1)
        assert s[1].processor == 1 or s.makespan <= 6
