"""Tests for random generators and the spider-cover tree heuristic (§8)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.steady_state import tree_steady_state
from repro.core.feasibility import check
from repro.core.types import PlatformError
from repro.platforms.generators import (
    chain_family,
    instance_stream,
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.tree import ROOT, Tree
from repro.trees.heuristic import (
    best_path_cover,
    cover_efficiency,
    greedy_depth_cover,
    tree_schedule_by_cover,
)


class TestGenerators:
    def test_deterministic_with_seed(self):
        a = random_chain(5, seed=42)
        b = random_chain(5, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_chain(8, seed=1) != random_chain(8, seed=2)

    def test_profiles_shape_values(self):
        rng = random.Random(0)
        comm = random_chain(50, profile="comm_bound", rng=rng)
        cpu = random_chain(50, profile="cpu_bound", rng=rng)
        assert sum(comm.c) / sum(comm.w) > 1.5
        assert sum(cpu.w) / sum(cpu.c) > 1.5

    def test_volunteer_profile_valid(self):
        star = random_star(30, profile="volunteer", seed=3)
        assert star.arity == 30

    def test_unknown_profile_rejected(self):
        with pytest.raises(PlatformError):
            random_chain(3, profile="warp_drive")

    def test_random_spider_depth_bounds(self):
        sp = random_spider(4, 3, seed=7)
        assert sp.arity == 4
        assert all(1 <= leg.p <= 3 for leg in sp)

    def test_random_tree_valid(self):
        t = random_tree(12, seed=5)
        assert t.p == 12
        nodes = [0, *t.workers]
        assert sorted(v for u in nodes for v in t.children(u)) == sorted(t.workers)

    def test_random_tree_arity_bound(self):
        t = random_tree(20, max_children=2, seed=9)
        assert all(len(t.children(v)) <= 2 for v in [0, *t.workers])

    def test_chain_family_deterministic(self):
        fam1 = list(chain_family([2, 4], seed=11))
        fam2 = list(chain_family([2, 4], seed=11))
        assert fam1 == fam2

    def test_instance_stream_count_and_determinism(self):
        s1 = list(instance_stream(lambda r: r.randint(0, 10**9), 5, seed=3))
        s2 = list(instance_stream(lambda r: r.randint(0, 10**9), 5, seed=3))
        assert len(s1) == 5 and s1 == s2

    def test_generators_reject_bad_sizes(self):
        with pytest.raises(PlatformError):
            random_spider(0, 2)
        with pytest.raises(PlatformError):
            random_tree(0)


class TestSpiderCover:
    def y_tree(self) -> Tree:
        # root -> 1 -> {2, 3};  path 1-2 is fast, 1-3 slow
        return Tree([(0, 1, 1, 4), (1, 2, 1, 2), (1, 3, 5, 9)])

    def test_cover_is_spider_subgraph(self):
        cover = best_path_cover(self.y_tree())
        assert len(cover.legs) == 1
        assert cover.legs[0][0] == 1

    def test_best_cover_prefers_throughput(self):
        cover = best_path_cover(self.y_tree())
        # fast branch 1->2 should win over 1->3
        assert cover.legs[0] == (1, 2)

    def test_depth_cover_ablation_differs(self):
        # craft a tree where the deepest path is slow
        t = Tree(
            [
                (0, 1, 1, 1),
                (1, 2, 9, 9),
                (1, 3, 9, 9),
                (3, 4, 9, 9),  # deep but awful
            ]
        )
        best = best_path_cover(t)
        deep = greedy_depth_cover(t)
        assert len(deep.legs[0]) >= len(best.legs[0])
        # on random trees the throughput-scored cover almost never loses
        rng = random.Random(122)
        losses = 0
        for _ in range(8):
            tree = random_tree(rng.randint(5, 9), rng=rng)
            by_throughput = tree_schedule_by_cover(tree, 24, best_path_cover(tree))
            by_depth = tree_schedule_by_cover(tree, 24, greedy_depth_cover(tree))
            losses += by_throughput.makespan > by_depth.makespan
        assert losses <= 1

    def test_uncovered_nodes(self):
        cover = best_path_cover(self.y_tree())
        assert cover.uncovered == {3}
        assert cover.covered == {1, 2}

    def test_node_of_mapping(self):
        cover = best_path_cover(self.y_tree())
        assert cover.node_of(1, 1) == 1
        assert cover.node_of(1, 2) == 2

    def test_schedule_on_tree_feasible(self):
        t = self.y_tree()
        s = tree_schedule_by_cover(t, 5)
        assert s.n_tasks == 5
        assert check(s) == []

    def test_schedule_respects_cover(self):
        t = self.y_tree()
        s = tree_schedule_by_cover(t, 4)
        used = {a.processor for a in s}
        assert used <= {1, 2}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trees_feasible(self, seed):
        t = random_tree(7, seed=seed)
        s = tree_schedule_by_cover(t, 6)
        assert s.n_tasks == 6
        assert check(s) == []

    def test_spider_tree_cover_is_lossless(self):
        """If the tree already is a spider, the cover keeps every node and
        the schedule is the optimal spider schedule."""
        t = Tree([(0, 1, 2, 3), (1, 2, 3, 5), (0, 3, 1, 4)])
        cover = best_path_cover(t)
        assert cover.uncovered == set()
        from repro.core.spider import spider_makespan

        s = tree_schedule_by_cover(t, 6)
        assert s.makespan == spider_makespan(t.to_spider(), 6)

    def test_cover_efficiency_bounded(self):
        t = self.y_tree()
        n = 40
        s = tree_schedule_by_cover(t, n)
        eff = cover_efficiency(t, n, s.makespan)
        assert 0 < eff <= 1.05  # can't beat the steady-state bound (mod O(1/n))

    def test_cover_efficiency_degenerate(self):
        t = self.y_tree()
        assert cover_efficiency(t, 5, 0) == 0.0
