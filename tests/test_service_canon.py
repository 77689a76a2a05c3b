"""Canonical fingerprint invariance (repro.service.canon).

The cache contract: fingerprints are *invariant* under every relabeling a
platform kind allows (spider-leg permutation, star-child permutation,
tree node renumbering / child reordering) and *only* under relabeling —
non-isomorphic platforms, even with identical ``(c, w)`` multisets, get
distinct fingerprints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chains, spiders, stars
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import ROOT, Tree
from repro.service.canon import (
    CanonError,
    canonical_form,
    platform_fingerprint,
    problem_fingerprint,
)
from repro.solve import Problem


def permuted_spider(spider: Spider, seed: int) -> Spider:
    legs = list(spider.legs)
    random.Random(seed).shuffle(legs)
    return Spider(legs)


def permuted_star(star: Star, seed: int) -> Star:
    children = list(star.children)
    random.Random(seed).shuffle(children)
    return Star(children)


def relabeled_tree(tree: Tree, seed: int) -> Tree:
    """Random node renumbering + edge reordering (same shape)."""
    rng = random.Random(seed)
    nodes = tree.workers
    new_ids = rng.sample(range(1, 10 * (len(nodes) + 2)), len(nodes))
    perm = {ROOT: ROOT, **dict(zip(nodes, new_ids))}
    edges = [
        (perm[tree.parent(v)], perm[v], tree.latency(v), tree.work(v))
        for v in nodes
    ]
    rng.shuffle(edges)
    return Tree(edges)


@st.composite
def trees(draw, max_nodes: int = 7) -> Tree:
    """Random small integer trees: each node's parent precedes it."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n + 1):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        c = draw(st.integers(min_value=1, max_value=5))
        w = draw(st.integers(min_value=1, max_value=5))
        edges.append((parent, v, c, w))
    return Tree(edges)


class TestInvariance:
    @given(spiders(max_legs=4, max_depth=3), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_spider_leg_permutation(self, spider, seed):
        assert platform_fingerprint(spider) == platform_fingerprint(
            permuted_spider(spider, seed)
        )

    @given(stars(max_k=5), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_star_child_permutation(self, star, seed):
        assert platform_fingerprint(star) == platform_fingerprint(
            permuted_star(star, seed)
        )

    @given(trees(), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_tree_relabeling_and_child_reordering(self, tree, seed):
        assert platform_fingerprint(tree) == platform_fingerprint(
            relabeled_tree(tree, seed)
        )

    @given(chains(max_p=5))
    @settings(max_examples=30)
    def test_chain_is_its_own_canonical_form(self, chain):
        canon = canonical_form(chain)
        assert canon.platform is chain
        assert canon.to_canonical == {i: i for i in range(1, chain.p + 1)}

    @given(spiders(max_legs=4, max_depth=3), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_canonical_representatives_identical(self, spider, seed):
        """Isomorphic platforms canonicalise to the same representative."""
        a = canonical_form(spider)
        b = canonical_form(permuted_spider(spider, seed))
        assert a.platform.to_dict() == b.platform.to_dict()

    @given(trees(), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_tree_relabel_maps_are_isomorphisms(self, tree, seed):
        other = relabeled_tree(tree, seed)
        canon = canonical_form(other)
        for cid, orig in canon.from_canonical.items():
            assert canon.platform.latency(cid) == other.latency(orig)
            assert canon.platform.work(cid) == other.work(orig)


class TestDistinctness:
    def test_chain_order_is_structural(self):
        assert platform_fingerprint(Chain([1, 2], [3, 4])) != platform_fingerprint(
            Chain([2, 1], [4, 3])
        )

    def test_spider_structure_beats_cw_multiset(self):
        # same {(c,w)} multiset {(1,3),(2,4)}: one deep leg vs two shallow
        deep = Spider([Chain([1, 2], [3, 4])])
        wide = Spider([Chain([1], [3]), Chain([2], [4])])
        assert platform_fingerprint(deep) != platform_fingerprint(wide)

    def test_tree_structure_beats_cw_multiset(self):
        path = Tree([(0, 1, 2, 3), (1, 2, 1, 4), (2, 3, 2, 2)])
        star = Tree([(0, 1, 2, 3), (0, 2, 1, 4), (0, 3, 2, 2)])
        mixed = Tree([(0, 1, 2, 3), (1, 2, 1, 4), (1, 3, 2, 2)])
        prints = {platform_fingerprint(t) for t in (path, star, mixed)}
        assert len(prints) == 3

    def test_kinds_do_not_collide(self):
        # a 1-deep spider and the equivalent star answer through different
        # solvers; their fingerprints are deliberately distinct
        star = Star([(2, 3), (1, 5)])
        assert platform_fingerprint(star) != platform_fingerprint(
            Spider.from_star(star)
        )

    def test_value_types_are_tagged(self):
        assert platform_fingerprint(Chain([2], [3])) != platform_fingerprint(
            Chain([2.0], [3.0])
        )

    def test_values_fold_into_tree_fingerprints(self):
        a = Tree([(0, 1, 2, 3)])
        b = Tree([(0, 1, 2, 4)])
        assert platform_fingerprint(a) != platform_fingerprint(b)

    def test_tree_answer_version_folds_into_tree_fingerprints_only(
        self, monkeypatch
    ):
        """Store entries an older tree solver wrote must miss: bumping the
        version changes every tree fingerprint and no other kind's.  Fresh
        platform objects each time: forms are memoized per object."""
        from repro.service import canon

        def prints():
            tree = Tree([(0, 1, 2, 3), (1, 2, 1, 4)])
            others = (Chain([2, 1], [3, 4]), Star([(2, 3), (1, 4)]),
                      Spider([Chain([2, 1], [3, 4])]))
            return (platform_fingerprint(tree),
                    [platform_fingerprint(p) for p in others])

        tree_before, others_before = prints()
        monkeypatch.setattr(canon, "TREE_ANSWER_VERSION",
                            canon.TREE_ANSWER_VERSION + 1)
        tree_after, others_after = prints()
        assert tree_after != tree_before
        assert others_after == others_before


class TestProblemFingerprints:
    def test_question_folds_in(self):
        chain = Chain([2, 3], [3, 5])
        base = problem_fingerprint(Problem(chain, "makespan", n=5))
        assert base == problem_fingerprint(Problem(chain, "makespan", n=5))
        assert base != problem_fingerprint(Problem(chain, "makespan", n=6))
        assert base != problem_fingerprint(Problem(chain, "deadline", t_lim=14))
        # the retired allocator field: a legacy key changes neither the
        # fingerprint nor the answer
        from repro.io.json_io import problem_from_dict, problem_to_dict
        from repro.solve import solve

        plain = problem_to_dict(Problem(chain, "makespan", n=5))
        for legacy in ("greedy", "incremental"):
            old = problem_from_dict({**plain, "allocator": legacy})
            assert problem_fingerprint(old) == base
            assert (solve(old).schedule.to_dict()
                    == solve(Problem(chain, "makespan", n=5)).schedule.to_dict())

    def test_options_fold_in_order_free(self):
        tree = Tree([(0, 1, 2, 3), (0, 2, 1, 4)])
        a = Problem(tree, "makespan", n=5,
                    options={"max_rounds": 2, "cover_strategy": "widest"})
        b = Problem(tree, "makespan", n=5,
                    options={"cover_strategy": "widest", "max_rounds": 2})
        c = Problem(tree, "makespan", n=5, options={"max_rounds": 3})
        assert problem_fingerprint(a) == problem_fingerprint(b)
        assert problem_fingerprint(a) != problem_fingerprint(c)

    def test_warm_caps_excluded(self):
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        cold = Problem(spider, "deadline", t_lim=30)
        warm = Problem(spider, "deadline", t_lim=30, warm_caps={1: 9, 2: 4})
        assert problem_fingerprint(cold) == problem_fingerprint(warm)

    def test_relabeled_platforms_share_problem_fingerprint(self):
        legs = [Chain([2, 3], [3, 5]), Chain([1], [4])]
        a = Problem(Spider(legs), "makespan", n=8)
        b = Problem(Spider(legs[::-1]), "makespan", n=8)
        assert problem_fingerprint(a) == problem_fingerprint(b)

    def test_uncanonical_option_values_raise(self):
        chain = Chain([2], [3])
        problem = Problem(chain, "makespan", n=2,
                          options={"policy": lambda: None})
        with pytest.raises(CanonError):
            problem_fingerprint(problem)

    def test_unsupported_platform_raises(self):
        with pytest.raises(CanonError):
            platform_fingerprint(object())


class TestDeepTrees:
    def test_path_tree_canonicalises_iteratively(self):
        """Depth far past the recursion limit margin: must not RecursionError,
        and relabeling invariance must still hold."""
        depth = 2000
        edges = [(v, v + 1, 1 + v % 3, 1 + v % 4) for v in range(depth)]
        shifted = [(0 if u == 0 else u + 500, v + 500, c, w)
                   for u, v, c, w in edges]
        assert platform_fingerprint(Tree(edges)) == platform_fingerprint(
            Tree(shifted)
        )
