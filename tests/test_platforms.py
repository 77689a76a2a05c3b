"""Unit tests for platform classes (chain, star, spider, tree) and presets."""

import pytest
from hypothesis import given

from repro.core.types import PlatformError
from repro.platforms.chain import Chain, as_chain
from repro.platforms.presets import (
    PAPER_FIG2_MAKESPAN,
    PAPER_FIG2_TASKS,
    PAPER_FIG7_LINK,
    PAPER_FIG7_NODE_TIMES,
    bus_star,
    paper_fig2_chain,
    paper_fig5_spider,
    seti_like_spider,
)
from repro.platforms.spec import ProcessorSpec
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import ROOT, Tree

from conftest import chains


class TestProcessorSpec:
    def test_basic(self):
        s = ProcessorSpec(2, 3)
        assert s.c == 2 and s.w == 3

    def test_cadence_m(self):
        assert ProcessorSpec(2, 5).m == 5
        assert ProcessorSpec(7, 5).m == 7

    def test_rejects_nonpositive_w(self):
        with pytest.raises(PlatformError):
            ProcessorSpec(1, 0)

    def test_rejects_zero_c(self):
        with pytest.raises(PlatformError):
            ProcessorSpec(0, 1)

    def test_rejects_negative(self):
        with pytest.raises(PlatformError):
            ProcessorSpec(-1, 1)

    def test_rejects_nan_inf(self):
        with pytest.raises(PlatformError):
            ProcessorSpec(float("nan"), 1)
        with pytest.raises(PlatformError):
            ProcessorSpec(1, float("inf"))

    def test_rejects_bool(self):
        with pytest.raises(PlatformError):
            ProcessorSpec(True, 2)

    def test_round_trip(self):
        s = ProcessorSpec(2, 3)
        assert ProcessorSpec.from_dict(s.to_dict()) == s


class TestChain:
    def test_one_based_accessors(self):
        ch = Chain(c=(2, 3), w=(4, 5))
        assert ch.latency(1) == 2 and ch.latency(2) == 3
        assert ch.work(1) == 4 and ch.work(2) == 5

    def test_index_out_of_range(self):
        ch = Chain(c=(2,), w=(3,))
        with pytest.raises(PlatformError):
            ch.latency(2)
        with pytest.raises(PlatformError):
            ch.work(0)

    def test_mismatched_lengths(self):
        with pytest.raises(PlatformError):
            Chain(c=(1, 2), w=(1,))

    def test_empty_rejected(self):
        with pytest.raises(PlatformError):
            Chain(c=(), w=())

    def test_zero_latency_only_first(self):
        Chain(c=(0, 2), w=(1, 1))  # computing master OK
        with pytest.raises(PlatformError):
            Chain(c=(1, 0), w=(1, 1))

    def test_homogeneous(self):
        ch = Chain.homogeneous(3, 2, 5)
        assert ch.c == (2, 2, 2) and ch.w == (5, 5, 5)

    def test_with_computing_master(self):
        ch = Chain(c=(2,), w=(3,)).with_computing_master(4)
        assert ch.c == (0, 2) and ch.w == (4, 3)

    def test_route_latency(self):
        ch = Chain(c=(2, 3, 4), w=(1, 1, 1))
        assert ch.route_latency(1) == 2
        assert ch.route_latency(3) == 9

    def test_t_infinity_matches_paper_formula(self):
        # T∞ = c1 + (n-1)·max(w1,c1) + w1
        ch = Chain(c=(2, 3), w=(3, 5))
        assert ch.t_infinity(5) == 2 + 4 * 3 + 3
        ch2 = Chain(c=(4,), w=(3,))
        assert ch2.t_infinity(3) == 4 + 2 * 4 + 3

    def test_t_infinity_rejects_zero_tasks(self):
        with pytest.raises(PlatformError):
            Chain(c=(1,), w=(1,)).t_infinity(0)

    def test_subchain(self):
        ch = Chain(c=(2, 3, 4), w=(5, 6, 7))
        sub = ch.subchain(2)
        assert sub.c == (3, 4) and sub.w == (6, 7)

    def test_is_integer(self):
        assert Chain(c=(1,), w=(2,)).is_integer()
        assert not Chain(c=(1.5,), w=(2,)).is_integer()

    def test_round_trip(self):
        ch = Chain(c=(2, 3), w=(4, 5))
        assert Chain.from_dict(ch.to_dict()) == ch

    def test_as_chain_coercion(self):
        ch = as_chain([(2, 3), (4, 5)])
        assert ch.c == (2, 4) and ch.w == (3, 5)
        assert as_chain(ch) is ch

    def test_specs_iteration(self):
        ch = Chain(c=(2, 3), w=(4, 5))
        assert [s.c for s in ch.specs()] == [2, 3]

    @given(chains())
    def test_subchain_consistency(self, ch):
        if ch.p >= 2:
            sub = ch.subchain(2)
            assert sub.p == ch.p - 1
            assert sub.c == ch.c[1:]


class TestStar:
    def test_children_accessor(self):
        star = Star([(1, 2), (3, 4)])
        assert star.arity == 2
        assert star.child(1).c == 1 and star.child(2).w == 4

    def test_child_out_of_range(self):
        with pytest.raises(PlatformError):
            Star([(1, 2)]).child(2)

    def test_empty_rejected(self):
        with pytest.raises(PlatformError):
            Star([])

    def test_max_tasks_bound(self):
        star = Star([(2, 3)])
        # one child (2,3): tasks fit if 2 + 3 + (q-1)*3 <= tlim
        assert star.max_tasks_bound(5) == 1
        assert star.max_tasks_bound(8) == 2
        assert star.max_tasks_bound(4) == 0

    def test_round_trip(self):
        star = Star([(1, 2), (3, 4)])
        assert Star.from_dict(star.to_dict()) == star


class TestSpider:
    def test_structure(self):
        sp = paper_fig5_spider()
        assert sp.arity == 3
        assert sp.total_processors == 5

    def test_leg_accessor(self):
        sp = Spider([Chain(c=(1,), w=(2,))])
        assert sp.leg(1).p == 1
        with pytest.raises(PlatformError):
            sp.leg(2)

    def test_empty_rejected(self):
        with pytest.raises(PlatformError):
            Spider([])

    def test_is_chain_star(self):
        assert Spider([Chain(c=(1, 2), w=(1, 2))]).is_chain()
        assert Spider([Chain(c=(1,), w=(2,)), Chain(c=(3,), w=(4,))]).is_star()
        assert not paper_fig5_spider().is_star()

    def test_as_star_round_trip(self):
        star = Star([(1, 2), (3, 4)])
        sp = Spider.from_star(star)
        assert sp.as_star() == star

    def test_as_star_rejects_deep(self):
        with pytest.raises(PlatformError):
            paper_fig5_spider().as_star()

    def test_from_chain(self):
        ch = Chain(c=(1, 2), w=(3, 4))
        sp = Spider.from_chain(ch)
        assert sp.is_chain() and sp.leg(1) == ch

    def test_t_infinity_is_min_over_legs(self):
        sp = Spider([Chain(c=(10,), w=(10,)), Chain(c=(1,), w=(1,))])
        assert sp.t_infinity(3) == Chain(c=(1,), w=(1,)).t_infinity(3)

    def test_round_trip(self):
        sp = paper_fig5_spider()
        assert Spider.from_dict(sp.to_dict()) == sp


class TestTree:
    def make_y_tree(self) -> Tree:
        #      0
        #      |
        #      1
        #     / \
        #    2   3
        return Tree([(0, 1, 2, 3), (1, 2, 1, 4), (1, 3, 2, 5)])

    def test_structure_queries(self):
        t = self.make_y_tree()
        assert t.p == 3
        assert t.parent(2) == 1
        assert t.children(1) == [2, 3]
        assert t.latency(1) == 2 and t.work(3) == 5

    def test_route(self):
        t = self.make_y_tree()
        assert t.route(3) == [1, 3]

    def test_classification(self):
        t = self.make_y_tree()
        assert not t.is_spider()  # node 1 branches
        chain_t = Tree([(0, 1, 1, 1), (1, 2, 1, 1)])
        assert chain_t.is_chain() and chain_t.is_spider()
        star_t = Tree([(0, 1, 1, 1), (0, 2, 1, 1)])
        assert star_t.is_star() and star_t.is_spider()

    def test_to_chain_star_spider(self):
        chain_t = Tree([(0, 1, 2, 3), (1, 2, 4, 5)])
        ch = chain_t.to_chain()
        assert ch.c == (2, 4) and ch.w == (3, 5)
        star_t = Tree([(0, 1, 1, 2), (0, 2, 3, 4)])
        assert star_t.to_star().arity == 2
        spider_t = Tree([(0, 1, 1, 1), (1, 2, 2, 2), (0, 3, 3, 3)])
        sp = spider_t.to_spider()
        assert sp.arity == 2 and sp.total_processors == 3

    def test_to_spider_rejects_branching(self):
        with pytest.raises(PlatformError):
            self.make_y_tree().to_spider()

    def test_rejects_cycle_and_double_parent(self):
        with pytest.raises(PlatformError, match="two parents"):
            Tree([(0, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)])
        for edges in ([(0, 1, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1)],  # cycle
                      [(0, 1, 1, 1), (5, 6, 1, 1)]):  # second root
            with pytest.raises(PlatformError, match="rooted at the master"):
                Tree(edges)

    @pytest.mark.parametrize("edges", [
        [(0, "a", 1, 2), (0, 2, 1, 3)],  # str child: ids are sorted
        [("0", 1, 1, 2)],  # str parent
        [(0, True, 1, 2), (0, 2, 1, 3)],  # bool: would alias node 1
        [(False, 1, 1, 2)],  # bool parent: would alias the master
        [(0, 1.0, 1, 2)],  # float id
    ])
    def test_rejects_non_int_node_ids(self, edges):
        from repro.io.json_io import problem_from_dict

        with pytest.raises(PlatformError, match="node ids must be ints"):
            Tree(edges)
        payload = {"platform": {"kind": "tree", "edges": edges},
                   "kind": "makespan", "n": 2}
        with pytest.raises(PlatformError, match="node ids must be ints"):
            problem_from_dict(payload)

    def test_rejects_root_with_parent(self):
        with pytest.raises(PlatformError, match="incoming link"):
            Tree([(1, 0, 1, 1)])
        with pytest.raises(PlatformError, match="at least one worker"):
            Tree([])

    def test_workers_in_bfs_insertion_order(self):
        t = Tree([(0, 5, 1, 1), (5, 9, 1, 1), (0, 2, 1, 1), (5, 3, 1, 1),
                  (2, 7, 1, 1)])
        assert t.workers == [5, 2, 9, 3, 7]  # children in insertion order
        assert t.children(5) == [3, 9]  # ... but children() sorted

    def test_root_paths(self):
        t = self.make_y_tree()
        paths = sorted(t.root_paths())
        assert paths == [[1, 2], [1, 3]]

    def test_round_trip(self):
        t = self.make_y_tree()
        t2 = Tree.from_dict(t.to_dict())
        assert t2.to_dict() == t.to_dict()

    def test_from_spider(self):
        sp = paper_fig5_spider()
        t = Tree.from_spider(sp)
        assert t.is_spider()
        assert t.to_spider().to_dict() == sp.to_dict()


class TestPresets:
    def test_fig2_constants(self):
        ch = paper_fig2_chain()
        assert ch.c == (2, 3) and ch.w == (3, 5)
        assert PAPER_FIG2_TASKS == 5 and PAPER_FIG2_MAKESPAN == 14
        assert PAPER_FIG7_NODE_TIMES == (3, 6, 8, 10, 12)
        assert PAPER_FIG7_LINK == 2

    def test_bus_star(self):
        star = bus_star(4)
        assert star.arity == 4
        assert len({ch.c for ch in star.children}) == 1  # homogeneous links

    def test_seti_spider(self):
        sp = seti_like_spider()
        assert sp.arity == 6
        assert sp.total_processors == 9


class TestValidateCwMessages:
    """validate_cw names the offending owner and field (PR 4 satellite)."""

    def test_where_prefix_names_the_owner(self):
        from repro.platforms.spec import validate_cw

        with pytest.raises(PlatformError, match=r"processor 3: link latency c"):
            validate_cw(-1, 2, where="processor 3")
        with pytest.raises(PlatformError, match=r"processor 3: processing time w"):
            validate_cw(1, 0, where="processor 3")

    def test_field_named_without_where(self):
        from repro.platforms.spec import validate_cw

        with pytest.raises(PlatformError, match=r"^link latency c must be > 0"):
            validate_cw(0, 2)
        with pytest.raises(PlatformError, match=r"^processing time w must be a number"):
            validate_cw(1, "fast")

    def test_chain_points_at_offending_processor(self):
        with pytest.raises(PlatformError, match=r"processor 2: processing time w"):
            Chain([2, 3], [3, -5])

    def test_tree_points_at_offending_node(self):
        from repro.platforms.tree import Tree

        with pytest.raises(PlatformError, match=r"node 7: link latency c"):
            Tree([(0, 1, 2, 3), (1, 7, -1, 4)])

    def test_zero_latency_edge(self):
        from repro.platforms.spec import validate_cw

        # rejected by default, with the escape hatch named in the message
        with pytest.raises(PlatformError, match=r"allow_zero_latency"):
            validate_cw(0, 2)
        # permitted through the hatch (the computing-master model) ...
        validate_cw(0, 2, allow_zero_latency=True)
        # ... but a *negative* latency stays rejected either way
        with pytest.raises(PlatformError):
            validate_cw(-1, 2, allow_zero_latency=True)

    def test_chain_zero_latency_only_for_first_processor(self):
        # first processor: the computing-master spelling is allowed
        chain = Chain([0, 3], [4, 5])
        assert chain.latency(1) == 0
        # later processors: zero latency is a modelling error, named as such
        with pytest.raises(PlatformError, match=r"processor 2: link latency c"):
            Chain([2, 0], [3, 5])
