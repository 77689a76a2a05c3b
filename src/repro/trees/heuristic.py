"""General trees by spider covering — the paper's stated future work (§8).

  "The long term objective of this work is to provide good heuristics for
   scheduling on complicated graphs of heterogeneous processors, by covering
   those graphs with simpler structures."

This module implements exactly that program one step further than the paper:
a general tree is *covered* by a spider — for each child of the master we
keep the descending root-to-leaf path with the highest steady-state
throughput (the bandwidth-centric figure of merit) — and the optimal spider
algorithm is run on the cover.  The schedule is then mapped back onto the
tree; it is feasible by construction because the cover's links form a
subgraph in which every node sends on at most one outgoing link.

The heuristic is evaluated in experiment E12 against the tree's
bandwidth-centric steady-state upper bound: the ratio
``(n/makespan) / throughput*`` measures how much of the tree's capacity a
single spider cover captures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.steady_state import chain_steady_state, tree_steady_state
from ..core.schedule import Schedule, TaskAssignment
from ..core.solve_fast import spider_schedule
from ..core.types import PlatformError, Time
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.tree import ROOT, Tree


@dataclass(frozen=True)
class SpiderCover:
    """A spider embedded in a tree.

    ``legs[k]`` is the list of tree nodes (top-down) forming leg ``k+1`` of
    the spider; every leg starts at a distinct child of the master.
    """

    tree: Tree
    legs: tuple[tuple[int, ...], ...]

    @property
    def spider(self) -> Spider:
        return Spider(self.tree.path_chain(list(leg)) for leg in self.legs)

    @property
    def covered(self) -> set[int]:
        return {v for leg in self.legs for v in leg}

    @property
    def uncovered(self) -> set[int]:
        return set(self.tree.workers) - self.covered

    def node_of(self, leg: int, pos: int) -> int:
        """Tree node at spider position ``(leg, pos)`` (1-based)."""
        return self.legs[leg - 1][pos - 1]

    def to_tree(self, spider_sched: Schedule) -> Schedule:
        """Re-address a schedule of the cover's spider onto tree nodes (the
        single place the spider→tree mapping lives)."""
        return Schedule(self.tree, {
            a.task: TaskAssignment(
                a.task, self.node_of(*a.processor), a.start, a.comms
            )
            for a in spider_sched
        })


def best_path_cover(tree: Tree) -> SpiderCover:
    """Keep, under each child of the master, the path with the highest
    bandwidth-centric steady-state throughput."""
    legs: list[tuple[int, ...]] = []
    for top in tree.children(ROOT):
        paths = [p for p in tree.root_paths() if p[0] == top]
        if not paths:
            raise PlatformError(f"no root path through child {top}")  # pragma: no cover

        def score(path: list[int]) -> tuple:
            chain = tree.path_chain(path)
            return (chain_steady_state(chain).throughput, len(path))

        best = max(paths, key=score)
        legs.append(tuple(best))
    return SpiderCover(tree, tuple(legs))


def greedy_depth_cover(tree: Tree) -> SpiderCover:
    """Ablation cover: always keep the *deepest* path (ties by node id).
    Used to show the throughput-scored cover is the better design choice."""
    legs: list[tuple[int, ...]] = []
    for top in tree.children(ROOT):
        paths = [p for p in tree.root_paths() if p[0] == top]
        best = max(paths, key=lambda p: (len(p), p))
        legs.append(tuple(best))
    return SpiderCover(tree, tuple(legs))


def tree_schedule_by_cover(
    tree: Tree, n: int, cover: SpiderCover | None = None
) -> Schedule:
    """Schedule ``n`` tasks on ``tree`` via a spider cover.

    Runs the (optimal) spider algorithm on the cover, then re-addresses the
    schedule onto tree nodes.  Feasible by construction; optimal only with
    respect to the cover — experiment E12 quantifies the loss.
    """
    cover = cover if cover is not None else best_path_cover(tree)
    return cover.to_tree(spider_schedule(cover.spider, n)[0])


def cover_efficiency(tree: Tree, n: int, makespan: Time) -> float:
    """``(n/makespan) / throughput*``: fraction of the tree's steady-state
    capacity the cover achieves (≤ 1 + O(1/n))."""
    thr = float(tree_steady_state(tree).throughput)
    if thr <= 0 or makespan <= 0:
        return 0.0
    return (n / float(makespan)) / thr
