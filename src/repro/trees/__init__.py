"""General-tree scheduling, the paper's §8 programme.

The tree solver answers with the better of Theorem 1's backward
construction run on the tree (:mod:`repro.trees.construction`) and the
single spider cover (:mod:`repro.trees.heuristic`)."""

from .construction import tree_deadline, tree_schedule
from .heuristic import (
    SpiderCover,
    best_path_cover,
    cover_efficiency,
    greedy_depth_cover,
    tree_schedule_by_cover,
)

__all__ = [
    "SpiderCover",
    "best_path_cover",
    "cover_efficiency",
    "greedy_depth_cover",
    "tree_deadline",
    "tree_schedule",
    "tree_schedule_by_cover",
]
