"""General trees of heterogeneous processors.

The paper's long-term goal (§8) is scheduling on arbitrary trees "by covering
those graphs with simpler structures".  This module provides the tree
substrate: a rooted tree whose root is the master and where every non-root
node ``v`` carries the latency ``c(v)`` of its incoming link and its
processing time ``w(v)``.  It supports structural queries (is it a chain /
star / spider?), conversion to the dedicated platform classes, and the leg
decompositions used by the spider-cover heuristic in
:mod:`repro.trees.heuristic`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..core.types import PlatformError, Time
from .chain import Chain
from .spec import validate_cw
from .spider import Spider
from .star import Star

#: Conventional name of the master node.
ROOT = 0


class Tree:
    """Rooted tree platform.  Nodes are integers, ``ROOT`` (0) is the master.

    Construction takes ``edges``: an iterable of ``(parent, child, c, w)``
    tuples, giving for each non-root node its parent, the latency of the link
    from the parent and its processing time.  The tree is kept as a parent
    map plus per-node child lists (in edge insertion order).
    """

    def __init__(self, edges: Iterable[tuple[int, int, Time, Time]]):
        self._parent: dict[int, int] = {}
        self._kids: dict[int, list[int]] = {ROOT: []}
        self._c: dict[int, Time] = {}
        self._w: dict[int, Time] = {}
        for parent, child, c, w in edges:
            if not all(isinstance(u, int) and not isinstance(u, bool)
                       for u in (parent, child)):
                # ids are sorted, and bools would alias nodes 0 and 1
                raise PlatformError(
                    f"edge ({parent!r}, {child!r}): node ids must be ints"
                )
            if child == ROOT:
                raise PlatformError("the master (node 0) cannot have an incoming link")
            if child in self._parent:
                raise PlatformError(f"node {child} has two parents")
            validate_cw(c, w, where=f"node {child}")
            self._parent[child] = parent
            self._kids.setdefault(parent, []).append(child)
            self._kids.setdefault(child, [])
            self._c[child] = c
            self._w[child] = w
        if len(self._kids) < 2:
            raise PlatformError("tree must contain at least one worker")
        # BFS from the master, children in insertion order: every node must
        # be reached, and reached once (a parent map has no second parent)
        order = [ROOT]
        for v in order:
            order.extend(self._kids[v])
        if len(order) != len(self._kids):
            raise PlatformError("edges do not form a tree rooted at the master")
        self._bfs = order[1:]

    # -- accessors -------------------------------------------------------------

    @property
    def workers(self) -> list[int]:
        """All non-root nodes, in BFS order from the root (deterministic)."""
        return list(self._bfs)

    @property
    def p(self) -> int:
        return len(self._bfs)

    def parent(self, v: int) -> int:
        try:
            return self._parent[v]
        except KeyError:
            raise PlatformError(f"node {v} has no parent (is it the root?)") from None

    def children(self, v: int) -> list[int]:
        return sorted(self._kids[v])

    def latency(self, v: int) -> Time:
        """``c(v)``: latency of the link from ``parent(v)`` into ``v``."""
        return self._c[v]

    def work(self, v: int) -> Time:
        return self._w[v]

    def route(self, v: int) -> list[int]:
        """Nodes on the path root → v, excluding the root."""
        path = [v]
        while path[-1] != ROOT:
            path.append(self.parent(path[-1]))
        path.reverse()
        return path[1:]

    def descendants(self, v: int) -> set[int]:
        """Every node below ``v`` (excluding ``v``)."""
        out: list[int] = list(self._kids[v])
        for u in out:
            out.extend(self._kids[u])
        return set(out)

    def edges(self) -> list[tuple[int, int, Time, Time]]:
        """``(parent, child, c, w)`` for every worker, sorted by
        ``(parent, child)`` — the construction input, canonically ordered."""
        return sorted(
            (self._parent[v], v, self._c[v], self._w[v]) for v in self._bfs
        )

    # -- structure classification ------------------------------------------------

    def is_chain(self) -> bool:
        return all(len(kids) <= 1 for kids in self._kids.values())

    def is_star(self) -> bool:
        return all(not self._kids[v] for v in self._bfs)

    def is_spider(self) -> bool:
        """True iff only the root may have arity > 1 (paper §6)."""
        return all(len(self._kids[v]) <= 1 for v in self._bfs)

    def to_chain(self) -> Chain:
        if not self.is_chain():
            raise PlatformError("tree is not a chain")
        order = self._chain_order(ROOT)
        return Chain((self.latency(v) for v in order), (self.work(v) for v in order))

    def to_star(self) -> Star:
        if not self.is_star():
            raise PlatformError("tree is not a star")
        return Star((self.latency(v), self.work(v)) for v in self.children(ROOT))

    def to_spider(self) -> Spider:
        if not self.is_spider():
            raise PlatformError("tree is not a spider (a non-root node branches)")
        legs = []
        for top in self.children(ROOT):
            order = self._chain_order(top, include_start=True)
            legs.append(
                Chain((self.latency(v) for v in order), (self.work(v) for v in order))
            )
        return Spider(legs)

    def _chain_order(self, start: int, include_start: bool = False) -> list[int]:
        order = [start] if (include_start and start != ROOT) else []
        v = start
        while True:
            nxt = self.children(v)
            if not nxt:
                break
            v = nxt[0]
            order.append(v)
        return order

    # -- decompositions -------------------------------------------------------------

    def root_paths(self) -> list[list[int]]:
        """All root-to-leaf paths (each excluding the root)."""
        return [self.route(v) for v in self._bfs if not self._kids[v]]

    def path_chain(self, path: list[int]) -> Chain:
        """The chain induced by a top-down path of nodes (child sequence)."""
        return Chain((self.latency(v) for v in path), (self.work(v) for v in path))

    # -- serialisation -----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "tree", "edges": [list(e) for e in self.edges()]}

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "Tree":
        if d.get("kind") != "tree":
            raise PlatformError(f"not a tree payload: {d.get('kind')!r}")
        return Tree(tuple(e) for e in d["edges"])

    @staticmethod
    def from_spider(spider: Spider) -> "Tree":
        edges: list[tuple[int, int, Time, Time]] = []
        nid = 1
        for leg in spider:
            parent = ROOT
            for i in range(1, leg.p + 1):
                edges.append((parent, nid, leg.latency(i), leg.work(i)))
                parent = nid
                nid += 1
        return Tree(edges)

    def __repr__(self) -> str:
        return f"Tree(p={self.p}, spider={self.is_spider()})"
