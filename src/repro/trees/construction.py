"""General trees on the paper's own construction (§8 programme).

Theorem 1's backward greedy (:mod:`repro.core.chain`) needs nothing that
is particular to chains, so it runs on the tree itself.  The state is one
send-port *hull* per node, the master included (every link leaving a node
shares its one send port), and one CPU *occupancy* per worker; all start
at the horizon.  Each step places one task, last-to-first.  For every
worker ``v``, in BFS order, the candidate is built bottom-up along
``tree.route(v) = (r_1, ..., r_k = v)``::

    C_k = min(o_v − w_v,  port[parent(v)]) − c_v
    C_j = min(C_{j+1},    port[parent(r_j)]) − c_{r_j}      j = k−1 .. 1

and the ≺-greatest candidate (Definition 3) is placed: ``port[parent(r_j)]
= C_j`` along its route and ``o_v −= w_v``.  The comparison is strict, so
the first worker in BFS order wins an exact tie.  Every new message ends
before its sender port's hull and before its next hop, and every execution
before the CPU's occupancy, so the schedule is feasible by construction.
On a chain-shaped tree this *is* the chain algorithm.

Makespan mode runs ``n`` steps from horizon 0 to learn the makespan, then
runs again from horizon = makespan, so times come out absolute without a
shift (a float shift adds rounding that a replay can see).  Deadline mode
starts at ``t_lim`` and stops, capped at ``n``, once the winner's first
emission is negative.

The construction is not optimal on every tree: on stars the fork
algorithm's selection does better.  So the tree answer
(:func:`tree_schedule`, :func:`tree_deadline`) is the better of the
construction and the single spider cover of :mod:`repro.trees.heuristic`,
which is optimal on spider-shaped trees: the lower makespan, or the more
tasks by the deadline.  The cover answers only when it is strictly better.
"""

from __future__ import annotations

from math import inf, nextafter
from typing import Optional

from ..core.commvector import CommVector
from ..core.schedule import Schedule, TaskAssignment
from ..core.solve_fast import spider_deadline, spider_schedule
from ..core.types import PlatformError, Time
from ..platforms.tree import Tree
from .heuristic import best_path_cover


def _latest(y: Time, d: Time) -> Time:
    """``y − d``, lowered an ulp at a time until ``(y − d) + d <= y`` holds
    as the replay computes it.  Float rounding can break it by an ulp;
    ints and Fractions never do, so the loop never runs for them."""
    x = y - d
    while x + d > y:
        x = nextafter(x, -inf)
    return x


def _construct(
    tree: Tree, horizon: Time, limit: Optional[int], stop_below_zero: bool
) -> list[tuple[int, Time, list[Time]]]:
    """``(worker, start, emissions)`` per placed task, last task first."""
    workers = tree.workers
    routes = {v: tree.route(v) for v in workers}
    # v's hops bottom-up, each (latency, sender port)
    hops = {
        v: [(tree.latency(u), tree.parent(u)) for u in reversed(route)]
        for v, route in routes.items()
    }
    port = dict.fromkeys((tree.parent(v) for v in workers), horizon)
    ready = {v: _latest(horizon, tree.work(v)) for v in workers}
    placed: list[tuple[int, Time, list[Time]]] = []
    while limit is None or len(placed) < limit:
        best = winner = None
        for v in workers:
            x = ready[v]
            # +inf closes every vector, so Python's list order is the ≺ of
            # Definition 3: a strict prefix compares greater, not smaller
            vec = [inf]
            for c, sender in hops[v]:
                y = port[sender]
                if x < y:
                    y = x
                x = y - c
                if x + c > y:
                    x = _latest(y, c)
                vec.append(x)
            vec.reverse()
            if best is None or best < vec:
                best, winner = vec, v
        if stop_below_zero and best[0] < 0:
            break
        del best[-1]
        for u, emit in zip(routes[winner], best):
            port[tree.parent(u)] = emit
        start = ready[winner]
        ready[winner] = _latest(start, tree.work(winner))
        placed.append((winner, start, best))
    return placed


def _schedule(tree: Tree, placed: list) -> Schedule:
    """Tasks numbered 1..n in emission order (the reverse of placement)."""
    total = len(placed)
    return Schedule(tree, {
        total - i: TaskAssignment(total - i, v, start, CommVector(times))
        for i, (v, start, times) in enumerate(placed)
    })


def construction_schedule(tree: Tree, n: int) -> Schedule:
    """The construction's schedule of ``n`` tasks, first emission at 0."""
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    horizon = -_construct(tree, 0, n, False)[-1][2][0]
    while True:
        placed = _construct(tree, horizon, n, False)
        first = placed[-1][2][0]
        if first >= 0:
            return _schedule(tree, placed)
        horizon = nextafter(horizon - first, inf)  # floats only


def construction_deadline(
    tree: Tree, t_lim: Time, n: Optional[int] = None
) -> Schedule:
    """The construction's tasks (at most ``n``) completing by ``t_lim``."""
    return _schedule(tree, _construct(tree, t_lim, n, True))


def _best_of(
    built: Schedule, covered: Schedule, stats: dict, cover_better: bool
) -> tuple[Schedule, dict, str]:
    """The cover answers only when strictly better; the method name goes
    to ``extra["rounds"]``.  Tree stats never carried ``engine``."""
    stats.pop("engine", None)
    if cover_better:
        return covered, stats, "cover"
    return built, stats, "construction"


def tree_schedule(tree: Tree, n: int) -> tuple[Schedule, dict, str]:
    """``(schedule, stats, method)``: the lower-makespan answer for ``n``
    tasks; ``stats`` are the cover's spider counters."""
    built = construction_schedule(tree, n)
    cover = best_path_cover(tree)
    sched, stats = spider_schedule(cover.spider, n)
    covered = cover.to_tree(sched)
    return _best_of(built, covered, stats, covered.makespan < built.makespan)


def tree_deadline(
    tree: Tree, t_lim: Time, n: Optional[int] = None
) -> tuple[Schedule, dict, str]:
    """``(schedule, stats, method)``: the answer placing more tasks (at most
    ``n``) by ``t_lim``; ``stats`` are the cover's spider counters."""
    built = construction_deadline(tree, t_lim, n)
    cover = best_path_cover(tree)
    sched, stats, _ = spider_deadline(cover.spider, t_lim, n)
    covered = cover.to_tree(sched)
    return _best_of(built, covered, stats, covered.n_tasks > built.n_tasks)
