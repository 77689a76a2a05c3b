"""Multi-round spider-cover scheduling on general trees.

The single-shot heuristic (:mod:`repro.trees.heuristic`) burns one spider
cover: one root-to-leaf path per child of the master, every other worker
idle forever.  This module generalises it into a *multi-round cover
scheduler* that recovers much of the tree's bandwidth-centric capacity:

1. pick a cover (pluggable strategies: throughput-greedy path, widest-leg,
   freshness-first for residual rounds);
2. schedule a round on the cover with the optimal spider deadline algorithm
   and map it back onto tree nodes;
3. *interleave* the round with the previous ones: find the minimal time
   shift placing every busy interval of the round inside the idle gaps of
   the shared resources (send ports, processors) it touches — rounds run
   concurrently wherever they use disjoint parts of the tree, and thread
   through each other's port gaps where they overlap;
4. subtract the placed tasks from the budget, re-cover the residual tree
   favouring previously unserved workers, and repeat until the budget or
   the horizon is exhausted, no cover improves, or ``max_rounds`` is hit.

Round 1 is exactly the single-cover heuristic run over the full horizon, so
the multi-round schedule **never places fewer tasks** than the single cover
(deadline mode) and never has a larger makespan (makespan mode, where the
deadline scheduler sits inside a monotone search over ``Tlim``).

Feasibility is by construction: within a round the cover's links form a
subgraph where every node sends on at most one outgoing link (the spider
guarantee), and across rounds the gap placement keeps the busy intervals of
every send port and processor pairwise disjoint.  Conditions (1) and (2) of
Definition 1 are per-task and survive uniform shifts.  The property suite
re-checks all four conditions on the composed tree schedule anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..analysis.steady_state import chain_steady_state, tree_steady_state
from ..core.commvector import CommVector
from ..core.schedule import Schedule, TaskAssignment
from ..core.solve_fast import spider_deadline
from ..core.types import PlatformError, Time
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.tree import ROOT, Tree
from .heuristic import SpiderCover

#: Resource keys for cross-round sequencing: every node's single send port
#: and every worker's CPU.  Links are subsumed by their sender's port.
_Resource = tuple[str, int]

#: Bisection steps over the candidate window of a residual round — a compact
#: round is easier to thread through the earlier rounds' idle gaps than one
#: smeared over the whole horizon, so the fit searches for the largest
#: window that still places.
_WINDOW_ATTEMPTS = 8

#: Bound on the conflict-bump sweep that searches the gap placement (each
#: step strictly raises the shift past at least one blocking interval).
_SHIFT_ITERATIONS = 512

DEFAULT_MAX_ROUNDS = 16


# ---------------------------------------------------------------------------
# Cover strategies
# ---------------------------------------------------------------------------

#: A strategy maps (tree, already-served workers) to a spider cover over the
#: *residual* tree, or ``None`` once no root path reaches a fresh worker.
#: With ``served`` non-empty, legs whose paths contain no fresh worker are
#: dropped outright (their capacity is spent) — so residual covers are
#: partial spiders, not forced to re-include saturated branches.
CoverStrategy = Callable[[Tree, frozenset], Optional[SpiderCover]]


def _cover_by(tree: Tree, served: frozenset, score) -> Optional[SpiderCover]:
    by_top: dict[int, list[list[int]]] = {}
    for path in tree.root_paths():
        if not served or any(v not in served for v in path):
            by_top.setdefault(path[0], []).append(path)
    legs = []
    for top in tree.children(ROOT):
        paths = by_top.get(top)
        if not paths:
            continue
        best = max(paths, key=lambda path: (*score(path), tuple(path)))
        legs.append(tuple(best))
    if not legs:
        return None
    return SpiderCover(tree, tuple(legs))


def throughput_cover(
    tree: Tree, served: frozenset = frozenset()
) -> Optional[SpiderCover]:
    """Per root child, the path with the best steady-state throughput.

    With no ``served`` workers this delegates to
    :func:`repro.trees.heuristic.best_path_cover`, so round 1 of the
    multi-round scheduler is *bit-identical* to the single-shot heuristic.
    """
    if not served:
        from .heuristic import best_path_cover

        return best_path_cover(tree)
    return _cover_by(
        tree,
        served,
        lambda p: (chain_steady_state(tree.path_chain(p)).throughput, len(p)),
    )


def widest_cover(
    tree: Tree, served: frozenset = frozenset()
) -> Optional[SpiderCover]:
    """Per root child, the path with the widest bottleneck link (smallest
    maximum latency), ties broken by throughput."""
    return _cover_by(
        tree,
        served,
        lambda p: (
            -max(tree.latency(v) for v in p),
            chain_steady_state(tree.path_chain(p)).throughput,
        ),
    )


def fresh_cover(
    tree: Tree, served: frozenset = frozenset()
) -> Optional[SpiderCover]:
    """Per root child, the path reaching the most not-yet-served workers,
    ties broken by throughput — the residual-round workhorse that makes
    round ``r+1`` favour workers the first ``r`` covers dropped."""
    return _cover_by(
        tree,
        served,
        lambda p: (
            sum(1 for v in p if v not in served),
            chain_steady_state(tree.path_chain(p)).throughput,
        ),
    )


COVER_STRATEGIES: dict[str, CoverStrategy] = {
    "throughput": throughput_cover,
    "widest": widest_cover,
    "fresh": fresh_cover,
}


def _resolve_strategies(
    cover_strategy: str, residual_strategy: str
) -> tuple[CoverStrategy, CoverStrategy]:
    """Look up both strategy names, failing with a typed, listing error."""
    try:
        return COVER_STRATEGIES[cover_strategy], COVER_STRATEGIES[residual_strategy]
    except KeyError as exc:
        raise PlatformError(
            f"unknown cover strategy {exc}; choose from {sorted(COVER_STRATEGIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Round records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundReport:
    """What one round contributed to the composed schedule."""

    index: int  # 1-based
    legs: tuple[tuple[int, ...], ...]  # cover legs, tree nodes top-down
    n_tasks: int
    shift: Time  # gap-placement delay against the earlier rounds
    window: Time  # horizon handed to the spider deadline run
    completion: Time  # absolute latest completion of the round
    new_workers: tuple[int, ...]  # workers served for the first time

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "legs": [list(leg) for leg in self.legs],
            "n_tasks": self.n_tasks,
            "shift": self.shift,
            "window": self.window,
            "completion": self.completion,
            "new_workers": list(self.new_workers),
        }


@dataclass
class MultiRoundResult:
    """Composed multi-round schedule plus the per-round story."""

    schedule: Schedule
    t_lim: Time
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return self.schedule.n_tasks

    @property
    def makespan(self) -> Time:
        return self.schedule.makespan

    @property
    def served_workers(self) -> set[int]:
        return {a.processor for a in self.schedule}

    @property
    def coverage(self) -> float:
        """Fraction of the tree's workers that executed at least one task."""
        tree: Tree = self.schedule.platform
        return len(self.served_workers) / tree.p if tree.p else 0.0

    def efficiency(self) -> float:
        """``(n/Tlim) / throughput*``: fraction of the tree's steady-state
        capacity the composed schedule achieves over the horizon."""
        thr = float(tree_steady_state(self.schedule.platform).throughput)
        if thr <= 0 or self.t_lim <= 0:
            return 0.0
        return (self.n_tasks / float(self.t_lim)) / thr


# ---------------------------------------------------------------------------
# Cross-round sequencing
# ---------------------------------------------------------------------------


def _round_intervals(
    tree: Tree, assignments: list[TaskAssignment]
) -> Iterator[tuple[_Resource, Time, Time]]:
    """Busy intervals of every shared resource touched by ``assignments``:
    one entry per communication on its sender's port, one per execution."""
    for a in assignments:
        route = tree.route(a.processor)
        sender = ROOT
        for hop, emit in zip(route, a.comms):
            yield ("port", sender), emit, emit + tree.latency(hop)
            sender = hop
        yield ("proc", a.processor), a.start, a.start + tree.work(a.processor)


#: Per-resource busy intervals of all accepted rounds, each list sorted and
#: non-overlapping (maintained by :func:`_absorb`).
_Busy = dict[_Resource, list[tuple[Time, Time]]]


def _min_gap_shift(
    tree: Tree, busy: _Busy, assignments: list[TaskAssignment]
) -> Optional[Time]:
    """Smallest uniform delay threading every busy interval of
    ``assignments`` through the idle gaps of the already-committed rounds.

    Conflict-bump sweep: while any shifted interval overlaps a committed
    one, raise the shift just past the latest-ending blocker found this
    pass.  The shift only grows and is bounded by the last committed end,
    so the sweep terminates; ``None`` means the iteration cap was hit
    (pathological fractional platforms) and the round must be rejected.
    """
    new = [
        (res, start, end)
        for res, start, end in _round_intervals(tree, assignments)
        if res in busy and end > start
    ]
    shift: Time = 0
    for _ in range(_SHIFT_ITERATIONS):
        bump: Time = 0
        for res, start, end in new:
            s, e = start + shift, end + shift
            for ps, pe in busy[res]:
                if ps >= e:
                    break
                if pe > s:  # strict overlap (touching endpoints are fine)
                    need = pe - s
                    if need > bump:
                        bump = need
        if bump <= 0:
            return shift
        shift += bump
    return None


def _absorb(
    tree: Tree, busy: _Busy, assignments: list[TaskAssignment]
) -> None:
    """Commit a round's intervals, keeping each resource list sorted and
    coalesced so the gap sweep stays linear."""
    staged: dict[_Resource, list[tuple[Time, Time]]] = {}
    for res, start, end in _round_intervals(tree, assignments):
        if end > start:
            staged.setdefault(res, []).append((start, end))
    for res, ivs in staged.items():
        merged = sorted(busy.get(res, []) + ivs)
        out = [merged[0]]
        for s, e in merged[1:]:
            if s <= out[-1][1]:
                if e > out[-1][1]:
                    out[-1] = (out[-1][0], e)
            else:
                out.append((s, e))
        busy[res] = out


def _map_to_tree(cover: SpiderCover, spider_sched: Schedule) -> list[TaskAssignment]:
    """Re-address a cover schedule onto tree nodes (task ids provisional —
    the composed schedule renumbers by emission order at the end)."""
    return [cover.tree_assignment(a, task=0) for a in spider_sched]


def _masked_spider(
    tree: Tree, cover: SpiderCover, served: set[int], t_lim: Time
) -> Spider:
    """The cover's spider with already-served nodes demoted to pure relays:
    their work is set above ``t_lim`` so the deadline algorithm can place no
    task on them (they only forward), while fresh nodes keep their real
    work.  Mapped back to the tree, the round therefore executes only on
    fresh workers — their CPUs are idle, so only *port* gaps constrain the
    placement."""
    return Spider(
        Chain(
            (tree.latency(v) for v in leg),
            (t_lim + 1 if v in served else tree.work(v) for v in leg),
        )
        for leg in cover.legs
    )


#: One successfully fitted round: assignments (absolute times), the shift
#: applied, and the horizon the spider deadline run was given.
_Fitted = tuple[list[TaskAssignment], Time, Time]


def _fit_round(
    tree: Tree,
    cover: SpiderCover,
    served: set[int],
    busy: _Busy,
    t_lim: Time,
    budget: Optional[int],
    stats: Optional[dict],
) -> Optional[_Fitted]:
    """Schedule one round on ``cover`` (served nodes masked to relays) and
    thread it through the committed rounds' idle gaps so everything still
    completes by ``t_lim``.

    The horizon given to the spider run is a trade-off: a full-horizon round
    places the most tasks but is hardest to fit (its intervals smear across
    the whole deadline), while a compact round slides into gaps easily.
    Each attempt measures the gap shift its schedule would need; the next
    attempt then targets the space actually left (``t_lim − shift``, or a
    halving when that stalls).  The best placement wins — most tasks, then
    earliest completion.  With no committed rounds (round 1) the first
    attempt fits at shift 0, which *is* the single-cover run.
    """
    spider = _masked_spider(tree, cover, served, t_lim)
    best: Optional[_Fitted] = None
    best_key: Optional[tuple] = None

    def evaluate(window: Time) -> str:
        """Try one window; record the placement if it fits.

        Returns ``"fit"``, ``"too_small"`` (the window cannot complete even
        one task) or ``"too_big"`` (the schedule exists but cannot thread
        through the committed gaps in time).
        """
        nonlocal best, best_key
        sched, run_stats, _ = spider_deadline(spider, window, budget)
        if stats is not None:
            for key, value in run_stats.items():
                if key != "engine":
                    stats[key] = stats.get(key, 0) + value
        if sched.n_tasks == 0:
            return "too_small"
        assignments = _map_to_tree(cover, sched)
        shift = _min_gap_shift(tree, busy, assignments)
        if shift is not None:
            completion = shift + max(
                a.start + tree.work(a.processor) for a in assignments
            )
            if completion <= t_lim:
                key = (-len(assignments), completion)
                if best_key is None or key < best_key:
                    if shift > 0:
                        assignments = [a.shifted(shift) for a in assignments]
                    best = (assignments, shift, window)
                    best_key = key
                return "fit"
        return "too_big"

    verdict = evaluate(t_lim)
    if verdict == "fit" and not busy:
        return best  # round 1: the full-horizon fit is already maximal
    if verdict == "too_small":
        return None  # task count is monotone in the window: all smaller too
    # Larger windows schedule more tasks but smear across the horizon and
    # stop fitting through the committed rounds' gaps; windows below the
    # route-plus-work threshold place nothing at all.  Bisect between the
    # two failure modes, keeping the best placement seen.
    lo: Time = 0
    hi = t_lim
    for _ in range(_WINDOW_ATTEMPTS):
        mid = (lo + hi) // 2 if isinstance(t_lim, int) else (lo + hi) / 2
        if mid <= lo or mid >= hi:
            break
        verdict = evaluate(mid)
        if verdict == "too_big":
            hi = mid
        else:  # a fit can often be grown; an empty window must be grown
            lo = mid
    return best


# ---------------------------------------------------------------------------
# The multi-round scheduler
# ---------------------------------------------------------------------------


def tree_schedule_multiround_deadline(
    tree: Tree,
    t_lim: Time,
    n: Optional[int] = None,
    *,
    cover_strategy: str = "throughput",
    residual_strategy: str = "fresh",
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats: Optional[dict] = None,
) -> MultiRoundResult:
    """Place as many tasks as possible (at most ``n``) on ``tree`` by
    ``t_lim`` using successive spider covers.

    Round 1 runs ``cover_strategy`` over the full horizon — exactly the
    single-cover heuristic — so the result never undercuts it; rounds 2+
    run ``residual_strategy`` (which sees the served-worker set) on
    whatever horizon remains after sequencing.  ``stats``, when given,
    accumulates the counters of every spider deadline solve the rounds run.
    """
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    if max_rounds < 1:
        raise PlatformError(f"max_rounds must be >= 1, got {max_rounds}")
    first, rest = _resolve_strategies(cover_strategy, residual_strategy)

    served: set[int] = set()
    busy: _Busy = {}
    placed: list[TaskAssignment] = []
    rounds: list[RoundReport] = []
    remaining = n
    for index in range(1, max_rounds + 1):
        if remaining is not None and remaining <= 0:
            break
        strategy = first if index == 1 else rest
        cover = strategy(tree, frozenset(served))
        if cover is None:  # no root path reaches a fresh worker any more
            break
        fitted = _fit_round(
            tree, cover, served, busy, t_lim, remaining, stats
        )
        if fitted is None:
            break
        assignments, shift, window = fitted
        _absorb(tree, busy, assignments)
        round_workers = {a.processor for a in assignments}
        rounds.append(
            RoundReport(
                index=index,
                legs=cover.legs,
                n_tasks=len(assignments),
                shift=shift,
                window=window,
                completion=max(
                    a.start + tree.work(a.processor) for a in assignments
                ),
                new_workers=tuple(sorted(round_workers - served)),
            )
        )
        placed.extend(assignments)
        served |= round_workers
        if remaining is not None:
            remaining -= len(assignments)

    schedule = Schedule(tree)
    order = sorted(placed, key=lambda a: (a.first_emission, a.processor))
    for task_id, a in enumerate(order, start=1):
        schedule.add(TaskAssignment(task_id, a.processor, a.start, a.comms))
    return MultiRoundResult(schedule, t_lim, rounds)


def tree_schedule_multiround(
    tree: Tree,
    n: int,
    *,
    cover_strategy: str = "throughput",
    residual_strategy: str = "fresh",
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stats: Optional[dict] = None,
) -> MultiRoundResult:
    """Makespan mode: the smallest horizon (monotone search over ``Tlim``)
    at which the multi-round deadline scheduler places all ``n`` tasks.

    The search starts from the single-cover optimal makespan (feasible for
    the multi-round scheduler because its round 1 *is* the single cover),
    so the result never has a larger makespan than the single-shot
    heuristic.  Integer bisection on integral trees, epsilon bisection
    otherwise; the best feasible probe is kept throughout because later
    rounds make the task count only heuristically monotone in ``Tlim``.
    """
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    first_strategy, _ = _resolve_strategies(cover_strategy, residual_strategy)
    from .heuristic import tree_schedule_by_cover  # local: avoids eager cycle

    def run(t: Time) -> MultiRoundResult:
        return tree_schedule_multiround_deadline(
            tree,
            t,
            n,
            cover_strategy=cover_strategy,
            residual_strategy=residual_strategy,
            max_rounds=max_rounds,
            stats=stats,
        )

    first_cover = first_strategy(tree, frozenset())
    hi = tree_schedule_by_cover(tree, n, first_cover).makespan
    lo = min(
        sum(tree.latency(u) for u in tree.route(v)) + tree.work(v)
        for v in tree.workers
    )
    best = run(hi)
    if best.n_tasks < n:  # round 1 must reproduce the single cover
        raise PlatformError(
            f"multi-round scheduler placed {best.n_tasks} < {n} tasks at the "
            f"single-cover makespan {hi} — never-lose invariant broken"
        )

    if tree.is_integer():
        lo_i, hi_i = int(lo), int(hi)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            res = run(mid)
            if res.n_tasks >= n:
                hi_i, best = mid, res
            else:
                lo_i = mid + 1
        return best
    flo, fhi = float(lo), float(hi)
    for _ in range(60):
        mid = (flo + fhi) / 2
        res = run(mid)
        if res.n_tasks >= n:
            fhi, best = mid, res
        else:
            flo = mid
    return best
