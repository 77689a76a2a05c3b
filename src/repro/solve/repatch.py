"""Incremental schedule repair under churn (``mode="repatch"``).

Given a *committed* schedule on platform P and a churn episode that turns
P into P′ at instant ``t`` (the earliest event time), re-solving from
scratch throws away two things a live system cannot recover: the work that
already completed, and the prefix of the schedule that is already physical
history.  ``repatch`` repairs instead:

1. **classify** every task against the :class:`~repro.sim.churn.ChurnTrace`:

   * *done* (completion ≤ t) — already finished; kept in the repaired
     schedule when its resources survived unchanged, otherwise bookkept as
     completed off-platform (``done_off``);
   * *kept* — dispatched before ``t`` (first emission < t) on resources
     that survive with identical values: copied **bit-identically**, only
     the processor key mapped through the churn's key map;
   * *orphaned* — everything else (not yet started, or touching a departed
     / drifted resource): replanned;

2. **replan** orphans greedily by earliest completion time over every
   processor of P′, threading each claim through the kept prefix's busy
   intervals; every new claim is lower-bounded by ``t`` (history cannot be
   rewritten) and by the join/drift instant of the resources it uses;

3. **cancel-&-reissue**: while a kept in-flight task pins the repaired
   makespan, try re-placing it like an orphan (its in-flight work is
   cancelled, mirroring the fail-stop reissue model); commit only strict
   improvements.  This keeps repatch competitive when churn makes the old
   placement obsolete (e.g. a fast joiner appears).

The result replay-validates on P′, on the array validator and on the
executor alike: kept claims are
value-identical by construction, new claims respect the same pipeline and
exclusivity rules the validator enforces.

:data:`REPATCH_TOLERANCE` is the committed quality bound: repatch's
completed makespan never exceeds ``REPATCH_TOLERANCE ×`` the cold
re-solve's (re-solving the not-yet-done work optimally from ``t`` on an
empty P′).  The factor 2 mirrors the classic list-scheduling guarantee the
greedy replanner inherits; the benchmark suite shows the typical ratio is
far below 1.2 (see PERFORMANCE.md).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..core.commvector import CommVector
from ..core.schedule import PlatformAdapter, ProcKey, Schedule, TaskAssignment, adapter_for
from ..core.types import Time
from ..sim.churn import ChurnTrace, apply_churn, parse_churn_events
from .problem import Problem, Solution, SolveError
from .registry import Solver, solve

__all__ = [
    "REPATCH_TOLERANCE",
    "RepatchResult",
    "RepatchSolver",
    "cold_resolve",
    "repatch_schedule",
]

#: Committed quality bound of the greedy repair vs a cold optimal re-solve
#: of the remaining work (see module docstring).  The churn property suite
#: asserts it on randomized platforms; the churn benchmark family records
#: the actual (much smaller) ratios.
REPATCH_TOLERANCE = 2.0


# ---------------------------------------------------------------------------
# Busy-interval bookkeeping
# ---------------------------------------------------------------------------


class _BusyList:
    """Sorted, non-overlapping busy intervals of one resource, with
    O(log n) conflict lookup.  Zero-length intervals (zero-latency links)
    are stored but never block."""

    __slots__ = ("starts", "items")

    def __init__(self) -> None:
        self.starts: list[Time] = []
        self.items: list[tuple[Time, Time, int]] = []

    def add(self, start: Time, end: Time, task: int) -> None:
        i = bisect_right(self.starts, start)
        self.starts.insert(i, start)
        self.items.insert(i, (start, end, task))

    def remove_task(self, task: int) -> None:
        self.items = [iv for iv in self.items if iv[2] != task]
        self.starts = [iv[0] for iv in self.items]

    def first_conflict(self, cand: Time, dur: Time) -> Optional[Time]:
        """The end of an interval conflicting with ``[cand, cand+dur)``
        (for ``dur == 0``: a zero-length claim strictly inside a busy
        interval, which the replay sweep rejects), or ``None``."""
        # the nearest non-zero interval starting at or before cand
        j = bisect_right(self.starts, cand) - 1
        while j >= 0 and self.items[j][1] <= self.items[j][0]:
            j -= 1
        if j >= 0:
            s, e, _ = self.items[j]
            if e > cand:
                return e
        if dur > 0:
            # intervals starting inside the window
            k = bisect_right(self.starts, cand)
            while k < len(self.items):
                s, e, _ = self.items[k]
                if s >= cand + dur:
                    break
                if e > s:
                    return e
                k += 1
        return None


def _earliest_fit(lists: list[_BusyList], low: Time, dur: Time) -> Time:
    """Earliest ``start >= low`` such that ``[start, start+dur)`` is free in
    every list (terminates because every bump lands on an interval end
    strictly after the candidate)."""
    cand = low
    if dur <= 0:
        # zero-length claims (zero-latency links): rare, keep the simple
        # re-querying bump loop
        while True:
            bump: Optional[Time] = None
            for bl in lists:
                e = bl.first_conflict(cand, dur)
                if e is not None and (bump is None or e > bump):
                    bump = e
            if bump is None:
                return cand
            cand = bump
    # dur > 0: one merged sweep in interval-start order — every interval is
    # visited at most once, O(1) per step.  Invariant: no visited interval
    # ends after ``cand`` (skipped ones ended before it, conflicting ones
    # bumped it), so the first head starting at ``cand + dur`` or later
    # proves the window free.
    ptrs: list[tuple[list, int]] = []
    for bl in lists:
        items = bl.items
        j = bisect_right(bl.starts, cand) - 1
        while j >= 0 and items[j][1] <= items[j][0]:  # skip zero-length
            j -= 1
        if j >= 0 and items[j][1] > cand:
            ptrs.append((items, j))  # an interval overlaps cand from the left
        else:
            ptrs.append((items, bisect_right(bl.starts, cand)))
    if len(ptrs) == 1:
        items_a, ia = ptrs[0]
        na = len(items_a)
        while ia < na:
            s, e, _ = items_a[ia]
            ia += 1
            if e <= s or e <= cand:
                continue
            if s >= cand + dur:
                break
            cand = e
        return cand
    (items_a, ia), (items_b, ib) = ptrs[0], ptrs[1]
    na, nb = len(items_a), len(items_b)
    while ia < na or ib < nb:
        if ib >= nb or (ia < na and items_a[ia][0] <= items_b[ib][0]):
            s, e, _ = items_a[ia]
            ia += 1
        else:
            s, e, _ = items_b[ib]
            ib += 1
        if e <= s or e <= cand:
            continue
        if s >= cand + dur:
            break
        cand = e
    return cand


# ---------------------------------------------------------------------------
# The repair
# ---------------------------------------------------------------------------


@dataclass
class RepatchResult:
    """Outcome of one repair (see module docstring for the categories)."""

    #: the repaired schedule on the mutated platform.
    schedule: Schedule
    churn: ChurnTrace
    #: the churn instant (prefix boundary).
    t: Time
    #: finished before ``t``, kept bit-identically in the schedule.
    kept_done: list[int]
    #: in-flight at ``t``, kept bit-identically (assignment unchanged).
    kept: list[int]
    #: replanned from scratch at times >= t (includes moved kept tasks).
    replanned: list[int]
    #: kept tasks whose in-flight work the repair cancelled and re-placed.
    moved: list[int]
    #: finished before ``t`` on resources P′ cannot express; completed,
    #: but absent from the repaired schedule.
    done_off: list[int]
    #: placement attempts the greedy replanner evaluated.
    placements: int = 0

    @property
    def completed_makespan(self) -> Time:
        """Completion of *all* tasks, the done-off prefix included."""
        return max(self.schedule.makespan, self.t if self.done_off else 0)

    def summary(self) -> dict[str, Any]:
        return {
            "instant": self.t,
            "kept": len(self.kept),
            "kept_done": len(self.kept_done),
            "replanned": len(self.replanned),
            "moved": len(self.moved),
            "done_off": len(self.done_off),
            "placements": self.placements,
            "makespan": self.schedule.makespan,
            "completed_makespan": self.completed_makespan,
        }


class _Repairer:
    def __init__(self, schedule: Schedule, churn: ChurnTrace):
        if schedule.platform is not churn.platform_before and (
            schedule.platform.to_dict() != churn.platform_before.to_dict()
        ):
            raise SolveError(
                "repatch needs the churn trace of the schedule's own platform"
            )
        self.old = schedule
        self.churn = churn
        self.t: Time = churn.instant
        self.A1: PlatformAdapter = schedule.adapter
        self.A2: PlatformAdapter = adapter_for(churn.platform_after)
        self.kmap = churn.key_map
        self.placements = 0

        self.port: dict[Any, _BusyList] = {}
        self.link: dict[Any, _BusyList] = {}
        self.proc: dict[ProcKey, _BusyList] = {}

        #: per-processor placement plan, memoized: (hops, work, static)
        #: where hops = [(link, port, latency, low-floor)] and static is
        #: the route+work sum — a true lower bound on completion - t.
        self._plan: dict[ProcKey, tuple[list, Time, Time]] = {}
        self._order: Optional[list[tuple[Time, int, ProcKey]]] = None

        # lower bounds for *new* claims: never before t, never before the
        # join/drift instant of the resource being claimed
        self.lb_link: dict[Any, Time] = {}
        self.lb_proc: dict[ProcKey, Time] = {}
        self.lb_port: dict[Any, Time] = {}
        for key, when in churn.joined.items():
            self.lb_link[key] = max(self.lb_link.get(key, self.t), when)
            self.lb_proc[key] = max(self.lb_proc.get(key, self.t), when)
            self.lb_port[key] = max(self.lb_port.get(key, self.t), when)
        for key, when in churn.drifted_c.items():
            self.lb_link[key] = max(self.lb_link.get(key, self.t), when)
        for key, when in churn.drifted_w.items():
            self.lb_proc[key] = max(self.lb_proc.get(key, self.t), when)

    # -- busy-list maintenance ---------------------------------------------

    def _busy(self, table: dict, key: Any) -> _BusyList:
        bl = table.get(key)
        if bl is None:
            bl = table[key] = _BusyList()
        return bl

    def _claim(self, a: TaskAssignment) -> None:
        route = self.A2.route(a.processor)
        for lk, emit in zip(route, a.comms):
            c = self.A2.latency(lk)
            self._busy(self.link, lk).add(emit, emit + c, a.task)
            self._busy(self.port, self.A2.sender(lk)).add(emit, emit + c, a.task)
        w = self.A2.work(a.processor)
        self._busy(self.proc, a.processor).add(a.start, a.start + w, a.task)

    def _release(self, a: TaskAssignment) -> None:
        route = self.A2.route(a.processor)
        for lk in route:
            self._busy(self.link, lk).remove_task(a.task)
            self._busy(self.port, self.A2.sender(lk)).remove_task(a.task)
        self._busy(self.proc, a.processor).remove_task(a.task)

    # -- classification ------------------------------------------------------

    def _unchanged(self, old_proc: ProcKey) -> bool:
        """True when ``old_proc``'s full route survives with identical
        shape and values, untouched by any drift/join instant."""
        new_proc = self.kmap.get(old_proc)
        if new_proc is None:
            return False
        old_route = self.A1.route(old_proc)
        new_route = self.A2.route(new_proc)
        if len(old_route) != len(new_route):
            return False
        for ol, nl in zip(old_route, new_route):
            if self.kmap.get(ol) != nl:
                return False
            if self.A1.latency(ol) != self.A2.latency(nl):
                return False
            if nl in self.churn.drifted_c or nl in self.churn.joined:
                return False
        if self.A1.work(old_proc) != self.A2.work(new_proc):
            return False
        return new_proc not in self.churn.drifted_w

    # -- placement -----------------------------------------------------------

    def _plan_for(self, proc: ProcKey) -> tuple[list, Time, Time]:
        plan = self._plan.get(proc)
        if plan is None:
            hops = []
            static: Time = 0
            for lk in self.A2.route(proc):
                port = self.A2.sender(lk)
                c = self.A2.latency(lk)
                floor = max(
                    self.lb_link.get(lk, self.t),
                    self.lb_port.get(port, self.t),
                )
                hops.append((lk, port, c, floor))
                static = static + c
            w = self.A2.work(proc)
            plan = self._plan[proc] = (hops, w, static + w)
        return plan

    def _place(self, proc: ProcKey) -> tuple[list[Time], Time, Time]:
        """Earliest-completion placement of one task on ``proc`` around the
        committed busy intervals; returns (emits, exec_start, completion)."""
        self.placements += 1
        hops, w, _ = self._plan_for(proc)
        emits: list[Time] = []
        cursor = self.t
        for lk, port, c, floor in hops:
            low = cursor if cursor >= floor else floor
            e = _earliest_fit(
                [self._busy(self.port, port), self._busy(self.link, lk)], low, c
            )
            emits.append(e)
            cursor = e + c
        start = _earliest_fit(
            [self._busy(self.proc, proc)],
            max(cursor, self.lb_proc.get(proc, self.t)),
            w,
        )
        return emits, start, start + w

    def _place_best(self, task: int) -> TaskAssignment:
        # probe cheapest-route processors first so the static lower bound
        # (completion >= t + route + work) prunes dominated processors;
        # the argmin over (completion, original order) is order-independent,
        # so the pruning is behavior-preserving
        if self._order is None:
            self._order = sorted(
                (self._plan_for(proc)[2], order, proc)
                for order, proc in enumerate(self.A2.processors())
            )
        best: Optional[tuple[Time, int, TaskAssignment]] = None
        for static, order, proc in self._order:
            if best is not None and self.t + static > best[0]:
                break  # sorted by static: nothing later can beat best
            emits, start, completion = self._place(proc)
            if best is None or (completion, order) < (best[0], best[1]):
                best = (completion, order, TaskAssignment(
                    task, proc, start, CommVector(emits)
                ))
        assert best is not None  # platforms always have >= 1 processor
        return best[2]

    # -- the repair ----------------------------------------------------------

    def repair(self) -> RepatchResult:
        t = self.t
        kept_done: dict[int, TaskAssignment] = {}
        kept: dict[int, TaskAssignment] = {}
        orphans: list[TaskAssignment] = []
        done_off: list[int] = []

        for task in self.old.tasks():
            a = self.old[task]
            completion = a.start + self.A1.work(a.processor)
            unchanged = self._unchanged(a.processor)
            mapped = (
                TaskAssignment(task, self.kmap[a.processor], a.start, a.comms)
                if unchanged
                else None
            )
            if completion <= t:
                if mapped is not None:
                    kept_done[task] = mapped
                else:
                    done_off.append(task)
            elif mapped is not None and a.first_emission < t:
                kept[task] = mapped
            else:
                orphans.append(a)

        for a in kept_done.values():
            self._claim(a)
        for a in kept.values():
            self._claim(a)

        # greedy replan, original dispatch order for determinism
        replanned: dict[int, TaskAssignment] = {}
        for a in sorted(orphans, key=lambda x: (x.first_emission, x.task)):
            placed = self._place_best(a.task)
            self._claim(placed)
            replanned[a.task] = placed

        # cancel-&-reissue: while a kept in-flight task pins the makespan,
        # re-place it; commit only strict improvements
        moved: list[int] = []
        while kept:
            current = {**kept_done, **kept, **replanned}
            horizon = max(
                a.start + self.A2.work(a.processor) for a in current.values()
            )
            critical = sorted(
                task
                for task, a in kept.items()
                if a.start + self.A2.work(a.processor) == horizon
            )
            if not critical:
                break
            improved = False
            for task in critical:
                old_a = kept[task]
                self._release(old_a)
                candidate = self._place_best(task)
                new_completion = candidate.start + self.A2.work(candidate.processor)
                if new_completion < horizon:
                    self._claim(candidate)
                    del kept[task]
                    replanned[task] = candidate
                    moved.append(task)
                    improved = True
                    break
                self._claim(old_a)  # restore: no improvement
            if not improved:
                break

        assignments = {**kept_done, **kept, **replanned}
        schedule = Schedule(self.churn.platform_after, assignments)
        return RepatchResult(
            schedule=schedule,
            churn=self.churn,
            t=t,
            kept_done=sorted(kept_done),
            kept=sorted(kept),
            replanned=sorted(replanned),
            moved=sorted(moved),
            done_off=sorted(done_off),
            placements=self.placements,
        )


def repatch_schedule(schedule: Schedule, churn: ChurnTrace) -> RepatchResult:
    """Repair ``schedule`` against ``churn`` (see module docstring)."""
    return _Repairer(schedule, churn).repair()


def cold_resolve(
    schedule: Schedule,
    churn: ChurnTrace,
    *,
    base_options: Optional[dict] = None,
) -> tuple[Optional[Solution], int, Time]:
    """The strawman repatch competes with: discard everything in flight at
    the churn instant and re-solve the not-yet-done work offline on the
    mutated platform.  Returns ``(solution, remaining, total_makespan)``
    where ``total_makespan = t + solution.makespan`` (work restarts at
    ``t``); ``solution`` is ``None`` when nothing remained."""
    t = churn.instant
    adapter = schedule.adapter
    remaining = sum(
        1
        for task in schedule.tasks()
        if schedule[task].start + adapter.work(schedule[task].processor) > t
    )
    if remaining == 0:
        return None, 0, t
    problem = Problem(
        churn.platform_after,
        "makespan",
        n=remaining,
        options=base_options or {},
    )
    solution = solve(problem)
    return solution, remaining, t + solution.makespan


# ---------------------------------------------------------------------------
# The registered solver
# ---------------------------------------------------------------------------


class RepatchSolver(Solver):
    """Churn repair through the registry (``mode="repatch"``).

    Claims ``object`` like the online solver: any platform with an offline
    solver and an adapter can be repaired.  Options:

    * ``churn`` — the event list (required; see
      :func:`repro.sim.churn.parse_churn_events`);
    * ``base`` — options dict forwarded to the base offline solve (the
      base solver checks it like its own).

    The answer's schedule lives on the **mutated** platform
    (``extra["platform_after"]``); its ``stats`` carry the repair
    categories and ``extra["completed_makespan"]`` the completion of all
    ``n`` tasks including the pre-churn prefix.
    """

    name = "repatch"
    mode = "repatch"
    platform_type = object
    kinds = ("makespan",)
    exact = False  # the repaired suffix is greedy, not optimal
    option_keys = ("churn", "base")
    summary = (
        "incremental churn repair — classify kept/orphaned work, greedily "
        "re-route around the committed prefix, cancel-&-reissue when beneficial"
    )

    def solve(self, problem: Problem) -> Solution:
        events = parse_churn_events(problem.options.get("churn") or ())
        if not events:
            raise SolveError(
                "repatch needs options['churn'] with at least one event"
            )
        base_options = dict(problem.options.get("base") or {})
        base_problem = replace(
            problem, mode="offline", options=base_options, warm_caps=None
        )
        base = solve(base_problem)
        churn = apply_churn(problem.platform, events)
        result = repatch_schedule(base.schedule, churn)
        return Solution(
            problem,
            result.schedule,
            self.name,
            stats={
                "kept": len(result.kept),
                "kept_done": len(result.kept_done),
                "replanned": len(result.replanned),
                "moved": len(result.moved),
                "done_off": len(result.done_off),
                "placements": result.placements,
            },
            extra={
                "base_solver": base.solver,
                "base_makespan": base.makespan,
                "churn": [step.to_dict() for step in churn.steps],
                "instant": result.t,
                "completed_makespan": result.completed_makespan,
                "platform_after": churn.platform_after.to_dict(),
            },
        )
