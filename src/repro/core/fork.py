"""The fork-graph (star) algorithm of Beaumont et al. [2] (paper §6).

The paper's spider algorithm needs, as a subroutine, the IPDPS 2002 algorithm
for *fork graphs*: given a star, a deadline ``Tlim`` and a task budget, place
as many tasks as possible so that everything completes by ``Tlim``.

Two ideas, both reproduced here:

1. **Single-task expansion** (Fig. 6).  A physical child ``(c, w)`` that
   executes ``q`` tasks behaves like ``q`` *virtual single-task slaves*
   ``(c, w), (c, w + m), ..., (c, w + (q−1)·m)`` with ``m = max(c, w)``:
   the task with ``j`` successors on that child must be fully received by
   ``Tlim − (w + j·m)``.

2. **Greedy allocation over the shared out-port.**  After the expansion the
   master's port is the only shared resource; a set of virtual slaves is
   feasible iff serialising their communications EDF (earliest deadline
   ``Tlim − W`` first) meets every deadline.  The paper's greedy scans
   candidates by ascending ``(c, W)`` and keeps each one that stays
   feasible; this maximises the number of accepted slaves.

:func:`allocate_greedy` is that rule, literally: it rescans the accepted
set on every candidate, ``O(k²·log k)``.  This module is the paper-literal
*oracle*; production solves run the vectorised replay of the same greedy
in :mod:`repro.core.solve_fast` and fall back here only for inputs the
kernel does not cover (floats, Fractions).  The same allocator is reused
verbatim by :mod:`repro.core.spider`, where the "virtual slaves" come from
chain schedules instead of physical children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from ..platforms.star import Star
from .commvector import CommVector
from .schedule import Schedule, TaskAssignment
from .types import PlatformError, Time

@dataclass
class AllocStats:
    """Operation counters for the shared-port allocation.

    ``structure_ops`` counts the elements the greedy rescans, so its
    quadratic cost is a measurable number, not an asymptotic anecdote.
    """

    candidates: int = 0
    accepted: int = 0
    rejected: int = 0
    structure_ops: int = 0


@dataclass(frozen=True, slots=True)
class VirtualSlave:
    """One single-task node of the transformed problem.

    ``tag`` identifies the physical origin — ``(child, copy)`` for stars,
    ``(leg, task)`` for spiders — and rides along unchanged through the
    allocation.
    """

    c: Time
    work: Time
    tag: Hashable

    def deadline(self, t_lim: Time) -> Time:
        """Latest completion time of the communication: ``Tlim − W``."""
        return t_lim - self.work


@dataclass
class Allocation:
    """Result of the shared-port allocation for a given ``Tlim``."""

    t_lim: Time
    accepted: list[VirtualSlave]
    emissions: list[Time]  # parallel to ``accepted``; EDF-serialised
    rejected: list[VirtualSlave]
    _by_tag: dict[Hashable, Time] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_tag = {
            slave.tag: emit for slave, emit in zip(self.accepted, self.emissions)
        }

    @property
    def n_tasks(self) -> int:
        return len(self.accepted)

    def emission_of(self, tag: Hashable) -> Time:
        try:
            return self._by_tag[tag]
        except KeyError:
            raise KeyError(f"tag {tag!r} not accepted") from None


def _edf_feasible(
    slaves: Sequence[VirtualSlave],
    t_lim: Time,
    stats: Optional[AllocStats] = None,
) -> bool:
    """EDF test: serialising communications by ascending deadline, every
    prefix must fit — ``Σ_{j≤k} c_j ≤ Tlim − W_k`` for all k."""
    total: Time = 0
    if stats is not None:
        stats.structure_ops += len(slaves)
    for s in sorted(slaves, key=lambda s: (s.deadline(t_lim), s.c)):
        total += s.c
        if total > s.deadline(t_lim):
            return False
    return True


def _edf_emissions(
    accepted: list[VirtualSlave], t_lim: Time
) -> tuple[list[VirtualSlave], list[Time]]:
    """Serialise the accepted set EDF from time 0; returns (sorted, times)."""
    order = sorted(accepted, key=lambda s: (s.deadline(t_lim), s.c))
    emissions: list[Time] = []
    clock: Time = 0
    for s in order:
        emissions.append(clock)
        clock += s.c
    return order, emissions


def allocate_greedy(
    candidates: Sequence[VirtualSlave],
    t_lim: Time,
    *,
    stats: Optional[AllocStats] = None,
) -> Allocation:
    """The paper's allocator: scan by ascending ``(c, W)``, keep what fits.

    Rejections never shrink the accepted set, so within one physical child
    (constant ``c``, increasing ``W``) the accepted copies always form a
    prefix — exactly the property the physical reconstruction relies on.
    """
    accepted: list[VirtualSlave] = []
    rejected: list[VirtualSlave] = []
    for cand in sorted(candidates, key=lambda s: (s.c, s.work)):
        if stats is not None:
            stats.candidates += 1
        if cand.deadline(t_lim) >= cand.c and _edf_feasible(
            accepted + [cand], t_lim, stats
        ):
            accepted.append(cand)
            if stats is not None:
                stats.accepted += 1
        else:
            rejected.append(cand)
            if stats is not None:
                stats.rejected += 1
    order, emissions = _edf_emissions(accepted, t_lim)
    return Allocation(t_lim, order, emissions, rejected)


# ---------------------------------------------------------------------------
# Physical star scheduling
# ---------------------------------------------------------------------------


def expand_star(star: Star, t_lim: Time, cap: Optional[int] = None) -> list[VirtualSlave]:
    """Fig. 6: expand every child into its virtual single-task slaves.

    Copy ``q`` (0-based) of child ``i`` is ``(c_i, w_i + q·m_i)``; copies
    whose communication cannot fit even alone (``c + W > Tlim``) are not
    generated.  ``cap`` optionally bounds copies per child (e.g. the task
    budget ``n``).
    """
    slaves: list[VirtualSlave] = []
    for idx, child in enumerate(star.children, start=1):
        q = 0
        while cap is None or q < cap:
            w_virtual = child.w + q * child.m
            if child.c + w_virtual > t_lim:
                break
            slaves.append(VirtualSlave(child.c, w_virtual, tag=(idx, q)))
            q += 1
    return slaves


def fork_schedule_deadline(
    star: Star,
    t_lim: Time,
    n: Optional[int] = None,
    *,
    stats: Optional[AllocStats] = None,
) -> Schedule:
    """Max-task schedule on a physical star within ``Tlim`` (at most ``n``).

    Builds the expansion, allocates the shared port, then reconstructs the
    physical schedule: child ``i``'s accepted copies, in descending virtual
    work (= arrival order), are its tasks; each executes ASAP after arrival
    and after the previous task on that child.
    """
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    slaves = expand_star(star, t_lim, cap=n)
    alloc = allocate_greedy(slaves, t_lim, stats=stats)
    accepted = alloc.accepted
    if n is not None and len(accepted) > n:
        # keep the n easiest slots: drop the tightest-deadline ones first
        # (they are the deepest copies); re-serialise afterwards.
        keep = sorted(accepted, key=lambda s: (s.work, s.c))[:n]
        accepted, emissions = _edf_emissions(keep, t_lim)
    else:
        emissions = alloc.emissions

    # group emission times per child
    per_child: dict[int, list[tuple[Time, VirtualSlave]]] = {}
    for slave, emit in zip(accepted, emissions):
        child_idx, _copy = slave.tag
        per_child.setdefault(child_idx, []).append((emit, slave))

    schedule = Schedule(star)
    task_id = 0
    order: list[tuple[Time, int, Time]] = []  # (emission, child, start)
    for child_idx, items in per_child.items():
        w = star.child(child_idx).w
        items.sort()  # ascending emission = descending virtual work
        proc_free: Time = 0
        for emit, _slave in items:
            arrival = emit + star.child(child_idx).c
            start = max(arrival, proc_free)
            proc_free = start + w
            order.append((emit, child_idx, start))
    order.sort()
    for emit, child_idx, start in order:
        task_id += 1
        schedule.add(
            TaskAssignment(task_id, child_idx, start, CommVector([emit]))
        )
    return schedule


def fork_max_tasks(star: Star, t_lim: Time) -> int:
    """Maximum number of tasks completable on ``star`` by ``t_lim``."""
    return fork_schedule_deadline(star, t_lim).n_tasks


def fork_schedule(
    star: Star,
    n: int,
    *,
    stats: Optional[AllocStats] = None,
) -> Schedule:
    """Optimal-makespan schedule of ``n`` tasks on a star.

    The fork algorithm is a deadline procedure; the makespan optimum is
    recovered by monotone search over ``Tlim`` (integer bisection when the
    platform is integral, else bisection to EPS followed by a refinement
    sweep over candidate completion times).  ``stats`` accumulates allocator
    counters across every probe of the search.
    """
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    lo, hi = _star_bounds(star, n)
    feasible_at_hi = fork_schedule_deadline(star, hi, n, stats=stats)
    if feasible_at_hi.n_tasks < n:  # pragma: no cover - hi is a valid horizon
        raise PlatformError(f"horizon {hi} cannot fit {n} tasks")
    if all(isinstance(v, int) for ch in star.children for v in (ch.c, ch.w)):
        while lo < hi:
            mid = (lo + hi) // 2
            probe = fork_schedule_deadline(star, mid, n, stats=stats)
            if probe.n_tasks >= n:
                hi = mid
            else:
                lo = mid + 1
        return fork_schedule_deadline(star, lo, n, stats=stats)
    # float platform: epsilon bisection
    for _ in range(100):
        mid = (lo + hi) / 2
        probe = fork_schedule_deadline(star, mid, n, stats=stats)
        if probe.n_tasks >= n:
            hi = mid
        else:
            lo = mid
    return fork_schedule_deadline(star, hi, n, stats=stats)


def _star_bounds(star: Star, n: int) -> tuple[Time, Time]:
    """(trivial lower, guaranteed upper) bounds on the n-task makespan."""
    lo = min(ch.c + ch.w for ch in star.children)
    best = min(star.children, key=lambda ch: ch.c + ch.w + (n - 1) * ch.m)
    hi = best.c + best.w + (n - 1) * best.m
    return lo, hi
