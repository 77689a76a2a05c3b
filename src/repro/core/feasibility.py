"""Feasibility checking — the four conditions of Definition 1.

A schedule is feasible iff:

1. **Relay precedence**: a node may only re-emit a task after fully receiving
   it — ``C_{k-1} + c_{k-1} <= C_k`` along the route (paper eq. (1));
2. **Arrival before start**: ``C_{P(i)} + c_{P(i)} <= T(i)`` (eq. (2));
3. **Processor exclusivity**: execution intervals on one processor do not
   overlap — ``|T(i) - T(j)| >= w_{P}`` (eq. (3));
4. **Port exclusivity**: two communications that occupy the same *send port*
   do not overlap (eq. (4)).  On a chain each link has its own sender so this
   is the per-link condition of the paper; on stars/spiders/trees the links
   leaving the master share its single port — "only one send at a time" —
   and the checker serialises them accordingly.

The checker reports *all* violations (not just the first) so tests and the
simulator can print actionable diagnostics.
"""

from __future__ import annotations

from typing import Hashable

from .schedule import Schedule
from .types import EPS, InfeasibleScheduleError, Time, leq


def _overlaps(
    ivs: list[tuple[Time, Time, int]], eps: float
) -> list[tuple[int, int, Time]]:
    """Overlapping pairs in a time-sorted interval list.

    Returns ``(task_a, task_b, overlap_amount)`` for consecutive-sorted
    collisions.  Zero-length intervals (``c == 0`` master links) never clash.
    """
    bad = []
    for (s1, e1, t1), (s2, e2, t2) in zip(ivs, ivs[1:]):
        # strict overlap, eps slack on floats
        if not leq(e1, s2, eps) and e1 > s1 and e2 > s2:
            bad.append((t1, t2, e1 - s2))
    return bad


def check(
    schedule: Schedule,
    *,
    require_nonnegative: bool = True,
    eps: float = EPS,
) -> list[str]:
    """Return the list of Definition-1 violations (empty = feasible)."""
    adapter = schedule.adapter
    violations: list[str] = []

    # conditions (1) and (2), plus optional non-negativity, task by task
    for a in schedule:
        route = adapter.route(a.processor)
        times = a.comms.times
        if require_nonnegative and not leq(0, times[0], eps):
            violations.append(
                f"task {a.task}: first emission at {times[0]} is negative"
            )
        for hop in range(len(route) - 1):
            c_hop = adapter.latency(route[hop])
            if not leq(times[hop] + c_hop, times[hop + 1], eps):
                violations.append(
                    f"task {a.task}: re-emitted on link {route[hop + 1]!r} at "
                    f"{times[hop + 1]} before reception completes at "
                    f"{times[hop] + c_hop} (condition 1)"
                )
        c_last = adapter.latency(route[-1])
        if not leq(times[-1] + c_last, a.start, eps):
            violations.append(
                f"task {a.task}: starts at {a.start} on {a.processor!r} before "
                f"arrival at {times[-1] + c_last} (condition 2)"
            )

    # condition (3): per-processor execution exclusivity
    for proc, ivs in schedule.processor_intervals().items():
        for t1, t2, amount in _overlaps(ivs, eps):
            violations.append(
                f"processor {proc!r}: executions of tasks {t1} and {t2} overlap "
                f"by {amount} (condition 3)"
            )

    # condition (4): send-port exclusivity (covers per-link on chains and the
    # master's one-send-at-a-time rule on stars/spiders/trees)
    for port, ivs in schedule.port_intervals().items():
        for t1, t2, amount in _overlaps(ivs, eps):
            violations.append(
                f"send port {port!r}: communications of tasks {t1} and {t2} "
                f"overlap by {amount} (condition 4)"
            )

    return violations


def is_feasible(schedule: Schedule, **kwargs) -> bool:
    """True iff :func:`check` finds no violation."""
    return not check(schedule, **kwargs)


def assert_feasible(schedule: Schedule, **kwargs) -> None:
    """Raise :class:`InfeasibleScheduleError` listing all violations."""
    violations = check(schedule, **kwargs)
    if violations:
        raise InfeasibleScheduleError(violations)


def check_deadline(schedule: Schedule, t_lim: Time, *, eps: float = EPS) -> list[str]:
    """Additionally verify every task completes by ``t_lim`` (spider/fork
    deadline runs)."""
    violations = check(schedule, eps=eps)
    for t in schedule.tasks():
        end = schedule.completion_of(t)
        if not leq(end, t_lim, eps):
            violations.append(f"task {t}: completes at {end} after Tlim={t_lim}")
    return violations


def emission_order(schedule: Schedule) -> list[int]:
    """Tasks sorted by first emission — the paper's WLOG task indexing
    (``C¹_1 <= C²_1 <= ... <= Cⁿ_1``)."""
    return sorted(
        schedule.tasks(), key=lambda t: (schedule[t].first_emission, t)
    )


def port_utilisation(schedule: Schedule, port: Hashable) -> Time:
    """Total busy time of one send port (diagnostics/metrics helper)."""
    ivs = schedule.port_intervals().get(port, [])
    return sum(e - s for s, e, _ in ivs)
