"""Execution traces: the simulator's output artefact.

A :class:`Trace` records every event plus the derived per-resource busy
intervals, and computes the summary statistics the experiments report
(makespan, utilisation, idle fractions).  Traces are also the bridge back to
the formal world: :func:`trace_to_schedule` reconstructs a
:class:`~repro.core.schedule.Schedule` from a trace so that anything the
simulator produced can be re-checked against Definition 1, and
:func:`assert_trace_exclusive` checks the model's exclusivity rules on
traces no schedule can express (a churn run's reissued tasks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..core.commvector import CommVector
from ..core.schedule import Schedule, TaskAssignment, adapter_for
from ..core.types import EPS, SimulationError, Time
from .events import Event, EventKind


@dataclass
class Trace:
    """Chronological event log with per-resource busy intervals."""

    events: list[Event] = field(default_factory=list)
    #: (start, end, task) per resource key, in insertion order
    busy: dict[Hashable, list[tuple[Time, Time, int]]] = field(default_factory=dict)

    def record(self, event: Event) -> None:
        self.events.append(event)

    def record_interval(
        self, resource: Hashable, start: Time, end: Time, task: int
    ) -> None:
        self.busy.setdefault(resource, []).append((start, end, task))

    # -- summary statistics --------------------------------------------------

    @property
    def makespan(self) -> Time:
        ends = [e.time for e in self.events if e.kind is EventKind.EXEC_END]
        return max(ends) if ends else 0

    def utilisation(self, resource: Hashable) -> float:
        """Busy fraction of ``resource`` over the trace's makespan."""
        mk = self.makespan
        if mk <= 0:
            return 0.0
        return float(sum(e - s for s, e, _ in self.busy.get(resource, []))) / float(mk)

    def tasks_completed(self) -> int:
        return sum(1 for e in self.events if e.kind is EventKind.EXEC_END)

    def completion_times(self) -> dict[int, Time]:
        return {
            e.task: e.time for e in self.events if e.kind is EventKind.EXEC_END
        }

    def summary(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "tasks": self.tasks_completed(),
            "events": len(self.events),
            "resources": {str(r): self.utilisation(r) for r in sorted(self.busy, key=str)},
        }


def trace_to_schedule(trace: Trace, platform: Any, adapter: Any = None) -> Schedule:
    """Rebuild a formal Schedule from a trace (then feasibility-checkable).

    Requires the trace's SEND_START events to carry ``info['link']`` (the
    link key) and EXEC_START events to carry the processor key as their
    resource — which both the executor and the online simulator guarantee.
    ``adapter`` lets a caller that already holds the platform's adapter
    (the online simulator does) share it instead of rebuilding one.
    """
    if adapter is None:
        adapter = adapter_for(platform)
    emissions: dict[int, dict[Hashable, Time]] = {}
    starts: dict[int, tuple[Hashable, Time]] = {}
    for e in trace.events:
        if e.kind is EventKind.SEND_START:
            link = e.info.get("link", e.resource)
            emissions.setdefault(e.task, {})[link] = e.time
        elif e.kind is EventKind.EXEC_START:
            starts[e.task] = (e.resource, e.time)
    sched = Schedule(platform)
    for task, (proc, start) in sorted(starts.items()):
        route = adapter.route(proc)
        try:
            times = [emissions[task][link] for link in route]
        except KeyError as missing:
            raise SimulationError(
                f"task {task}: no SEND_START recorded for link {missing}"
            ) from None
        sched.add(TaskAssignment(task, proc, start, CommVector(times)))
    return sched


def assert_trace_exclusive(trace: Trace, eps: float = EPS) -> None:
    """Check the model's exclusivity rules directly on a trace.

    Unlike the static feasibility checker this works on traces with
    reissued task ids (a task lost to a departure runs again under a fresh
    id)."""
    for resource, ivs in trace.busy.items():
        ordered = sorted(ivs)
        for (s1, e1, t1), (s2, e2, t2) in zip(ordered, ordered[1:]):
            if s2 < e1 - eps and e1 > s1 and e2 > s2:
                raise SimulationError(
                    f"resource {resource!r}: tasks {t1} and {t2} overlap "
                    f"([{s1},{e1}) vs [{s2},{e2}))"
                )
