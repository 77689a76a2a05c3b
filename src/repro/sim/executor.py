"""Replay a static schedule on the simulated platform, verifying as it runs.

This is the reproduction's stand-in for the paper's (non-existent) testbed:
every schedule produced by the algorithms can be *executed* event by event.
The executor enforces, at runtime and independently from the static
feasibility checker:

* a message leaves a node only after it has fully arrived there;
* a send port carries one message at a time;
* a link carries one message at a time;
* a processor runs one task at a time and only after the task arrived.

Any violation raises :class:`~repro.core.types.SimulationError` — so a bug
in an algorithm would have to fool two independent validators (this one and
:mod:`repro.core.feasibility`) to slip through.

This is the replay oracle and the only producer of replay traces
(``Solution.replay()`` returns :func:`execute`'s): production callers run
the array validator :mod:`repro.sim.replay_fast`, which the differential
tests hold to this module's accept/reject and makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..core.schedule import Schedule
from ..core.types import EPS, SimulationError, Time
from .engine import Simulator
from .events import Event, EventKind
from .trace import Trace


@dataclass
class _ResourceState:
    busy_until: dict[Hashable, Time]

    def claim(self, key: Hashable, start: Time, end: Time, what: str, task: int) -> None:
        free_at = self.busy_until.get(key, float("-inf"))
        if start + EPS < free_at:
            raise SimulationError(
                f"{what} {key!r} still busy until {free_at} when task {task} "
                f"claims it at {start}"
            )
        self.busy_until[key] = end


def execute(schedule: Schedule) -> Trace:
    """Execute ``schedule`` on a simulated platform; return the trace."""
    adapter = schedule.adapter
    sim = Simulator()
    trace = Trace()
    ports = _ResourceState({})
    links = _ResourceState({})
    procs = _ResourceState({})
    arrived_at: dict[tuple[int, Hashable], Time] = {}  # (task, node) -> time

    def make_send(task: int, link: Hashable, emit: Time, hop: int, prev_node: Hashable):
        c = adapter.latency(link)
        port = adapter.sender(link)

        def send_start(s: Simulator) -> None:
            # the message must already be at the sending node
            if hop > 0:
                t_arr = arrived_at.get((task, prev_node))
                if t_arr is None or t_arr > s.now + EPS:
                    raise SimulationError(
                        f"task {task}: relayed from {prev_node!r} at {s.now} "
                        f"before arrival ({t_arr})"
                    )
            ports.claim(port, s.now, s.now + c, "port", task)
            links.claim(link, s.now, s.now + c, "link", task)
            trace.record(Event(s.now, EventKind.SEND_START, task, port, {"link": link}))
            trace.record_interval(("port", port), s.now, s.now + c, task)
            trace.record_interval(("link", link), s.now, s.now + c, task)
            s.after(c, send_end)

        def send_end(s: Simulator) -> None:
            arrived_at[(task, adapter.receiver(link))] = s.now
            trace.record(Event(s.now, EventKind.SEND_END, task, port, {"link": link}))

        sim.at(emit, send_start, priority=2)

    def make_exec(task: int, proc: Hashable, start: Time):
        w = adapter.work(proc)

        def exec_start(s: Simulator) -> None:
            t_arr = arrived_at.get((task, proc))
            if t_arr is None or t_arr > s.now + EPS:
                raise SimulationError(
                    f"task {task}: execution on {proc!r} at {s.now} before "
                    f"arrival ({t_arr})"
                )
            procs.claim(proc, s.now, s.now + w, "processor", task)
            trace.record(Event(s.now, EventKind.EXEC_START, task, proc))
            trace.record_interval(("proc", proc), s.now, s.now + w, task)
            s.after(w, exec_end)

        def exec_end(s: Simulator) -> None:
            trace.record(Event(s.now, EventKind.EXEC_END, task, proc))

        sim.at(start, exec_start, priority=3)

    for a in schedule:
        route = adapter.route(a.processor)
        prev: Hashable = "master-origin"
        for hop, (link, emit) in enumerate(zip(route, a.comms)):
            make_send(a.task, link, emit, hop, prev)
            prev = adapter.receiver(link)
        make_exec(a.task, a.processor, a.start)

    sim.run()
    if trace.tasks_completed() != schedule.n_tasks:
        raise SimulationError(
            f"only {trace.tasks_completed()} of {schedule.n_tasks} tasks completed"
        )
    return trace


def verify_by_execution(schedule: Schedule) -> Trace:
    """Execute and sanity-check that the trace agrees with the schedule's
    static quantities (makespan, completion per task)."""
    trace = execute(schedule)
    if abs(float(trace.makespan) - float(schedule.makespan)) > EPS:
        raise SimulationError(
            f"trace makespan {trace.makespan} != schedule makespan {schedule.makespan}"
        )
    completions = trace.completion_times()
    for t in schedule.tasks():
        expected = schedule.completion_of(t)
        got = completions.get(t)
        if got is None or abs(float(got) - float(expected)) > EPS:
            raise SimulationError(
                f"task {t}: trace completion {got} != schedule {expected}"
            )
    return trace
