"""Online (dynamic) master-slave scheduling policies.

The applications motivating the paper — SETI@home, the Mersenne prime search
— do not compute static optimal schedules: workers *ask* for tasks and the
master serves requests as its outgoing port frees up.  This module simulates
that regime so the benchmarks can quantify what the paper's offline
optimality buys over realistic online operation.

**Substitution note** (DESIGN.md): real volunteer systems signal demand with
small control messages; we model those as instantaneous and free (they are
orders of magnitude smaller than task payloads), which preserves the
behaviour that matters — the master's port serialisation and per-node
cadence limits.  Failure detection is modelled the same way.

Policies decide, each time the master's port becomes free, which processor
receives the next task (or ``None`` to stop).  They see only *observable*
state: how much work is queued where, and the clock.  Dispatched tasks are
relayed hop-by-hop; every relay node forwards FIFO as soon as its own send
port is free.

The one event loop, :func:`simulate_online`, also runs the platform's churn
(:mod:`repro.sim.churn`) underneath the policy:

* a *leave* is the classic fail-stop failure: the processor and everything
  routed through it depart, and work lost with them — queued, executing or
  in flight towards them — is reissued by the master to the survivors under
  a fresh trace id;
* a *join* makes new capacity dispatchable at its instant;
* a *drift* rescales the live latency/work that every later send and
  execution uses (and that policies rank with).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional

from ..core.schedule import PlatformAdapter, ProcKey, Schedule, adapter_for
from ..core.types import ScheduleError, SimulationError, Time
from .churn import (
    ChurnError,
    ProcessorJoin,
    ProcessorLeave,
    _join,
    _scaled,
    parse_churn_events,
)
from .engine import Simulator
from .events import Event, EventKind
from .trace import Trace, trace_to_schedule


@dataclass
class OnlineState:
    """What a policy is allowed to observe."""

    now: Time
    remaining: int
    #: tasks dispatched towards each processor (in flight, queued or done)
    dispatched: dict[ProcKey, int]
    #: completion count per processor
    completed: dict[ProcKey, int]
    #: processor busy-until estimates (local queues included)
    proc_free: dict[ProcKey, Time]


#: A policy picks one of the live processors it is given for the next task.
#: Returning ``None`` stops dispatching: the run then ends short of ``n``
#: completed tasks, and :func:`simulate_online` raises
#: :class:`~repro.core.types.SimulationError`.
Policy = Callable[[OnlineState, list[ProcKey], Any], Optional[ProcKey]]


def policy_round_robin(state: OnlineState, procs: list[ProcKey], adapter: Any) -> ProcKey:
    """Cycle through processors ignoring speeds entirely."""
    total = sum(state.dispatched.values())
    return procs[total % len(procs)]


def policy_demand_driven(
    state: OnlineState, procs: list[ProcKey], adapter: Any
) -> ProcKey:
    """Serve the worker that will run dry soonest (pull model).

    The canonical volunteer-computing behaviour: the master sends to the
    worker whose estimated local queue empties first, ties broken by the
    cheapest route.
    """

    def key(pr: ProcKey) -> tuple:
        backlog = state.proc_free.get(pr, 0)
        return (backlog, adapter.route_cost(pr), str(pr))

    return min(procs, key=key)


def policy_bandwidth_centric(
    state: OnlineState, procs: list[ProcKey], adapter: Any
) -> ProcKey:
    """Prefer cheap links, but never queue more than one task ahead at a
    worker — the steady-state prescription of Beaumont et al. [2] run
    online."""
    candidates = [
        pr
        for pr in procs
        if state.proc_free.get(pr, 0) - state.now <= adapter.work(pr)
    ]
    pool = candidates or procs
    return min(
        pool,
        key=lambda pr: (adapter.route_cost(pr), adapter.work(pr), str(pr)),
    )


ONLINE_POLICIES: dict[str, Policy] = {
    "round_robin": policy_round_robin,
    "demand_driven": policy_demand_driven,
    "bandwidth_centric": policy_bandwidth_centric,
}


class _LiveAdapter(PlatformAdapter):
    """The platform's adapter with latency and work read from tables that a
    drift rescales mid-run, so sends, executions and policies all use the
    current values.  Structure (routes, senders) is the base adapter's."""

    def __init__(self, base: PlatformAdapter) -> None:
        self.platform = base.platform
        self._base = base
        procs = base.processors()
        # every adapter keys the link into a processor by that processor
        self._latency = {pr: base.latency(pr) for pr in procs}
        self._work = {pr: base.work(pr) for pr in procs}
        self._route_costs: dict[ProcKey, Time] = {}

    def processors(self) -> list[ProcKey]:
        return self._base.processors()

    def work(self, proc: ProcKey) -> Time:
        return self._work[proc]

    def latency(self, link: Any) -> Time:
        return self._latency[link]

    def route(self, proc: ProcKey) -> list:
        return self._base.route(proc)

    def sender(self, link: Any) -> Hashable:
        return self._base.sender(link)

    def receiver(self, link: Any) -> Hashable:
        return self._base.receiver(link)

    def route_cost(self, proc: ProcKey) -> Time:
        cost = self._route_costs.get(proc)
        if cost is None:
            cost = self._route_costs[proc] = sum(
                self._latency[link] for link in self._base.route(proc)
            )
        return cost

    def drift(self, proc: ProcKey, c_factor: Any, w_factor: Any) -> None:
        self._latency[proc] = _scaled(self._latency[proc], c_factor)
        self._work[proc] = _scaled(self._work[proc], w_factor)
        self._route_costs.clear()  # the routes through ``proc`` changed cost


@dataclass
class OnlineResult:
    """Outcome of one online run.

    ``schedule`` is the Definition-1 schedule rebuilt from the trace of a
    run without churn.  Under churn it is ``None``: the answer is the trace
    alone, since a reissued task reappears under a fresh id, which no
    schedule can express."""

    trace: Trace
    schedule: Optional[Schedule]
    policy: str
    #: original tasks completed (always ``n``: a run that ends short raises)
    completed: int
    #: dispatches made (``n`` plus one per reissue)
    attempts: int
    #: reissued trace id -> *original* task id.  Reissues run under fresh
    #: ids (n+1, n+2, ...) so per-task attribution survives the trace.
    reissue_of: dict[int, int]
    #: processors still dispatchable when the run ended
    survivors: list[ProcKey]
    #: the churn events, in the order they were applied
    events: list[dict[str, Any]]

    @property
    def makespan(self) -> Time:
        return self.trace.makespan

    @property
    def reissues(self) -> int:
        """Tasks lost to departures and dispatched again."""
        return len(self.reissue_of)


def simulate_online(
    platform: Any,
    n: int,
    policy: Policy | str = "demand_driven",
    *,
    arrivals: Optional[list[Time]] = None,
    churn: Iterable[Any] = (),
    max_events: Optional[int] = None,
) -> OnlineResult:
    """Run ``n`` tasks through the online master-slave protocol.

    ``arrivals`` optionally gives per-task release times (the paper's model
    has everything available at t=0; volunteer masters receive work in
    bursts).  Task ``i`` can only be dispatched once ``arrivals[i-1]`` has
    passed; tasks are released in list order, which is also dispatch order.
    A reissued task was already released: it goes out as soon as no
    released original is waiting.

    ``churn`` lists timed leave / join / drift events (event objects or
    their JSON shapes, see :func:`repro.sim.churn.parse_churn_events`),
    keyed by the original platform's processors; fail-stop failures are
    leave events.

    Raises :class:`SimulationError` if the run ends short of ``n``
    completed tasks: every processor departed with work left, or the
    policy stopped dispatching.  The simulator must only ever produce
    feasible behaviour; the test suite asserts it by checking the
    schedule (or, under churn, the trace's resource exclusivity)."""
    policy_name = (
        policy if isinstance(policy, str) else getattr(policy, "__name__", "custom")
    )
    policy_fn: Policy = ONLINE_POLICIES[policy] if isinstance(policy, str) else policy
    releases = sorted(arrivals) if arrivals is not None else None
    if releases is not None and len(releases) != n:
        raise ScheduleError(
            f"arrivals must list one release per task: {len(releases)} != {n}"
        )
    events = sorted(parse_churn_events(churn), key=lambda ev: ev.time)

    # joins extend the platform up front (a join keeps every existing key);
    # each joined processor becomes dispatchable at its join instant
    union = platform
    joins_at: dict[ProcKey, Time] = {}
    for ev in events:
        if isinstance(ev, ProcessorJoin):
            union, keys = _join(union, ev.spec)
            joins_at.update(dict.fromkeys(keys, ev.time))
    adapter = _LiveAdapter(adapter_for(union))
    procs = adapter.processors()
    master_port: Hashable = adapter.master_port()

    sim = Simulator() if max_events is None else Simulator(max_events=max_events)
    trace = Trace()
    #: end of the last claim queued on each (kind, node) resource
    claims: dict[Hashable, Time] = {}
    #: policy-visible busy-until estimate, advanced at dispatch time
    proc_eta: dict[ProcKey, Time] = {}
    dispatched: dict[ProcKey, int] = {pr: 0 for pr in procs}
    completed: dict[ProcKey, int] = {pr: 0 for pr in procs}
    dead: set[ProcKey] = set()
    #: lost tasks awaiting redispatch, by fresh id
    reissued: deque[int] = deque()
    reissue_of: dict[int, int] = {}
    next_task, last_id, attempts = 1, n, 0

    def busy_until(resource: Hashable) -> Time:
        """End of the last send or execution started on ``resource``."""
        intervals = trace.busy.get(resource)
        return intervals[-1][1] if intervals else 0

    def live() -> list[ProcKey]:
        return [
            pr for pr in procs
            if pr not in dead and joins_at.get(pr, 0) <= sim.now
        ]

    def wake(s: Simulator) -> None:
        s.at(s.now, master_dispatch)

    def lose(task: int) -> None:
        nonlocal last_id
        last_id += 1
        # chains of reissues all point back at the original id
        reissue_of[last_id] = reissue_of.get(task, task)
        reissued.append(last_id)
        wake(sim)

    def send(task: int, link: Hashable, rest: list, dest: ProcKey) -> None:
        """Send ``task`` over ``link`` from now on; forward or run it on
        arrival."""
        port = adapter.sender(link)
        c = adapter.latency(link)
        now = sim.now
        trace.record(Event(now, EventKind.SEND_START, task, port, {"link": link}))
        trace.record_interval(("port", port), now, now + c, task)
        trace.record_interval(("link", link), now, now + c, task)

        def arrived(s: Simulator) -> None:
            trace.record(Event(s.now, EventKind.SEND_END, task, port, {"link": link}))
            if dest in dead:  # the destination, or a relay on its route, left
                lose(task)
            elif rest:
                claim("port", adapter.sender(rest[0]), adapter.latency(rest[0]),
                      task, lambda s: send(task, rest[0], rest[1:], dest), 2)
            else:
                claim("proc", dest, adapter.work(dest), task,
                      lambda s: execute(task, dest), 3)

        sim.after(c, arrived)

    def execute(task: int, proc: ProcKey) -> None:
        w = adapter.work(proc)
        trace.record(Event(sim.now, EventKind.EXEC_START, task, proc))
        trace.record_interval(("proc", proc), sim.now, sim.now + w, task)

        def done(s: Simulator) -> None:
            if proc in dead:  # departed mid-execution: the work is lost
                lose(task)
                return
            trace.record(Event(s.now, EventKind.EXEC_END, task, proc))
            completed[proc] += 1

        sim.after(w, done)

    def claim(kind: str, node: Hashable, duration: Time, task: int,
              start: Callable[[Simulator], None], priority: int) -> None:
        """Queue ``start`` FIFO on ``node``'s send port or CPU.

        At its turn the task is lost if ``node`` departed meanwhile, and
        waits if the send or execution ahead of it really ends later than
        it claimed (a drift stretched it)."""
        resource = (kind, node)
        when = max(sim.now, claims.get(resource, 0))
        claims[resource] = when + duration

        def turn(s: Simulator) -> None:
            if node in dead:
                lose(task)
            elif busy_until(resource) > s.now:
                s.at(busy_until(resource), turn, priority)
            else:
                start(s)

        sim.at(when, turn, priority)

    def master_dispatch(s: Simulator) -> None:
        nonlocal next_task, attempts
        released = next_task <= n and (
            releases is None or releases[next_task - 1] <= s.now
        )
        if not (released or reissued):
            if next_task <= n:  # next task not arrived at the master yet
                s.at(releases[next_task - 1], master_dispatch)
            return
        alive = live()
        remaining = n - next_task + 1 + len(reissued)
        if not alive:
            joins = [t for pr, t in joins_at.items() if pr not in dead and t > s.now]
            if not joins:
                raise SimulationError(
                    f"all processors dead with {remaining} tasks remaining"
                )
            s.at(min(joins), master_dispatch)  # capacity joins later: wait
            return
        free_at = busy_until(("port", master_port))
        if s.now < free_at:
            s.at(free_at, master_dispatch)
            return
        obs = OnlineState(
            now=s.now,
            remaining=remaining,
            dispatched=dict(dispatched),
            completed=dict(completed),
            proc_free=dict(proc_eta),
        )
        dest = policy_fn(obs, alive, adapter)
        if dest is None:
            return
        if dest not in alive:
            raise SimulationError(f"policy chose {dest!r}, not a live processor")
        if released:
            task = next_task
            next_task += 1
        else:
            task = reissued.popleft()
        attempts += 1
        dispatched[dest] += 1
        route = adapter.route(dest)
        # local-queue estimate used by policies (exact when relays are idle)
        eta = s.now + adapter.route_cost(dest)
        proc_eta[dest] = max(proc_eta.get(dest, 0), eta) + adapter.work(dest)
        send(task, route[0], route[1:], dest)
        s.at(busy_until(("port", master_port)), master_dispatch)

    def depart(doomed: set[ProcKey]) -> Callable[[Simulator], None]:
        def strike(s: Simulator) -> None:
            dead.update(doomed)
            wake(s)  # reroute around the departed nodes

        return strike

    for ev in events:
        if isinstance(ev, ProcessorJoin):
            sim.at(ev.time, wake)
        elif ev.processor not in procs:
            verb = "remove" if isinstance(ev, ProcessorLeave) else "drift"
            raise ChurnError(f"no processor {ev.processor!r} to {verb}")
        elif isinstance(ev, ProcessorLeave):
            # everything routed through the departed node departs with it
            sim.at(ev.time, depart(
                {pr for pr in procs if ev.processor in adapter.route_nodes(pr)}
            ))
        else:  # BandwidthDrift
            sim.at(ev.time, lambda s, ev=ev: adapter.drift(
                ev.processor, ev.c_factor, ev.w_factor))
    sim.at(0, master_dispatch)
    sim.run()

    done_total = sum(completed.values())
    if done_total != n:
        raise SimulationError(f"only {done_total}/{n} tasks completed")
    return OnlineResult(
        trace=trace,
        schedule=(
            None if events else trace_to_schedule(trace, platform, adapter=adapter)
        ),
        policy=policy_name,
        completed=done_total,
        attempts=attempts,
        reissue_of=reissue_of,
        survivors=live(),
        events=[ev.to_dict() for ev in events],
    )
