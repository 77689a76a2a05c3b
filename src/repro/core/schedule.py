"""Schedules (Definition 1 of the paper) over any supported platform.

A schedule assigns to every task ``i`` a processor ``P(i)``, an execution
start time ``T(i)`` and a communication vector ``C(i)`` with one emission
time per link on the route from the master to ``P(i)``.

The same container serves chains, stars, spiders and general trees.  What
changes between platforms is only *addressing* — which processors exist,
what the route to each looks like and which physical port each communication
occupies — and that is abstracted by :class:`PlatformAdapter`.

Processor/link keys by platform:

========  =======================  =============================
platform  processor key            link key (identifies the edge)
========  =======================  =============================
Chain     ``int`` 1..p             ``int`` 1..p (link into proc i)
Star      ``int`` 1..k (child)     ``int`` 1..k
Spider    ``(leg, pos)`` 1-based   ``(leg, pos)``
Tree      node id                  node id (incoming edge of node)
========  =======================  =============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Mapping

from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import ROOT, Tree
from .commvector import CommVector
from .types import ScheduleError, Time

ProcKey = Hashable
LinkKey = Hashable
#: sending-port key: the node a communication leaves from.
PortKey = Hashable


# ---------------------------------------------------------------------------
# Platform adapters
# ---------------------------------------------------------------------------


class PlatformAdapter:
    """Uniform read-only view of a platform for schedule manipulation.

    Subclasses provide processor enumeration, per-processor work, per-link
    latency, master→processor routes and the *sending port* of each link
    (communications sharing a port must be serialised — this is the "one
    send at a time" rule, which on trees couples the links out of the
    master)."""

    platform: Any

    def processors(self) -> list[ProcKey]:
        raise NotImplementedError

    def work(self, proc: ProcKey) -> Time:
        raise NotImplementedError

    def latency(self, link: LinkKey) -> Time:
        raise NotImplementedError

    def route(self, proc: ProcKey) -> list[LinkKey]:
        """Links from the master to ``proc``, in traversal order."""
        raise NotImplementedError

    def sender(self, link: LinkKey) -> PortKey:
        """The node whose send port the link occupies."""
        raise NotImplementedError

    def receiver(self, link: LinkKey) -> PortKey:
        """The node whose receive port the link occupies."""
        raise NotImplementedError

    # -- derived helpers (shared by the simulator, policies and bounds) -----
    #
    # All three are memoized per adapter instance: the online policies and
    # the fault model call them inside sort keys and dispatch loops, where
    # re-walking the route on every call dominated the simulation profile.
    # Platforms are immutable, so the memos can never go stale.

    def master_port(self) -> PortKey:
        """The master's send port: the sender of any route's first hop.

        Every route starts at the master, so the first processor's route is
        as good as any — this is the single serialisation point the paper's
        one-port model revolves around."""
        try:
            return self._master_port_cache
        except AttributeError:
            port = self.sender(self.route(self.processors()[0])[0])
            self._master_port_cache = port
            return port

    def route_cost(self, proc: ProcKey) -> Time:
        """Total latency of the master→``proc`` route (the pipeline fill)."""
        try:
            cache = self._route_cost_cache
        except AttributeError:
            cache = self._route_cost_cache = {}
        cost = cache.get(proc)
        if cost is None:
            cost = cache[proc] = sum(
                self.latency(link) for link in self.route(proc)
            )
        return cost

    def route_nodes(self, proc: ProcKey) -> tuple[PortKey, ...]:
        """The nodes a task traverses to reach ``proc`` (excluding the
        master, including ``proc`` itself) — the fault model's notion of
        "everything downstream dies with a node".  Returns a (cached)
        tuple: treat it as read-only."""
        try:
            cache = self._route_nodes_cache
        except AttributeError:
            cache = self._route_nodes_cache = {}
        nodes = cache.get(proc)
        if nodes is None:
            nodes = cache[proc] = tuple(
                self.receiver(link) for link in self.route(proc)
            )
        return nodes


class ChainAdapter(PlatformAdapter):
    """Chain: processors 1..p, link ``i`` enters processor ``i``."""

    def __init__(self, chain: Chain):
        self.platform = chain

    def processors(self) -> list[int]:
        return list(range(1, self.platform.p + 1))

    def work(self, proc: int) -> Time:
        return self.platform.work(proc)

    def latency(self, link: int) -> Time:
        return self.platform.latency(link)

    def route(self, proc: int) -> list[int]:
        return list(range(1, proc + 1))

    def sender(self, link: int) -> PortKey:
        return link - 1  # node 0 is the master

    def receiver(self, link: int) -> PortKey:
        return link


class StarAdapter(PlatformAdapter):
    """Star: children 1..k, every link leaves the master's port."""

    def __init__(self, star: Star):
        self.platform = star

    def processors(self) -> list[int]:
        return list(range(1, self.platform.arity + 1))

    def work(self, proc: int) -> Time:
        return self.platform.child(proc).w

    def latency(self, link: int) -> Time:
        return self.platform.child(link).c

    def route(self, proc: int) -> list[int]:
        return [proc]

    def sender(self, link: int) -> PortKey:
        return "master"

    def receiver(self, link: int) -> PortKey:
        return link


class SpiderAdapter(PlatformAdapter):
    """Spider: keys are ``(leg, pos)``; the first hop of every leg leaves the
    master's shared send port."""

    def __init__(self, spider: Spider):
        self.platform = spider

    def processors(self) -> list[tuple[int, int]]:
        return [
            (leg_i, pos)
            for leg_i in range(1, self.platform.arity + 1)
            for pos in range(1, self.platform.leg(leg_i).p + 1)
        ]

    def work(self, proc: tuple[int, int]) -> Time:
        leg_i, pos = proc
        return self.platform.leg(leg_i).work(pos)

    def latency(self, link: tuple[int, int]) -> Time:
        leg_i, pos = link
        return self.platform.leg(leg_i).latency(pos)

    def route(self, proc: tuple[int, int]) -> list[tuple[int, int]]:
        leg_i, pos = proc
        return [(leg_i, j) for j in range(1, pos + 1)]

    def sender(self, link: tuple[int, int]) -> PortKey:
        leg_i, pos = link
        return "master" if pos == 1 else (leg_i, pos - 1)

    def receiver(self, link: tuple[int, int]) -> PortKey:
        return link


class TreeAdapter(PlatformAdapter):
    """General tree: keys are node ids, a node's link is its incoming edge."""

    def __init__(self, tree: Tree):
        self.platform = tree

    def processors(self) -> list[int]:
        return self.platform.workers

    def work(self, proc: int) -> Time:
        return self.platform.work(proc)

    def latency(self, link: int) -> Time:
        return self.platform.latency(link)

    def route(self, proc: int) -> list[int]:
        return self.platform.route(proc)

    def sender(self, link: int) -> PortKey:
        return self.platform.parent(link)

    def receiver(self, link: int) -> PortKey:
        return link


def adapter_for(platform: Any) -> PlatformAdapter:
    """Build the right adapter for a platform object."""
    if isinstance(platform, Chain):
        return ChainAdapter(platform)
    if isinstance(platform, Star):
        return StarAdapter(platform)
    if isinstance(platform, Spider):
        return SpiderAdapter(platform)
    if isinstance(platform, Tree):
        return TreeAdapter(platform)
    raise ScheduleError(f"unsupported platform type: {type(platform).__name__}")


# ---------------------------------------------------------------------------
# Schedule container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TaskAssignment:
    """Placement of one task: ``P(i)``, ``T(i)`` and ``C(i)``."""

    task: int
    processor: ProcKey
    start: Time
    comms: CommVector

    @property
    def first_emission(self) -> Time:
        return self.comms.first_emission

    def shifted(self, delta: Time) -> "TaskAssignment":
        return TaskAssignment(
            self.task, self.processor, self.start + delta, self.comms.shifted(delta)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "processor": list(self.processor)
            if isinstance(self.processor, tuple)
            else self.processor,
            "start": self.start,
            "comms": list(self.comms.times),
        }


@dataclass
class Schedule:
    """A full schedule for ``n`` identical tasks on ``platform``.

    Tasks are numbered 1..n.  The container is platform-agnostic; the
    algorithms in :mod:`repro.core` produce it, :mod:`repro.core.feasibility`
    checks it, :mod:`repro.sim` executes it and :mod:`repro.viz` renders it.
    """

    platform: Any
    assignments: dict[int, TaskAssignment] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._adapter = adapter_for(self.platform)
        for t, a in self.assignments.items():
            self._validate_assignment(t, a)

    # -- construction ---------------------------------------------------------

    def add(self, assignment: TaskAssignment) -> None:
        if assignment.task in self.assignments:
            raise ScheduleError(f"task {assignment.task} assigned twice")
        self._validate_assignment(assignment.task, assignment)
        self.assignments[assignment.task] = assignment

    def _validate_assignment(self, key: int, a: TaskAssignment) -> None:
        if key != a.task:
            raise ScheduleError(f"assignment keyed {key} but holds task {a.task}")
        # the memoized node tuple: one route walk per processor, not per task
        hops = len(self._adapter.route_nodes(a.processor))
        if len(a.comms) != hops:
            raise ScheduleError(
                f"task {a.task}: communication vector length {len(a.comms)} does "
                f"not match route length {hops} to processor {a.processor!r}"
            )

    # -- accessors --------------------------------------------------------------

    @property
    def adapter(self) -> PlatformAdapter:
        return self._adapter

    @property
    def n_tasks(self) -> int:
        return len(self.assignments)

    def tasks(self) -> list[int]:
        return sorted(self.assignments)

    def __iter__(self) -> Iterator[TaskAssignment]:
        return (self.assignments[t] for t in self.tasks())

    def __getitem__(self, task: int) -> TaskAssignment:
        try:
            return self.assignments[task]
        except KeyError:
            raise ScheduleError(f"no assignment for task {task}") from None

    def processor_of(self, task: int) -> ProcKey:
        return self[task].processor

    def start_of(self, task: int) -> Time:
        return self[task].start

    def comms_of(self, task: int) -> CommVector:
        return self[task].comms

    def completion_of(self, task: int) -> Time:
        a = self[task]
        return a.start + self._adapter.work(a.processor)

    # -- aggregate quantities ------------------------------------------------------

    @property
    def makespan(self) -> Time:
        """Definition 2: ``max_i T(i) + w_{P(i)}`` (0 for an empty schedule)."""
        if not self.assignments:
            return 0
        work: dict[ProcKey, Time] = {}
        for a in self.assignments.values():
            if a.processor not in work:
                work[a.processor] = self._adapter.work(a.processor)
        return max(a.start + work[a.processor] for a in self.assignments.values())

    @property
    def earliest_emission(self) -> Time:
        if not self.assignments:
            return 0
        return min(a.first_emission for a in self.assignments.values())

    def tasks_on(self, proc: ProcKey) -> list[int]:
        """Tasks executed on ``proc``, ordered by start time."""
        ts = [t for t, a in self.assignments.items() if a.processor == proc]
        return sorted(ts, key=lambda t: (self.assignments[t].start, t))

    def task_counts(self) -> dict[ProcKey, int]:
        counts: dict[ProcKey, int] = {}
        for a in self.assignments.values():
            counts[a.processor] = counts.get(a.processor, 0) + 1
        return counts

    def link_intervals(self) -> dict[LinkKey, list[tuple[Time, Time, int]]]:
        """Per-link busy intervals ``(start, end, task)``, time-sorted."""
        out: dict[LinkKey, list[tuple[Time, Time, int]]] = {}
        for a in self.assignments.values():
            route = self._adapter.route(a.processor)
            for link, emit in zip(route, a.comms):
                out.setdefault(link, []).append(
                    (emit, emit + self._adapter.latency(link), a.task)
                )
        for ivs in out.values():
            ivs.sort()
        return out

    def port_intervals(self) -> dict[PortKey, list[tuple[Time, Time, int]]]:
        """Busy intervals of every *send port* (one-send-at-a-time rule)."""
        out: dict[PortKey, list[tuple[Time, Time, int]]] = {}
        for a in self.assignments.values():
            route = self._adapter.route(a.processor)
            for link, emit in zip(route, a.comms):
                port = self._adapter.sender(link)
                out.setdefault(port, []).append(
                    (emit, emit + self._adapter.latency(link), a.task)
                )
        for ivs in out.values():
            ivs.sort()
        return out

    def processor_intervals(self) -> dict[ProcKey, list[tuple[Time, Time, int]]]:
        """Per-processor execution intervals ``(start, end, task)``."""
        out: dict[ProcKey, list[tuple[Time, Time, int]]] = {}
        for a in self.assignments.values():
            out.setdefault(a.processor, []).append(
                (a.start, a.start + self._adapter.work(a.processor), a.task)
            )
        for ivs in out.values():
            ivs.sort()
        return out

    # -- transformations --------------------------------------------------------------

    def shifted(self, delta: Time) -> "Schedule":
        """A copy with all times shifted by ``delta``."""
        return Schedule(
            self.platform, {t: a.shifted(delta) for t, a in self.assignments.items()}
        )

    def normalised(self) -> "Schedule":
        """Shift so the earliest emission happens at time 0 (the final step of
        the paper's algorithm)."""
        return self.shifted(-self.earliest_emission)

    def restricted_to(self, tasks: Iterable[int]) -> "Schedule":
        keep = set(tasks)
        return Schedule(
            self.platform, {t: a for t, a in self.assignments.items() if t in keep}
        )

    def renumbered(self) -> "Schedule":
        """Renumber tasks 1..n preserving first-emission order."""
        order = sorted(
            self.assignments.values(), key=lambda a: (a.first_emission, a.task)
        )
        new = {}
        for i, a in enumerate(order, start=1):
            new[i] = TaskAssignment(i, a.processor, a.start, a.comms)
        return Schedule(self.platform, new)

    # -- serialisation -----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "platform": self.platform.to_dict(),
            "assignments": [self.assignments[t].to_dict() for t in self.tasks()],
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any], platform: Any = None) -> "Schedule":
        from ..io.json_io import platform_from_dict  # local import, no cycle at module load

        plat = platform if platform is not None else platform_from_dict(d["platform"])
        sched = Schedule(plat)
        for raw in d["assignments"]:
            proc = raw["processor"]
            if isinstance(proc, list):
                proc = tuple(proc)
            sched.add(
                TaskAssignment(raw["task"], proc, raw["start"], CommVector(raw["comms"]))
            )
        return sched

    def __repr__(self) -> str:
        return (
            f"Schedule(n={self.n_tasks}, makespan={self.makespan}, "
            f"platform={self.platform!r})"
        )
