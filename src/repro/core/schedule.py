"""Schedules (Definition 1 of the paper) over any supported platform.

A schedule assigns to every task ``i`` a processor ``P(i)``, an execution
start time ``T(i)`` and a communication vector ``C(i)`` with one emission
time per link on the route from the master to ``P(i)``.

:class:`Schedule` stores those three functions as :class:`Columns`, one
row per task in task order: ``P`` as an index into the schedule's key
table (``keys[j]`` is a processor of the platform), ``T`` as a start time
and ``C`` in CSR form (``comm[ptr[r]:ptr[r + 1]]``).  The arrays are
read-only; times are ``int64`` when they are all Python ints small
enough that int64 arithmetic stays exact (:data:`INT_TIME_LIMIT`), else
an object array that keeps each big int, float or Fraction.  The solve
kernels emit columns directly (:meth:`Schedule.from_columns`); every other
builder passes :class:`TaskAssignment` records to the constructor or to
:meth:`Schedule.add`, and ``schedule[t]``, ``iter(schedule)`` and
``schedule.assignments`` hand the same records back as per-task views
holding Python numbers.  The key table is the platform's compiled form
(:class:`~repro.core.compiled.CompiledPlatform`), which the replay
validator scans; :meth:`Schedule.rebound` moves a schedule onto an
isomorphic platform by relabeling it (:meth:`CompiledPlatform.bound
<repro.core.compiled.CompiledPlatform.bound>`), and the columns are
shared.

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

from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping, Optional

import numpy as np

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


#: int64 columns hold only values below this magnitude: the sum of two
#: never wraps, and each converts to a float exactly, so int64 arithmetic
#: and comparisons with ``EPS`` slack give Python's answers.
INT_TIME_LIMIT = 2 ** 53


def time_column(values: Any) -> np.ndarray:
    """A read-only column of times: ``int64`` when every value is a Python
    ``int`` below :data:`INT_TIME_LIMIT` in magnitude, else an object array
    of the values themselves, so big ints, floats and Fractions stay exact
    and keep their type."""
    column = np.asarray(values)
    if column.dtype != np.int64:
        column = np.empty(len(values), dtype=object)
        column[:] = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if all(type(v) is int and -INT_TIME_LIMIT < v < INT_TIME_LIMIT
               for v in column):
            column = column.astype(np.int64)
    elif column.size and not (
        -INT_TIME_LIMIT < column.min() and column.max() < INT_TIME_LIMIT
    ):
        column = column.astype(object)
    column.flags.writeable = False
    return column


def _index_column(values: Any) -> np.ndarray:
    column = np.asarray(values, dtype=np.int64)
    column.flags.writeable = False
    return column


def csr_take(ptr: Any, values: Any, rows: Any) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (in that order) of the CSR pair ``ptr``/``values``."""
    ptr = np.asarray(ptr, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    lengths = ptr[rows + 1] - ptr[rows]
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    flat = np.repeat(ptr[rows] - out[:-1], lengths) + np.arange(out[-1])
    return out, np.asarray(values)[flat]


class Columns:
    """Definition 1's P, T and C for a schedule's tasks, one row per task
    in task order: the task ids ``tasks`` (``1..n`` unless given),
    ``proc`` (an index into the schedule's key table), ``start``, and the
    CSR pair ``ptr``/``comm`` (row ``r``'s vector is
    ``comm[ptr[r]:ptr[r + 1]]``).  Every array is read-only: a rebound
    schedule shares its columns with the answer it was rebound from.
    ``text`` is the response writer's memo of the rows' JSON text
    (:func:`repro.io.json_io.schedule_to_json`), ``verdict`` the replay
    validator's memo of a passing scan (:mod:`repro.sim.replay_fast`)."""

    __slots__ = ("tasks", "proc", "start", "ptr", "comm", "text", "verdict")

    def __init__(self, proc: Any, start: Any, ptr: Any, comm: Any,
                 tasks: Any = None) -> None:
        self.proc = _index_column(proc)
        self.start = time_column(start)
        self.ptr = _index_column(ptr)
        self.comm = time_column(comm)
        self.tasks = _index_column(
            np.arange(1, self.proc.size + 1) if tasks is None else tasks
        )
        self.text: Optional[str] = None
        self.verdict: Optional[tuple] = None

    def __len__(self) -> int:
        return self.proc.size

    def to_lists(self) -> tuple[list, list, list, list, list]:
        """``(tasks, proc, start, ptr, comm)`` as new Python lists."""
        return (self.tasks.tolist(), self.proc.tolist(), self.start.tolist(),
                self.ptr.tolist(), self.comm.tolist())

    def take(self, rows: Any, tasks: Any = None) -> "Columns":
        """The rows ``rows`` (in that order), numbered ``tasks`` (by
        default their own ids)."""
        ptr, comm = csr_take(self.ptr, self.comm, rows)
        return Columns(self.proc[rows], self.start[rows], ptr, comm,
                       self.tasks[rows] if tasks is None else tasks)


class _Rows:
    """Rows added one at a time (amortised O(1) each), folded into fresh
    columns on the schedule's next read."""

    __slots__ = ("tasks", "proc", "start", "ptr", "comm", "ordered")

    def __init__(self, cols: Columns) -> None:
        self.tasks, self.proc, self.start, self.ptr, self.comm = cols.to_lists()
        self.ordered = True

    def append(self, task: int, proc: int, start: Time, comms: tuple) -> None:
        tasks = self.tasks
        if tasks and task <= tasks[-1]:
            if self.ordered:
                at = bisect_left(tasks, task)
                taken = at < len(tasks) and tasks[at] == task
            else:
                taken = task in tasks
            if taken:
                raise ScheduleError(f"task {task} assigned twice")
            self.ordered = False
        tasks.append(task)
        self.proc.append(proc)
        self.start.append(start)
        self.comm.extend(comms)
        self.ptr.append(len(self.comm))

    def columns(self) -> Columns:
        cols = Columns(self.proc, self.start, self.ptr, self.comm, self.tasks)
        if self.ordered:
            return cols
        return cols.take(np.argsort(cols.tasks, kind="stable"))


_EMPTY = Columns((), (), (0,), ())


class Schedule:
    """A full schedule for ``n`` identical tasks on ``platform``.

    Stored as :class:`Columns` plus a key table, the platform's compiled
    form: ``keys[j]`` is the processor of index ``j``, and the table holds
    its route, latencies and work.  The solve kernels build it with
    :meth:`from_columns`; other builders pass :class:`TaskAssignment`
    records to the constructor or :meth:`add`.  ``schedule[t]``,
    ``iter(schedule)`` and :attr:`assignments` hand out per-task
    :class:`TaskAssignment` views built on access.  The container is
    platform-agnostic; the algorithms in :mod:`repro.core` produce it,
    :mod:`repro.core.feasibility` checks it, :mod:`repro.sim` executes it
    and :mod:`repro.viz` renders it.
    """

    __slots__ = ("_table", "_cols", "_rows")

    def __init__(
        self, platform: Any,
        assignments: Optional[Mapping[int, TaskAssignment]] = None,
    ) -> None:
        from .compiled import compile_platform  # compiled builds on this module

        self._table = compile_platform(platform)
        self._cols = _EMPTY
        self._rows: Optional[_Rows] = None
        for t in sorted(assignments or ()):
            a = assignments[t]
            if t != a.task:
                raise ScheduleError(f"assignment keyed {t} but holds task {a.task}")
            self.add(a)

    @classmethod
    def from_columns(
        cls, platform: Any, proc: Any, start: Any, ptr: Any, comm: Any, *,
        tasks: Any = None,
    ) -> "Schedule":
        """A schedule straight from its columns (see :class:`Columns`);
        ``proc`` indexes the platform's processors in adapter order."""
        from .compiled import compile_platform  # compiled builds on this module

        self = cls._make(compile_platform(platform),
                         Columns(proc, start, ptr, comm, tasks))
        self._check()
        return self

    @classmethod
    def _make(cls, table: Any, cols: Columns) -> "Schedule":
        self = cls.__new__(cls)
        self._table = table
        self._cols = cols
        self._rows = None
        return self

    def rebound(self, platform: Any, keys: tuple) -> "Schedule":
        """This schedule on an isomorphic ``platform`` whose processor
        ``keys[j]`` plays the role of this schedule's index ``j``: the
        columns are shared, and the key table is relabeled, each key
        checked on the platform's own adapter (an O(p) check; see
        :meth:`CompiledPlatform.bound
        <repro.core.compiled.CompiledPlatform.bound>`)."""
        return Schedule._make(self._table.bound(platform, keys), self._columns())

    # -- construction ---------------------------------------------------------

    def add(self, assignment: TaskAssignment) -> None:
        """Append one task (amortised O(1))."""
        j = self._table.proc_index.get(assignment.processor)
        if j is None:
            raise ScheduleError(
                f"task {assignment.task}: processor {assignment.processor!r} "
                f"is not on the platform"
            )
        hops = self._table.hops[j]
        if len(assignment.comms) != hops:
            raise ScheduleError(
                f"task {assignment.task}: communication vector length "
                f"{len(assignment.comms)} does not match route length {hops} "
                f"to processor {assignment.processor!r}"
            )
        if self._rows is None:
            self._rows = _Rows(self._cols)
        self._rows.append(
            assignment.task, j, assignment.start, assignment.comms.times
        )

    def _check(self) -> None:
        cols, table = self._cols, self._table
        n = len(cols)
        if (cols.start.size != n or cols.tasks.size != n
                or cols.ptr.size != n + 1 or cols.ptr[0] != 0
                or cols.ptr[-1] != cols.comm.size
                or (n and not 0 <= cols.proc.min() <= cols.proc.max() < len(table.procs))
                or (np.diff(cols.tasks) <= 0).any()):
            raise ScheduleError("malformed schedule columns")
        lengths = cols.ptr[1:] - cols.ptr[:-1]
        bad = np.flatnonzero(lengths != np.asarray(table.hops)[cols.proc])
        if bad.size:
            r = int(bad[0])
            proc = table.procs[cols.proc[r]]
            raise ScheduleError(
                f"task {cols.tasks[r]}: communication vector length "
                f"{lengths[r]} does not match route length "
                f"{table.hops[cols.proc[r]]} to processor {proc!r}"
            )

    # -- accessors --------------------------------------------------------------

    @property
    def platform(self) -> Any:
        return self._table.platform

    @property
    def adapter(self) -> PlatformAdapter:
        return self._table.adapter

    @property
    def compiled(self) -> Any:
        """The key table: the platform's
        :class:`~repro.core.compiled.CompiledPlatform`, indexed like
        ``columns.proc``."""
        return self._table

    @property
    def keys(self) -> tuple:
        """``keys[j]`` is the processor of index ``j``."""
        return self._table.procs

    @property
    def columns(self) -> Columns:
        return self._columns()

    def _columns(self) -> Columns:
        if self._rows is not None:
            self._cols = self._rows.columns()
            self._rows = None
        return self._cols

    @property
    def assignments(self) -> Mapping[int, TaskAssignment]:
        """A read-only ``task -> TaskAssignment`` mapping of views."""
        return MappingProxyType({a.task: a for a in self})

    @property
    def n_tasks(self) -> int:
        rows = self._rows
        return len(self._cols) if rows is None else len(rows.tasks)

    def tasks(self) -> list[int]:
        return self._columns().tasks.tolist()

    def __iter__(self) -> Iterator[TaskAssignment]:
        cols = self._columns()
        keys = self._table.procs
        tasks, proc, start, ptr, comm = cols.to_lists()
        for r, task in enumerate(tasks):
            yield TaskAssignment(task, keys[proc[r]], start[r],
                                 CommVector(comm[ptr[r]:ptr[r + 1]]))

    def __getitem__(self, task: int) -> TaskAssignment:
        cols = self._columns()
        r = (int(np.searchsorted(cols.tasks, task))
             if isinstance(task, (int, np.integer)) else -1)
        if not 0 <= r < len(cols) or cols.tasks.item(r) != task:
            raise ScheduleError(f"no assignment for task {task}")
        return TaskAssignment(
            cols.tasks.item(r), self._table.procs[cols.proc.item(r)],
            cols.start.item(r),
            CommVector(cols.comm[cols.ptr.item(r):cols.ptr.item(r + 1)].tolist()),
        )

    def processor_of(self, task: int) -> ProcKey:
        return self[task].processor

    def start_of(self, task: int) -> Time:
        return self[task].start

    def comms_of(self, task: int) -> CommVector:
        return self[task].comms

    def completion_of(self, task: int) -> Time:
        a = self[task]
        return a.start + self.adapter.work(a.processor)

    # -- aggregate quantities ------------------------------------------------------

    @property
    def makespan(self) -> Time:
        """Definition 2: ``max_i T(i) + w_{P(i)}`` (0 for an empty schedule)."""
        cols = self._columns()
        if not len(cols):
            return 0
        ends = cols.start + self._table.works[cols.proc]
        # object columns: Python's max, the first maximum in task order
        return max(ends.tolist()) if ends.dtype == object else ends.max().item()

    @property
    def earliest_emission(self) -> Time:
        cols = self._columns()
        if not len(cols):
            return 0
        first = cols.comm[cols.ptr[:-1]]
        return min(first.tolist()) if first.dtype == object else first.min().item()

    def tasks_on(self, proc: ProcKey) -> list[int]:
        """Tasks executed on ``proc``, ordered by start time."""
        cols = self._columns()
        mine = np.flatnonzero(cols.proc == self._table.proc_index.get(proc, -1))
        return [t for _, t in sorted(zip(cols.start[mine].tolist(),
                                         cols.tasks[mine].tolist()))]

    def task_counts(self) -> dict[ProcKey, int]:
        """Tasks per processor, in key-table order."""
        keys = self._table.procs
        counts = np.bincount(self._columns().proc, minlength=len(keys))
        return {keys[j]: c for j, c in enumerate(counts.tolist()) if c}

    def link_intervals(self) -> dict[LinkKey, list[tuple[Time, Time, int]]]:
        """Per-link busy intervals ``(start, end, task)``, time-sorted."""
        return self._hop_intervals(lambda link: link)

    def port_intervals(self) -> dict[PortKey, list[tuple[Time, Time, int]]]:
        """Busy intervals of every *send port* (one-send-at-a-time rule)."""
        return self._hop_intervals(self.adapter.sender)

    def _hop_intervals(self, resource: Any) -> dict[Any, list[tuple[Time, Time, int]]]:
        adapter = self.adapter
        out: dict[Any, list[tuple[Time, Time, int]]] = {}
        for a in self:
            route = adapter.route(a.processor)
            for link, emit in zip(route, a.comms):
                out.setdefault(resource(link), []).append(
                    (emit, emit + adapter.latency(link), a.task)
                )
        for ivs in out.values():
            ivs.sort()
        return out

    def processor_intervals(self) -> dict[ProcKey, list[tuple[Time, Time, int]]]:
        """Per-processor execution intervals ``(start, end, task)``."""
        out: dict[ProcKey, list[tuple[Time, Time, int]]] = {}
        for a in self:
            out.setdefault(a.processor, []).append(
                (a.start, a.start + self.adapter.work(a.processor), a.task)
            )
        for ivs in out.values():
            ivs.sort()
        return out

    # -- transformations --------------------------------------------------------------

    def _with(self, cols: Columns) -> "Schedule":
        return Schedule._make(self._table, cols)

    def shifted(self, delta: Time) -> "Schedule":
        """A copy with all times shifted by ``delta``."""
        cols = self._columns()
        return self._with(Columns(
            cols.proc, [s + delta for s in cols.start.tolist()], cols.ptr,
            [c + delta for c in cols.comm.tolist()], cols.tasks,
        ))

    def normalised(self) -> "Schedule":
        """Shift so the earliest emission happens at time 0 (the final step of
        the paper's algorithm)."""
        return self.shifted(-self.earliest_emission)

    def restricted_to(self, tasks: Iterable[int]) -> "Schedule":
        keep = set(tasks)
        cols = self._columns()
        return self._with(cols.take(
            [r for r, t in enumerate(cols.tasks.tolist()) if t in keep]
        ))

    def renumbered(self) -> "Schedule":
        """Renumber tasks 1..n preserving first-emission order."""
        cols = self._columns()
        first = cols.comm[cols.ptr[:-1]].tolist()
        tasks = cols.tasks.tolist()
        order = sorted(range(len(cols)), key=lambda r: (first[r], tasks[r]))
        return self._with(cols.take(order, range(1, len(cols) + 1)))

    # -- comparison and serialisation ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.platform == other.platform and self.assignments == other.assignments

    __hash__ = None  # type: ignore[assignment]

    def to_dict(self) -> dict[str, Any]:
        """``{"platform", "assignments"}``, each assignment as
        :meth:`TaskAssignment.to_dict` writes it."""
        cols = self._columns()
        tasks, proc, start, ptr, comm = cols.to_lists()
        keys = self._table.procs
        return {
            "platform": self.platform.to_dict(),
            "assignments": [
                {"task": task,
                 "processor": list(keys[j]) if isinstance(keys[j], tuple)
                 else keys[j],
                 "start": s, "comms": comm[lo:hi]}
                for task, j, s, lo, hi in zip(tasks, proc, start, ptr, ptr[1:])
            ],
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
