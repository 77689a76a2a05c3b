"""Array replay validation against a compiled platform.

This is the fast half of the replay subsystem: where
:mod:`repro.sim.executor` pushes one closure per event through a ``heapq``,
this module checks a :class:`~repro.core.schedule.Schedule`'s columns
against the flat arrays of a
:class:`~repro.core.compiled.CompiledPlatform` with whole-array
operations — no heap, no per-task loop, no ``Event`` objects on the hot
path:

* **setup pass** (mirrors the executor's scheduling phase): every emission
  and execution start must be ``>= 0``;
* **relay-FIFO**: along each route, hop ``k+1`` may not leave before hop
  ``k`` has fully arrived, and execution may not start before the final
  hop's arrival (strict comparisons — exactly the executor's observable
  rule, since arrival information only exists once the arrival event has
  fired);
* **exclusivity**: the busy intervals of every send port, link and CPU
  are sorted in one pass (in the executor's claim order: time, then task)
  and each is compared with the one before it on the same resource — the
  executor's running ``busy_until`` — with
  :data:`~repro.core.types.EPS` slack;
* **bit-exact accounting**: makespan and per-task completions are computed
  with the same arithmetic the simulator would use and compared against
  the schedule's static claims: ``int64`` for integer columns, Python
  arithmetic element by element for float and Fraction ones.

On *accept*, the emitted :class:`~repro.sim.trace.Trace` is bit-identical
to the executor's (same event order, same busy intervals): the executor's
heap order ``(time, priority, seq)`` is reconstructed by one sort plus a
linear merge — the deterministic seeding order gives every start event
its sequence number, and end events are re-merged in their start's pop
rank (a zero-duration end pops immediately after its own start).  On *reject*, both engines
reject; when a schedule violates several rules at once they may name a
different violation first (the executor reports whichever event fires
first, the scan reports per rule), which is why the differential suite
compares accept/reject + trace + makespan rather than message strings.

The event-driven executor stays registered as the ``"event"`` engine — the
differential-testing oracle and the escape hatch for platforms the
compiler cannot flatten.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.compiled import CompiledPlatform, CompileError, compile_platform
from ..core.schedule import Schedule
from ..obs import metrics as _obs
from ..obs import tracing as _trace
from ..core.types import EPS, EventBudgetExceeded, SimulationError, Time
from .engine import DEFAULT_MAX_EVENTS
from .events import Event, EventKind
from .trace import Trace

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "execute_fast",
    "replay_schedule",
    "resolve_engine",
    "verify_fast",
    "verify_schedule",
]

#: the two replay engines: ``"compiled"`` (this module) and ``"event"``
#: (:mod:`repro.sim.executor`, the differential-testing oracle).
ENGINES = ("compiled", "event")

#: engine used when callers pass ``engine=None``.
DEFAULT_ENGINE = "compiled"


def resolve_engine(engine: Optional[str]) -> str:
    """Normalise an engine choice (``None`` → :data:`DEFAULT_ENGINE`)."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown replay engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


# ---------------------------------------------------------------------------
# The linear scan
# ---------------------------------------------------------------------------


def _scan(
    schedule: Schedule, cp: CompiledPlatform
) -> tuple[int, Time, Optional[tuple]]:
    """Run every model check on the schedule's columns; returns
    ``(tasks, makespan, claims)`` or raises
    :class:`~repro.core.types.SimulationError`.  ``claims`` holds the
    per-hop and per-task arrays :func:`_build_trace` turns into events.

    Times stay exact: ``int64`` columns compute in ``int64``, object
    columns (floats, Fractions) elementwise in Python arithmetic.  Each
    check is one ``count_nonzero`` over a whole-schedule mask."""
    cols = schedule.columns
    n = len(cols)
    if not n:
        return 0, 0, None
    tasks = cols.tasks
    # the schedule's key table onto the compiled platform's indices: O(p)
    proc = cols.proc
    if schedule.keys != cp.procs:
        remap = np.array([cp.proc_index.get(k, -1) for k in schedule.keys])
        proc = remap[proc]
        if np.count_nonzero(proc < 0):
            r = int(np.flatnonzero(proc < 0)[0])
            raise SimulationError(
                f"task {tasks[r]}: unknown processor "
                f"{schedule.keys[cols.proc[r]]!r}"
            )
    ptr, start = cols.ptr, cols.start
    first = cp.route_start[proc]
    nlinks = cp.route_start[proc + 1] - first
    m = np.minimum(nlinks, ptr[1:] - ptr[:-1])
    hops = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(m, out=hops[1:])
    # one element per checked hop: its row, hop number, emission, link and
    # arrival (rows are in task order, so a row index orders like its task)
    row = np.repeat(np.arange(n), m)
    hop = np.arange(hops[-1]) - hops[row]
    emit = cols.comm[ptr[row] + hop]
    link = cp.route_links[first[row] + hop]
    end = emit + cp.latency[link]

    # negative times are refused at seeding time by the simulator;
    # relay-FIFO is strict (an arrival fires before an equal-time
    # departure: end events outrank start events in the heap)
    for times in (emit, start):
        if np.count_nonzero(times < 0):
            e = int(np.flatnonzero(times < 0)[0])
            raise SimulationError(
                f"cannot schedule in the past: {times[e]} < now=0"
            )
    early = emit[1:] < end[:-1]
    early &= hop[1:] > 0
    if np.count_nonzero(early):
        e = int(np.flatnonzero(early)[0]) + 1
        raise SimulationError(
            f"task {tasks[row[e]]}: relayed from "
            f"{cp.link_keys[link[e - 1]]!r} at {emit[e]} before arrival (None)"
        )
    late = m != nlinks  # a route longer than its vector never arrives
    if not np.count_nonzero(late):
        late = start < end[hops[1:] - 1]
    if np.count_nonzero(late):
        r = int(np.flatnonzero(late)[0])
        raise SimulationError(
            f"task {tasks[r]}: execution on {cp.procs[proc[r]]!r} at "
            f"{start[r]} before arrival (None)"
        )
    done = start + cp.works[proc]

    # -- exclusivity: every send port, link and CPU in one sort ------------
    # resources are numbered ports, then links, then CPUs; a task holds a
    # resource at most once, so (resource, begin, task) orders each one's
    # claims exactly as the executor's (time, task, hop) calendar does
    n_ports, n_links = len(cp.port_keys), len(cp.link_keys)
    resource = np.concatenate(
        (cp.sender_port[link], link + n_ports, proc + (n_ports + n_links))
    )
    begin = np.concatenate((emit, emit, start))
    finish = np.concatenate((end, end, done))
    claimant = np.concatenate((row, row, np.arange(n)))
    order = np.lexsort((claimant, begin, resource))
    resource, begin, finish = resource[order], begin[order], finish[order]
    # the executor's running busy-until: the previous claim's end
    clash = begin[1:] + EPS < finish[:-1]
    clash &= resource[1:] == resource[:-1]
    if np.count_nonzero(clash):
        k = int(np.flatnonzero(clash)[0])
        r = int(resource[k])
        what, names, index = (
            ("port", cp.port_keys, r) if r < n_ports
            else ("link", cp.link_keys, r - n_ports) if r < n_ports + n_links
            else ("processor", cp.procs, r - n_ports - n_links)
        )
        raise SimulationError(
            f"{what} {names[index]!r} still busy until {finish[k]} when task "
            f"{tasks[claimant[order[k + 1]]]} claims it at {begin[k + 1]}"
        )

    if 2 * int(hops[-1]) + 2 * n > DEFAULT_MAX_EVENTS:
        # the event executor would blow its default budget on this replay
        raise EventBudgetExceeded(DEFAULT_MAX_EVENTS)
    claims = (tasks, row, hops, emit, end, link, proc, start, done)
    if done.dtype == object:  # Python's max: the first maximum in task order
        return n, max([0, *done.tolist()]), claims
    return n, max(0, np.maximum.reduce(done).item()), claims


# ---------------------------------------------------------------------------
# Bit-identical trace reconstruction
# ---------------------------------------------------------------------------


def _build_trace(cp: CompiledPlatform, claims: Optional[tuple]) -> Trace:
    """The exact trace the event executor would emit, from the claims
    :func:`_scan` accepted.

    The simulator pops ``(time, priority, seq)``.  Start events get their
    seq when seeded (task-major, hop-minor; sends have priority 2, the
    execution 3).  An end event is scheduled when its start pops, so it
    pops before every start at its own time and among ends in its start's
    pop order — except an end that lasts no time, which pops right after
    its own start.  One sort of every event on (time, lasting end first,
    start's pop rank, start before end) reproduces that calendar."""
    trace = Trace()
    if claims is None:
        return trace
    tasks, row, hops, emit, end, link, proc, start, done = claims
    h, n = emit.size, proc.size
    begin = np.concatenate((emit, start))
    finish = np.concatenate((end, done))
    is_exec = np.arange(h + n) >= h
    seq = np.concatenate((np.arange(h) + row, hops[1:] + np.arange(n)))
    rank = np.empty(h + n, dtype=np.int64)
    rank[np.lexsort((seq, is_exec, begin))] = np.arange(h + n)
    lasting = finish != begin
    order = np.lexsort((
        np.arange(2 * (h + n)) >= h + n,
        np.concatenate((rank, rank)),
        np.concatenate((np.ones(h + n, dtype=bool), ~lasting)),
        np.concatenate((begin, np.where(lasting, finish, begin))),
    ))
    events, busy = trace.events, trace.busy
    index = np.concatenate((link, proc)).tolist()
    sender_port = cp.sender_port.tolist()
    task_of = np.concatenate((tasks[row], tasks)).tolist()
    begin, finish = begin.tolist(), finish.tolist()
    port_keys, link_keys, procs = cp.port_keys, cp.link_keys, cp.procs
    for k in order.tolist():
        j = k if k < h + n else k - h - n
        task, t0, t1 = task_of[j], begin[j], finish[j]
        if j < h:
            port = port_keys[sender_port[index[j]]]
            info = {"link": link_keys[index[j]]}
            if k == j:
                events.append(Event(t0, EventKind.SEND_START, task, port, info))
                busy.setdefault(("port", port), []).append((t0, t1, task))
                busy.setdefault(("link", info["link"]), []).append((t0, t1, task))
            else:
                events.append(Event(t1, EventKind.SEND_END, task, port, info))
        elif k == j:
            events.append(Event(t0, EventKind.EXEC_START, task, procs[index[j]]))
            busy.setdefault(("proc", procs[index[j]]), []).append((t0, t1, task))
        else:
            events.append(Event(t1, EventKind.EXEC_END, task, procs[index[j]]))
    return trace


class _LazyTrace(Trace):
    """A :class:`Trace` that materialises its event log on first access.

    The hot consumers (store validate-on-write, batch ``--validate``,
    rebind checks) never look at the trace they are returned — this keeps
    the compiled path allocation-free for them while callers that *do*
    inspect the trace see the bit-identical event log."""

    def __init__(self, build: Callable[[], Trace]) -> None:
        # deliberately no super().__init__(): events/busy resolve through
        # the properties below
        self._build = build
        self._real: Optional[Trace] = None

    def _materialise(self) -> Trace:
        if self._real is None:
            self._real = self._build()
            self._build = None  # type: ignore[assignment]
        return self._real

    @property
    def events(self):  # type: ignore[override]
        return self._materialise().events

    @property
    def busy(self):  # type: ignore[override]
        return self._materialise().busy

    # Trace's dataclass __eq__ requires an exact class match; a lazy trace
    # must still compare equal to the executor's plain Trace when the
    # materialised content is identical
    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.events == other.events and self.busy == other.busy
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # matches Trace (eq, no hash)


# ---------------------------------------------------------------------------
# Public entry points (compiled engine)
# ---------------------------------------------------------------------------


def execute_fast(
    schedule: Schedule, compiled: Optional[CompiledPlatform] = None
) -> Trace:
    """Compiled twin of :func:`repro.sim.executor.execute`: validate and
    return the (eagerly built, bit-identical) trace."""
    cp = compiled if compiled is not None else compile_platform(schedule.platform)
    tasks, _makespan, claims = _scan(schedule, cp)
    if tasks != schedule.n_tasks:  # unreachable; mirrors the executor's guard
        raise SimulationError(
            f"only {tasks} of {schedule.n_tasks} tasks completed"
        )
    return _build_trace(cp, claims)


def verify_fast(
    schedule: Schedule,
    compiled: Optional[CompiledPlatform] = None,
    lazy_trace: bool = False,
) -> Trace:
    """Compiled twin of :func:`repro.sim.executor.verify_by_execution`:
    validate, check the schedule's static claims, return the trace.

    ``lazy_trace=True`` defers building the event log until the returned
    trace is actually inspected — the validation hot path."""
    cp = compiled if compiled is not None else compile_platform(schedule.platform)
    _tasks, makespan, claims = _scan(schedule, cp)
    claimed = schedule.makespan
    if abs(float(makespan) - float(claimed)) > EPS:
        raise SimulationError(
            f"trace makespan {makespan} != schedule makespan {claimed}"
        )
    if lazy_trace:
        return _LazyTrace(lambda: _build_trace(cp, claims))
    return _build_trace(cp, claims)


# ---------------------------------------------------------------------------
# Engine dispatch (what Solution.validate()/replay() call)
# ---------------------------------------------------------------------------


def replay_schedule(schedule: Schedule, engine: Optional[str] = None) -> Trace:
    """Execute ``schedule`` with the chosen engine, returning the trace.

    ``engine=None`` prefers the compiled kernel and falls back to the
    event executor for platforms the compiler cannot flatten; an explicit
    ``"compiled"`` is strict (the :class:`CompileError` propagates)."""
    from .executor import execute  # local import: executor is a peer module

    resolved = resolve_engine(engine)
    with _trace.span("replay", kind="execute", engine=resolved):
        if resolved == "compiled":
            try:
                trace = execute_fast(schedule)
                _obs.counter("replay.execute", engine="compiled").inc()
                return trace
            except CompileError:
                if engine is not None:
                    raise
                _obs.counter("replay.execute", engine="event_fallback").inc()
                return execute(schedule)
        _obs.counter("replay.execute", engine="event").inc()
        return execute(schedule)


def verify_schedule(
    schedule: Schedule, engine: Optional[str] = None, lazy_trace: bool = False
) -> Trace:
    """Validate ``schedule`` (claims included) with the chosen engine."""
    from .executor import verify_by_execution

    resolved = resolve_engine(engine)
    with _trace.span("replay", kind="verify", engine=resolved):
        if resolved == "compiled":
            try:
                trace = verify_fast(schedule, lazy_trace=lazy_trace)
                _obs.counter("replay.verify", engine="compiled").inc()
                return trace
            except CompileError:
                if engine is not None:
                    raise
                _obs.counter("replay.verify", engine="event_fallback").inc()
                return verify_by_execution(schedule)
        _obs.counter("replay.verify", engine="event").inc()
        return verify_by_execution(schedule)
