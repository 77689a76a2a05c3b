"""Array replay validation against a compiled platform: the validator
every production caller runs.

Where :mod:`repro.sim.executor` (the replay oracle, and the only producer
of traces) pushes one closure per event through a ``heapq``, this module
checks a :class:`~repro.core.schedule.Schedule`'s columns against the
flat arrays of its own key table, a
:class:`~repro.core.compiled.CompiledPlatform` compiled from its platform
or checked against it by a rebind, with whole-array operations — no
compile, no heap, no per-task loop, no ``Event`` objects:

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
  executor's running ``busy_until`` — exactly for integer times, with
  :data:`~repro.core.types.EPS` slack otherwise;
* **bit-exact accounting**: the makespan is computed with the same
  arithmetic the simulator would use and compared against the schedule's
  claim: ``int64`` for integer columns, Python arithmetic element by
  element for float and Fraction ones.

Both validators accept and reject the same schedules, with the same
makespan on accept; when a schedule violates several rules at once they
may name a different violation first (the executor reports whichever
event fires first, the scan reports per rule), which is why the
differential suite compares accept/reject and makespan rather than
message strings.

A scan runs once per answer: a passing scan's makespan is kept on the
columns (``Columns.verdict``) with the read-only compiled arrays it read,
by reference, and a call on those very arrays (a rebind shares them)
reuses it, exactly the scan's output on unchanged inputs.
"""

from __future__ import annotations

import numpy as np

from ..core.compiled import CompiledPlatform
from ..core.schedule import Schedule
from ..obs import metrics as _obs
from ..obs import tracing as _trace
from ..core.types import EventBudgetExceeded, SimulationError, Time, close, leq
from .engine import DEFAULT_MAX_EVENTS

__all__ = ["replay_stats", "verify_schedule"]

_LEQ = np.frompyfunc(leq, 2, 1)
_STATS = _obs.REGISTRY.counter_group("replay", ("verify", "scans"))


def replay_stats() -> dict[str, int]:
    """Accepted :func:`verify_schedule` calls; scans run, passing or not."""
    return _STATS.to_dict()


def _scan(schedule: Schedule, cp: CompiledPlatform) -> Time:
    """Run every model check on the schedule's columns; returns the
    replayed makespan or raises
    :class:`~repro.core.types.SimulationError`.

    Times stay exact: ``int64`` columns compute in ``int64``, object
    columns (floats, Fractions) elementwise in Python arithmetic.  Each
    check is one ``count_nonzero`` over a whole-schedule mask."""
    cols = schedule.columns
    n = len(cols)
    if not n:
        return 0
    tasks, proc, ptr, start = cols.tasks, cols.proc, cols.ptr, cols.start
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
    # the executor's running busy-until: the previous claim's end, compared
    # as its types.leq does (exact on ints, which an object column may
    # hold past int64's exact range)
    if begin.dtype == object:
        clash = ~_LEQ(finish[:-1], begin[1:]).astype(bool)
    else:
        clash = begin[1:] < finish[:-1]
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
    if done.dtype == object:  # Python's max: the first maximum in task order
        return max([0, *done.tolist()])
    return max(0, np.maximum.reduce(done).item())


def verify_schedule(schedule: Schedule) -> Time:
    """Validate ``schedule`` against the model and its makespan claim;
    returns the replayed makespan.

    Raises :class:`~repro.core.types.SimulationError` on any violation
    (:meth:`repro.solve.Solution.validate` turns it into a
    ``ValidationError``); a verdict kept for these arrays skips the scan."""
    with _trace.span("replay"):
        cols, cp = schedule.columns, schedule.compiled
        read = (len(cp.port_keys), cp.works, cp.latency, cp.sender_port,
                cp.route_start, cp.route_links)
        verdict = cols.verdict
        if (verdict is not None and verdict[1] == read[0]
                and all(a is b for a, b in zip(verdict[2:], read[1:]))):
            makespan = verdict[0]
        else:
            _STATS.inc("scans")
            makespan = _scan(schedule, cp)
            cols.verdict = (makespan, *read)
        claimed = schedule.makespan
        if not close(makespan, claimed):
            raise SimulationError(
                f"trace makespan {makespan} != schedule makespan {claimed}"
            )
        _STATS.inc("verify")
    return makespan
