"""Versioned JSON (de)serialisation of platforms, schedules, problems,
solutions and traces.

Plain-JSON on purpose: instances generated for the experiments can be
archived next to the results, diffed, and reloaded bit-exactly (integer
platforms stay integers through the round trip).  The problem/solution
round trip is what the service layer's content-addressed store and its
JSON-lines wire protocol are built on, so every record carries enough to
reconstruct the full object — a solution embeds its problem, a trace its
events and busy intervals.

A schedule's record lists one ``{"task", "processor", "start", "comms"}``
object per task.  :func:`solution_to_dict` builds it from the columnar
:class:`~repro.core.schedule.Schedule` as Python numbers;
:func:`solution_to_json` writes the same text as ``json.dumps`` of that
dict straight from the columns, and is what the service serves for
misses and hits alike.  It keeps the rows' text, processor keys cut out,
on the shared columns, so every rebind of one stored answer after the
first encodes only its problem, platform and keys.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Union

from ..core.schedule import Schedule
from ..core.types import ReproError
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import Tree

SCHEMA_VERSION = 1

_KINDS = {
    "chain": Chain.from_dict,
    "star": Star.from_dict,
    "spider": Spider.from_dict,
    "tree": Tree.from_dict,
}

#: The JSON ``kind`` tags this schema version can load — scenario
#: validation in :mod:`repro.batch.scenarios` checks against this.
PLATFORM_KINDS = tuple(sorted(_KINDS))

Platform = Union[Chain, Star, Spider, Tree]

#: values of the retired ``allocator`` field that older payloads carry;
#: both selected the same tasks by contract, so they load (and are ignored).
LEGACY_ALLOCATORS = ("greedy", "incremental")


def check_legacy_allocator(
    d: Mapping[str, Any], error: type = ReproError
) -> None:
    """Accept a payload's legacy ``allocator`` field when it names one of
    :data:`LEGACY_ALLOCATORS`; raise ``error`` naming the field otherwise."""
    if "allocator" in d and d["allocator"] not in LEGACY_ALLOCATORS:
        raise error(
            f"field 'allocator' is retired; got {d['allocator']!r}, but only "
            f"the legacy values {', '.join(LEGACY_ALLOCATORS)} are accepted"
        )


def platform_to_dict(platform: Platform) -> dict[str, Any]:
    return {"schema": SCHEMA_VERSION, **platform.to_dict()}


def platform_from_dict(d: Mapping[str, Any]) -> Platform:
    kind = d.get("kind")
    try:
        loader = _KINDS[kind]
    except KeyError:
        raise ReproError(f"unknown platform kind {kind!r}") from None
    return loader(d)


def save_platform(platform: Platform, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(platform_to_dict(platform), indent=2))
    return path


def load_platform(path: str | Path) -> Platform:
    return platform_from_dict(json.loads(Path(path).read_text()))


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {"schema": SCHEMA_VERSION, **schedule.to_dict()}


def schedule_from_dict(d: Mapping[str, Any]) -> Schedule:
    return Schedule.from_dict(d)


def save_schedule(schedule: Schedule, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(schedule_to_dict(schedule), indent=2))
    return path


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Problems and solutions (the solve-layer records)
# ---------------------------------------------------------------------------
#
# Resource keys (processors, links, ports) are ints, strings or tuples —
# possibly nested, e.g. a trace's ``("link", (leg, pos))`` busy keys; JSON
# has no tuple, so tuples travel as (nested) lists and are re-tupled on
# load.  Everything else round-trips bit-exactly (ints stay ints).


def _key_to_json(key: Any) -> Any:
    if isinstance(key, tuple):
        return [_key_to_json(part) for part in key]
    return key


def _key_from_json(key: Any) -> Any:
    if isinstance(key, list):
        return tuple(_key_from_json(part) for part in key)
    return key


def problem_to_dict(problem: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.solve.problem.Problem` (platform included)."""
    d: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "record": "problem",
        "platform": platform_to_dict(problem.platform),
        "kind": problem.kind,
        "mode": problem.mode,
    }
    if problem.n is not None:
        d["n"] = problem.n
    if problem.t_lim is not None:
        d["t_lim"] = problem.t_lim
    if problem.options:
        d["options"] = dict(problem.options)
    return d


def problem_from_dict(d: Mapping[str, Any]) -> Any:
    from ..solve.problem import Problem  # local import: solve sits above io

    if d.get("record", "problem") != "problem":
        raise ReproError(f"not a problem payload: {d.get('record')!r}")
    check_legacy_allocator(d)
    # unknown keys, such as the retired caps list, are dropped
    return Problem(
        platform_from_dict(d["platform"]),
        kind=d.get("kind", "makespan"),
        n=d.get("n"),
        t_lim=d.get("t_lim"),
        mode=d.get("mode", "offline"),
        options=d.get("options", {}),
    )


def trace_to_dict(trace: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.sim.trace.Trace` (events + busy intervals)."""
    return {
        "schema": SCHEMA_VERSION,
        "record": "trace",
        "events": [
            [e.time, e.kind.value, e.task, _key_to_json(e.resource)]
            for e in trace.events
        ],
        "busy": [
            [_key_to_json(resource), [list(iv) for iv in intervals]]
            for resource, intervals in trace.busy.items()
        ],
    }


def trace_from_dict(d: Mapping[str, Any]) -> Any:
    from ..sim.events import Event, EventKind  # local import: sim sits above io
    from ..sim.trace import Trace

    if d.get("record", "trace") != "trace":
        raise ReproError(f"not a trace payload: {d.get('record')!r}")
    trace = Trace()
    for time, kind, task, resource in d["events"]:
        trace.record(Event(time, EventKind(kind), task, _key_from_json(resource)))
    for resource, intervals in d["busy"]:
        for start, end, task in intervals:
            trace.record_interval(_key_from_json(resource), start, end, task)
    return trace


def _solution_record(solution: Any, schedule: Any) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "record": "solution",
        "problem": problem_to_dict(solution.problem),
        "schedule": schedule,
        "solver": solution.solver,
        "stats": dict(solution.stats),
        "extra": dict(solution.extra),
        "trace": None if solution.trace is None else trace_to_dict(solution.trace),
    }


def solution_to_dict(solution: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.solve.problem.Solution` with its problem,
    schedule (or ``None`` for trace-only answers) and execution trace."""
    schedule = solution.schedule
    return _solution_record(
        solution, None if schedule is None else schedule_to_dict(schedule)
    )


def _key_text(key: Any) -> str:
    """``json.dumps(key)`` of a processor key, without an encoder for the
    usual int and tuple-of-int keys (a tuple is an array)."""
    if type(key) is int:
        return str(key)
    if type(key) is tuple and all(type(part) is int for part in key):
        return str(list(key))
    return json.dumps(key)


def _number_text(column: Any) -> Any:
    """The JSON text of each value of a time column: ``str`` of an int64
    column's ints, ``json.dumps`` of an object column's values."""
    return map(str if column.dtype != object else json.dumps, column.tolist())


def schedule_to_json(schedule: Schedule) -> str:
    """``json.dumps(schedule_to_dict(schedule))``, written straight from
    the schedule's columns: no per-task record or dict is built.

    Everything but the processor keys is the columns' own text, so it is
    kept on the (read-only) columns: every rebind of a stored answer
    shares them and splices in only its own keys.  Two writers racing on
    one answer only compute the same text twice."""
    cols = schedule.columns
    platform = json.dumps(schedule.platform.to_dict())
    head = (f'{{"schema": {SCHEMA_VERSION}, "platform": {platform}, '
            f'"assignments": [')
    if not len(cols):
        return head + "]}"
    if cols.text is None:
        cols.text = _rows_text(cols)
    parts = cols.text.split("\0")
    keys = [_key_text(key) for key in schedule.keys]
    text = [""] * (2 * len(parts) - 1)
    text[0::2] = parts
    text[1::2] = [keys[j] for j in cols.proc.tolist()]
    return head + "".join(text)


def _rows_text(cols: Any) -> str:
    """The assignments' text with a NUL, which JSON text never holds
    raw, in place of each processor key."""
    opens = [
        f'{{"task": {task}, "processor": \0, "start": {start}, "comms": ['
        for task, start in zip(cols.tasks.tolist(), _number_text(cols.start))
    ]
    # every comm time is followed by ", " within its vector, and by the
    # close of its task and the open of the next one at the vector's end
    # (no vector is empty: every route has a link)
    comm = list(_number_text(cols.comm))
    after = [", "] * len(comm)
    for end, next_open in zip(cols.ptr[1:-1].tolist(), opens[1:]):
        after[end - 1] = "]}, " + next_open
    after[-1] = "]}]}"
    text = [""] * (2 * len(comm))
    text[0::2] = comm
    text[1::2] = after
    return opens[0] + "".join(text)


def solution_to_json(solution: Any) -> str:
    """``json.dumps(solution_to_dict(solution))``, with the schedule
    written by :func:`schedule_to_json`: the served answer's text."""
    if solution.schedule is None:
        return json.dumps(solution_to_dict(solution))
    items = list(_solution_record(solution, None).items())
    at = [key for key, _ in items].index("schedule")
    head = json.dumps(dict(items[:at]))[:-1]
    tail = json.dumps(dict(items[at + 1:]))[1:]
    return f'{head}, "schedule": {schedule_to_json(solution.schedule)}, {tail}'


def solution_from_dict(d: Mapping[str, Any]) -> Any:
    from ..solve.problem import Solution  # local import: solve sits above io

    if d.get("record", "solution") != "solution":
        raise ReproError(f"not a solution payload: {d.get('record')!r}")
    problem = problem_from_dict(d["problem"])
    raw_sched = d.get("schedule")
    if raw_sched is None:
        schedule = None
    elif raw_sched.get("platform") == problem.platform.to_dict():
        # bind the schedule to the problem's platform object so
        # solution.schedule and solution.problem.platform stay the *same*
        # instance, as when solved
        schedule = Schedule.from_dict(raw_sched, platform=problem.platform)
    else:
        # repatch answers live on the *mutated* platform, not the problem's
        schedule = Schedule.from_dict(raw_sched)
    # unknown keys, such as the retired caps list of older stores, are
    # dropped, so those entries still serve
    raw_trace = d.get("trace")
    return Solution(
        problem,
        schedule,
        d["solver"],
        stats=dict(d.get("stats", {})),
        extra=dict(d.get("extra", {})),
        trace=None if raw_trace is None else trace_from_dict(raw_trace),
    )
