"""Versioned JSON (de)serialisation of platforms, schedules, problems,
solutions and traces.

Plain-JSON on purpose: instances generated for the experiments can be
archived next to the results, diffed, and reloaded bit-exactly (integer
platforms stay integers through the round trip).  The problem/solution
round trip is what the service layer's content-addressed store and its
JSON-lines wire protocol are built on, so every record carries enough to
reconstruct the full object — a solution embeds its problem, a trace its
events and busy intervals.
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
    if problem.warm_caps is not None:
        # list-of-pairs keeps the integer keys JSON dicts would stringify
        d["warm_caps"] = sorted(problem.warm_caps.items())
    return d


def problem_from_dict(d: Mapping[str, Any]) -> Any:
    from ..solve.problem import Problem  # local import: solve sits above io

    if d.get("record", "problem") != "problem":
        raise ReproError(f"not a problem payload: {d.get('record')!r}")
    check_legacy_allocator(d)
    warm = d.get("warm_caps")
    return Problem(
        platform_from_dict(d["platform"]),
        kind=d.get("kind", "makespan"),
        n=d.get("n"),
        t_lim=d.get("t_lim"),
        mode=d.get("mode", "offline"),
        options=d.get("options", {}),
        warm_caps=None if warm is None else {int(k): v for k, v in warm},
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


def solution_to_dict(solution: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.solve.problem.Solution` with its problem,
    schedule (or ``None`` for trace-only answers) and execution trace."""
    return {
        "schema": SCHEMA_VERSION,
        "record": "solution",
        "problem": problem_to_dict(solution.problem),
        "schedule": (
            None if solution.schedule is None
            else schedule_to_dict(solution.schedule)
        ),
        "solver": solution.solver,
        "stats": dict(solution.stats),
        "warm_caps": (
            None if solution.warm_caps is None
            else sorted(solution.warm_caps.items())
        ),
        "extra": dict(solution.extra),
        "trace": None if solution.trace is None else trace_to_dict(solution.trace),
    }


#: stands in for each spliced value while a template is cut: NUL-framed,
#: so no solver or platform text holds it (the hole count is checked).
_HOLE = "\x00hole\x00"


class SolutionTemplate:
    """``json.dumps(solution_to_dict(s))``, rendered without re-encoding
    the parts every rebind of one stored solution shares.

    A rebind changes only the problem, the schedule's platform and the
    processor key of each task; times, communication vectors, solver,
    stats and extra detail stay the same.  The template is the model
    rebind's encoding with those values cut out, so :meth:`render`
    encodes just them.  It is built from :func:`solution_to_dict` output,
    so the wire format keeps one definition.  Render only rebinds of the
    same stored solution as the model; anything else would be answered
    with the model's times.
    """

    __slots__ = ("_parts", "_tasks")

    def __init__(self, model: Any) -> None:
        d = solution_to_dict(model)
        d["problem"] = _HOLE
        d["schedule"]["platform"] = _HOLE
        for a in d["schedule"]["assignments"]:
            a["processor"] = _HOLE
        self._tasks = model.schedule.tasks()
        self._parts: Any = json.dumps(d).split(json.dumps(_HOLE))
        if len(self._parts) != len(self._tasks) + 3:
            self._parts = None  # a field holds the marker: encode in full

    def render(self, solution: Any) -> str:
        parts = self._parts
        if parts is None:
            return json.dumps(solution_to_dict(solution))
        out = [
            parts[0], json.dumps(problem_to_dict(solution.problem)),
            parts[1], json.dumps(solution.schedule.platform.to_dict()),
            parts[2],
        ]
        assignments = solution.schedule.assignments
        keys: dict[Any, str] = {}  # one encode per processor, not per task
        for task, part in zip(self._tasks, parts[3:]):
            proc = assignments[task].processor
            key = keys.get(proc)
            if key is None:
                key = keys[proc] = json.dumps(proc)  # a tuple key is an array
            out.append(key)
            out.append(part)
        return "".join(out)


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
    warm = d.get("warm_caps")
    raw_trace = d.get("trace")
    return Solution(
        problem,
        schedule,
        d["solver"],
        stats=dict(d.get("stats", {})),
        warm_caps=None if warm is None else {int(k): v for k, v in warm},
        extra=dict(d.get("extra", {})),
        trace=None if raw_trace is None else trace_from_dict(raw_trace),
    )
