"""Dynamic platform churn: timed leave/join/drift events.

The platforms motivating the paper (SETI@home, the Mersenne search) churn:
hosts *join* mid-run (flash crowds), *leave* (fail-stop crashes, diurnal
load, spot-instance reclaims) and *drift* (a shared link slows down, a
laptop throttles).  This module gives those three a first-class timed
event model:

* :class:`ProcessorLeave` — the processor (and, on chains/spiders/trees,
  everything routed through it) disappears at ``time``;
* :class:`ProcessorJoin` — a new processor attaches at ``time`` (a new
  star child, a new spider leg, a deeper chain tail, a new tree leaf);
* :class:`BandwidthDrift` — the link into a processor rescales its
  latency (``c_factor``) and/or the processor its work (``w_factor``).

Event *keys always address the original platform*: a spec like
``{"op": "leave", "time": 5, "processor": [2, 1]}`` means leg 2 of the
platform the run started on, no matter how many earlier events renumbered
the survivors.  :func:`apply_churn` folds a sorted event list over a
platform and returns a :class:`ChurnTrace` — the mutated platform, an
``original key → final key`` map for the survivors, per-event canonical
fingerprints, and the join/drift instants the repair layer
(:mod:`repro.solve.repatch`) needs to lower-bound new claims.

:func:`repro.sim.online.simulate_online` executes the same events online
under a policy (``churn=``); :func:`random_churn` derives a reproducible
event mix from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..core.schedule import ProcKey, adapter_for
from ..core.types import PlatformError, ReproError, Time
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import ROOT, Tree

__all__ = [
    "BandwidthDrift",
    "ChurnError",
    "ChurnStep",
    "ChurnTrace",
    "ProcessorJoin",
    "ProcessorLeave",
    "apply_churn",
    "parse_churn_events",
    "random_churn",
]


class ChurnError(ReproError):
    """A churn event that cannot be applied: unknown or already-departed
    processor, a leave that empties the platform, a malformed join spec."""


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessorLeave:
    """``processor`` (original-platform key) departs at ``time``;
    everything routed through it departs too."""

    time: Time
    processor: ProcKey

    def to_dict(self) -> dict[str, Any]:
        proc = list(self.processor) if isinstance(self.processor, tuple) else self.processor
        return {"op": "leave", "time": self.time, "processor": proc}


@dataclass(frozen=True)
class ProcessorJoin:
    """A new processor (or spider leg) attaches at ``time``.

    ``spec`` is kind-specific JSON:

    * chain / star — ``{"c": 2, "w": 3}`` (new tail / new child);
    * spider — ``{"c": [2, 1], "w": [3, 4]}`` (a whole new leg) or
      ``{"leg": 2, "c": 2, "w": 3}`` (extend leg 2's tail);
    * tree — ``{"parent": 3, "c": 2, "w": 3}`` (new leaf under node 3;
      parent 0 is the master).
    """

    time: Time
    spec: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"op": "join", "time": self.time, **dict(self.spec)}


@dataclass(frozen=True)
class BandwidthDrift:
    """At ``time``, the link into ``processor`` rescales its latency by
    ``c_factor`` and the processor its work by ``w_factor`` (factor 1
    leaves the value untouched)."""

    time: Time
    processor: ProcKey
    c_factor: Any = 1
    w_factor: Any = 1

    def to_dict(self) -> dict[str, Any]:
        proc = list(self.processor) if isinstance(self.processor, tuple) else self.processor
        d: dict[str, Any] = {"op": "drift", "time": self.time, "processor": proc}
        if self.c_factor != 1:
            d["c_factor"] = self.c_factor
        if self.w_factor != 1:
            d["w_factor"] = self.w_factor
        return d


ChurnEvent = Any  # ProcessorLeave | ProcessorJoin | BandwidthDrift


def _tuple_key(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def parse_churn_event(spec: Any) -> ChurnEvent:
    """Accept an event instance or its JSON shape (``{"op": ..., "time": ...}``)."""
    if isinstance(spec, (ProcessorLeave, ProcessorJoin, BandwidthDrift)):
        return spec
    if not isinstance(spec, Mapping):
        raise ChurnError(
            f"churn event must be an event object or a dict, got {type(spec).__name__}"
        )
    try:
        op, time = spec["op"], spec["time"]
    except KeyError as missing:
        raise ChurnError(f"churn event needs 'op' and 'time', missing {missing}") from None
    if op == "leave":
        if "processor" not in spec:
            raise ChurnError("leave event needs 'processor'")
        return ProcessorLeave(time, _tuple_key(spec["processor"]))
    if op == "join":
        body = {k: v for k, v in spec.items() if k not in ("op", "time")}
        return ProcessorJoin(time, body)
    if op == "drift":
        if "processor" not in spec:
            raise ChurnError("drift event needs 'processor'")
        cf, wf = spec.get("c_factor", 1), spec.get("w_factor", 1)
        if cf == 1 and wf == 1:
            raise ChurnError("drift event needs c_factor and/or w_factor != 1")
        return BandwidthDrift(time, _tuple_key(spec["processor"]), cf, wf)
    raise ChurnError(f"unknown churn op {op!r} (expected leave/join/drift)")


def parse_churn_events(specs: Iterable[Any]) -> list[ChurnEvent]:
    events = [parse_churn_event(s) for s in specs]
    for ev in events:
        if ev.time < 0:
            raise ChurnError(f"churn event time must be >= 0, got {ev.time}")
    return events


# ---------------------------------------------------------------------------
# Platform mutators (each returns (new_platform, old_key -> new_key map))
# ---------------------------------------------------------------------------


def _scaled(value: Any, factor: Any) -> Any:
    out = value * factor
    # keep integer platforms integer when the factor allows it
    if isinstance(out, float) and out.is_integer() and isinstance(value, int):
        return int(out)
    return out


def _guard(action: str):
    """Re-raise platform construction errors as ChurnError with context."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None and issubclass(exc_type, PlatformError):
                raise ChurnError(f"{action}: {exc}") from exc
            return False

    return _Ctx()


def _leave(platform: Any, proc: ProcKey) -> tuple[Any, dict[ProcKey, ProcKey]]:
    if isinstance(platform, Chain):
        i = proc
        if not isinstance(i, int) or not 1 <= i <= platform.p:
            raise ChurnError(f"no chain processor {proc!r}")
        if i == 1:
            raise ChurnError("leave of chain processor 1 leaves no platform")
        with _guard("chain leave"):
            new = Chain(platform.c[: i - 1], platform.w[: i - 1])
        return new, {j: j for j in range(1, i)}
    if isinstance(platform, Star):
        j = proc
        if not isinstance(j, int) or not 1 <= j <= platform.arity:
            raise ChurnError(f"no star child {proc!r}")
        if platform.arity == 1:
            raise ChurnError("leave of the only star child leaves no platform")
        children = [ch for k, ch in enumerate(platform.children, start=1) if k != j]
        with _guard("star leave"):
            new = Star(children)
        return new, {
            k: (k if k < j else k - 1)
            for k in range(1, platform.arity + 1)
            if k != j
        }
    if isinstance(platform, Spider):
        if not (isinstance(proc, tuple) and len(proc) == 2):
            raise ChurnError(f"spider keys are (leg, pos), got {proc!r}")
        leg_i, pos = proc
        if not 1 <= leg_i <= platform.arity or not 1 <= pos <= platform.leg(leg_i).p:
            raise ChurnError(f"no spider processor {proc!r}")
        if pos == 1:
            if platform.arity == 1:
                raise ChurnError("leave of the only spider leg leaves no platform")
            legs = [lg for k, lg in enumerate(platform.legs, start=1) if k != leg_i]
            with _guard("spider leave"):
                new = Spider(legs)
            mapping = {}
            for k, lg in enumerate(platform.legs, start=1):
                if k == leg_i:
                    continue
                nk = k if k < leg_i else k - 1
                for p in range(1, lg.p + 1):
                    mapping[(k, p)] = (nk, p)
            return new, mapping
        leg = platform.leg(leg_i)
        truncated = Chain(leg.c[: pos - 1], leg.w[: pos - 1])
        legs = list(platform.legs)
        legs[leg_i - 1] = truncated
        with _guard("spider leave"):
            new = Spider(legs)
        mapping = {
            (k, p): (k, p)
            for k, lg in enumerate(platform.legs, start=1)
            for p in range(1, lg.p + 1)
            if not (k == leg_i and p >= pos)
        }
        return new, mapping
    if isinstance(platform, Tree):
        v = proc
        if v not in platform.workers:
            raise ChurnError(f"no tree worker {proc!r}")
        doomed = platform.descendants(v) | {v}
        edges = [e for e in platform.edges() if e[1] not in doomed]
        if not edges:
            raise ChurnError("leave empties the tree of workers")
        with _guard("tree leave"):
            new = Tree(edges)
        return new, {x: x for x in platform.workers if x not in doomed}
    raise ChurnError(f"unsupported platform type {type(platform).__name__}")


def _join(platform: Any, spec: Mapping[str, Any]) -> tuple[Any, list[ProcKey]]:
    """Attach per ``spec``; existing keys are stable (returns the new keys)."""

    def need(*keys: str) -> list[Any]:
        missing = [k for k in keys if k not in spec]
        if missing:
            raise ChurnError(
                f"{type(platform).__name__.lower()} join spec needs {missing}"
            )
        return [spec[k] for k in keys]

    if isinstance(platform, Chain):
        c, w = need("c", "w")
        with _guard("chain join"):
            new = Chain((*platform.c, c), (*platform.w, w))
        return new, [new.p]
    if isinstance(platform, Star):
        c, w = need("c", "w")
        with _guard("star join"):
            new = Star((*platform.children, (c, w)))
        return new, [new.arity]
    if isinstance(platform, Spider):
        c, w = need("c", "w")
        if "leg" in spec:  # extend an existing leg's tail
            leg_i = spec["leg"]
            if not 1 <= leg_i <= platform.arity:
                raise ChurnError(f"no spider leg {leg_i!r} to extend")
            leg = platform.leg(leg_i)
            with _guard("spider join"):
                extended = Chain((*leg.c, c), (*leg.w, w))
            legs = list(platform.legs)
            legs[leg_i - 1] = extended
            return Spider(legs), [(leg_i, extended.p)]
        cs = list(c) if isinstance(c, (list, tuple)) else [c]
        ws = list(w) if isinstance(w, (list, tuple)) else [w]
        with _guard("spider join"):
            new_leg = Chain(cs, ws)
            new = Spider((*platform.legs, new_leg))
        return new, [(new.arity, p) for p in range(1, new_leg.p + 1)]
    if isinstance(platform, Tree):
        parent, c, w = need("parent", "c", "w")
        workers = platform.workers
        if parent != ROOT and parent not in workers:
            raise ChurnError(f"tree join under unknown parent {parent!r}")
        node = max(ROOT, *workers) + 1
        with _guard("tree join"):
            new = Tree([*platform.edges(), (parent, node, c, w)])
        return new, [node]
    raise ChurnError(f"unsupported platform type {type(platform).__name__}")


def _drift(
    platform: Any, proc: ProcKey, c_factor: Any, w_factor: Any
) -> Any:
    adapter = adapter_for(platform)
    if proc not in adapter.processors():
        raise ChurnError(f"no processor {proc!r} to drift")
    if isinstance(platform, Chain):
        c, w = list(platform.c), list(platform.w)
        c[proc - 1] = _scaled(c[proc - 1], c_factor)
        w[proc - 1] = _scaled(w[proc - 1], w_factor)
        with _guard("chain drift"):
            return Chain(c, w)
    if isinstance(platform, Star):
        children = [
            (_scaled(ch.c, c_factor), _scaled(ch.w, w_factor)) if k == proc else ch
            for k, ch in enumerate(platform.children, start=1)
        ]
        with _guard("star drift"):
            return Star(children)
    if isinstance(platform, Spider):
        leg_i, pos = proc
        leg = platform.leg(leg_i)
        c, w = list(leg.c), list(leg.w)
        c[pos - 1] = _scaled(c[pos - 1], c_factor)
        w[pos - 1] = _scaled(w[pos - 1], w_factor)
        with _guard("spider drift"):
            legs = list(platform.legs)
            legs[leg_i - 1] = Chain(c, w)
            return Spider(legs)
    if isinstance(platform, Tree):
        edges = [
            (u, x, _scaled(c, c_factor), _scaled(w, w_factor)) if x == proc
            else (u, x, c, w)
            for u, x, c, w in platform.edges()
        ]
        with _guard("tree drift"):
            return Tree(edges)
    raise ChurnError(f"unsupported platform type {type(platform).__name__}")


# ---------------------------------------------------------------------------
# ChurnTrace: what changed, and when
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnStep:
    """One applied event plus the canonical fingerprint of the platform it
    produced — the (platform-delta, trace-prefix) identity the repair cache
    keys on."""

    time: Time
    op: str
    detail: dict[str, Any]
    fingerprint: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "op": self.op,
            "detail": dict(self.detail),
            "fingerprint": self.fingerprint,
        }


@dataclass
class ChurnTrace:
    """The full record of a churn episode (see module docstring)."""

    platform_before: Any
    platform_after: Any
    steps: tuple[ChurnStep, ...]
    #: original key → final key, survivors only.
    key_map: dict[ProcKey, ProcKey]
    #: final keys introduced by joins → join instant.
    joined: dict[ProcKey, Time]
    #: final link keys whose latency drifted → latest drift instant.
    drifted_c: dict[ProcKey, Time]
    #: final processor keys whose work drifted → latest drift instant.
    drifted_w: dict[ProcKey, Time]

    @property
    def instant(self) -> Time:
        """The first churn instant — the prefix boundary of the repair."""
        return min(step.time for step in self.steps)

    @property
    def departed(self) -> list[ProcKey]:
        """Original keys with no image on the mutated platform."""
        before = adapter_for(self.platform_before).processors()
        return [p for p in before if p not in self.key_map]

    def summary(self) -> dict[str, Any]:
        return {
            "events": len(self.steps),
            "instant": self.instant,
            "departed": len(self.departed),
            "joined": len(self.joined),
            "drifted": len(set(self.drifted_c) | set(self.drifted_w)),
            "fingerprint_after": self.steps[-1].fingerprint,
        }


def apply_churn(platform: Any, events: Iterable[Any]) -> ChurnTrace:
    """Fold ``events`` (any order; applied by time, ties in list order)
    over ``platform`` and record exactly what changed and when."""
    from ..service.canon import platform_fingerprint

    parsed = parse_churn_events(events)
    if not parsed:
        raise ChurnError("churn needs at least one event")
    order = sorted(range(len(parsed)), key=lambda i: (parsed[i].time, i))

    current = platform
    total_map: dict[ProcKey, ProcKey] = {
        p: p for p in adapter_for(platform).processors()
    }
    joined: dict[ProcKey, Time] = {}
    drifted_c: dict[ProcKey, Time] = {}
    drifted_w: dict[ProcKey, Time] = {}
    steps: list[ChurnStep] = []

    def translate(orig_key: ProcKey, *, why: str) -> ProcKey:
        try:
            return total_map[orig_key]
        except KeyError:
            raise ChurnError(
                f"cannot {why} processor {orig_key!r}: not on the original "
                "platform or already departed"
            ) from None

    for idx in order:
        ev = parsed[idx]
        if isinstance(ev, ProcessorLeave):
            cur = translate(ev.processor, why="remove")
            current, m = _leave(current, cur)
            total_map = {o: m[c] for o, c in total_map.items() if c in m}
            joined = {m[k]: t for k, t in joined.items() if k in m}
            drifted_c = {m[k]: t for k, t in drifted_c.items() if k in m}
            drifted_w = {m[k]: t for k, t in drifted_w.items() if k in m}
        elif isinstance(ev, ProcessorJoin):
            current, new_keys = _join(current, ev.spec)
            for k in new_keys:
                joined[k] = ev.time
        else:  # BandwidthDrift
            cur = translate(ev.processor, why="drift")
            current = _drift(current, cur, ev.c_factor, ev.w_factor)
            if ev.c_factor != 1:
                drifted_c[cur] = ev.time
            if ev.w_factor != 1:
                drifted_w[cur] = ev.time
        steps.append(
            ChurnStep(ev.time, ev.to_dict()["op"], ev.to_dict(),
                      platform_fingerprint(current))
        )
    return ChurnTrace(
        platform_before=platform,
        platform_after=current,
        steps=tuple(steps),
        key_map=total_map,
        joined=joined,
        drifted_c=drifted_c,
        drifted_w=drifted_w,
    )


def random_churn(
    platform: Any,
    seed: int,
    *,
    events: int = 3,
    horizon: Time = 10,
    join_weight: int = 1,
    leave_weight: int = 1,
    drift_weight: int = 1,
) -> list[ChurnEvent]:
    """A reproducible churn mix for ``platform``: ``events`` applicable
    events with times in ``(0, horizon]``, drawn from a seeded RNG.  Draws
    that would not apply (a leave emptying the platform, a drift on a
    departed key) are skipped and redrawn, so the result always passes
    :func:`apply_churn`."""
    import random as _random

    rng = _random.Random(seed)
    procs = adapter_for(platform).processors()
    ops = (
        ["leave"] * leave_weight + ["join"] * join_weight + ["drift"] * drift_weight
    )
    chosen: list[ChurnEvent] = []
    attempts = 0
    while len(chosen) < events and attempts < 50 * events:
        attempts += 1
        t = rng.randrange(1, max(2, int(horizon * 4))) / 4
        op = rng.choice(ops)
        if op == "leave":
            ev: ChurnEvent = ProcessorLeave(t, rng.choice(procs))
        elif op == "drift":
            factor = rng.choice([2, 3, 0.5])
            which = rng.random()
            ev = BandwidthDrift(
                t,
                rng.choice(procs),
                c_factor=factor if which < 0.7 else 1,
                w_factor=factor if which >= 0.3 else 1,
            )
        else:
            c, w = rng.randrange(1, 4), rng.randrange(1, 5)
            if isinstance(platform, Spider):
                ev = ProcessorJoin(t, {"c": [c], "w": [w]})
            elif isinstance(platform, Tree):
                ev = ProcessorJoin(t, {"parent": ROOT, "c": c, "w": w})
            else:
                ev = ProcessorJoin(t, {"c": c, "w": w})
        try:
            apply_churn(platform, [*chosen, ev])
        except ChurnError:
            continue
        chosen.append(ev)
    if len(chosen) < events:
        raise ChurnError(
            f"could not draw {events} applicable churn events for "
            f"{type(platform).__name__} (got {len(chosen)})"
        )
    return chosen
