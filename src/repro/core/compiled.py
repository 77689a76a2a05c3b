"""Flat-array platform compilation: a schedule's key table and the replay
kernel's numbers.

The discrete-event executor (:mod:`repro.sim.executor`) re-derives every
route, latency and port through :class:`~repro.core.schedule.PlatformAdapter`
method calls — fine for one replay, ruinous when replay validation runs on
every cache write, every rebind and every ``--validate`` row.  This module
compiles an adapter **once** into contiguous arrays that every
:class:`~repro.core.schedule.Schedule` on the platform holds as its key
table and that the linear-scan validator (:mod:`repro.sim.replay_fast`)
indexes directly:

* the processors in adapter order (``procs``), their index map
  (``proc_index``) and per-processor ``works``;
* one *link* per processor — in every supported platform a link is the
  incoming edge of exactly one processor, so link index ≡ processor index
  and a link's key is its processor's key (the compiler verifies this and
  refuses adapters that break it);
* a CSR-style route table (``route_start`` / ``route_links``) holding each
  master→processor route as link indices in traversal order;
* per-link ``latency`` and ``sender_port`` (index into ``port_keys``,
  where index :data:`MASTER_PORT` is always the master's send port).

The numeric tables are read-only numpy arrays (times as
:func:`~repro.core.schedule.time_column` stores them), which the replay
kernel indexes with whole-schedule gathers.

A platform is compiled once per platform *object* (platforms are
immutable; the result is memoized on the object).  A schedule moved onto
an isomorphic platform keeps its arrays: :meth:`CompiledPlatform.bound`
relabels them with the new platform's keys, checked on that platform's
own adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..obs import metrics as _obs
from .schedule import (
    LinkKey, PlatformAdapter, PortKey, ProcKey, adapter_for, time_column,
)
from .types import ReproError, ScheduleError, Time

__all__ = [
    "MASTER_PORT",
    "CompileError",
    "CompiledPlatform",
    "clear_compile_cache",
    "compile_platform",
    "compile_stats",
]

#: index of the master's send port in ``CompiledPlatform.port_keys``.
MASTER_PORT = 0

#: bumped by :func:`clear_compile_cache`; per-object memos stamped with an
#: older generation are ignored, so a clear really does force a recompile
#: even for platform objects that outlive it.
_GENERATION = 0
#: counters live on the process-wide obs registry (``compile.*``);
#: :func:`compile_stats` is the dict-shaped view over them.
_STATS = _obs.REGISTRY.counter_group("compile", ("compiles", "binds"))


class CompileError(ReproError):
    """The adapter does not fit the flat link-per-processor model.  Every
    supported platform fits; no schedule can be built on one that does
    not."""


@dataclass(frozen=True)
class CompiledPlatform:
    """One platform flattened into parallel arrays (see module docstring);
    position ``j`` of every per-processor array is processor ``procs[j]``."""

    platform: Any
    adapter: PlatformAdapter
    procs: tuple[ProcKey, ...]
    proc_index: dict[ProcKey, int]
    works: np.ndarray
    #: per-link latency; link ``l`` is the incoming edge of processor ``l``.
    latency: np.ndarray
    #: per-link sending-port index into ``port_keys``.
    sender_port: np.ndarray
    #: send-port keys; index 0 is the master's port, every other one is a
    #: processor.
    port_keys: tuple[PortKey, ...]
    #: CSR route table: route of processor ``i`` is
    #: ``route_links[route_start[i]:route_start[i + 1]]``.
    route_start: np.ndarray
    route_links: np.ndarray
    #: route length per processor, as Python ints (``Schedule.add``).
    hops: tuple[int, ...]

    @property
    def link_keys(self) -> tuple[LinkKey, ...]:
        """``link_keys[l]`` names link ``l``: its processor's key."""
        return self.procs

    def bound(self, platform: Any, keys: Sequence[ProcKey]) -> "CompiledPlatform":
        """This compiled form on the isomorphic ``platform``, whose
        processor ``keys[j]`` plays the role of index ``j``: every array
        is shared, only the keys are new.

        Each key is checked on ``platform``'s own adapter: the keys must be
        its processors, and each must carry index ``j``'s work, latency and
        sender (the image of index ``j``'s sender), so the senders imply
        every route.  O(p); raises :class:`~repro.core.types.ScheduleError`
        on a relabel that is not an isomorphism."""
        adapter = adapter_for(platform)
        keys = tuple(keys)
        index = {k: j for j, k in enumerate(keys)}
        if (len(keys) != len(self.procs) or len(index) != len(keys)
                or index.keys() != set(adapter.processors())):
            raise ScheduleError(
                f"key table {keys!r} is not a permutation of the platform's "
                f"processors"
            )
        port_keys = (adapter.master_port(),
                     *(keys[self.proc_index[p]] for p in self.port_keys[1:]))
        for key, w, c, port in zip(keys, self.works.tolist(),
                                   self.latency.tolist(),
                                   self.sender_port.tolist()):
            if (adapter.work(key) != w or adapter.latency(key) != c
                    or adapter.sender(key) != port_keys[port]):
                raise ScheduleError(
                    f"rebound key {key!r} has (c={adapter.latency(key)!r}, "
                    f"w={adapter.work(key)!r}, sender "
                    f"{adapter.sender(key)!r}); its index needs (c={c!r}, "
                    f"w={w!r}, sender {port_keys[port]!r})"
                )
        _STATS.inc("binds")
        return CompiledPlatform(
            platform, adapter, keys, index, self.works, self.latency,
            self.sender_port, port_keys, self.route_start, self.route_links,
            self.hops,
        )


def compile_stats() -> dict[str, int]:
    """Copy of the compile counters (platform compiles, rebind relabels)
    — a view over the obs registry's ``compile.*`` counters."""
    return _STATS.to_dict()


def clear_compile_cache() -> None:
    """Invalidate every per-object memo and zero the counters
    (tests/benchmarks)."""
    global _GENERATION
    _GENERATION += 1
    _STATS.reset()


def _flatten(adapter: PlatformAdapter) -> CompiledPlatform:
    """Flatten ``adapter`` (positions are its processor order)."""
    procs = tuple(adapter.processors())
    proc_index = {p: i for i, p in enumerate(procs)}
    if len(proc_index) != len(procs):
        raise CompileError("duplicate processor keys")
    n = len(procs)
    works = [adapter.work(p) for p in procs]
    latency: list[Optional[Time]] = [None] * n
    sender_port: list[Optional[int]] = [None] * n
    route_start = [0]
    route_links: list[int] = []

    master_key = adapter.master_port()
    port_keys: list[PortKey] = [master_key]
    port_index: dict[PortKey, int] = {master_key: MASTER_PORT}

    for i, proc in enumerate(procs):
        route = adapter.route(proc)
        if not route:
            raise CompileError(f"processor {proc!r} has an empty route")
        for link in route:
            recv = adapter.receiver(link)
            l = proc_index.get(recv)
            if l is None or link != recv:
                # the flat model needs link ≡ incoming edge of one processor
                raise CompileError(
                    f"link {link!r} (receiver {recv!r}) is not the incoming "
                    f"edge of a processor; cannot compile this adapter"
                )
            if latency[l] is None:
                latency[l] = adapter.latency(link)
                sender = adapter.sender(link)
                port = port_index.get(sender)
                if port is None:
                    if sender not in proc_index:
                        raise CompileError(
                            f"link {link!r} sends from {sender!r}, which is "
                            f"neither the master port nor a processor"
                        )
                    port = len(port_keys)
                    port_index[sender] = port
                    port_keys.append(sender)
                sender_port[l] = port
            route_links.append(l)
        if route_links[-1] != i:
            # every route must end at the processor's own incoming link
            raise CompileError(
                f"route of {proc!r} does not end at its own link"
            )
        route_start.append(len(route_links))
    if any(c is None for c in latency):
        missing = [procs[l] for l, c in enumerate(latency) if c is None]
        raise CompileError(f"links never traversed for processors {missing!r}")
    return CompiledPlatform(
        platform=adapter.platform,
        adapter=adapter,
        procs=procs,
        proc_index=proc_index,
        works=time_column(works),
        latency=time_column(latency),
        sender_port=time_column(sender_port),
        port_keys=tuple(port_keys),
        route_start=time_column(route_start),
        route_links=time_column(route_links),
        hops=tuple(b - a for a, b in zip(route_start, route_start[1:])),
    )


def compile_platform(platform: Any) -> CompiledPlatform:
    """Compile ``platform`` into flat arrays, once per platform object.

    The result is memoized on the object (platforms are immutable), so
    every schedule on one platform shares one compiled form.  Raises
    :class:`CompileError` when the platform's adapter cannot be flattened."""
    memo = getattr(platform, "_repro_compiled_cache", None)
    if memo is not None and memo[0] == _GENERATION:
        return memo[1]
    compiled = _flatten(adapter_for(platform))
    _STATS.inc("compiles")
    try:  # frozen dataclasses need the object.__setattr__ side door
        object.__setattr__(
            platform, "_repro_compiled_cache", (_GENERATION, compiled)
        )
    except (AttributeError, TypeError):  # slotted/exotic: skip the memo
        pass
    return compiled
