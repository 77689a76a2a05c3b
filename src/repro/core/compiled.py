"""Flat-array platform compilation for the fast replay kernel.

The discrete-event executor (:mod:`repro.sim.executor`) re-derives every
route, latency and port through :class:`~repro.core.schedule.PlatformAdapter`
method calls — fine for one replay, ruinous when replay validation runs on
every cache write, every rebind and every ``--validate`` row.  This module
compiles an adapter **once** into contiguous arrays that the linear-scan
validator (:mod:`repro.sim.replay_fast`) indexes directly:

* a processor index map (``proc_index``) and per-processor ``works``;
* one *link* per processor — in every supported platform a link is the
  incoming edge of exactly one processor, so link index ≡ processor index
  (the compiler verifies this and refuses adapters that break it);
* a CSR-style route table (``route_start`` / ``route_links``) holding each
  master→processor route as link indices in traversal order;
* per-link ``latency`` and ``sender_port`` (index into ``port_keys``,
  where index :data:`MASTER_PORT` is always the master's send port).

The numeric tables are read-only numpy arrays (times as
:func:`~repro.core.schedule.time_column` stores them), which the replay
kernel indexes with whole-schedule gathers.

Compiled cores are **cached by the canonical platform fingerprint** from
:mod:`repro.service.canon`: two isomorphic platforms (a spider with its
legs permuted, a relabeled tree) share all numeric arrays and differ only
in the key tables (``procs`` / ``link_keys`` / ``port_keys``), which are
re-expressed through the canonical form's relabel maps.  A zipf request
stream over relabeled platforms therefore compiles each isomorphism class
exactly once; platforms the canonicaliser does not know are compiled
directly, uncached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

import numpy as np

from ..obs import metrics as _obs
from .schedule import (
    LinkKey, PlatformAdapter, PortKey, ProcKey, adapter_for, time_column,
)
from .types import ReproError, Time

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


class CompileError(ReproError):
    """The adapter does not fit the flat link-per-processor model (or the
    platform cannot be compiled at all).  Every supported platform fits,
    so replay validation fails closed on it: ``Solution.validate`` raises
    a ``ValidationError`` naming it."""


@dataclass(frozen=True)
class CompiledPlatform:
    """One platform flattened into parallel arrays (see module docstring).

    All array positions are *canonical-core* indices: isomorphic platforms
    share every numeric field and differ only in ``procs`` / ``link_keys``
    / ``port_keys``, which carry this platform's own keys.
    """

    platform: Any
    #: canonical fingerprint the numeric core is cached under (``None``
    #: when the platform has no canonical form and was compiled directly).
    fingerprint: Optional[str]
    #: processor keys of *this* platform, in core order.
    procs: tuple[ProcKey, ...]
    proc_index: dict[ProcKey, int]
    works: np.ndarray
    #: per-link latency; link ``l`` is the incoming edge of processor ``l``.
    latency: np.ndarray
    #: link keys of *this* platform (``link_keys[l]`` names link ``l``).
    link_keys: tuple[LinkKey, ...]
    #: per-link sending-port index into ``port_keys``.
    sender_port: np.ndarray
    #: send-port keys of *this* platform; index 0 is the master's port.
    port_keys: tuple[PortKey, ...]
    #: CSR route table: route of processor ``i`` is
    #: ``route_links[route_start[i]:route_start[i + 1]]``.
    route_start: np.ndarray
    route_links: np.ndarray


@dataclass(frozen=True)
class _Core:
    """The isomorphism-invariant part of a compilation, in canonical keys."""

    fingerprint: str
    procs: tuple[ProcKey, ...]       # canonical processor keys
    works: np.ndarray
    latency: np.ndarray
    sender_port: np.ndarray
    port_keys: tuple[PortKey, ...]   # canonical; [0] is the master's port
    #: per non-master port: the canonical *processor* key it belongs to
    #: (senders along a route are always processors).
    port_proc: tuple[Optional[ProcKey], ...]
    route_start: np.ndarray
    route_links: np.ndarray


_LOCK = threading.Lock()
#: fingerprint -> core, LRU-bounded: a long-lived service seeing an
#: unbounded stream of distinct isomorphism classes must not grow without
#: bound (one core is small, but "small × forever" is a leak).
_CORE_CACHE: OrderedDict[str, _Core] = OrderedDict()
CORE_CACHE_CAPACITY = 4096
#: bumped by :func:`clear_compile_cache`; per-object memos stamped with an
#: older generation are ignored, so a clear really does force a recompile
#: even for platform objects that outlive it.
_GENERATION = 0
#: counters live on the process-wide obs registry (``compile.*``);
#: :func:`compile_stats` is the dict-shaped back-compat view over them.
_STATS = _obs.REGISTRY.counter_group(
    "compile", ("core_hits", "core_misses", "direct")
)


def compile_stats() -> dict[str, int]:
    """Copy of the compile-cache counters (hits/misses per isomorphism
    class, plus uncacheable direct compiles) — a view over the obs
    registry's ``compile.*`` counters."""
    return _STATS.to_dict()


def clear_compile_cache() -> None:
    """Drop every cached core, invalidate per-object memos and zero the
    counters (tests/benchmarks)."""
    global _GENERATION
    with _LOCK:
        _CORE_CACHE.clear()
        _GENERATION += 1
    _STATS.reset()


def export_cores() -> list["_Core"]:
    """Snapshot the cached cores, LRU order — plain tuples, picklable.

    The batch runner ships this across the fork boundary so process-pool
    workers start with the parent's fingerprint LRU instead of recompiling
    every platform core from scratch."""
    with _LOCK:
        return list(_CORE_CACHE.values())


def seed_cores(cores: list["_Core"]) -> int:
    """Install exported cores into this process's cache; returns how many
    were new.  Existing entries just refresh their LRU position."""
    added = 0
    with _LOCK:
        for core in cores:
            if core.fingerprint not in _CORE_CACHE:
                added += 1
            _CORE_CACHE[core.fingerprint] = core
            _CORE_CACHE.move_to_end(core.fingerprint)
        while len(_CORE_CACHE) > CORE_CACHE_CAPACITY:
            _CORE_CACHE.popitem(last=False)
    return added


def _build_core(adapter: PlatformAdapter, fingerprint: str) -> _Core:
    """Flatten ``adapter`` (positions are *its* processor order)."""
    procs = adapter.processors()
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
    port_proc: list[Optional[ProcKey]] = [None]
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
            c = adapter.latency(link)
            if latency[l] is None:
                latency[l] = c
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
                    port_proc.append(sender)
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
    return _Core(
        fingerprint=fingerprint,
        procs=tuple(procs),
        works=time_column(works),
        latency=time_column(latency),
        sender_port=time_column(sender_port),
        port_keys=tuple(port_keys),
        port_proc=tuple(port_proc),
        route_start=time_column(route_start),
        route_links=time_column(route_links),
    )


def _bind(core: _Core, platform: Any, from_canonical) -> CompiledPlatform:
    """Re-express ``core`` (canonical keys) in ``platform``'s own keys.

    The binding is **verified against the platform's own adapter** (every
    mapped processor must carry the core's work and incoming-link latency)
    — a canonicaliser defect that mapped keys wrongly would otherwise make
    the fast validator check schedules against the wrong numbers.  Runs
    once per platform object (the result is memoized)."""
    procs = tuple(from_canonical[p] for p in core.procs)
    adapter = adapter_for(platform)
    for proc, c, w in zip(procs, core.latency.tolist(), core.works.tolist()):
        if adapter.work(proc) != w or adapter.latency(proc) != c:
            raise CompileError(
                f"canonical binding mismatch on {proc!r}: platform has "
                f"(c={adapter.latency(proc)!r}, w={adapter.work(proc)!r}), "
                f"core has (c={c!r}, w={w!r})"
            )
    # link l is the incoming edge of processor l, so its key relabels with it
    link_keys = procs
    port_keys = tuple(
        core.port_keys[0] if owner is None else from_canonical[owner]
        for owner in core.port_proc
    )
    return CompiledPlatform(
        platform=platform,
        fingerprint=core.fingerprint,
        procs=procs,
        proc_index={p: i for i, p in enumerate(procs)},
        works=core.works,
        latency=core.latency,
        link_keys=link_keys,
        sender_port=core.sender_port,
        port_keys=port_keys,
        route_start=core.route_start,
        route_links=core.route_links,
    )


def _identity_bind(core: _Core, platform: Any, fingerprint: Optional[str]) -> CompiledPlatform:
    return CompiledPlatform(
        platform=platform,
        fingerprint=fingerprint,
        procs=core.procs,
        proc_index={p: i for i, p in enumerate(core.procs)},
        works=core.works,
        latency=core.latency,
        link_keys=core.procs,
        sender_port=core.sender_port,
        port_keys=core.port_keys,
        route_start=core.route_start,
        route_links=core.route_links,
    )


def compile_platform(
    platform: Any, adapter: Optional[PlatformAdapter] = None
) -> CompiledPlatform:
    """Compile ``platform`` into flat arrays, sharing one numeric core per
    isomorphism class (canonical-fingerprint cache).

    Platforms without a canonical form compile directly and are not
    cached.  Raises :class:`CompileError` when the adapter cannot be
    flattened at all.

    The bound result is additionally memoized on the platform *object*
    (platforms are immutable), so validating many schedules against one
    platform — the store's write-time check, a batch sweep — compiles and
    binds exactly once per platform instance."""
    from ..service.canon import CanonError, canonical_form  # service is lazy: no cycle

    memo = getattr(platform, "_repro_compiled_cache", None)
    if memo is not None and memo[0] == _GENERATION:
        return memo[1]

    try:
        canon = canonical_form(platform)
    except (CanonError, RecursionError):
        _STATS.inc("direct")
        core = _build_core(adapter or adapter_for(platform), fingerprint="")
        bound = _identity_bind(core, platform, fingerprint=None)
    else:
        with _LOCK:
            core = _CORE_CACHE.get(canon.fingerprint)
            if core is not None:
                _CORE_CACHE.move_to_end(canon.fingerprint)
                _STATS.inc("core_hits")
        if core is None:
            # compile the *canonical representative*, so every isomorph
            # binds against identical arrays (keys via from_canonical)
            core = _build_core(adapter_for(canon.platform), canon.fingerprint)
            with _LOCK:
                _STATS.inc("core_misses")
                _CORE_CACHE[canon.fingerprint] = core
                _CORE_CACHE.move_to_end(canon.fingerprint)
                while len(_CORE_CACHE) > CORE_CACHE_CAPACITY:
                    _CORE_CACHE.popitem(last=False)
        bound = _bind(core, platform, canon.from_canonical)
    try:  # frozen dataclasses need the object.__setattr__ side door
        object.__setattr__(
            platform, "_repro_compiled_cache", (_GENERATION, bound)
        )
    except (AttributeError, TypeError):  # slotted/exotic: skip the memo
        pass
    return bound
