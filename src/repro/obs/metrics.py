"""Process-wide metrics: counters and histograms.

One :class:`MetricsRegistry` holds every metric of a process (the
module-level :data:`REGISTRY` is the default instance; components that
need isolated numbers — e.g. per-service latency — create their own).
All mutation is thread-safe behind one registry lock, and every metric is
get-or-create by name so instrumentation points never have to coordinate
declaration order.

The design constraint that shapes everything here is the **executor
handoff**: process-pool batch workers and asyncio service workers do real
work in other processes/contexts, and their numbers must land in the
parent's registry.  Hence

* :meth:`MetricsRegistry.snapshot` — a plain-dict, picklable, JSON-able
  copy of every metric;
* :func:`diff_snapshots` — the *delta* between two snapshots of the same
  registry (what a worker ships back, so repeated handoffs never double
  count);
* :meth:`MetricsRegistry.merge` — fold a snapshot (usually a delta) into
  a registry: counters add, histograms add bucket-wise.

The worker exports its delta; the parent merges it.

Histograms use **fixed bucket edges** (defaulting to
:data:`LATENCY_EDGES_MS`, a geometric ladder suited to request latencies
in milliseconds) so bucket counts from different processes are directly
addable; percentiles are bucketed estimates (upper edge of the bucket the
rank falls in), which is what makes them mergeable at all.

``set_enabled(False)`` turns every mutation into a no-op — the switch the
overhead benchmark (``python -m benchmarks.check_regressions --family
obs``) uses to price the instrumentation itself.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Optional

__all__ = [
    "Counter",
    "CounterGroup",
    "Histogram",
    "LATENCY_EDGES_MS",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "diff_snapshots",
    "histogram",
    "merge_snapshot",
    "reset",
    "set_enabled",
    "snapshot",
]

#: default histogram edges — request/solve latencies in milliseconds.
LATENCY_EDGES_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: global kill switch — ``False`` makes every inc/observe a no-op.
_ENABLED = True


def set_enabled(enabled: bool) -> bool:
    """Toggle all metric mutation process-wide; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def _metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """``name{k=v,...}`` with labels sorted — one string key per series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically growing integer (decrements are a caller bug)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value += n

    def set(self, value: int) -> None:
        """Force the running value (merge/restore paths only)."""
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-edge bucketed distribution; ``counts`` has one overflow slot.

    ``counts[i]`` counts observations ``<= edges[i]``; ``counts[-1]`` the
    overflow above the last edge.  Fixed edges are what make histograms
    from different processes addable (:meth:`add_snapshot`)."""

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max", "_lock")

    def __init__(
        self, name: str, edges: Iterable[float], lock: threading.RLock
    ) -> None:
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        if not self.edges or list(self.edges) != sorted(self.edges):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty edges")
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            # linear scan beats bisect for the short edge ladders used here
            slot = len(self.edges)
            for i, edge in enumerate(self.edges):
                if value <= edge:
                    slot = i
                    break
            self.counts[slot] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, q: float) -> Optional[float]:
        """Bucketed estimate of the ``q``-quantile (0 < q <= 1): the upper
        edge of the bucket the rank lands in (``max`` for the overflow
        bucket).  ``None`` on an empty histogram."""
        with self._lock:
            if self.count == 0:
                return None
            rank = q * self.count
            seen = 0
            for i, c in enumerate(self.counts[:-1]):
                seen += c
                if seen >= rank:
                    return self.edges[i]
            return self.max

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
            }

    def add_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshotted histogram with identical edges into this one."""
        if tuple(snap["edges"]) != self.edges:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge edges "
                f"{snap['edges']!r} into {list(self.edges)!r}"
            )
        with self._lock:
            for i, c in enumerate(snap["counts"]):
                self.counts[i] += c
            self.count += snap["count"]
            self.total += snap["sum"]
            for bound, pick in (("min", min), ("max", max)):
                other = snap.get(bound)
                if other is None:
                    continue
                ours = getattr(self, bound)
                setattr(self, bound, other if ours is None else pick(ours, other))


class MetricsRegistry:
    """Name → metric, with snapshot/merge semantics (module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _metric_key(name, labels)
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(key, self._lock)
            return c

    def histogram(
        self,
        name: str,
        edges: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = _metric_key(name, labels)
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(
                    key, edges if edges is not None else LATENCY_EDGES_MS,
                    self._lock,
                )
            return h

    def counter_group(self, prefix: str, keys: Iterable[str]) -> "CounterGroup":
        return CounterGroup(self, prefix, keys)

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        """Live histograms whose key starts with ``prefix`` (sorted)."""
        with self._lock:
            return {
                k: h for k, h in sorted(self._histograms.items())
                if k.startswith(prefix)
            }

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of every metric — picklable and JSON-able."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "histograms": {
                    k: h.to_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot (usually a :func:`diff_snapshots` delta) in:
        counters add, histograms add bucket-wise.  Other keys (an older
        snapshot's ``gauges``) are ignored."""
        with self._lock:
            for key, value in snap.get("counters", {}).items():
                if value:
                    counter = self.counter(key)
                    counter.value += value
            for key, hsnap in snap.get("histograms", {}).items():
                h = self._histograms.get(key)
                if h is None:
                    h = self._histograms[key] = Histogram(
                        key, hsnap["edges"], self._lock
                    )
                h.add_snapshot(hsnap)

    def reset(self, prefix: str = "") -> None:
        """Zero (and forget) every metric whose key starts with ``prefix``
        (the empty prefix resets the whole registry)."""
        with self._lock:
            for table in (self._counters, self._histograms):
                for key in [k for k in table if k.startswith(prefix)]:
                    del table[key]


class CounterGroup:
    """A named family of counters presented as one plain dict — the
    back-compat face the migrated ``*_stats()`` views are built on.

    ``group.inc("core_hits")`` bumps counter ``<prefix>.core_hits`` in the
    owning registry; ``group.to_dict()`` returns ``{"core_hits": n, ...}``
    in declaration order — exactly the shape the hand-rolled ``_STATS``
    dicts used to have, so existing consumers (service ``stats`` op,
    benchmark counter compares) see no difference."""

    __slots__ = ("_registry", "prefix", "_keys")

    def __init__(
        self, registry: MetricsRegistry, prefix: str, keys: Iterable[str]
    ) -> None:
        self._registry = registry
        self.prefix = prefix
        self._keys = tuple(keys)
        for key in self._keys:  # materialise so snapshots always carry them
            registry.counter(f"{prefix}.{key}")

    def inc(self, key: str, n: int = 1) -> None:
        self._registry.counter(f"{self.prefix}.{key}").inc(n)

    def get(self, key: str) -> int:
        return self._registry.counter(f"{self.prefix}.{key}").value

    def to_dict(self) -> dict[str, int]:
        return {key: self.get(key) for key in self._keys}

    def reset(self) -> None:
        for key in self._keys:
            self._registry.counter(f"{self.prefix}.{key}").set(0)


def diff_snapshots(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any]:
    """The delta ``after - before`` of two snapshots of one registry —
    what a pool worker ships back after each work unit so the parent can
    :meth:`~MetricsRegistry.merge` repeatedly without double counting."""
    counters = {
        k: v - before.get("counters", {}).get(k, 0)
        for k, v in after.get("counters", {}).items()
    }
    histograms: dict[str, Any] = {}
    for key, h in after.get("histograms", {}).items():
        b = before.get("histograms", {}).get(key)
        if b is None or tuple(b["edges"]) != tuple(h["edges"]):
            histograms[key] = dict(h)
            continue
        delta_count = h["count"] - b["count"]
        if delta_count <= 0:
            continue
        histograms[key] = {
            "edges": list(h["edges"]),
            "counts": [c - bc for c, bc in zip(h["counts"], b["counts"])],
            "count": delta_count,
            "sum": h["sum"] - b["sum"],
            # exact per-delta extrema are unrecoverable from two snapshots;
            # the window's extrema bound them, which merge semantics allow
            "min": h["min"],
            "max": h["max"],
        }
    return {
        "counters": {k: v for k, v in counters.items() if v},
        "histograms": histograms,
    }


#: the process-wide default registry.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: Any) -> Counter:
    return REGISTRY.counter(name, **labels)


def histogram(name: str, edges: Optional[Iterable[float]] = None, **labels: Any) -> Histogram:
    return REGISTRY.histogram(name, edges, **labels)


def snapshot() -> dict[str, Any]:
    return REGISTRY.snapshot()


def merge_snapshot(snap: Mapping[str, Any]) -> None:
    REGISTRY.merge(snap)


def reset(prefix: str = "") -> None:
    REGISTRY.reset(prefix)
