"""Lightweight span tracing: nested timed regions with JSON-lines export.

A *span* is one timed region of work — a solve, a replay validation, a
service request — with a name, string-able attributes, and a parent: spans
opened while another span is active nest under it (propagation is
:mod:`contextvars`-based, so nesting is correct across threads *and*
``await`` points — the asyncio service's concurrent requests each carry
their own chain).

Tracing is **off by default** and the disabled path is a single module
flag check returning a shared no-op context manager — the compiled
solve+replay path must stay within the < 3 % instrumentation budget
(``python -m benchmarks.check_regressions --family obs`` enforces it).
Enable with :func:`set_tracing` or the ``REPRO_TRACE=1`` environment
variable.

Finished spans land in a bounded in-memory buffer (oldest dropped past
:data:`SPAN_CAPACITY`); :func:`export_spans` writes them as JSON lines.
Each record is a plain dict::

    {"id": 3, "parent": 2, "name": "solve", "pid": 4242,
     "start_s": 0.0012, "dur_s": 0.0034, "attrs": {"kind": "makespan"}}

``start_s`` is relative to this process's trace epoch (the first span
after import/clear), which keeps exports free of wall-clock timestamps.
Process-pool workers ship their spans back inside the batch runner's
metrics handoff (:func:`take_spans` drains, the parent
:func:`add_spans`); the ``pid`` field keeps the origin legible after the
merge.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Iterable, Optional

__all__ = [
    "SPAN_CAPACITY",
    "add_spans",
    "clear_spans",
    "export_spans",
    "set_tracing",
    "span",
    "spans",
    "take_spans",
    "tracing_enabled",
]

#: finished spans kept in memory; older ones are dropped.
SPAN_CAPACITY = 10_000

_TRACING = os.environ.get("REPRO_TRACE", "") not in ("", "0")
_LOCK = threading.Lock()
_SPANS: list[dict[str, Any]] = []
_NEXT_ID = 0
_EPOCH: Optional[float] = None

#: id of the innermost open span in this context (None at top level).
_CURRENT: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)


def set_tracing(enabled: bool) -> bool:
    """Turn span recording on/off; returns the previous setting."""
    global _TRACING
    previous = _TRACING
    _TRACING = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    return _TRACING


class _NoopSpan:
    """Shared do-nothing context manager — the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "_id", "_parent", "_token", "_t0")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        global _NEXT_ID, _EPOCH
        with _LOCK:
            _NEXT_ID += 1
            self._id = _NEXT_ID
            if _EPOCH is None:
                _EPOCH = time.perf_counter()
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self._id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter()
        _CURRENT.reset(self._token)
        record = {
            "id": self._id,
            "parent": self._parent,
            "name": self.name,
            "pid": os.getpid(),
            "start_s": round(self._t0 - (_EPOCH or self._t0), 6),
            "dur_s": round(t1 - self._t0, 6),
            "attrs": self.attrs,
        }
        with _LOCK:
            _SPANS.append(record)
            if len(_SPANS) > SPAN_CAPACITY:
                del _SPANS[: len(_SPANS) - SPAN_CAPACITY]


def span(name: str, **attrs: Any):
    """Context manager timing one region.  With tracing off this returns a
    shared no-op object — no allocation, no clock read."""
    if not _TRACING:
        return _NOOP
    return _Span(name, attrs)


def spans() -> list[dict[str, Any]]:
    """Copy of the finished-span buffer (chronological)."""
    with _LOCK:
        return list(_SPANS)


def take_spans() -> list[dict[str, Any]]:
    """Drain the buffer — the worker side of the executor handoff."""
    with _LOCK:
        out = list(_SPANS)
        _SPANS.clear()
        return out


def add_spans(records: Iterable[dict[str, Any]]) -> int:
    """Append foreign span records (a worker's drain) to this process's
    buffer; returns how many were added."""
    added = list(records)
    with _LOCK:
        _SPANS.extend(added)
        if len(_SPANS) > SPAN_CAPACITY:
            del _SPANS[: len(_SPANS) - SPAN_CAPACITY]
    return len(added)


def clear_spans() -> None:
    global _EPOCH
    with _LOCK:
        _SPANS.clear()
        _EPOCH = None


def export_spans(path) -> int:
    """Write every buffered span as one JSON line each; returns the count."""
    records = spans()
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)
