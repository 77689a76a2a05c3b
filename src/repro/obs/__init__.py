"""``repro.obs`` — unified observability: metrics, spans, and the dashboard.

Three pieces:

* :mod:`repro.obs.metrics` — the process-wide metrics registry (counters
  and fixed-bucket histograms) with snapshot / merge / diff
  semantics so executors can ship their numbers back to the parent;
* :mod:`repro.obs.tracing` — ``span(...)`` context managers with
  parent/child nesting and JSON-lines export, off by default;
* :mod:`repro.obs.report` — the self-contained HTML dashboard behind
  ``repro report --html`` (imported lazily; it pulls in the viz layer).

Every per-subsystem stat family (``compile_stats``,
``solve_kernel_stats``, store stats, spider run totals, service request
counters) now lives on this registry; the old dict-shaped accessors are
thin views over it, so nothing downstream changed shape.

See ``docs/OBSERVABILITY.md`` for the full story.
"""

from __future__ import annotations

from .metrics import (
    LATENCY_EDGES_MS,
    REGISTRY,
    Counter,
    CounterGroup,
    Histogram,
    MetricsRegistry,
    counter,
    diff_snapshots,
    histogram,
    merge_snapshot,
    reset,
    set_enabled,
    snapshot,
)
from .tracing import (
    SPAN_CAPACITY,
    add_spans,
    clear_spans,
    export_spans,
    set_tracing,
    span,
    spans,
    take_spans,
    tracing_enabled,
)

__all__ = [
    "LATENCY_EDGES_MS",
    "REGISTRY",
    "SPAN_CAPACITY",
    "Counter",
    "CounterGroup",
    "Histogram",
    "MetricsRegistry",
    "add_spans",
    "clear_spans",
    "counter",
    "diff_snapshots",
    "export_spans",
    "histogram",
    "merge_snapshot",
    "reset",
    "set_enabled",
    "set_tracing",
    "snapshot",
    "span",
    "spans",
    "take_spans",
    "tracing_enabled",
]
