"""The self-contained HTML dashboard behind ``repro report --html``.

One static file, inline CSS/JS, zero network access: everything is
rendered from (a) the committed ``benchmarks/BENCH_*.json`` baselines,
(b) an optional metrics snapshot (the JSON shape of
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`), and (c) two small
deterministic example solves whose Gantt charts come from the existing
:mod:`repro.viz` layer.

**Byte-stability is a contract** (the golden test holds it): baselines
are read in sorted filename order, every table iterates sorted, numbers
go through one fixed formatter, and nothing here looks at the clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Union
from xml.sax.saxutils import escape

from ..viz.charts import bar_chart, fmt_num, histogram_chart

__all__ = ["build_dashboard", "load_baselines"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 980px; color: #222; }
h1 { border-bottom: 2px solid #4c72b0; padding-bottom: .3em; }
h2 { margin-top: 1.6em; color: #2a4d7f; }
table { border-collapse: collapse; margin: .8em 0; font-size: 14px; }
th, td { border: 1px solid #ccc; padding: .3em .7em; text-align: right; }
th { background: #eef2f8; }
td:first-child, th:first-child { text-align: left; }
figure { margin: 1em 0; }
details > summary { cursor: pointer; color: #2a4d7f; font-weight: 600;
                    margin: .6em 0; }
.note { color: #666; font-size: 13px; }
"""

# collapsible sections work via <details>; this only adds expand/collapse-all
_JS = """
function toggleAll(open) {
  document.querySelectorAll('details').forEach(d => d.open = open);
}
"""


def load_baselines(bench_dir: Union[str, Path]) -> dict[str, dict[str, Any]]:
    """``{family: parsed BENCH_<family>.json}`` in sorted family order."""
    out: dict[str, dict[str, Any]] = {}
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        family = path.stem[len("BENCH_"):]
        with open(path, encoding="utf-8") as fh:
            out[family] = json.load(fh)
    return out


def _table(headers: list[str], rows: list[list[str]]) -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _speedup_rows(
    baselines: Mapping[str, Mapping[str, Any]]
) -> list[tuple[str, float]]:
    """Every ``*speedup*`` scalar across all families — the perf
    trajectory the PR sequence has been building."""
    rows: list[tuple[str, float]] = []
    for family in sorted(baselines):
        kernels = baselines[family].get("kernels", {})
        for kernel in sorted(kernels):
            for key in sorted(kernels[kernel]):
                if "speedup" in key and isinstance(
                    kernels[kernel][key], (int, float)
                ):
                    rows.append((f"{family}: {kernel}.{key}",
                                 float(kernels[kernel][key])))
        for key in sorted(baselines[family].get("speedup", {})):
            value = baselines[family]["speedup"][key]
            if isinstance(value, (int, float)):
                rows.append((f"{family}: {key}", float(value)))
    return rows


def _kernel_seconds(
    baselines: Mapping[str, Mapping[str, Any]]
) -> list[tuple[str, float]]:
    rows: list[tuple[str, float]] = []
    for family in sorted(baselines):
        for kernel, values in sorted(
            baselines[family].get("kernels", {}).items()
        ):
            if isinstance(values.get("seconds"), (int, float)):
                rows.append((f"{family}: {kernel}", float(values["seconds"])))
    return rows


def _regret_section(baselines: Mapping[str, Mapping[str, Any]]) -> str:
    suite = baselines.get("online", {}).get("suite", [])
    if not suite:
        return "<p class=note>no online baseline committed</p>"
    headers = ["platform", "n", "offline", "round-robin", "demand-driven",
               "bandwidth-centric", "best ratio"]
    rows = []
    for row in suite:
        ratios = [row.get("round_robin_ratio"), row.get("demand_driven_ratio"),
                  row.get("bandwidth_centric_ratio")]
        best = min(r for r in ratios if r is not None)
        rows.append([
            row.get("platform", "?"), fmt_num(row.get("n", 0)),
            fmt_num(row.get("offline_makespan", 0)),
            fmt_num(row.get("round_robin_ratio", 0)),
            fmt_num(row.get("demand_driven_ratio", 0)),
            fmt_num(row.get("bandwidth_centric_ratio", 0)),
            fmt_num(best),
        ])
    churn = baselines.get("churn", {}).get("kernels", {}).get(
        "churn_repair_vs_resolve", {}
    )
    extra = ""
    if churn:
        extra = (
            "<p>churn repair regret: median "
            f"<b>{fmt_num(churn.get('median_regret', 0))}%</b>, max "
            f"<b>{fmt_num(churn.get('max_regret', 0))}%</b> over "
            f"{fmt_num(churn.get('episodes', 0))} episodes.</p>"
        )
    return _table(headers, rows) + extra


def _cache_section(
    baselines: Mapping[str, Mapping[str, Any]],
    snapshot: Optional[Mapping[str, Any]],
) -> str:
    rows: list[list[str]] = []
    service = baselines.get("service", {}).get("kernels", {}).get(
        "service_zipf_workload", {}
    )
    if service:
        cold = service.get("cold_hits", 0) + service.get("cold_misses", 0)
        rows.append(["service store (cold)",
                     fmt_num(service.get("cold_hits", 0)), fmt_num(cold),
                     fmt_num(service.get("cold_hit_rate", 0))])
        warm = service.get("warm_hits", 0)
        rows.append(["service store (warm)", fmt_num(warm), fmt_num(warm),
                     "1"])
    solve = baselines.get("solve", {}).get("kernels", {}).get(
        "solve_batch_engines", {}
    )
    if solve:
        solves = solve.get("kernel_solves", 0)
        misses = solve.get("seq_misses", 0)
        rows.append(["solve kernels (seq cache)",
                     fmt_num(max(solves - misses, 0)), fmt_num(solves),
                     fmt_num(round((solves - misses) / solves, 4)
                             if solves else 0)])
    if snapshot:
        counters = snapshot.get("counters", {})

        def pair(label: str, hit_key: str, miss_key: str) -> None:
            hits = counters.get(hit_key, 0)
            total = hits + counters.get(miss_key, 0)
            if total:
                rows.append([f"snapshot: {label}", fmt_num(hits),
                             fmt_num(total), fmt_num(round(hits / total, 4))])

        pair("solve seq cache", "solve_kernel.seq_hits",
             "solve_kernel.seq_misses")
        pair("solve core cache", "solve_kernel.core_hits",
             "solve_kernel.core_misses")
        store_hits = (counters.get("store.memory_hits", 0)
                      + counters.get("store.sqlite_hits", 0))
        if store_hits or counters.get("store.misses", 0):
            total = store_hits + counters.get("store.misses", 0)
            rows.append(["snapshot: solution store", fmt_num(store_hits),
                         fmt_num(total),
                         fmt_num(round(store_hits / total, 4))])
    if not rows:
        return "<p class=note>no cache numbers available</p>"
    return _table(["cache", "hits", "lookups", "hit rate"], rows)


def _latency_section(snapshot: Optional[Mapping[str, Any]]) -> str:
    if not snapshot or not snapshot.get("histograms"):
        return ("<p class=note>no metrics snapshot supplied "
                "(<code>repro report --html out.html --snapshot "
                "metrics.json</code>)</p>")
    parts = []
    for key in sorted(snapshot["histograms"]):
        h = snapshot["histograms"][key]
        if not h.get("count"):
            continue
        parts.append(
            f"<figure>{histogram_chart(key, h['edges'], h['counts'])}"
            f"<figcaption class=note>count {fmt_num(h['count'])}, "
            f"sum {fmt_num(round(h['sum'], 3))}</figcaption></figure>"
        )
    return "".join(parts) or "<p class=note>snapshot has no observations</p>"


def _counter_section(snapshot: Optional[Mapping[str, Any]]) -> str:
    if not snapshot or not snapshot.get("counters"):
        return ""
    rows = [[key, fmt_num(value)]
            for key, value in sorted(snapshot["counters"].items()) if value]
    if not rows:
        return ""
    return ("<details><summary>all snapshot counters</summary>"
            + _table(["counter", "value"], rows) + "</details>")


def _gantt_section() -> str:
    """Two deterministic example solves rendered as Gantt charts —
    imported lazily so building a dashboard without them stays cheap."""
    from ..platforms.chain import Chain
    from ..platforms.spider import Spider
    from ..solve import Problem, solve
    from ..viz.svg import render_svg

    chain = Chain([2, 3, 2], [3, 5, 4])
    spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4]),
                     Chain([2, 2], [2, 6])])
    parts = []
    for platform, n, label in ((chain, 12, "chain, n=12"),
                               (spider, 16, "spider, n=16")):
        solution = solve(Problem(platform, "makespan", n=n))
        parts.append(
            f"<figure>{render_svg(solution.schedule, title=label)}"
            f"<figcaption class=note>{escape(label)}: makespan "
            f"{fmt_num(solution.makespan)}, solver "
            f"{escape(solution.solver)}</figcaption></figure>"
        )
    return "".join(parts)


def build_dashboard(
    bench_dir: Union[str, Path],
    snapshot: Optional[Mapping[str, Any]] = None,
    *,
    gantt: bool = True,
) -> str:
    """The full dashboard HTML (one self-contained page, byte-stable)."""
    baselines = load_baselines(bench_dir)
    speedups = _speedup_rows(baselines)
    seconds = _kernel_seconds(baselines)
    sections = [
        "<h1>repro dashboard</h1>",
        "<p class=note>rendered from committed BENCH_*.json baselines — "
        f"{len(baselines)} famil{'y' if len(baselines) == 1 else 'ies'}: "
        + ", ".join(sorted(baselines)) + ".</p>",
        '<p><a href="javascript:toggleAll(true)">expand all</a> · '
        '<a href="javascript:toggleAll(false)">collapse all</a></p>',
        "<h2>Perf trajectory</h2>",
        f"<figure>{bar_chart('speedups over object/legacy baselines (×)', speedups)}</figure>"
        if speedups else "<p class=note>no speedup metrics committed</p>",
        "<details><summary>kernel wall-clock (committed baseline runs)"
        "</summary>"
        + _table(["kernel", "seconds"],
                 [[k, fmt_num(round(v, 4))] for k, v in seconds])
        + "</details>",
        "<h2>Online regret</h2>",
        _regret_section(baselines),
        "<h2>Cache hit rates</h2>",
        _cache_section(baselines, snapshot),
        "<h2>Latency histograms</h2>",
        _latency_section(snapshot),
        _counter_section(snapshot),
    ]
    if gantt:
        sections += ["<h2>Example schedules</h2>", _gantt_section()]
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n<title>repro dashboard</title>\n"
        f"<style>{_CSS}</style>\n<script>{_JS}</script>\n"
        f"</head>\n<body>\n{body}\n</body>\n</html>\n"
    )
