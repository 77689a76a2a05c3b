"""Golden-style tests for the HTML dashboard and the figure pipeline.

The contract under test is **byte-stability**: same inputs, same bytes —
no timestamps, no unsorted iteration, no randomness.  Both pipelines
render from the repo's committed ``benchmarks/BENCH_*.json`` baselines.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.obs.report import build_dashboard, load_baselines

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"

#: a small but fully-populated metrics snapshot fixture (the JSON shape
#: of ``repro.obs.metrics.MetricsRegistry.snapshot()``).
FIXTURE_SNAPSHOT = {
    "counters": {
        "solve_kernel.seq_hits": 30, "solve_kernel.seq_misses": 6,
        "store.memory_hits": 12, "store.sqlite_hits": 3,
        "store.misses": 5, "store.writes": 5,
    },
    "gauges": {},
    "histograms": {
        "service.op_ms{op=solve}": {
            "edges": [1.0, 10.0, 100.0],
            "counts": [5, 10, 2, 1],
            "count": 18, "sum": 140.5, "min": 0.4, "max": 150.0,
        },
    },
}


class TestDashboard:
    def test_loads_all_eight_committed_families(self):
        assert sorted(load_baselines(BENCH_DIR)) == [
            "churn", "obs", "online", "replay", "service", "shard", "solve",
            "tree",
        ]

    def test_byte_stable_across_two_builds(self):
        assert build_dashboard(BENCH_DIR) == build_dashboard(BENCH_DIR)

    def test_byte_stable_with_fixture_snapshot(self):
        one = build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        two = build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        assert one == two

    def test_self_contained_and_offline(self):
        html = build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        assert html.startswith("<!DOCTYPE html>")
        # no external fetches of any kind: one file is the whole report
        # (the SVG xmlns namespace identifier is the one allowed URL)
        stripped = html.replace('xmlns="http://www.w3.org/2000/svg"', "")
        assert "http://" not in stripped and "https://" not in stripped
        assert "<link" not in stripped
        assert 'src="' not in stripped  # no <img>/<script src>

    def test_no_timestamps_or_dates(self):
        html = build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        assert not re.search(r"\b20\d\d-\d\d-\d\d", html)
        assert "timestamp" not in html.lower()

    def test_renders_expected_sections(self):
        html = build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        for needle in (
            "Perf trajectory", "Online regret", "Cache hit rates",
            "Latency histograms", "Example schedules",
            # speedups from the committed baselines show up in the chart
            "median_speedup", "service.op_ms{op=solve}",
            # snapshot-derived cache rows
            "snapshot: solve seq cache", "snapshot: solution store",
            # the embedded Gantt SVGs from viz/
            "proc ", "link ",
        ):
            assert needle in html, f"dashboard lost its {needle!r} section"

    def test_without_snapshot_prompts_for_one(self):
        html = build_dashboard(BENCH_DIR)
        assert "no metrics snapshot supplied" in html


class TestDashboardCLI:
    def test_report_html_writes_self_contained_file(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "dash.html"
        snap_path = tmp_path / "snap.json"
        snap_path.write_text(json.dumps(FIXTURE_SNAPSHOT))
        assert main(["report", "--html", str(out),
                     "--bench-dir", str(BENCH_DIR),
                     "--snapshot", str(snap_path)]) == 0
        html = out.read_text()
        assert html == build_dashboard(BENCH_DIR, FIXTURE_SNAPSHOT)
        assert "wrote" in capsys.readouterr().out

    def test_two_cli_runs_are_byte_identical(self, tmp_path):
        from repro.cli import main

        a, b = tmp_path / "a.html", tmp_path / "b.html"
        for path in (a, b):
            assert main(["report", "--html", str(path),
                         "--bench-dir", str(BENCH_DIR)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFigures:
    def test_regenerates_every_figure_from_committed_baselines(self, tmp_path):
        from benchmarks.figures import generate_figures

        written = generate_figures(BENCH_DIR, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "churn_repair.svg", "gantt_chain.svg", "gantt_spider.svg",
            "kernel_seconds.svg", "online_regret.svg", "replay_engines.svg",
            "speedups.svg", "tree_efficiency.svg",
        ]
        for path in written:
            body = path.read_text()
            assert body.startswith("<svg"), f"{path.name} is not an SVG"
            assert "<rect" in body or "(empty schedule)" not in body

    def test_figures_are_byte_stable(self, tmp_path):
        from benchmarks.figures import generate_figures

        generate_figures(BENCH_DIR, tmp_path / "one")
        generate_figures(BENCH_DIR, tmp_path / "two")
        for path in sorted((tmp_path / "one").iterdir()):
            assert path.read_bytes() == (
                tmp_path / "two" / path.name
            ).read_bytes(), f"{path.name} not deterministic"

    def test_main_module_entry(self, capsys, tmp_path):
        from benchmarks.figures.__main__ import main

        assert main(["--bench-dir", str(BENCH_DIR),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote ") == 8
