"""Deterministic figure pipeline: committed baselines → SVG figures.

``python -m benchmarks.figures`` regenerates every figure from the
committed ``BENCH_*.json`` families (plus two deterministic example
solves) into ``--out`` — no timing runs, no randomness, no network, so
the output is byte-stable and CI regenerates it on every push.  Chart
primitives live in :mod:`repro.viz.charts`; the Gantt renderer is the
existing :mod:`repro.viz.svg`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.obs.report import load_baselines
from repro.viz.charts import bar_chart

__all__ = ["generate_figures"]


def _fig_speedups(baselines) -> str:
    from repro.obs.report import _speedup_rows

    return bar_chart("speedups over object/legacy baselines (×)",
                     _speedup_rows(baselines))


def _fig_kernel_seconds(baselines) -> str:
    from repro.obs.report import _kernel_seconds

    return bar_chart("kernel wall-clock in committed baseline runs (s)",
                     _kernel_seconds(baselines), unit="s")


def _fig_online_regret(baselines) -> str:
    items, colors = [], []
    policies = ("round_robin_ratio", "demand_driven_ratio",
                "bandwidth_centric_ratio")
    for row in baselines.get("online", {}).get("suite", []):
        for pi, policy in enumerate(policies):
            if policy in row:
                items.append((
                    f"{row.get('platform', '?')} · "
                    f"{policy[:-len('_ratio')].replace('_', '-')}",
                    float(row[policy]),
                ))
                colors.append(pi)
    return bar_chart("online policies: makespan / offline optimum",
                     items, colors=colors)


def _fig_churn_repair(baselines) -> str:
    k = baselines.get("churn", {}).get("kernels", {}).get(
        "churn_repair_vs_resolve", {}
    )
    items = [("incremental repair (median ms)",
              float(k.get("repair_median_ms", 0))),
             ("full re-solve (median ms)",
              float(k.get("resolve_median_ms", 0)))]
    return bar_chart("churn episodes: repair vs re-solve", items, unit="ms")


def _fig_tree_efficiency(baselines) -> str:
    items, colors = [], []
    for row in baselines.get("tree", {}).get("suite", []):
        seed = row["seed"]
        items.append((f"tree seed={seed} · tree solver",
                      float(row["tree_vs_bound"])))
        colors.append(0)
        items.append((f"tree seed={seed} · single cover",
                      float(row["single_vs_bound"])))
        colors.append(1)
    return bar_chart("tree tasks over the steady-state upper bound",
                     items, colors=colors)


def _fig_replay_engines(baselines) -> str:
    k = baselines.get("replay", {}).get("kernels", {}).get(
        "replay_zipf_validation", {}
    )
    items = [("compiled linear scan (median ms)",
              float(k.get("compiled_median_ms", 0))),
             ("discrete-event executor (median ms)",
              float(k.get("event_median_ms", 0)))]
    return bar_chart("replay validation per schedule", items, unit="ms")


def _fig_gantt(platform_kind: str) -> str:
    from repro.platforms.chain import Chain
    from repro.platforms.spider import Spider
    from repro.solve import Problem, solve
    from repro.viz.svg import render_svg

    if platform_kind == "chain":
        platform, n = Chain([2, 3, 2], [3, 5, 4]), 12
    else:
        platform, n = Spider([Chain([2, 3], [3, 5]), Chain([1], [4]),
                              Chain([2, 2], [2, 6])]), 16
    solution = solve(Problem(platform, "makespan", n=n))
    return render_svg(solution.schedule,
                      title=f"{platform_kind}, n={n}, "
                      f"makespan={solution.makespan}")


def generate_figures(
    bench_dir: Union[str, Path], out_dir: Union[str, Path]
) -> list[Path]:
    """Write every figure into ``out_dir``; returns the written paths."""
    baselines = load_baselines(bench_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    figures = {
        "speedups.svg": _fig_speedups(baselines),
        "kernel_seconds.svg": _fig_kernel_seconds(baselines),
        "online_regret.svg": _fig_online_regret(baselines),
        "churn_repair.svg": _fig_churn_repair(baselines),
        "tree_efficiency.svg": _fig_tree_efficiency(baselines),
        "replay_engines.svg": _fig_replay_engines(baselines),
        "gantt_chain.svg": _fig_gantt("chain"),
        "gantt_spider.svg": _fig_gantt("spider"),
    }
    written = []
    for name in sorted(figures):
        path = out / name
        path.write_text(figures[name] + "\n", encoding="utf-8")
        written.append(path)
    return written
