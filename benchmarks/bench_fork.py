"""E8 — the fork-graph (star) subroutine of §6 (Beaumont et al. [2]).

Regenerates: (a) task-count parity with the exhaustive baseline over a
deadline sweep on random stars; (b) a throughput datum at volunteer scale,
driven through the batch engine, next to the paper-literal greedy's
allocator work on the same star.  (The greedy-vs-Moore–Hodgson cardinality
agreement is a property test in ``tests/test_fork.py``.)
"""

import random

from repro.analysis.metrics import format_table
from repro.baselines.bruteforce import max_tasks_within as bf_max_tasks
from repro.batch import BatchRunner, Scenario
from repro.core.fork import fork_max_tasks
from repro.io.json_io import platform_to_dict
from repro.platforms.generators import random_star

from benchmarks.common import report
from benchmarks.kernels import kernel_allocator_greedy


def _exhaustive_parity(seed: int, trials: int = 25) -> tuple[int, int]:
    rng = random.Random(seed)
    matches = 0
    for _ in range(trials):
        star = random_star(rng.randint(1, 3), rng=rng)
        t_lim = rng.randint(0, 15)
        ours = fork_max_tasks(star, t_lim)
        if ours >= 8:
            matches += 1
            continue
        matches += ours == bf_max_tasks(star, t_lim, cap=8).schedule.n_tasks
    return trials, matches


def test_fork_vs_exhaustive(benchmark):
    trials, matches = benchmark(_exhaustive_parity, 81)
    assert matches == trials
    report(
        "E8a  fork algorithm vs exhaustive optimum (max tasks in Tlim)",
        format_table(["instances", "exact matches"], [(trials, matches)]),
    )


def test_fork_volunteer_scale(benchmark):
    """Deadline solve on a 60-child volunteer star through the batch engine,
    plus the greedy allocator kernel tracked in BENCH_spider.json."""
    star = random_star(60, profile="volunteer", seed=83)
    scenario = Scenario(
        "volunteer", platform_to_dict(star), "deadline", t_lim=120
    )

    def solve():
        (result,) = BatchRunner(workers=1).run([scenario])
        return result

    result = benchmark(solve)
    assert result.ok and result.n_tasks > 20  # enough work actually placed

    ref = kernel_allocator_greedy()
    report(
        "E8b  work at volunteer scale (60 children)",
        format_table(
            ["path", "candidates", "structure ops", "seconds"],
            [
                ("greedy oracle, Tlim=240", ref["candidates"],
                 ref["structure_ops"], f"{ref['seconds']:.4f}"),
                ("batch solve (kernel), Tlim=120", "", "",
                 f"{result.wall_s:.4f}"),
            ],
        ),
    )
