#!/usr/bin/env python3
"""One entry point for every platform: the ``repro.solve`` registry.

The same two lines answer scheduling questions on a chain, a star, a
spider, and a general tree — the registry resolves the platform type to
the claiming solver (the optimal paper algorithms for chains/stars/spiders;
for trees, the chain construction run on the tree or the single spider
cover, whichever does better), and each solver reports its own operation
counters and extras.

The example also registers a toy solver for a custom platform type, to show
that opening a new workload to the CLI/batch/benchmark stack is one
``register()`` call.

Run:  python examples/solver_registry.py
"""

from repro.analysis.metrics import format_table
from repro.core.feasibility import assert_feasible
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.solve import (
    Problem,
    Solution,
    Solver,
    register,
    registered_solvers,
    solve,
    unregister,
)

print("registered solvers:")
for s in registered_solvers():
    label = "optimal" if s.exact else "heuristic"
    print(f"  {s.name:<8}{f'[{label}]':<13}{s.summary}")

platforms = {
    "chain": random_chain(4, seed=7),
    "star": random_star(5, seed=7),
    "spider": random_spider(3, 3, seed=7),
    "tree": random_tree(9, profile="cpu_heavy", seed=310),
}

rows = []
for label, platform in platforms.items():
    sol = solve(Problem(platform, "makespan", n=12))
    assert_feasible(sol.schedule)
    extra = (f"answered by the {sol.extra['rounds'][0]['method']}"
             if label == "tree" else "")
    rows.append((label, sol.solver, sol.makespan, sol.n_tasks, extra))
print("\nthe same call on four platform types (makespan of 12 tasks):")
print(format_table(["platform", "solver", "makespan", "tasks", "notes"], rows))

# deadline mode: the most tasks done by each deadline
spider = platforms["spider"]
sweep_rows = []
for t_lim in (40, 30, 20, 10):
    sol = solve(Problem(spider, "deadline", t_lim=t_lim))
    sweep_rows.append((t_lim, sol.n_tasks, sol.stats["fork_nodes"]))
print("\ndeadline sweep on the spider:")
print(format_table(["t_lim", "tasks", "fork nodes"], sweep_rows))


# -- registering a custom platform ------------------------------------------
class Singleton:
    """A toy platform: one worker, one link."""

    def __init__(self, c, w):
        self.c, self.w = c, w


class SingletonSolver(Solver):
    name = "singleton"
    platform_type = Singleton
    kinds = ("makespan",)
    summary = "toy example: a single (c, w) worker"

    def solve(self, problem):
        from repro.core.commvector import CommVector
        from repro.core.schedule import Schedule, TaskAssignment
        from repro.platforms.star import Star

        star = Star([(problem.platform.c, problem.platform.w)])
        sched = Schedule(star)
        t = 0
        for i in range(1, problem.n + 1):
            start = max(i * problem.platform.c, t + problem.platform.w) if i > 1 else problem.platform.c
            sched.add(TaskAssignment(i, 1, start, CommVector([(i - 1) * problem.platform.c])))
            t = start
        return Solution(problem, sched, self.name)


register(SingletonSolver())
try:
    sol = solve(Problem(Singleton(2, 3), "makespan", n=4))
    assert_feasible(sol.schedule)
    print(f"\ncustom platform through the same solve(): makespan {sol.makespan} "
          f"for 4 tasks via solver {sol.solver!r}")
finally:
    unregister(Singleton)
