#!/usr/bin/env python3
"""General trees by spider covering — running the paper's future work (§8).

  "The long term objective ... is to provide good heuristics for scheduling
   on complicated graphs of heterogeneous processors, by covering those
   graphs with simpler structures."

This example generates a random tree, covers it with a spider (keeping, under
each child of the master, the root-to-leaf path with the best steady-state
throughput), schedules optimally on the cover, and measures how much of the
full tree's capacity the cover captured.  It then runs the tree solver:
Theorem 1's backward construction run on the whole tree (every worker
stays in play), answered with whichever of it and the cover places more
tasks at the same deadline.  It also prints the DOT rendering of both
graphs so you can look at what the cover kept.

Run:  python examples/tree_covering.py
"""

from repro.analysis.metrics import format_table
from repro.analysis.steady_state import tree_steady_state
from repro.core.feasibility import assert_feasible
from repro.platforms.generators import random_tree
from repro.solve import Problem, solve
from repro.trees.heuristic import best_path_cover, cover_efficiency, tree_schedule_by_cover
from repro.viz.dot import platform_to_dot

N_TASKS = 30

tree = random_tree(9, max_children=3, profile="cpu_heavy", seed=2003)
print(f"random tree with {tree.p} workers; spider already? {tree.is_spider()}")
print(f"bandwidth-centric capacity of the FULL tree: "
      f"{tree_steady_state(tree).throughput} tasks/unit\n")

cover = best_path_cover(tree)
print(f"spider cover keeps {len(cover.covered)}/{tree.p} workers "
      f"({sorted(cover.covered)}); dropped {sorted(cover.uncovered)}")
print(format_table(
    ["leg", "tree nodes (top-down)"],
    [(i + 1, " -> ".join(map(str, leg))) for i, leg in enumerate(cover.legs)],
))

schedule = tree_schedule_by_cover(tree, N_TASKS, cover)
assert_feasible(schedule)
eff = cover_efficiency(tree, N_TASKS, schedule.makespan)
print(f"\noptimal schedule on the cover: makespan {schedule.makespan} "
      f"for {N_TASKS} tasks")
print(f"cover efficiency vs the full tree's steady-state bound: {eff:.1%}")
print("(<100% is the price of covering; the dropped workers are idle)")

# -- the tree solver: the construction on the whole tree, or the cover ----
T_LIM = 2 * schedule.makespan
from repro.core.spider import spider_schedule_deadline  # noqa: E402
single_tasks = spider_schedule_deadline(cover.spider, T_LIM).n_tasks
sol = solve(Problem(tree, "deadline", t_lim=T_LIM))
assert_feasible(sol.schedule)
sol.validate()
print(f"\n--- the tree solver at deadline Tlim={T_LIM} ---")
print(format_table(
    ["worker", "tasks"], sorted(sol.schedule.task_counts().items()),
))
print(f"single cover: {single_tasks} tasks; tree solver: {sol.n_tasks} tasks "
      f"(+{sol.n_tasks - single_tasks}), answered by the "
      f"{sol.extra['rounds'][0]['method']}")
print(f"worker coverage {sol.extra['coverage']:.0%}; efficiency vs the "
      f"steady-state bound (an upper bound) {sol.extra['efficiency']:.1%}")

print("\n--- tree (DOT) ---")
print(platform_to_dot(tree, "full_tree"))
print("\n--- cover (DOT) ---")
print(platform_to_dot(cover.spider, "spider_cover"))
