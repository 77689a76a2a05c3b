"""repro — Master-slave tasking on heterogeneous processors (Dutot, IPPS 2003).

A complete, executable reproduction of the paper: optimal makespan scheduling
of identical independent tasks on heterogeneous *chains* of processors
(backward greedy, ``O(np²)``, Theorem 1) and on *spider graphs* (chains
merged through the fork algorithm of Beaumont et al., ``O(n²p²)``,
Theorems 2–3), together with the substrates needed to evaluate them:
exhaustive optimal baselines, forward heuristics, divisible-load bounds,
bandwidth-centric steady-state analysis, a discrete-event simulator, and
Gantt/SVG visualisation.

Quickstart::

    from repro import Chain, schedule_chain
    chain = Chain(c=(2, 3), w=(3, 5))        # the paper's Fig. 2 platform
    sched = schedule_chain(chain, n=5)
    print(sched.makespan)                     # 14, as in the paper
    from repro.viz import render_gantt
    print(render_gantt(sched))

The names below load their subpackage on first use (:mod:`repro._lazy`).
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

__all__ = lazy_exports(__name__, {
    "core": (
        "CommVector",
        "Schedule",
        "TaskAssignment",
        "assert_feasible",
        "chain_makespan",
        "is_feasible",
        "max_tasks_within",
        "schedule_chain",
        "schedule_chain_deadline",
    ),
    "platforms": ("Chain", "ProcessorSpec", "Spider", "Star", "Tree"),
    "solve": (
        "Problem",
        "Solution",
        "registered_solvers",
        "solve",
        "solver_for",
    ),
}) + ["__version__"]
