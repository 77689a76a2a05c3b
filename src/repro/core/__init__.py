"""Core formalism and the paper's algorithms.

* :mod:`repro.core.commvector` — communication vectors and the ≺ order (Def. 3)
* :mod:`repro.core.schedule` — schedules over any platform (Def. 1–2)
* :mod:`repro.core.feasibility` — the four feasibility conditions
* :mod:`repro.core.chain` — the backward greedy chain algorithm (§3, Thm 1)
* :mod:`repro.core.fork` — the fork/star algorithm of Beaumont et al. (§6)
* :mod:`repro.core.spider` — the spider algorithm (§7, Thms 2–3)
* :mod:`repro.core.solve_fast` — the flat-array kernels of all three, and
  the kernel-then-oracle entries every production solve goes through
* :mod:`repro.core.compiled` — flat-array platform compilation: a
  schedule's key table and the replay kernel's numbers (compiled once per
  platform object, relabeled on a rebind)

Every name loads its submodule on first use (:mod:`repro._lazy`), so the
platform modules can import :mod:`repro.core.types` without pulling in the
schedule and compiler that import them back.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "commvector": ("CommVector", "greatest"),
    "compiled": (
        "CompileError",
        "CompiledPlatform",
        "clear_compile_cache",
        "compile_platform",
        "compile_stats",
    ),
    "schedule": ("Schedule", "TaskAssignment", "adapter_for"),
    "feasibility": ("assert_feasible", "check", "is_feasible"),
    "chain": (
        "ChainRunStats",
        "chain_makespan",
        "max_tasks_within",
        "schedule_chain",
        "schedule_chain_deadline",
    ),
    "types": (
        "EPS",
        "InfeasibleScheduleError",
        "PlatformError",
        "ReproError",
        "ScheduleError",
        "EventBudgetExceeded",
        "SimulationError",
        "Time",
    ),
})
