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
"""

from .commvector import CommVector, greatest
from .compiled import (
    CompileError,
    CompiledPlatform,
    clear_compile_cache,
    compile_platform,
    compile_stats,
)
from .schedule import Schedule, TaskAssignment, adapter_for
from .feasibility import assert_feasible, check, is_feasible
from .chain import (
    ChainRunStats,
    chain_makespan,
    max_tasks_within,
    schedule_chain,
    schedule_chain_deadline,
)
from .types import (
    EPS,
    EventBudgetExceeded,
    InfeasibleScheduleError,
    PlatformError,
    ReproError,
    ScheduleError,
    SimulationError,
    Time,
)

__all__ = [
    "CommVector",
    "greatest",
    "CompileError",
    "CompiledPlatform",
    "clear_compile_cache",
    "compile_platform",
    "compile_stats",
    "Schedule",
    "TaskAssignment",
    "adapter_for",
    "assert_feasible",
    "check",
    "is_feasible",
    "ChainRunStats",
    "chain_makespan",
    "max_tasks_within",
    "schedule_chain",
    "schedule_chain_deadline",
    "EPS",
    "InfeasibleScheduleError",
    "PlatformError",
    "ReproError",
    "ScheduleError",
    "EventBudgetExceeded",
    "SimulationError",
    "Time",
]
