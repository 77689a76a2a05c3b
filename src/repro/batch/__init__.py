"""Batch scenario engine — fan many solves across workers.

The core algorithms answer one question at a time; serving real traffic
means answering thousands — deadline sweeps, capacity ladders, per-tenant
platforms.  This subsystem runs a list of :class:`Scenario` descriptions
through :class:`BatchRunner`, which

* groups scenarios by platform so each worker parses a platform once and
  reuses warm state (monotone per-leg caps) across a sorted deadline sweep,
* dispatches every scenario through the solver registry — offline kinds to
  the platform's solver, ``kind:"online"`` to the registered online solver
  (policies, release times, failures and churn ride in ``Scenario.options``),
* optionally replay-validates every answer through the discrete-event
  simulator (``validate=True`` / ``repro batch --validate``),
* fans the groups over ``concurrent.futures`` workers (or runs them inline
  for ``workers <= 1``), and
* returns structured :class:`ScenarioResult` rows that serialise to JSON —
  the same rows the benchmark harness runs for ``BENCH_solve.json``'s
  deadline sweep and ``BENCH_online.json``'s policy suite.
"""

from .scenarios import (
    Scenario,
    ScenarioResult,
    load_scenarios,
    save_results,
    scenarios_from_dict,
)
from .runner import BatchRunner, run_batch

__all__ = [
    "BatchRunner",
    "Scenario",
    "ScenarioResult",
    "load_scenarios",
    "run_batch",
    "save_results",
    "scenarios_from_dict",
]
