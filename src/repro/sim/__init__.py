"""Discrete-event simulation of master-slave platforms.

* :mod:`repro.sim.engine` — the event calendar;
* :mod:`repro.sim.executor` — replay a static schedule with runtime checks
  (the event-driven oracle, and the only producer of replay traces);
* :mod:`repro.sim.replay_fast` — the array validator every production
  caller runs (same accept/reject and makespan as the oracle, ~10x
  faster, no trace);
* :mod:`repro.sim.online` — demand-driven / round-robin online policies
  (the SETI@home-style operation the paper's introduction motivates), run
  by one event loop with optional release times and churn;
* :mod:`repro.sim.churn` — the timed leave / join / drift event model
  (a fail-stop failure is a leave);
* :mod:`repro.sim.trace` — traces, utilisation, trace→schedule round-trip,
  exclusivity checks on trace-only runs.

Every name loads its submodule on first use (:mod:`repro._lazy`), so the
validator's callers do not import the online simulator and churn model.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "engine": ("Simulator",),
    "events": ("Event", "EventKind"),
    "executor": ("execute", "verify_by_execution"),
    "replay_fast": ("verify_schedule",),
    "online": (
        "ONLINE_POLICIES",
        "OnlineResult",
        "OnlineState",
        "policy_bandwidth_centric",
        "policy_demand_driven",
        "policy_round_robin",
        "simulate_online",
    ),
    "trace": ("Trace", "assert_trace_exclusive", "trace_to_schedule"),
})
