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
"""

from .engine import Simulator
from .events import Event, EventKind
from .executor import execute, verify_by_execution
from .replay_fast import verify_schedule
from .online import (
    ONLINE_POLICIES,
    OnlineResult,
    OnlineState,
    policy_bandwidth_centric,
    policy_demand_driven,
    policy_round_robin,
    simulate_online,
)
from .trace import Trace, assert_trace_exclusive, trace_to_schedule

__all__ = [
    "assert_trace_exclusive",
    "Simulator",
    "Event",
    "EventKind",
    "execute",
    "verify_by_execution",
    "verify_schedule",
    "ONLINE_POLICIES",
    "OnlineResult",
    "OnlineState",
    "policy_bandwidth_centric",
    "policy_demand_driven",
    "policy_round_robin",
    "simulate_online",
    "Trace",
    "trace_to_schedule",
]
