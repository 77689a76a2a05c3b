"""Analysis toolkit: metrics, steady-state throughput, complexity fits.

Every name loads its submodule on first use (:mod:`repro._lazy`): the
solve kernels need only :mod:`~repro.analysis.steady_state`, while the
report, regret and profile modules pull in the baselines, the online
simulator and the oracles.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "metrics": (
        "ComparisonRow",
        "ScheduleMetrics",
        "comparison_table",
        "compute_metrics",
        "format_table",
        "optimality_ratio",
        "speedup_over_single",
    ),
    "steady_state": (
        "SteadyState",
        "chain_steady_state",
        "register_steady_state",
        "spider_steady_state",
        "star_steady_state",
        "steady_state",
        "tree_steady_state",
    ),
    "complexity": (
        "PowerFit",
        "chain_opcount_in_n",
        "chain_opcount_in_p",
        "fit_power_law",
        "timed",
        "wallclock_in_n",
    ),
    "periodic": (
        "PeriodicPattern",
        "achieved_rate",
        "periodic_star_schedule",
        "star_periodic_pattern",
    ),
    "bounds": (
        "makespan_lower_bound",
        "port_bound",
        "processor_bound",
        "route_bound",
        "steady_state_bound",
    ),
    "profiles": (
        "StaircaseProfile",
        "makespan_profile",
        "verify_staircase_duality",
    ),
    "regret": ("DEFAULT_POLICIES", "Regret", "regret", "regret_table"),
    "report": ("ExperimentReport", "build_report"),
})
