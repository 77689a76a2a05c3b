"""Shared scalar types, tolerances and exceptions for the scheduling core.

The paper's model uses abstract time units: link ``i`` needs ``c_i`` units to
carry one task, processor ``i`` needs ``w_i`` units to run one.  All core
algorithms in this package are written with plain Python arithmetic so that
integer inputs stay exact end-to-end (which in turn makes the optimality
cross-checks against exhaustive search exact).  Floats are accepted too; the
feasibility checker then compares with :data:`EPS` slack.
"""

from __future__ import annotations

from typing import Union

#: Scalar time type accepted throughout the core (ints stay exact).
Time = Union[int, float]

#: Absolute tolerance used when validating float-valued schedules.
EPS: float = 1e-9


class ReproError(Exception):
    """Base class for every error raised by this package."""


class PlatformError(ReproError):
    """Raised when a platform description is malformed (empty chain,
    non-positive ``c``/``w``, a "spider" whose branching node is not the
    root, ...)."""


class ScheduleError(ReproError):
    """Raised when a schedule object is structurally invalid (task indices
    out of range, communication vector longer than the route, ...)."""


class InfeasibleScheduleError(ScheduleError):
    """Raised by the feasibility checker when one of the four conditions of
    Definition 1 is violated.  Carries the human-readable violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"infeasible schedule: {preview}{more}")


class SimulationError(ReproError):
    """Raised by the discrete-event simulator on protocol violations
    (e.g. two concurrent sends from one port)."""


class EventBudgetExceeded(SimulationError):
    """The simulator executed more events than its configured budget — the
    run is almost certainly livelocked (handlers rescheduling each other
    forever).  Carries the budget so callers can distinguish "raise the
    bound" from "fix the loop"."""

    def __init__(self, max_events: int, context: str = ""):
        self.max_events = max_events
        self.context = context
        suffix = f" [{context}]" if context else ""
        super().__init__(
            f"event budget exceeded ({max_events} events); livelocked "
            f"handler loop, or raise max_events for a genuinely huge run"
            f"{suffix}"
        )


def leq(a: Time, b: Time, eps: float = EPS) -> bool:
    """``a <= b`` with ``eps`` slack for float inputs."""
    if isinstance(a, int) and isinstance(b, int):
        return a <= b
    return a <= b + eps


def close(a: Time, b: Time, eps: float = EPS) -> bool:
    """``a == b`` with ``eps`` slack for float inputs."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(float(a) - float(b)) <= eps
