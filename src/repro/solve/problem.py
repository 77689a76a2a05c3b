"""The solve layer's records: :class:`Problem` in, :class:`Solution` out.

A *problem* is one scheduling question about one platform: either
"minimise the makespan of ``n`` tasks" (``kind="makespan"``) or "complete
as many tasks as possible — at most ``n``, if given — by ``t_lim``"
(``kind="deadline"``), plus per-solver tuning in ``options`` and
warm-start caps for solvers that support them.

Orthogonal to the *kind* is the *mode*: ``"offline"`` problems are answered
by the paper's static algorithms (the solver sees the whole future),
``"online"`` problems by simulated policies that only observe the past —
the SETI@home regime the paper's introduction motivates — and
``"repatch"`` problems by the incremental churn-repair layer
(:mod:`repro.solve.repatch`): solve offline, mutate the platform per
``options["churn"]``, repair the committed schedule instead of re-solving
cold.  All modes dispatch through the same registry; consumers never
branch on it.

A *solution* wraps the schedule with the answer headline (makespan, task
count), the solver's operation counters, optional warm caps for the next
smaller-deadline problem on the same platform, and solver-specific
``extra`` detail (e.g. which method answered a tree problem, and how many
of its workers compute).  Online solutions additionally carry the
execution ``trace`` they were produced from; runs with failures or churn
carry *only* the trace (a reissued task legitimately appears twice, which
no Definition-1 schedule can express).

Every solution can be **replay-validated**: :meth:`Solution.validate`
checks it with the array validator (:mod:`repro.sim.replay_fast`), which
independently enforces port serialisation, relay-FIFO forwarding and CPU
cadence, and checks the claimed makespan (and deadline, if any)
bit-exactly; :meth:`Solution.replay` runs it on the discrete-event
executor, the oracle, and returns the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..core.schedule import Schedule
from ..core.types import ReproError, Time, leq

KINDS = ("makespan", "deadline")
MODES = ("offline", "online", "repatch")


class SolveError(ReproError):
    """A problem the solve layer cannot express or answer."""


class NoSolverError(SolveError):
    """No registered solver claims the problem's platform type."""


class ValidationError(SolveError):
    """Replay validation found a solution that does not hold up under
    execution (resource conflict, drifted makespan, missed deadline)."""


@dataclass(frozen=True)
class Problem:
    """One solve request against one platform (any registered type)."""

    platform: Any
    kind: str = "makespan"
    n: Optional[int] = None
    t_lim: Optional[Time] = None
    #: dispatch axis: ``"offline"`` (static optimal algorithms) or
    #: ``"online"`` (simulated policies; see ``options["policy"]``).
    mode: str = "offline"
    #: solver-specific knobs, e.g. ``{"policy": "round_robin",
    #: "failures": [...]}`` online.
    options: Mapping[str, Any] = field(default_factory=dict)
    #: warm-start caps from a previous solve at a looser deadline; only
    #: meaningful for solvers with ``supports_warm_caps``.
    warm_caps: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SolveError(f"unknown problem kind {self.kind!r}; expected {KINDS}")
        if self.mode not in MODES:
            raise SolveError(f"unknown problem mode {self.mode!r}; expected {MODES}")
        if self.kind == "makespan" and (self.n is None or self.n < 1):
            raise SolveError("makespan problems need n >= 1")
        if self.kind == "deadline" and self.t_lim is None:
            raise SolveError("deadline problems need t_lim")


@dataclass
class Solution:
    """A solver's answer: the schedule plus everything around it."""

    problem: Problem
    #: the static schedule; ``None`` only for trace-only answers (online
    #: runs with failures or churn, where reissued task ids defeat
    #: Definition 1).
    schedule: Optional[Schedule]
    solver: str
    stats: dict[str, Any] = field(default_factory=dict)
    #: caps reusable by the same solver at a smaller deadline (same platform).
    warm_caps: Optional[dict[int, int]] = None
    #: solver-specific detail, e.g. {"rounds": [...], "coverage": 0.8}.
    extra: dict[str, Any] = field(default_factory=dict)
    #: the execution trace this answer was *produced* from (online mode);
    #: :meth:`replay` executes an offline solution's schedule for one.
    trace: Optional[Any] = None

    @property
    def makespan(self) -> Time:
        if self.schedule is not None:
            return self.schedule.makespan
        if self.trace is not None:
            return self.trace.makespan
        raise SolveError("solution carries neither schedule nor trace")

    @property
    def n_tasks(self) -> int:
        if self.schedule is not None:
            return self.schedule.n_tasks
        if self.trace is not None:
            return self.trace.tasks_completed()
        raise SolveError("solution carries neither schedule nor trace")

    # -- replay validation --------------------------------------------------

    def replay(self) -> Any:
        """Execute the schedule on the discrete-event simulator, the replay
        oracle (:func:`repro.sim.executor.execute`), and return its
        :class:`~repro.sim.trace.Trace`.

        The replay enforces the model's exclusivity rules (one send per
        port, one message per link, one task per CPU, relay only after
        arrival) and raises on any violation."""
        from ..sim.executor import execute  # sim is a consumer-side layer

        if self.schedule is None:
            raise SolveError(
                f"solution from solver {self.solver!r} is trace-only "
                "(online run with failures or churn); there is no schedule "
                "to replay"
            )
        return execute(self.schedule)

    def validate(self, engine: None = None) -> None:
        """Machine-check this solution; raises :class:`ValidationError` on
        any mismatch.

        * schedule-backed solutions (every offline solver, online runs
          without failures or churn) go through the array validator
          (:func:`repro.sim.replay_fast.verify_schedule`), which enforces
          the model's rules and checks the claimed makespan bit-exactly
          against the numbers of the schedule's own key table;
        * trace-only solutions (failure or churn runs) have their trace
          re-checked against the model's exclusivity rules;
        * deadline problems additionally assert ``makespan <= t_lim``.

        ``engine`` is retired and accepts only ``None`` (perfbench's
        replay hook still forwards it); the event-driven oracle is
        :mod:`repro.sim.executor`, called directly.
        """
        from ..core.types import SimulationError
        from ..sim.replay_fast import verify_schedule
        from ..sim.trace import assert_trace_exclusive

        if engine is not None:
            raise SolveError(
                f"Solution.validate's 'engine' parameter is retired (got "
                f"{engine!r}); call repro.sim.executor.verify_by_execution "
                "for the event-driven oracle"
            )
        try:
            if self.schedule is not None:
                verify_schedule(self.schedule)
            elif self.trace is not None:
                assert_trace_exclusive(self.trace)
            else:
                raise SolveError("solution carries neither schedule nor trace")
        except SimulationError as exc:
            raise ValidationError(
                f"solver {self.solver!r} produced an invalid solution: {exc}"
            ) from exc
        if self.problem.kind == "deadline" and self.problem.t_lim is not None:
            if not leq(self.makespan, self.problem.t_lim):
                raise ValidationError(
                    f"solver {self.solver!r} missed the deadline: makespan "
                    f"{self.makespan} > t_lim {self.problem.t_lim}"
                )
