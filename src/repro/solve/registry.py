"""The solver registry: (mode, platform type) → solver, and ``solve()`` on top.

Every layer that answers scheduling questions — the CLI verbs, the batch
engine, benchmarks, examples — goes through :func:`solve`, so supporting a
new platform means registering one solver here, not growing ``if/elif``
ladders in each consumer.

A solver claims one platform class (subclasses resolve through the MRO)
*in one mode*: ``"offline"`` solvers answer with static schedules computed
from full knowledge (the paper's algorithms), ``"online"`` solvers answer
by simulating policies that only see the past.  The two axes are
orthogonal — the online solver claims ``object``, so every platform with
an adapter gets online answers without per-platform registrations.

Beyond the claim a solver declares which question kinds it answers and
which options it understands.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs import metrics as _obs
from ..obs import tracing as _trace
from .problem import MODES, NoSolverError, Problem, Solution, SolveError

__all__ = [
    "Solver",
    "record_dispatch",
    "register",
    "registered_solvers",
    "solve",
    "solver_for",
    "unregister",
]


class Solver:
    """Base class for registered solvers.

    Class attributes define the claim; :meth:`solve` answers a problem
    whose ``platform`` is an instance of ``platform_type`` and whose
    ``mode`` matches ``mode``.
    """

    #: short name shown in CLI help and batch errors, e.g. ``"spider"``.
    name: str = ""
    #: the platform class this solver claims.
    platform_type: type = object
    #: the dispatch mode this solver answers ("offline" or "online").
    mode: str = "offline"
    #: question kinds the solver answers.
    kinds: tuple[str, ...] = ("makespan", "deadline")
    #: True when the solver is provably optimal (the paper's algorithms);
    #: False for heuristics (trees) and simulated policies (online) —
    #: consumers use this for honest labels.
    exact: bool = True
    #: option keys the solver understands (anything else is a typo).
    option_keys: tuple[str, ...] = ()
    #: one-line description for generated docs/help.
    summary: str = ""

    def solve(self, problem: Problem) -> Solution:
        raise NotImplementedError

    def check_claims(self, problem: Problem) -> None:
        """Raise :class:`SolveError` on unsupported kinds or unknown options."""
        if problem.kind not in self.kinds:
            raise SolveError(
                f"solver {self.name!r} does not answer {problem.kind!r} "
                f"problems (supported: {', '.join(self.kinds)})"
            )
        unknown = set(problem.options) - set(self.option_keys)
        if unknown:
            raise SolveError(
                f"solver {self.name!r} does not understand option(s) "
                f"{sorted(unknown)} (supported: {sorted(self.option_keys) or 'none'})"
            )


_REGISTRY: dict[tuple[str, type], Solver] = {}


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise SolveError(f"unknown solver mode {mode!r}; expected {MODES}")
    return mode


def register(solver: Solver, *, replace: bool = False) -> Solver:
    """Register ``solver`` for its ``(mode, platform_type)``; returns it.

    Re-registering a claimed slot needs ``replace=True`` — accidental
    double registration is a bug worth failing loudly on.
    """
    key = (_check_mode(solver.mode), solver.platform_type)
    if key in _REGISTRY and not replace:
        raise SolveError(
            f"platform type {solver.platform_type.__name__} already claimed "
            f"in {solver.mode!r} mode by solver {_REGISTRY[key].name!r} "
            f"(pass replace=True to override)"
        )
    _REGISTRY[key] = solver
    return solver


def unregister(platform_type: type, mode: str = "offline") -> None:
    """Drop the claim on ``(mode, platform_type)`` (no-op if unclaimed)."""
    _REGISTRY.pop((_check_mode(mode), platform_type), None)


def solver_for(platform: Any, mode: str = "offline") -> Solver:
    """The registered ``mode`` solver claiming ``platform``'s type
    (MRO-resolved, so the online solver's claim on ``object`` catches every
    platform)."""
    _check_mode(mode)
    for cls in type(platform).__mro__:
        solver = _REGISTRY.get((mode, cls))
        if solver is not None:
            return solver
    names = ", ".join(s.name for s in registered_solvers(mode)) or "none"
    raise NoSolverError(
        f"no registered solver claims platform type "
        f"{type(platform).__name__!r} in {mode!r} mode "
        f"(registered {mode} solvers: {names})"
    )


def registered_solvers(mode: Optional[str] = None) -> list[Solver]:
    """Registered solvers — all modes, or one — sorted by (mode, name).

    Offline solvers sort first, which keeps generated CLI help leading
    with the paper's algorithms."""
    if mode is not None:
        _check_mode(mode)
    return sorted(
        (s for s in _REGISTRY.values() if mode is None or s.mode == mode),
        key=lambda s: (s.mode, s.name),
    )


def record_dispatch(solver: Solver, problem: Problem):
    """Count one solver dispatch in the process-wide obs registry
    (``solve.dispatch{kind=…,mode=…,solver=…}``) and return the ``solve``
    span to run it under.  Shared by :func:`solve` and the batch runner's
    pre-resolved per-group path, so every dispatch is counted exactly once
    no matter which entry point served it."""
    _obs.counter(
        "solve.dispatch",
        solver=solver.name, mode=problem.mode, kind=problem.kind,
    ).inc()
    return _trace.span(
        "solve", solver=solver.name, mode=problem.mode, kind=problem.kind
    )


def solve(problem: Problem) -> Solution:
    """Answer ``problem`` with the registered solver for its platform and
    mode."""
    solver = solver_for(problem.platform, problem.mode)
    solver.check_claims(problem)
    with record_dispatch(solver, problem):
        return solver.solve(problem)
