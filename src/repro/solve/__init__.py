"""``repro.solve`` — the single entry point for scheduling questions.

::

    from repro.solve import Problem, solve
    sol = solve(Problem(platform, "makespan", n=24))
    sol.schedule, sol.makespan, sol.stats

Platform dispatch happens through a registry keyed by ``(mode, platform
type)`` (:mod:`repro.solve.registry`): ``mode="offline"`` resolves the
paper's static algorithms per platform class, ``mode="online"`` the
simulated-policy solver that claims every platform.  The built-in
chain/star/spider/tree/online solvers (:mod:`repro.solve.solvers`)
register themselves when this package is imported.  The chain, star and
spider solvers (and the tree heuristic's rounds) run kernel-then-oracle:
the flat-array kernels of :mod:`repro.core.solve_fast` answer every
integer platform, and the paper-literal oracles answer the rest.  The CLI
verbs, the batch engine, benchmarks and examples all consume this layer —
none of them dispatch on platform types or modes themselves.  Any
solution can be replay-validated through the simulator with
``sol.validate()``.
"""

from .problem import (
    KINDS,
    MODES,
    NoSolverError,
    Problem,
    Solution,
    SolveError,
    ValidationError,
)
from .registry import (
    Solver,
    record_dispatch,
    register,
    registered_solvers,
    solve,
    solver_for,
    unregister,
)
from .solvers import (
    BUILTIN_SOLVERS,
    ChainSolver,
    OnlineSolver,
    SpiderSolver,
    StarSolver,
    TreeSolver,
)

__all__ = [
    "BUILTIN_SOLVERS",
    "ChainSolver",
    "KINDS",
    "MODES",
    "NoSolverError",
    "OnlineSolver",
    "Problem",
    "Solution",
    "SolveError",
    "Solver",
    "SpiderSolver",
    "StarSolver",
    "TreeSolver",
    "ValidationError",
    "register",
    "registered_solvers",
    "solve",
    "solver_for",
    "unregister",
]
