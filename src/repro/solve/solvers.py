"""The built-in solvers: one per platform class, registered on import.

Each offline solver wraps the corresponding optimal algorithm (or, for
general trees, the better of the chain construction run on the tree and the
single spider cover) and reports its operation counters as the flat
``stats`` dict the batch engine archives.  The chain,
star and spider solvers call the kernel-then-oracle entries of
:mod:`repro.core.solve_fast`; ``stats["engine"]`` says which answered.

The *online* solver is registered on the orthogonal ``mode="online"`` axis
and claims ``object`` — any platform with an adapter.  It answers by
running a policy (round-robin / demand-driven / bandwidth-centric) through
the one online event loop, with any mix of release times, fail-stop
failures and churn, so `repro simulate`, `repro failures` and batch
``kind:"online"`` scenarios all dispatch through the same registry as the
static algorithms.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.solve_fast import (
    chain_deadline,
    chain_schedule,
    spider_deadline,
    spider_schedule,
    star_deadline,
    star_schedule,
)
from ..obs import metrics as _obs
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import Tree
from ..sim.online import ONLINE_POLICIES, simulate_online
from ..trees.construction import tree_deadline, tree_schedule
from ..trees.heuristic import cover_efficiency
from .problem import Problem, Solution, SolveError
from .registry import Solver, register
from .repatch import RepatchSolver


def _count_spider_totals(stats: dict) -> dict:
    """Add one spider solve's counters to the process-wide ``spider.*``
    totals (each Solution keeps its own numbers); returns ``stats``."""
    for key, value in stats.items():
        if key != "engine" and value:
            _obs.counter(f"spider.{key}").inc(value)
    return stats


class ChainSolver(Solver):
    """Optimal chain scheduling (Theorem 1): the backward greedy."""

    name = "chain"
    platform_type = Chain
    summary = "optimal on chains — backward greedy, cached universal sequence"

    def solve(self, problem: Problem) -> Solution:
        if problem.kind == "makespan":
            sched, stats = chain_schedule(problem.platform, problem.n)
        else:
            sched, stats = chain_deadline(
                problem.platform, problem.t_lim, problem.n
            )
        return Solution(problem, sched, self.name, stats)


class StarSolver(Solver):
    """Optimal star (fork-graph) scheduling, Beaumont et al. (§6)."""

    name = "star"
    platform_type = Star
    summary = "optimal on stars — fork-graph allocator of Beaumont et al."

    def solve(self, problem: Problem) -> Solution:
        if problem.kind == "makespan":
            sched, stats = star_schedule(problem.platform, problem.n)
        else:
            sched, stats = star_deadline(
                problem.platform, problem.t_lim, problem.n
            )
        return Solution(problem, sched, self.name, stats)


class SpiderSolver(Solver):
    """Optimal spider scheduling (§7, Theorems 2–3), warm-cap capable."""

    name = "spider"
    platform_type = Spider
    supports_warm_caps = True
    summary = "optimal on spiders — chain+fork pipeline, warm-started search"

    def solve(self, problem: Problem) -> Solution:
        if problem.kind == "makespan":
            sched, stats = spider_schedule(problem.platform, problem.n)
            return Solution(
                problem, sched, self.name, _count_spider_totals(stats)
            )
        caps = dict(problem.warm_caps) if problem.warm_caps is not None else None
        sched, stats, leg_counts = spider_deadline(
            problem.platform, problem.t_lim, problem.n, leg_caps=caps
        )
        return Solution(
            problem, sched, self.name, _count_spider_totals(stats),
            warm_caps=leg_counts,
        )


#: Options of the retired multi-round tree scheduler, with the values it
#: accepted.  Old payloads still load: the keys are accepted and ignored,
#: since the tree solver has no choice left for them to make.
RETIRED_TREE_OPTIONS = {
    "max_rounds": "an int >= 1",
    "cover_strategy": "'throughput', 'widest' or 'fresh'",
    "residual_strategy": "'throughput', 'widest' or 'fresh'",
}


def _retired_value_ok(key: str, value: Any) -> bool:
    if key == "max_rounds":
        return type(value) is int and value >= 1
    return value in ("throughput", "widest", "fresh")


class TreeSolver(Solver):
    """General trees (§8 programme): the better of Theorem 1's backward
    construction run on the tree and the single spider cover."""

    name = "tree"
    platform_type = Tree
    exact = False  # a heuristic: optimal on chain- and spider-shaped trees
    option_keys = tuple(RETIRED_TREE_OPTIONS)
    summary = (
        "general trees — the chain construction run on the tree, or the "
        "single spider cover when it does better"
    )

    def check_claims(self, problem: Problem) -> None:
        super().check_claims(problem)
        for key, value in problem.options.items():
            if not _retired_value_ok(key, value):
                raise SolveError(
                    f"tree option {key!r} is retired and ignored, but must "
                    f"still be {RETIRED_TREE_OPTIONS[key]}; got {value!r}"
                )

    def solve(self, problem: Problem) -> Solution:
        tree: Tree = problem.platform
        if problem.kind == "makespan":
            sched, stats, method = tree_schedule(tree, problem.n)
            horizon = sched.makespan
        else:
            sched, stats, method = tree_deadline(
                tree, problem.t_lim, problem.n
            )
            horizon = problem.t_lim
        served = {a.processor for a in sched}
        # extra["rounds"] stays a list (batch rows report its length): one
        # entry, naming the method that answered
        return Solution(
            problem,
            sched,
            self.name,
            _count_spider_totals(stats),
            extra={
                "rounds": [{"method": method}],
                "coverage": len(served) / tree.p,
                "efficiency": cover_efficiency(tree, sched.n_tasks, horizon),
            },
        )


def _failure_as_leave(spec: Any) -> dict[str, Any]:
    """A ``failures`` entry ``{"time": t, "processor": p}`` is a leave
    event: fail-stop is the churn model's departure."""
    if not isinstance(spec, Mapping) or not {"time", "processor"} <= spec.keys():
        raise SolveError(
            f"failure spec must be a dict with 'time' and 'processor', got {spec!r}"
        )
    return {"op": "leave", "time": spec["time"], "processor": spec["processor"]}


class OnlineSolver(Solver):
    """Online policies through the simulator (``mode="online"``).

    Claims ``object``: the MRO fallback makes every adapter-backed platform
    answerable online without per-platform registrations.  Options, in any
    mix:

    * ``policy`` — name from :data:`~repro.sim.online.ONLINE_POLICIES` or a
      callable (default ``"demand_driven"``);
    * ``arrivals`` — optional per-task release times;
    * ``failures`` — fail-stop specs (``{"time": t, "processor": p}``), run
      as leave events;
    * ``churn`` — timed leave / join / drift events (see
      :func:`repro.sim.churn.parse_churn_events`);
    * ``max_events`` — simulator event budget override.

    A run without failures or churn answers with the schedule rebuilt from
    its trace.  Any other run is *trace-only*: a reissued task reappears
    under a fresh id, which no Definition-1 schedule can express.
    """

    name = "online"
    mode = "online"
    platform_type = object
    kinds = ("makespan",)
    exact = False  # a policy's makespan is achieved, not optimal
    option_keys = ("policy", "arrivals", "failures", "churn", "max_events")
    summary = (
        "online policies via the simulator — "
        f"{', '.join(sorted(ONLINE_POLICIES))}; release times, failures and "
        "churn in one event loop"
    )

    def solve(self, problem: Problem) -> Solution:
        opts = problem.options
        policy = opts.get("policy", "demand_driven")
        if isinstance(policy, str) and policy not in ONLINE_POLICIES:
            raise SolveError(
                f"unknown online policy {policy!r} "
                f"(choose from: {', '.join(sorted(ONLINE_POLICIES))})"
            )
        churn = [_failure_as_leave(f) for f in opts.get("failures", ())]
        churn += opts.get("churn") or ()
        res = simulate_online(
            problem.platform, problem.n, policy,
            arrivals=opts.get("arrivals"), churn=churn,
            max_events=opts.get("max_events"),
        )
        if res.schedule is not None:
            return Solution(
                problem,
                res.schedule,
                self.name,
                stats={"events": len(res.trace.events)},
                extra={"policy": res.policy},
                trace=res.trace,
            )
        # exclusivity is validate()'s job — callers opt into the
        # O(E log E) trace sweep instead of paying it on every solve
        return Solution(
            problem,
            None,
            self.name,
            stats={
                "attempts": res.attempts,
                "reissues": res.reissues,
                "completed": res.completed,
                "events": len(res.trace.events),
            },
            extra={
                "policy": res.policy,
                "churn": res.events,
                "survivors": res.survivors,
                "reissue_of": res.reissue_of,
            },
            trace=res.trace,
        )


#: The default registrations — importing :mod:`repro.solve` activates them.
BUILTIN_SOLVERS = (
    register(ChainSolver()),
    register(StarSolver()),
    register(SpiderSolver()),
    register(TreeSolver()),
    register(OnlineSolver()),
    register(RepatchSolver()),
)
