"""The built-in solvers: one per platform class, registered on import.

Each offline solver wraps the corresponding optimal algorithm (or, for
general trees, the multi-round cover heuristic) and reports its operation
counters as the flat ``stats`` dict the batch engine archives.  The chain,
star and spider solvers call the kernel-then-oracle entries of
:mod:`repro.core.solve_fast`; ``stats["engine"]`` says which answered.

The *online* solver is registered on the orthogonal ``mode="online"`` axis
and claims ``object`` — any platform with an adapter.  It answers by
running a policy (round-robin / demand-driven / bandwidth-centric) through
the discrete-event simulator, optionally with fail-stop worker failures
injected, so `repro simulate`, `repro failures` and batch ``kind:"online"``
scenarios all dispatch through the same registry as the static algorithms.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.solve_fast import (
    SPIDER_STAT_KEYS,
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
from ..sim.churn import simulate_with_churn
from ..sim.faults import WorkerFailure, simulate_with_failures
from ..sim.online import ONLINE_POLICIES, simulate_online
from ..trees.multiround import (
    COVER_STRATEGIES,
    DEFAULT_MAX_ROUNDS,
    tree_schedule_multiround,
    tree_schedule_multiround_deadline,
)
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
    summary = "optimal on spiders — chain+fork pipeline, warm-started bisection"

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


class TreeSolver(Solver):
    """Multi-round spider-cover scheduling on general trees (§8 program)."""

    name = "tree"
    platform_type = Tree
    exact = False  # a heuristic: optimal only per round, on its cover
    option_keys = ("max_rounds", "cover_strategy", "residual_strategy")
    summary = (
        "multi-round spider covers on general trees — "
        f"strategies: {', '.join(sorted(COVER_STRATEGIES))}"
    )

    def solve(self, problem: Problem) -> Solution:
        tree: Tree = problem.platform
        opts = problem.options
        kwargs = dict(
            cover_strategy=opts.get("cover_strategy", "throughput"),
            residual_strategy=opts.get("residual_strategy", "fresh"),
            max_rounds=int(opts.get("max_rounds", DEFAULT_MAX_ROUNDS)),
        )
        stats = dict.fromkeys(SPIDER_STAT_KEYS, 0)
        if problem.kind == "makespan":
            result = tree_schedule_multiround(
                tree, problem.n, stats=stats, **kwargs
            )
        else:
            result = tree_schedule_multiround_deadline(
                tree, problem.t_lim, problem.n, stats=stats, **kwargs
            )
        # the round count's single source of truth is len(extra["rounds"]);
        # consumers (batch rows, CLI) derive it rather than carrying copies.
        return Solution(
            problem,
            result.schedule,
            self.name,
            _count_spider_totals(stats),
            extra={
                "rounds": [r.to_dict() for r in result.rounds],
                "coverage": result.coverage,
                "efficiency": result.efficiency(),
            },
        )


def _parse_failure(spec: Any) -> WorkerFailure:
    """Accept a :class:`WorkerFailure` or its JSON shape
    ``{"time": t, "processor": p}`` (processor lists become tuple keys, the
    spider/tree addressing)."""
    if isinstance(spec, WorkerFailure):
        return spec
    if isinstance(spec, Mapping):
        try:
            time, proc = spec["time"], spec["processor"]
        except KeyError as missing:
            raise SolveError(
                f"failure spec needs 'time' and 'processor', missing {missing}"
            ) from None
        if isinstance(proc, list):
            proc = tuple(proc)
        return WorkerFailure(time, proc)
    raise SolveError(
        f"failure spec must be a WorkerFailure or a dict, got {type(spec).__name__}"
    )


class OnlineSolver(Solver):
    """Online policies through the simulator (``mode="online"``).

    Claims ``object``: the MRO fallback makes every adapter-backed platform
    answerable online without per-platform registrations.  Options:

    * ``policy`` — name from :data:`~repro.sim.online.ONLINE_POLICIES` or a
      callable (default ``"demand_driven"``);
    * ``arrivals`` — optional per-task release times;
    * ``failures`` — fail-stop specs (``{"time": t, "processor": p}``);
      the answer is then *trace-only* (reissued ids defeat Definition 1);
    * ``churn`` — general timed events (leave / join / drift specs, see
      :func:`repro.sim.churn.parse_churn_events`); trace-only like
      ``failures``, mutually exclusive with it;
    * ``max_events`` — simulator event budget override.
    """

    name = "online"
    mode = "online"
    platform_type = object
    kinds = ("makespan",)
    exact = False  # a policy's makespan is achieved, not optimal
    option_keys = ("policy", "arrivals", "failures", "churn", "max_events")
    summary = (
        "online policies via the simulator — "
        f"{', '.join(sorted(ONLINE_POLICIES))}; fault injection via "
        "options['failures']"
    )

    def solve(self, problem: Problem) -> Solution:
        opts = problem.options
        policy = opts.get("policy", "demand_driven")
        if isinstance(policy, str) and policy not in ONLINE_POLICIES:
            raise SolveError(
                f"unknown online policy {policy!r} "
                f"(choose from: {', '.join(sorted(ONLINE_POLICIES))})"
            )
        max_events = opts.get("max_events")
        failures = [_parse_failure(f) for f in opts.get("failures", ())]
        churn_specs = opts.get("churn") or ()
        if failures and churn_specs:
            raise SolveError(
                "online solver takes 'failures' (fail-stop only) or 'churn' "
                "(the general event model), not both — express fail-stop "
                "churn as leave events"
            )
        if churn_specs:
            if opts.get("arrivals") is not None:
                raise SolveError(
                    "online solver does not combine 'arrivals' with 'churn' "
                    "(the churn simulator has no release times)"
                )
            res = simulate_with_churn(
                problem.platform, problem.n, churn_specs, policy,
                max_events=max_events,
            )
            policy_name = (
                policy if isinstance(policy, str)
                else getattr(policy, "__name__", "custom")
            )
            return Solution(
                problem,
                None,  # reissued ids under churn: trace-only, like failures
                self.name,
                stats={
                    "attempts": res.attempts,
                    "reissues": res.reissues,
                    "completed": res.completed,
                    "events": len(res.trace.events),
                },
                extra={
                    "policy": policy_name,
                    "churn": list(res.events),
                    "survivors": list(res.survivors),
                    "reissue_of": dict(res.reissue_of),
                },
                trace=res.trace,
            )
        if failures:
            if opts.get("arrivals") is not None:
                raise SolveError(
                    "online solver does not combine 'arrivals' with "
                    "'failures' (the fault simulator has no release times)"
                )
            res = simulate_with_failures(
                problem.platform, problem.n, failures, policy,
                max_events=max_events,
            )
            # exclusivity is validate()'s job — callers opt into the
            # O(E log E) trace sweep instead of paying it on every solve
            policy_name = (
                policy if isinstance(policy, str)
                else getattr(policy, "__name__", "custom")
            )
            return Solution(
                problem,
                None,  # reissued task ids: no Definition-1 schedule exists
                self.name,
                stats={
                    "attempts": res.attempts,
                    "reissues": res.reissues,
                    "completed": res.completed,
                    "events": len(res.trace.events),
                },
                extra={
                    "policy": policy_name,
                    "failures": len(failures),
                    "survivors": list(res.survivors),
                    "reissue_of": dict(res.reissue_of),
                },
                trace=res.trace,
            )
        res = simulate_online(
            problem.platform, problem.n, policy,
            arrivals=opts.get("arrivals"), max_events=max_events,
        )
        return Solution(
            problem,
            res.schedule,
            self.name,
            stats={"events": len(res.trace.events)},
            extra={"policy": res.policy},
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
