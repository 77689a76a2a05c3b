"""The batch runner: grouped, worker-parallel solving.

Execution model
---------------

Scenarios are grouped by platform (``Scenario.platform_key``).  One group is
the unit of dispatch: a worker parses the platform once, resolves the
registered solver per dispatch *mode* through
:func:`repro.solve.solver_for` (the *only* platform dispatch in the
engine — offline kinds resolve the platform's solver, ``kind:"online"``
scenarios the online solver), and answers every scenario of the group in
input order.  Each scenario is solved on its own; the kernels' caches keep
the platform's chain sequences and fork graph between them.

With ``validate=True`` every successful answer is additionally
replay-validated (:meth:`repro.solve.Solution.validate`), which
independently enforces port serialisation, relay-FIFO forwarding and CPU
cadence and compares the makespan bit-exactly.  A solution that fails
replay fails its scenario.  The replay runs on the compiled linear-scan
kernel; result rows record it in ``validated_by``.

With ``cache=`` (a solution-store path, or a live
:class:`~repro.service.store.SolutionStore` for serial runs) every
*offline* scenario goes through :func:`repro.service.engine.cached_solve`:
the platform is canonically fingerprinted and repeated — including
relabeled-isomorphic — platforms are served from the store instead of
re-solved, which is what makes deadline/policy sweeps over a fixed
platform pool cheap.  Every rebound hit is replay-checked on its own
platform before it is used.  Cache-served rows carry ``cached=True``.
Online scenarios always solve fresh (their answers carry run-specific
traces).

``workers <= 1`` (the default) runs everything inline — deterministic,
fork-free, and what the unit tests exercise.  ``workers > 1`` fans groups
over a ``concurrent.futures`` process pool (CPU-bound Python gains no
parallelism from threads).  Each worker compiles the platforms it meets
itself: a compile is one pass over the platform, cheaper than shipping
its arrays across the process boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..io.json_io import platform_from_dict
from ..obs import metrics as _obs
from ..obs import tracing as _trace
from ..solve import Problem, Solver, record_dispatch, solver_for
from .scenarios import BatchError, Scenario, ScenarioResult

_IndexedScenario = tuple[int, Scenario]
_IndexedResult = tuple[int, ScenarioResult]


def _dispatch_mode(scenario: Scenario) -> str:
    """The registry mode a scenario dispatches through."""
    if scenario.kind == "online":
        return "online"
    if scenario.kind == "churn":
        return "repatch"
    return "offline"


def _open_store(cache):
    """Coerce the ``cache`` argument into a live SolutionStore (or None)."""
    if cache is None:
        return None, False
    from ..service.store import SolutionStore

    if isinstance(cache, SolutionStore):
        return cache, False
    return SolutionStore(path=cache), True


def run_group(
    group: Sequence[_IndexedScenario],
    validate: bool = False,
    cache=None,
) -> list[_IndexedResult]:
    """Solve one platform group (module-level so process pools can
    pickle), in input order."""
    if not group:
        return []
    try:
        platform = platform_from_dict(group[0][1].platform)
    except Exception as exc:  # noqa: BLE001 - bad platform fails its group only
        return [
            (index, ScenarioResult(
                sc.id, False, sc.kind, error=f"{type(exc).__name__}: {exc}"
            ))
            for index, sc in group
        ]
    store, own_store = _open_store(cache)
    if store is not None:
        # before the first row's timer starts, which must not pay for it
        from ..service.engine import cached_solve

    solvers: dict[str, Solver] = {}

    def solver_of(mode: str) -> Solver:
        if mode not in solvers:
            solvers[mode] = solver_for(platform, mode)
        return solvers[mode]

    out: list[_IndexedResult] = []
    try:
        for index, sc in group:
            t0 = time.perf_counter()
            try:
                solver = solver_of(_dispatch_mode(sc))
                problem = Problem(
                    platform,
                    "makespan" if sc.kind in ("online", "churn") else sc.kind,
                    n=sc.n,
                    t_lim=sc.t_lim,
                    mode=_dispatch_mode(sc),
                    options=sc.options,
                )
                solver.check_claims(problem)
                cached: Optional[bool] = None
                if store is not None and problem.mode in ("offline", "repatch"):
                    outcome = cached_solve(problem, store)
                    solution, cached = outcome.solution, outcome.cached
                else:
                    # same count+span as registry.solve(): the runner
                    # pre-resolved the solver per group, so it records
                    # the dispatch itself
                    with record_dispatch(solver, problem):
                        solution = solver.solve(problem)
                if validate:
                    solution.validate()
                    # trace-only answers (fault runs) are checked by the
                    # trace-exclusivity scan, not a replay kernel
                    validated_by = (
                        "compiled" if solution.schedule is not None
                        else "trace"
                    )
                else:
                    validated_by = None
                result = ScenarioResult(
                    sc.id, True, sc.kind,
                    makespan=solution.makespan,
                    n_tasks=solution.n_tasks,
                    t_lim=sc.t_lim if sc.kind == "deadline" else None,
                    stats=solution.stats,
                    rounds=(
                        len(solution.extra["rounds"])
                        if "rounds" in solution.extra else None
                    ),
                    coverage=solution.extra.get("coverage"),
                    policy=solution.extra.get("policy"),
                    validated=True if validate else None,
                    validated_by=validated_by,
                    cached=cached,
                    reissue_of=solution.extra.get("reissue_of"),
                )
            except Exception as exc:  # noqa: BLE001 - one bad scenario must not sink the batch
                result = ScenarioResult(
                    sc.id, False, sc.kind, error=f"{type(exc).__name__}: {exc}"
                )
            wall = time.perf_counter() - t0
            out.append((index, replace(result, wall_s=wall)))
    finally:
        if own_store:
            store.close()
    return out


def run_group_with_metrics(
    group: Sequence[_IndexedScenario],
    validate: bool = False,
    cache=None,
) -> tuple[list[_IndexedResult], dict, list[dict]]:
    """:func:`run_group` plus the worker's telemetry for this unit of work.

    The process-pool target: returns ``(results, metrics_delta, spans)``
    where the delta is :func:`repro.obs.metrics.diff_snapshots` across the
    group (a worker serves many groups, so shipping *deltas* keeps the
    parent's :meth:`~repro.obs.metrics.MetricsRegistry.merge` from double
    counting) and the spans are drained from the worker's buffer."""
    before = _obs.snapshot()
    results = run_group(group, validate=validate, cache=cache)
    delta = _obs.diff_snapshots(before, _obs.snapshot())
    return results, delta, _trace.take_spans()


def _split_for_workers(
    group_list: list[list[_IndexedScenario]], workers: int
) -> list[list[_IndexedScenario]]:
    """Split oversized platform groups so ``workers`` units exist even when
    every scenario shares one platform (the common sweep shape).  Each
    chunk keeps contiguous scenarios."""
    if not group_list or len(group_list) >= workers:
        return group_list
    chunks_per_group = -(-workers // len(group_list))  # ceil
    out: list[list[_IndexedScenario]] = []
    for group in group_list:
        k = min(chunks_per_group, len(group))
        size = -(-len(group) // k)
        out.extend(group[i : i + size] for i in range(0, len(group), size))
    return out


@dataclass
class BatchRunner:
    """Fan a scenario list over workers with per-platform shared state.

    ``workers``: 0/1 = inline serial; N > 1 = N-process pool.  When the
    batch has fewer platforms than workers, large groups are split into
    contiguous chunks so the pool is still saturated.
    ``validate``: replay-validate every successful answer through the
    simulator (a failed replay fails its scenario).
    ``cache``: solution-store path (SQLite arbitrates between processes)
    or a live ``SolutionStore`` (inline runs only) — offline scenarios on
    repeated platforms are then served from the store.
    """

    workers: int = 1
    validate: bool = False
    cache: object = None

    def run(self, scenarios: Iterable[Scenario]) -> list[ScenarioResult]:
        indexed = list(enumerate(scenarios))
        groups: dict[str, list[_IndexedScenario]] = {}
        for index, sc in indexed:
            groups.setdefault(sc.platform_key, []).append((index, sc))
        group_list = list(groups.values())

        solve_group = partial(run_group, validate=self.validate,
                              cache=self.cache)
        if self.workers > 1 and self.cache is not None and not isinstance(
            self.cache, (str, Path)
        ):
            raise BatchError(
                "process pools need cache= as a store *path* (a live "
                "SolutionStore cannot be shared across processes)"
            )
        if self.workers > 1:
            group_list = _split_for_workers(group_list, self.workers)
        if self.workers <= 1 or len(group_list) <= 1:
            batches = [solve_group(g) for g in group_list]
        else:
            from concurrent.futures import ProcessPoolExecutor

            solve_group_metered = partial(
                run_group_with_metrics, validate=self.validate,
                cache=self.cache,
            )
            # the tracing flag rides along so worker spans exist to be
            # shipped back (spawn-method workers don't inherit a
            # set_tracing call made at runtime)
            with ProcessPoolExecutor(
                max_workers=self.workers, initializer=_trace.set_tracing,
                initargs=(_trace.tracing_enabled(),),
            ) as pool:
                batches = []
                # each returned unit carries the worker's metric delta and
                # spans for that group — fold them into the parent so
                # worker kernel-cache hits and solve spans are visible in
                # the parent's snapshot (the executor handoff)
                for rows, delta, worker_spans in pool.map(
                    solve_group_metered, group_list
                ):
                    _obs.merge_snapshot(delta)
                    _trace.add_spans(worker_spans)
                    batches.append(rows)

        results: list[Optional[ScenarioResult]] = [None] * len(indexed)
        for batch in batches:
            for index, result in batch:
                results[index] = result
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]


def run_batch(
    scenarios: Iterable[Scenario],
    *,
    workers: int = 1,
    validate: bool = False,
    cache: object = None,
) -> list[ScenarioResult]:
    """Convenience wrapper: ``BatchRunner(workers, validate,
    cache).run(...)``."""
    return BatchRunner(
        workers=workers, validate=validate, cache=cache,
    ).run(scenarios)
