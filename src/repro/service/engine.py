"""The serving engine: cache-backed solving, sync and async.

Request flow (both entry points)::

    problem ──canonical_form──▶ fingerprint ──store.get──▶ hit? rebind, done
                                      │ miss
                                      ▼
                         solve(canonical problem)
                                      │
                        store.put (replay-validated)
                                      │
                                      ▼
                         rebind onto request platform

*Rebinding* re-expresses a canonical-coordinates solution on the request's
(isomorphic) platform by mapping its p processor keys through the
canonical form's relabel maps and relabeling its compiled platform with
them, each key checked on the request platform; the task columns and
compiled arrays are shared untouched, so the rebound schedule
replay-validates bit-exactly on the relabeled platform, reusing the
store's write-check verdict (:mod:`repro.sim.replay_fast`).

Two entry points share that flow, and one helper for a hit (rebind →
replay-check → quarantine if either fails):

* :func:`cached_solve` — synchronous, used by the batch runner
  (``run_batch(cache=...)``);
* :class:`ScheduleService` — the asyncio front-end behind ``repro serve``:
  a bounded worker pool for the solves, plus **request coalescing** —
  concurrent requests with the same fingerprint await one in-flight solve
  instead of each paying for it.  Every rebind runs on the event loop.

Uncacheable requests (online mode — policy runs carry traces and
callables; options with no canonical encoding) fall through to a direct
:func:`repro.solve.solve` and are never stored.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Optional

from ..obs import metrics as _obs
from ..obs import tracing as _trace
from ..solve import Problem, Solution, solve
from .canon import CanonError, CanonicalForm, canonical_form, problem_fingerprint
from .frontend import (
    LINE_LIMIT,
    ChaosState,
    JsonLinesFrontend,
    ServiceClosingError,
)
from .protocol import serve_line
from .store import SolutionStore

__all__ = [
    "CachedOutcome",
    "LINE_LIMIT",
    "ScheduleService",
    "ServiceClosingError",
    "cache_key",
    "cached_solve",
    "latency_table",
    "rebind_solution",
]

@dataclass(frozen=True)
class CachedOutcome:
    """One served answer plus how it was produced."""

    solution: Solution
    #: True when the answer came out of the store (either tier).
    cached: bool
    #: the problem fingerprint, or ``None`` for uncacheable requests.
    fingerprint: Optional[str] = None
    #: True when this request piggybacked on another's in-flight solve.
    coalesced: bool = False


def cache_key(
    problem: Problem,
) -> Optional[tuple[str, Optional[CanonicalForm]]]:
    """``(fingerprint, canonical form)`` of a cacheable problem, else ``None``.

    Offline problems are cacheable through relabeling-invariant canonical
    fingerprints; repatch problems through the *exact*
    :func:`~repro.service.canon.repatch_fingerprint` (their answers live on
    the mutated platform and are served verbatim — ``canon`` is ``None``
    and no rebinding happens).  Online answers carry execution traces (and
    possibly callable policies) whose identity is the *run*, not the
    question, so they are never cached."""
    try:
        if problem.mode == "repatch":
            from .canon import repatch_fingerprint

            return repatch_fingerprint(problem), None
        if problem.mode != "offline":
            return None
        canon = canonical_form(problem.platform)
        return problem_fingerprint(problem, canon), canon
    except (CanonError, RecursionError):
        # uncacheable must never mean unanswerable: solve directly instead
        return None


def rebind_solution(
    solution: Solution, problem: Problem, canon: Optional[CanonicalForm]
) -> Solution:
    """Re-express a canonical-coordinates ``solution`` on ``problem``'s
    platform (isomorphic by construction): the schedule's columns are
    shared, and its compiled key table is relabeled onto the platform,
    each key checked there, in O(p) (:meth:`Schedule.rebound
    <repro.core.schedule.Schedule.rebound>`).

    ``canon=None`` (repatch answers, keyed by *exact* fingerprints) means
    serve verbatim: the stored schedule already lives on the mutated
    platform the request implies, so only the problem record is swapped.

    Solver ``extra`` detail is kept as-is — it reports canonical
    coordinates.
    """
    if solution.schedule is None:
        raise CanonError("cannot rebind a trace-only solution")
    if canon is None:
        return Solution(
            problem,
            solution.schedule,
            solution.solver,
            stats=dict(solution.stats),
            extra=dict(solution.extra),
        )
    schedule = solution.schedule
    keys = tuple(canon.from_canonical[k] for k in schedule.keys)
    return Solution(
        problem,
        schedule.rebound(problem.platform, keys),
        solution.solver,
        stats=dict(solution.stats),
        extra=dict(solution.extra),
    )


def latency_table(registry: _obs.MetricsRegistry) -> dict[str, dict[str, float]]:
    """Per-op latency percentiles from ``registry``'s ``service.op_ms``
    histograms — ``{op: {"count": n, "p50_ms": …, "p95_ms": …,
    "p99_ms": …}}``, the ``latency`` block of a service's and of the
    fleet router's ``stats``.  Percentiles are bucket-upper-edge
    estimates (see :meth:`repro.obs.metrics.Histogram.percentile`)."""
    out: dict[str, dict[str, float]] = {}
    for key, hist in registry.histograms("service.op_ms").items():
        # keys look like "service.op_ms{op=solve}"
        op = key.partition("{op=")[2].rstrip("}") or "?"
        out[op] = {
            "count": hist.count,
            "p50_ms": hist.percentile(0.50),
            "p95_ms": hist.percentile(0.95),
            "p99_ms": hist.percentile(0.99),
        }
    return out


def _solve_canonical(
    problem: Problem,
    fingerprint: str,
    canon: Optional[CanonicalForm],
    store: SolutionStore,
) -> Solution:
    """Solve the canonical representative (or, for repatch, the problem
    itself — ``canon=None``) and admit the answer to the store."""
    with _trace.span("service.solve_canonical", mode=problem.mode):
        if canon is None:
            solution = solve(problem)
        else:
            solution = solve(replace(problem, platform=canon.platform))
        with _trace.span("service.store_put"):
            store.put(fingerprint, solution)  # replay-validates before admitting
    return solution


def _checked_rebind(
    solution: Solution,
    problem: Problem,
    canon: Optional[CanonicalForm],
) -> Solution:
    """Rebind ``solution`` onto ``problem``'s platform and replay-validate
    the result there (raises if it fails)."""
    with _trace.span("service.rebind"):
        rebound = rebind_solution(solution, problem, canon)
        # looked up on the instance at call time, so a wrapped
        # Solution.validate (replay counting) sees every check
        rebound.validate()
    return rebound


def _serve_hit(
    hit: Solution,
    problem: Problem,
    canon: Optional[CanonicalForm],
    store: SolutionStore,
    fingerprint: str,
) -> Optional[Solution]:
    """The hit path both entry points share: :func:`_checked_rebind` on a
    store hit.  A hit that no longer rebinds or replays is damaged
    evidence: it is quarantined and ``None`` returned, so the caller
    answers by solving fresh."""
    try:
        return _checked_rebind(hit, problem, canon)
    except Exception as exc:
        store.quarantine(fingerprint, f"{type(exc).__name__}: {exc}")
        return None


def cached_solve(problem: Problem, store: SolutionStore) -> CachedOutcome:
    """Answer ``problem`` through ``store``: hit → rebind, miss → solve the
    canonical form, validate, store, rebind.  Uncacheable problems solve
    directly (``fingerprint=None``).

    Every *rebound* answer is replay-validated on the request's own
    platform before it is returned — affordable because the check reuses
    the verdict the store's write check reached."""
    key = cache_key(problem)
    if key is None:
        return CachedOutcome(solve(problem), cached=False)
    fingerprint, canon = key
    hit = store.get(fingerprint)
    if hit is not None:
        rebound = _serve_hit(hit, problem, canon, store, fingerprint)
        if rebound is not None:
            return CachedOutcome(rebound, cached=True, fingerprint=fingerprint)
    solution = _solve_canonical(problem, fingerprint, canon, store)
    rebound = _checked_rebind(solution, problem, canon)
    return CachedOutcome(rebound, cached=False, fingerprint=fingerprint)


class ScheduleService(JsonLinesFrontend):
    """Asyncio scheduling service over a :class:`SolutionStore`.

    ``workers`` bounds the thread pool that every solve runs on.  A
    rebind with its replay check — a hit, a coalesced waiter, or the
    requester's own after a miss — is O(p) and reuses the stored answer's
    verdict, so it runs on the event loop at any size (damaged evidence
    scans, in far less than the fleet's 1 s ping deadline at
    ``MAX_SERVED_TASKS``).  A hit never leaves the loop: lookup, rebind,
    replay check and (in the protocol layer) rendering from the columns
    run in one step.  Identical concurrent fingerprints are coalesced:
    the first request solves, the rest await its future and rebind the
    shared canonical solution onto their own platforms.

    The JSON-lines serving loops (stdio/TCP, graceful drain on
    SIGTERM/``op:"shutdown"``) come from :class:`JsonLinesFrontend`;
    they write the text :func:`repro.service.protocol.serve_line`
    renders.  ``chaos_ops=True`` arms the fault-injection op the chaos
    harness uses (never the default — a production worker cannot be
    chaos'd).
    """

    #: every rebound answer is replay-validated before it is served.  Not
    #: a setting: perfbench's per-layer pass reads it.
    verify_rebinds = True

    def __init__(
        self,
        store: Optional[SolutionStore] = None,
        workers: int = 2,
        request_timeout: Optional[float] = None,
        chaos_ops: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"service needs >= 1 worker, got {workers}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.store = store if store is not None else SolutionStore()
        self.workers = workers
        #: per-request deadline in seconds applied by the protocol layer
        #: (``None`` → unbounded); a request may tighten it with its own
        #: ``deadline`` field but never loosen past this.
        self.request_timeout = request_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self.chaos = ChaosState() if chaos_ops else None
        self._inflight: dict[str, asyncio.Future] = {}
        self._closing = False
        self.requests = 0
        self.coalesced = 0
        self.errors = 0
        self.timeouts = 0
        self._started = time.monotonic()
        #: per-instance registry for op latencies — several services can
        #: coexist in one test process without cross-contaminating their
        #: percentiles; process-wide counters still accumulate globally.
        self.metrics = _obs.MetricsRegistry()

    def _record(self, name: str) -> None:
        """Bump one request-lifecycle counter, mirroring it into the
        process-wide obs registry as ``service.<name>``."""
        setattr(self, name, getattr(self, name) + 1)
        _obs.counter(f"service.{name}").inc()

    # -- core ---------------------------------------------------------------

    async def submit(self, problem: Problem) -> CachedOutcome:
        """Serve one problem (see class docstring for the flow)."""
        loop = asyncio.get_running_loop()
        if self._closing:
            raise ServiceClosingError("service is shutting down")
        self._record("requests")
        with _trace.span("service.canon"):
            key = cache_key(problem)
        try:
            if key is None:
                solution = await loop.run_in_executor(
                    self._pool, solve, problem
                )
                return CachedOutcome(solution, cached=False)
            fingerprint, canon = key
            # the in-flight table is consulted *before* the store: the
            # winner registers its future synchronously, so concurrent
            # identical requests coalesce deterministically even when the
            # solve+store happens to finish before they get scheduled
            # (with the compiled validator that race is routinely lost)
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                self._record("coalesced")
                solution = await asyncio.shield(inflight)
                rebound = _checked_rebind(solution, problem, canon)
                return CachedOutcome(
                    rebound, cached=False,
                    fingerprint=fingerprint, coalesced=True,
                )
            hit = self.store.get(fingerprint)
            if hit is not None:
                rebound = _serve_hit(hit, problem, canon, self.store,
                                     fingerprint)
                if rebound is not None:
                    return CachedOutcome(
                        rebound, cached=True, fingerprint=fingerprint,
                    )
                # damaged evidence, now quarantined: solve fresh below
            future: asyncio.Future = loop.create_future()
            self._inflight[fingerprint] = future

            def _transfer(done: asyncio.Future) -> None:
                # runs even if this requester was cancelled at a deadline:
                # coalesced waiters still get the answer, and the in-flight
                # slot is freed exactly once
                self._inflight.pop(fingerprint, None)
                if future.done():
                    return
                exc = done.exception()
                if exc is not None:
                    future.set_exception(exc)
                    future.exception()  # consumed: no never-retrieved warning
                else:
                    future.set_result(done.result())

            exec_future = loop.run_in_executor(
                self._pool, _solve_canonical,
                problem, fingerprint, canon, self.store,
            )
            exec_future.add_done_callback(_transfer)
            solution = await asyncio.shield(future)
            rebound = _checked_rebind(solution, problem, canon)
            return CachedOutcome(
                rebound, cached=False, fingerprint=fingerprint,
            )
        except asyncio.CancelledError:
            raise  # a deadline firing is the *request's* outcome, not an error
        except Exception:
            self._record("errors")
            raise

    # -- protocol -------------------------------------------------------------

    async def render_line(self, raw_line: str) -> str:
        return await serve_line(self, raw_line)

    def stats(self) -> dict[str, Any]:
        from ..core.compiled import compile_stats
        from ..core.solve_fast import solve_kernel_stats
        from ..sim.replay_fast import replay_stats

        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "inflight": len(self._inflight),
            "workers": self.workers,
            "closing": self._closing,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "latency": latency_table(self.metrics),
            "store": self.store.stats.to_dict(),
            "compile": compile_stats(),
            "replay": replay_stats(),
            "solve_kernels": solve_kernel_stats(),
        }

    # -- shutdown -----------------------------------------------------------

    @property
    def closing(self) -> bool:
        return self._closing

    def begin_shutdown(self) -> None:
        """Stop admitting work; in-flight solves keep running (drain them
        with :meth:`drain`)."""
        self._closing = True

    async def drain(self) -> None:
        """Wait until every in-flight solve has resolved (their outcomes —
        including failures — are consumed here, not re-raised)."""
        while self._inflight:
            futures = list(self._inflight.values())
            await asyncio.gather(*futures, return_exceptions=True)
            # _transfer pops entries from a done-callback; yield once so
            # callbacks scheduled after the gather get to run
            await asyncio.sleep(0)

    async def aclose(self) -> None:
        """Graceful async shutdown: refuse new work, drain in-flight
        solves, then release the pool and the store."""
        self.begin_shutdown()
        await self.drain()
        self.close()

    def close(self) -> None:
        self._closing = True
        self._pool.shutdown(wait=True)
        self.store.close()
