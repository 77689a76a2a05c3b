"""The traced run: where each workload's time goes, layer by layer.

The same seeded inputs as the end-to-end run go through three passes:

1. **served** — serially through the real entry point (one request in
   flight), recording client latency per request, the serving tree's CPU
   from ``/proc`` and the server's stderr;
2. **reference** — in this process, through the entry point's own
   request handler (``handle_request`` for ``repro serve``, ``run_batch``
   for ``repro batch``), timed per request;
3. **decomposed** — in this process, the same path spelled out as calls
   to each layer's public functions, each wrapped in a span.

A span's *self* time is its duration minus its child spans' (replay
validation nested in ``store.put`` counts as ``replay``).  Per-layer
``*_ms`` metrics are self time per request.  ``unattributed_frac`` is the
share of the reference time no layer span covers; ``transport_ms`` is the
median of served latency minus reference time, request by request.
Nothing inside ``src/`` is instrumented: the only hook is a wrapper
around ``Solution.validate`` installed in this process.  In the reference
pass it counts the replays the real handler makes (on the service's
thread pool too), which gives ``replay.validations_per_req``; in the
decomposed pass it times them.  ``store.hit_rate`` is read off the served
pass's own answers.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import replace

from repro.batch import run_batch
from repro.batch.scenarios import Scenario
from repro.core.compiled import clear_compile_cache
from repro.core.solve_fast import clear_solve_kernels, solve_kernel_stats
from repro.io.json_io import platform_from_dict, problem_from_dict, solution_to_dict
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.service.engine import ScheduleService, cache_key, rebind_solution
from repro.service.protocol import handle_request
from repro.service.store import SolutionStore
from repro.service.supervisor import Supervisor, WorkerConfig
from repro.solve import Problem, Solution, solve

import endtoend
import inputs
from checks import check_answers, check_batch_rows
from endtoend import Outcome, percentile
from served import (
    Server,
    closed_loop,
    open_loop,
    poisson_schedule,
    repro_env,
    run_batch_cli,
)

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("io.decode_ms", "ms", "lower"),
    ("io.encode_ms", "ms", "lower"),
    ("io.response_bytes", "bytes", "lower"),
    ("canon.ms", "ms", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("store.hit_rate", "ratio", "higher"),
    ("store.entries", "count", "lower"),
    ("engine.rebind_ms", "ms", "lower"),
    ("replay.validate_ms", "ms", "lower"),
    ("replay.validations_per_req", "count", "lower"),
    ("solve.chain_ms", "ms", "lower"),
    ("solve.star_ms", "ms", "lower"),
    ("solve.spider_ms", "ms", "lower"),
    ("solve.fallbacks", "count", "lower"),
    ("trees.solve_ms", "ms", "lower"),
    ("trees.rounds_mean", "count", "lower"),
    ("batch.overhead_frac", "ratio", "lower"),
    ("route.key_ms", "ms", "lower"),
    ("fleet.router_cpu_ms_per_req", "ms", "lower"),
    ("fleet.worker_cpu_ms_per_req", "ms", "lower"),
    ("fleet.shard_share_max", "ratio", "lower"),
    ("supervisor.ready_s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("transport_ms", "ms", "lower"),
    ("unattributed_frac", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.max_rate_rps", "1/s", "higher"),
    ("server.stderr_lines", "count", "lower"),
]
#: span name -> the metric reporting its self time per request.
_SPAN_METRIC = {
    "io.decode": "io.decode_ms", "io.encode": "io.encode_ms",
    "canon": "canon.ms", "store.get": "store.get_ms",
    "store.put": "store.put_ms", "engine.rebind": "engine.rebind_ms",
    "replay": "replay.validate_ms", "solve.chain": "solve.chain_ms",
    "solve.star": "solve.star_ms", "solve.spider": "solve.spider_ms",
    "trees.solve": "trees.solve_ms",
}
UNATTRIBUTED_FLAG = 0.05
#: requests per traced pass at ``--seconds 15`` (proportionally fewer
#: below): fixed, so the counts repeat exactly run to run.
TRACED = {"serve_hit": 1000, "serve_miss": 100, "fleet_zipf": 1000,
          "batch_tree": 60}
#: fleet_zipf's fixed ladder of offered rates for ``loadgen.max_rate_rps``;
#: ``loadgen.late_p99_ms`` is read on its first rung.
LADDER = (100.0, 250.0, 400.0, 550.0, 700.0, 850.0)
#: a rung passes while p95 stays within this limit...
LADDER_LIMIT_MS = 25.0
#: ...and the generator's lag at p90 within this one (p90, so that a brief
#: stall of the whole VM does not count); beyond it the client, not the
#: fleet, would be measured.
LATE_LIMIT_MS = 10.0


class Tracer:
    """In-memory spans with self time (duration minus child spans)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            children = self._stack.pop()
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - children
            if self._stack:
                self._stack[-1] += elapsed


class _NoSpans:
    """A tracer that records nothing (the reference pass)."""

    def span(self, name: str):
        return nullcontext()


NO_SPANS = _NoSpans()


class CallCounter:
    """A hook that only counts its calls, from any thread."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        return nullcontext()


@contextmanager
def hooked_replays(hook):
    """Run every ``Solution.validate`` call made in this process — by the
    benchmark, inside the store or on a service thread — inside the
    context manager ``hook()`` returns."""
    original = Solution.validate

    def validate(self, engine=None):
        with hook():
            return original(self, engine)

    Solution.validate = validate
    try:
        yield
    finally:
        Solution.validate = original


def _solve_span(platform) -> str:
    return ("solve.chain" if isinstance(platform, Chain)
            else "solve.star" if isinstance(platform, Star)
            else "solve.spider" if isinstance(platform, Spider)
            else "trees.solve")


def serve_path(tracer, store: SolutionStore, line: bytes, verify: bool
               ) -> str:
    """``repro serve``'s handling of one solve line, one span per layer
    (mirrors ``protocol.handle_request`` -> ``ScheduleService.submit``;
    ``verify`` is the service's ``verify_rebinds``)."""
    with tracer.span("io.decode"):
        request = json.loads(line)
        problem = problem_from_dict(request["problem"])
    with tracer.span("canon"):
        fingerprint, canon = cache_key(problem)
    with tracer.span("store.get"):
        solution = store.get(fingerprint)
    cached = solution is not None
    if not cached:
        canonical = replace(problem, platform=canon.platform, warm_caps=None)
        with tracer.span(_solve_span(problem.platform)):
            solution = solve(canonical)
        with tracer.span("store.put"):
            store.put(fingerprint, solution)
    with tracer.span("engine.rebind"):
        rebound = rebind_solution(solution, problem, canon)
    if verify:
        rebound.validate()
    with tracer.span("io.encode"):
        return json.dumps({
            "id": request.get("id"), "ok": True, "cached": cached,
            "coalesced": False, "fingerprint": fingerprint,
            "solution": solution_to_dict(rebound)})


def _router_in(tracer, line: bytes) -> bytes:
    """The shard router's share before the worker: decode, route key,
    re-encode for the worker pipe."""
    with tracer.span("io.decode"):
        request = json.loads(line)
    with tracer.span("route.key"):
        problem = problem_from_dict(request["problem"])
        with tracer.span("canon"):
            cache_key(problem)
    with tracer.span("io.encode"):
        forwarded = {k: v for k, v in request.items() if k != "id"}
        return (json.dumps({**forwarded, "id": "w1"}) + "\n").encode()


def _router_out(tracer, text: str) -> None:
    """The router's share after the worker: decode its line, re-encode
    it for the client."""
    with tracer.span("io.decode"):
        response = json.loads(text)
    with tracer.span("io.encode"):
        json.dumps(response)


def import_seconds() -> float:
    """Median time of ``import repro.cli`` in three fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=repro_env(),
                             check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(3))


def supervisor_ready_seconds(shards: int) -> float:
    """Boot a supervised fleet in-process; seconds until its slowest shard
    has answered its first ping."""
    async def boot() -> float:
        up: dict[int, float] = {}
        supervisor = Supervisor(
            shards, WorkerConfig(),
            on_up=lambda s: up.setdefault(s, time.perf_counter()),
            on_down=lambda s: None)
        t0 = time.perf_counter()
        try:
            await supervisor.start()
        finally:
            await supervisor.aclose()
        return max(up.values()) - t0

    return asyncio.run(boot())


def _count(seconds: int, workload: str) -> int:
    return max(4, TRACED[workload] * min(seconds, 15) // 15)


def _fresh_kernels() -> None:
    """Forget every solve/replay kernel cache, so a pass over distinct
    problems pays the compiles the server paid."""
    clear_solve_kernels()
    clear_compile_cache()


def _layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    values = {name: 0.0 for name, _, _ in METRICS}
    for span, name in _SPAN_METRIC.items():
        values[name] = tracer.self_s[span] / requests * 1e3
    values["route.key_ms"] = tracer.total_s["route.key"] / requests * 1e3
    return values


def _finish(out: Outcome, values: dict[str, float], tracer: Tracer,
            reference_s: float, decomposed_s: float) -> None:
    values["unattributed_frac"] = 1.0 - sum(tracer.self_s.values()) / reference_s
    values["trace_overhead"] = decomposed_s / reference_s
    values["import_s"] = import_seconds()
    out.metrics = {name: (values[name], unit) for name, unit, _ in METRICS}
    flag = values["unattributed_frac"] > UNATTRIBUTED_FLAG
    out.notes.append(
        f"unattributed {values['unattributed_frac']:.1%} of the in-process "
        f"reference" + (" -- FLAG: above 5%" if flag else ""))


def _serve_like(seed: int, seconds: int, workdir: str, workload: str
                ) -> Outcome:
    count = _count(seconds, workload)
    fleet = workload == "fleet_zipf"
    if workload == "serve_miss":
        stream = inputs.miss_stream(seed, count + 10)
        requests = stream[:count]
        warm_lines = [inputs.with_id(0, r.body) for r in stream[count:]]
        answers = {id(r): inputs.expected(r.problem, served=True)
                   for r in requests}
        want = lambda r: answers[id(r)]  # noqa: E731
    else:
        pool = inputs.zipf_pool(seed)
        requests = inputs.zipf_stream(seed, pool)[:count]
        warm_lines = endtoend.zipf_warm_up(pool, [r.body for r in requests])
        answers = [inputs.expected(p, served=True) for p in pool]
        want = lambda r: answers[r.slot]  # noqa: E731
    lines = [inputs.with_id(i, r.body) for i, r in enumerate(requests)]
    out = Outcome()
    values: dict[str, float] = {}

    # 1. served
    server = Server(["--shards", str(endtoend.SHARDS)] if fleet else [],
                    workdir, "traced")
    graceful = False
    try:
        server.wait_ready(endtoend.SHARDS if fleet else 0)
        endtoend.warm_up(server, warm_lines)
        phase = closed_loop(server, [r.body for r in requests], 600.0,
                            cycle=False, windows=1)
        router_s, workers_s = phase.cuts[-1].cpu.since(phase.cuts[0].cpu)
        if fleet:
            values["fleet.router_cpu_ms_per_req"] = router_s / count * 1e3
            values["fleet.worker_cpu_ms_per_req"] = workers_s / count * 1e3
            values.update(_ladder(server, requests, seed, seconds))
        graceful = True
    finally:
        values["server.stderr_lines"] = server.close(graceful)
    verdict = check_answers(phase.answers, requests, want)
    out.add(verdict, phase.attempted)
    values["store.hit_rate"] = verdict.hits / max(1, verdict.ok)
    if fleet:
        values["fleet.shard_share_max"] = (max(verdict.shards.values())
                                           / max(1, verdict.ok))
        values["supervisor.ready_s"] = supervisor_ready_seconds(endtoend.SHARDS)

    loop = asyncio.new_event_loop()
    service = ScheduleService()
    store = SolutionStore()

    def reference(line: bytes) -> float:
        """2. the server's own request handler, in this process."""
        t0 = time.perf_counter()
        if fleet:
            line = _router_in(NO_SPANS, line)
        response = loop.run_until_complete(
            handle_request(service, line.decode()))
        text = json.dumps(response)
        if fleet:
            _router_out(NO_SPANS, text)
        if not response.get("ok"):
            raise RuntimeError(f"in-process reference failed: {text[:200]}")
        return time.perf_counter() - t0

    def decomposed(tracer, line: bytes) -> int:
        """3. the same path, one span per layer; returns response bytes."""
        if fleet:
            line = _router_in(tracer, line)
        text = serve_path(tracer, store, line, service.verify_rebinds)
        if fleet:
            _router_out(tracer, text)
        return len(text) + 1

    try:
        _fresh_kernels()
        for line in warm_lines:
            reference(line)
        replays = CallCounter()
        with hooked_replays(replays):
            ref = [reference(line) for line in lines]
        values["store.entries"] = len(service.store)
        _fresh_kernels()
        for line in warm_lines:
            decomposed(NO_SPANS, line)
        tracer = Tracer()
        fallbacks = solve_kernel_stats()["fallbacks"]
        t0 = time.perf_counter()
        with hooked_replays(lambda: tracer.span("replay")):
            sizes = [decomposed(tracer, line) for line in lines]
        decomposed_s = time.perf_counter() - t0
    finally:
        service.close()
        store.close()
        loop.close()
    values = _layer_metrics(tracer, count) | values
    values["replay.validations_per_req"] = replays.calls / count
    values["solve.fallbacks"] = solve_kernel_stats()["fallbacks"] - fallbacks
    values["io.response_bytes"] = statistics.mean(sizes)
    served = [lat for _, lat, _ in phase.answers]
    values["transport_ms"] = statistics.median(
        (s - r) * 1e3 for s, r in zip(served, ref))
    _finish(out, values, tracer, sum(ref), decomposed_s)
    return out


def _ladder(server: Server, requests, seed: int, seconds: int
            ) -> dict[str, float]:
    """Offer each ladder rate for a short open-loop step.  The highest rate
    whose p95 stays within the fleet's limit, with no growing backlog and
    the generator on schedule, is ``loadgen.max_rate_rps``; the generator's
    lag (p99) is reported on the first rung."""
    step_s = max(1.0, seconds / 6)
    bodies = [r.body for r in requests]
    best, late_at_base = 0.0, 0.0
    first_id = 10 ** 6
    for rate in LADDER:
        offsets = poisson_schedule(rate, step_s,
                                   random.Random(f"ladder:{seed}:{rate}"))
        phase = open_loop(server, bodies, offsets, first_id)
        first_id += len(offsets)
        latencies = [lat for _, lat, _ in phase.answers]
        latencies += [float("inf")] * (phase.attempted - len(latencies))
        if rate == LADDER[0]:
            late_at_base = percentile(phase.late_s, 0.99) * 1e3
        quarter = max(1, len(latencies) // 4)
        growing = (statistics.median(latencies[-quarter:])
                   > 2 * statistics.median(latencies[:quarter]) + 1e-3)
        if (percentile(latencies, 0.95) * 1e3 > LADDER_LIMIT_MS
                or growing
                or percentile(phase.late_s, 0.90) * 1e3 > LATE_LIMIT_MS):
            break
        best = rate
    return {"loadgen.max_rate_rps": best, "loadgen.late_p99_ms": late_at_base}


def serve_hit(seed: int, seconds: int, workdir: str) -> Outcome:
    return _serve_like(seed, seconds, workdir, "serve_hit")


def serve_miss(seed: int, seconds: int, workdir: str) -> Outcome:
    return _serve_like(seed, seconds, workdir, "serve_miss")


def fleet_zipf(seed: int, seconds: int, workdir: str) -> Outcome:
    return _serve_like(seed, seconds, workdir, "fleet_zipf")


def batch_tree(seed: int, seconds: int, workdir: str) -> Outcome:
    count = _count(seconds, "batch_tree")
    scenarios, reference = endtoend.batch_scenarios(seed, count)
    out = Outcome()

    # 1. served
    batch_run = run_batch_cli(scenarios, workdir, "traced")
    out.add(check_batch_rows(batch_run.rows, scenarios, reference), count)

    # 2. reference: the batch runner, in this process
    _fresh_kernels()
    replays = CallCounter()
    t0 = time.perf_counter()
    with hooked_replays(replays):
        results = run_batch([Scenario.from_dict(s) for s in scenarios],
                            validate=True)
    reference_s = time.perf_counter() - t0
    if not all(r.ok for r in results):
        raise RuntimeError("in-process batch reference failed")

    # 3. decomposed
    _fresh_kernels()
    tracer = Tracer()
    fallbacks = solve_kernel_stats()["fallbacks"]
    rounds = []
    t0 = time.perf_counter()
    with hooked_replays(lambda: tracer.span("replay")):
        for s in scenarios:
            with tracer.span("io.decode"):
                problem = Problem(platform_from_dict(s["platform"]), s["kind"],
                                  n=s["n"], t_lim=s.get("t_lim"))
            with tracer.span("trees.solve"):
                solution = solve(problem)
            solution.validate()
            rounds.append(len(solution.extra["rounds"]))
    decomposed_s = time.perf_counter() - t0
    values = _layer_metrics(tracer, count)
    values["replay.validations_per_req"] = replays.calls / count
    values["server.stderr_lines"] = batch_run.stderr_lines
    values["solve.fallbacks"] = solve_kernel_stats()["fallbacks"] - fallbacks
    values["trees.rounds_mean"] = statistics.mean(rounds)
    values["batch.overhead_frac"] = 1.0 - (
        tracer.total_s["trees.solve"] + tracer.total_s["replay"]) / reference_s
    _finish(out, values, tracer, reference_s, decomposed_s)
    return out


WORKLOADS = {
    "serve_hit": serve_hit,
    "serve_miss": serve_miss,
    "fleet_zipf": fleet_zipf,
    "batch_tree": batch_tree,
}
