"""End-to-end runs: each workload through its real entry point, untraced.

Every function returns a :class:`Outcome` carrying the end-to-end metrics
of ``BENCHMARK.json`` (the same five on every workload) plus extra lines
for the human-readable report (``failed_frac``, tail latencies, hit
counts, steal).

Every time metric is read at the reference speed of :mod:`speed`: the
benchmark runs pinned to one CPU, a wall time is taken less the steal time
of that CPU and less the probes' own time, and a time (wall or CPU) is
multiplied by the speed factor of the span it was measured in -- per
window of a served phase, per ``repro batch`` command, per set-up.  The
metric is then the median over the windows (commands, set-ups).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

from repro.io.json_io import platform_from_dict
from repro.solve import Problem

import inputs
from checks import Verdict, check_answers, check_batch_rows
from served import Server, closed_loop, run_batch_cli
from speed import Sampler

#: set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5
FLEET_SETUP_REPS = 3
#: speed probes just before and just after each set-up.
SETUP_PROBES = 3
SHARDS = 2
#: windows a served phase is cut into.
WINDOWS = 15
#: ``repro batch`` commands (chunks) a batch phase is split into.
CHUNKS = 5
#: batch_tree scenarios per measured second (about 25/s are answered here).
BATCH_PER_SECOND = 25
#: scenarios of a batch that are re-solved in-process as references.
BATCH_REFERENCES = 24
WARMUP = 200
#: miss requests built per measured second, well above the ~50/s answered
#: here, so that a much faster miss path still runs the full ``--seconds``.
MISS_PER_SECOND = 400
#: name -> unit of the end-to-end metrics; every workload reports all five.
METRICS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
}


@dataclass
class Outcome:
    """One run's result: metrics (name -> (value, unit)), request counts,
    wrong answers and report lines."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def set_metrics(self, **values: float) -> None:
        self.metrics = {name: (values[name], unit)
                        for name, unit in METRICS.items()}

    def add(self, verdict: Verdict, attempted: int) -> None:
        self.attempted += attempted
        self.failed += attempted - verdict.ok
        self.wrong += verdict.wrong


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def unstolen(wall_s: float, steal_s: float) -> float:
    """The share of ``wall_s`` the machine was not robbed of by steal."""
    share = 1.0 - steal_s / wall_s
    if share <= 0.0:
        raise RuntimeError(f"steal time {steal_s:.3f}s over {wall_s:.3f}s of "
                           f"wall: the host was too busy to measure")
    return share


def tails(latencies: list[float]) -> str:
    """A report line: raw p95 and p99, with the samples beyond each."""
    n = len(latencies)
    return ", ".join(
        f"raw p{round(q * 100)} {percentile(latencies, q) * 1e3:.3f} ms "
        f"({n - int(q * n)} beyond)" for q in (0.95, 0.99))


def _spread(factors: list[float]) -> str:
    return (f"{min(factors):.2f}-{max(factors):.2f} "
            f"(median {statistics.median(factors):.2f})")


def setup_reps(seconds: int, most: int) -> int:
    return max(1, min(most, seconds // 3))


def boot(args: list[str], workdir: str, reps: int, shards: int
         ) -> tuple[Server, float]:
    """Spawn the server ``reps`` times; keep the last one.  Returns it and
    the median spawn-to-ready time, less steal, at the reference speed
    (probed just before the spawn and just after ready)."""
    times = []
    for rep in range(reps):
        sampler = Sampler()
        for _ in range(SETUP_PROBES):
            sampler.take()
        server = Server(args, workdir, f"setup{rep}")
        try:
            ready_s = server.wait_ready(shards)
        except BaseException:
            server.close(graceful=False)
            raise
        for _ in range(SETUP_PROBES):
            sampler.take()
        times.append(ready_s * sampler.factor())
        if rep < reps - 1:
            server.close()
    return server, statistics.median(times)


def warm_up(server: Server, lines: list[bytes]) -> None:
    """Serve ``lines`` one at a time, untimed; every answer must be ok."""
    for line in lines:
        server.send(line)
        response = json.loads(server.recv())
        if not response.get("ok"):
            raise RuntimeError(f"warm-up request failed: {response.get('error')}")


def zipf_warm_up(pool, bodies: list[str]) -> list[bytes]:
    """Every pool platform once (priming the store), then the stream's
    first requests."""
    return [inputs.with_id(0, b)
            for b in [inputs.body(p) for p in pool] + bodies[:WARMUP]]


def _serve(seconds: int, workdir: str, shards: int, warm_lines: list[bytes],
           stream: list[inputs.Request], want, cycle: bool) -> Outcome:
    """Boot ``repro serve`` (a fleet of ``shards`` when non-zero), warm it
    up, drive ``stream`` through a closed loop for ``seconds``, then check
    every answer against ``want(request)``."""
    args = ["--shards", str(shards)] if shards else []
    reps = FLEET_SETUP_REPS if shards else SETUP_REPS
    server, setup_s = boot(args, workdir, setup_reps(seconds, reps), shards)
    try:
        warm_up(server, warm_lines)
        phase = closed_loop(server, [r.body for r in stream], seconds, cycle,
                            WINDOWS)
        rss_mb = phase.rss_mb or server.peak_rss_mb()
    finally:
        stderr_lines = server.close()
    if phase.attempted == len(stream) and not cycle:
        raise RuntimeError(f"the stream of {len(stream)} requests ran out "
                           f"before {seconds}s; build a longer one")
    verdict = check_answers(phase.answers, stream, want)
    out = Outcome()
    out.add(verdict, phase.attempted)
    latencies = [lat for _, lat, _ in phase.answers]
    rates, adjusted, cpus = [], [], []
    for start, end, sampler in zip(phase.cuts, phase.cuts[1:], phase.samplers):
        n = end.answered - start.answered
        wall = end.clock - start.clock - sampler.wall_s
        scale = unstolen(wall, end.steal_s - start.steal_s) * sampler.factor()
        rates.append(n / (wall * scale))
        adjusted += [lat * scale
                     for lat in latencies[start.answered:end.answered]]
        cpus.append(sum(end.cpu.since(start.cpu)) / n * sampler.factor())
    out.set_metrics(
        setup_s=setup_s,
        throughput_rps=statistics.median(rates) * verdict.ok / phase.attempted,
        latency_p50_ms=statistics.median(adjusted) * 1e3,
        server_cpu_ms_per_req=statistics.median(cpus) * 1e3,
        server_rss_mb=rss_mb,
    )
    stolen = phase.cuts[-1].steal_s - phase.cuts[0].steal_s
    out.notes += [
        f"{phase.attempted} requests in {len(phase.cuts) - 1} windows; "
        f"steal {stolen / phase.wall_s:.1%} of wall; speed factor "
        f"{_spread([s.factor() for s in phase.samplers])}",
        tails(latencies),
        f"store hits {verdict.hits}/{verdict.ok}, "
        f"server stderr lines {stderr_lines}"]
    return out


def _zipf(seed: int, seconds: int, workdir: str, shards: int) -> Outcome:
    pool = inputs.zipf_pool(seed)
    stream = inputs.zipf_stream(seed, pool)
    reference = [inputs.expected(p, served=True) for p in pool]
    return _serve(seconds, workdir, shards,
                  zipf_warm_up(pool, [r.body for r in stream]), stream,
                  lambda r: reference[r.slot], cycle=True)


def serve_hit(seed: int, seconds: int, workdir: str) -> Outcome:
    return _zipf(seed, seconds, workdir, shards=0)


def fleet_zipf(seed: int, seconds: int, workdir: str) -> Outcome:
    return _zipf(seed, seconds, workdir, shards=SHARDS)


def serve_miss(seed: int, seconds: int, workdir: str) -> Outcome:
    stream = inputs.miss_stream(seed, MISS_PER_SECOND * seconds + WARMUP // 10)
    warm, stream = stream[-WARMUP // 10:], stream[:-WARMUP // 10]
    # references are solved while checking, after the timed phase and only
    # for the requests sent, so they never compete with the server
    return _serve(seconds, workdir, 0,
                  [inputs.with_id(0, r.body) for r in warm], stream,
                  lambda r: inputs.expected(r.problem, served=True),
                  cycle=False)


def batch_scenarios(seed: int, count: int):
    """The batch plus in-process references for an evenly spaced sample."""
    scenarios = inputs.tree_scenarios(seed, count)
    step = max(1, count // BATCH_REFERENCES)
    reference = {
        s["id"]: inputs.expected(Problem(
            platform_from_dict(s["platform"]), s["kind"], n=s["n"],
            t_lim=s.get("t_lim")))
        for s in scenarios[::step]
    }
    return scenarios, reference


def batch_tree(seed: int, seconds: int, workdir: str) -> Outcome:
    count = BATCH_PER_SECOND * seconds
    scenarios, reference = batch_scenarios(seed, count)
    setups = [run_batch_cli([inputs.trivial_scenario()], workdir, f"setup{rep}")
              for rep in range(setup_reps(seconds, SETUP_REPS))]
    setup_s = statistics.median((s.wall_s - s.steal_s) * s.factor
                                for s in setups)
    size = -(-count // CHUNKS)
    runs = [run_batch_cli(scenarios[k:k + size], workdir, f"batch{k}")
            for k in range(0, count, size)]
    rows = [row for run in runs for row in run.rows]
    verdict = check_batch_rows(rows, scenarios, reference)
    out = Outcome()
    out.add(verdict, count)
    rates, latencies, cpus = [], [], []
    for run in runs:
        scale = unstolen(run.wall_s, run.steal_s) * run.factor
        # a command's start-up is part of what its caller pays per scenario
        rates.append(len(run.rows) / (run.wall_s * scale))
        latencies.append(statistics.mean(row["wall_s"] for row in run.rows)
                         * scale)
        cpus.append(run.cpu_s / len(run.rows) * run.factor)
    out.set_metrics(
        setup_s=setup_s,
        throughput_rps=statistics.median(rates) * verdict.ok / count,
        latency_p50_ms=statistics.median(latencies) * 1e3,
        server_cpu_ms_per_req=statistics.median(cpus) * 1e3,
        server_rss_mb=max(run.rss_mb for run in runs),
    )
    stolen = sum(run.steal_s for run in runs) / sum(run.wall_s for run in runs)
    out.notes += [
        f"{count} scenarios in {len(runs)} batches, {len(reference)} "
        f"re-solved in-process; steal {stolen:.1%} of wall; speed factor "
        f"{_spread([run.factor for run in runs])}",
        tails([row["wall_s"] for row in rows]),
        f"batch stderr lines {sum(run.stderr_lines for run in runs)}"]
    return out


WORKLOADS = {
    "serve_hit": serve_hit,
    "serve_miss": serve_miss,
    "fleet_zipf": fleet_zipf,
    "batch_tree": batch_tree,
}
