"""The gated benchmark families, declared once in :data:`FAMILIES`.

A family is one committed ``BENCH_<name>.json`` plus the kernels that
produce it; ``python -m benchmarks.check_regressions`` runs every row of
the table the same way.  A row names its kernels, the workload constants
its file records, its *timing fields* (wall clock and everything derived
from it: never compared exactly) and its *claims*: floors checked on every
fresh run, each written as (kernel, field, comparison, bound, reason).  A
bound may be computed from the same kernel's output.

Each kernel is a zero-argument callable returning a flat measurement dict:
``seconds`` plus the counters that make the number explainable.  A kernel
with per-row detail returns it under ``suite``, and the runner moves it to
the file's top level.  The *same* definitions produce the committed
baseline and the fresh run it is compared against, so the two are always
commensurable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple

from repro.analysis.steady_state import spider_steady_state, tree_steady_state
from repro.batch import BatchRunner, Scenario
from repro.core.chain import schedule_chain, schedule_chain_deadline
from repro.core.fork import fork_schedule, fork_schedule_deadline
from repro.core.solve_fast import spider_deadline
from repro.core.spider import spider_schedule, spider_schedule_deadline
from repro.io.json_io import platform_to_dict
from repro.platforms.chain import Chain
from repro.platforms.star import Star
from repro.platforms.generators import random_chain, random_star, random_tree
from repro.platforms.spider import Spider
from repro.solve import Problem, solve
from repro.solve.repatch import REPATCH_TOLERANCE
from repro.trees.heuristic import best_path_cover, tree_schedule_by_cover


class Claim(NamedTuple):
    """A floor on one fresh field: ``fresh[kernel][field] <op> bound``."""

    kernel: str
    field: str
    op: str  # "<", "<=", "==", ">=" or ">"
    bound: Any  # a value, or a function of the kernel's fresh output
    reason: str


class Family(NamedTuple):
    """One ``BENCH_<name>.json`` and everything the runner needs for it."""

    name: str
    kernels: dict[str, Callable[[], dict]]
    workload: dict
    timing: frozenset[str] = frozenset()
    claims: tuple[Claim, ...] = ()


def _best_of(fn: Callable[[], dict], rounds: int) -> dict:
    """Run ``fn`` ``rounds`` times, keep the fastest measurement."""
    best: dict | None = None
    for _ in range(rounds):
        m = fn()
        if best is None or m["seconds"] < best["seconds"]:
            best = m
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# The tree acceptance suite: the tree solver vs the single cover
# ---------------------------------------------------------------------------

#: Suite shape: seeded ``cpu_heavy`` trees whose best single spider cover
#: drops at least this fraction of the tree's bandwidth-centric capacity —
#: the regime where covering loses and the tree solver must win back the
#: dropped workers.  (On trees with no capacity gap the single cover is
#: already port-limited-optimal and every scheduler ties; including them
#: would only measure noise.)
TREE_SUITE_SIZE = 15
TREE_SUITE_MIN_GAP = 0.15
TREE_SUITE_FIRST_SEED = 300
TREE_SUITE_N = 24

#: seed-scan bound: if gap-qualified trees ever become this rare the suite
#: definition itself has drifted — fail fast instead of spinning forever.
TREE_SUITE_MAX_SEED = TREE_SUITE_FIRST_SEED + 10_000


def tree_suite() -> list[tuple[int, object, float]]:
    """``(seed, tree, capacity_gap)`` rows, deterministic by construction."""
    suite: list[tuple[int, object, float]] = []
    seed = TREE_SUITE_FIRST_SEED
    while len(suite) < TREE_SUITE_SIZE:
        if seed >= TREE_SUITE_MAX_SEED:
            raise RuntimeError(
                f"only {len(suite)}/{TREE_SUITE_SIZE} trees with capacity gap "
                f">= {TREE_SUITE_MIN_GAP} found in seeds "
                f"[{TREE_SUITE_FIRST_SEED}, {TREE_SUITE_MAX_SEED}) — the "
                "generator profile or gap threshold has drifted"
            )
        tree = random_tree(9 + seed % 5, profile="cpu_heavy", seed=seed)
        cover_rate = spider_steady_state(best_path_cover(tree).spider).throughput
        tree_rate = tree_steady_state(tree).throughput
        gap = 1 - float(cover_rate) / float(tree_rate)
        if gap >= TREE_SUITE_MIN_GAP:
            suite.append((seed, tree, gap))
        seed += 1
    return suite


def tree_suite_results() -> list[dict]:
    """Per-tree detail (deadline mode): the tree solver's tasks through the
    solver registry, which method answered, and the single cover's tasks
    from the spider deadline solve of its cover.  ``*_vs_bound`` is tasks
    over what the tree's steady-state throughput allows by ``t_lim``: a
    ratio to an upper bound, not to the optimum.

    The deadline is twice the single cover's optimal makespan for
    ``TREE_SUITE_N`` tasks — a generous horizon, the steady-state-approach
    regime where covering quality matters.
    """
    rows = []
    for seed, tree, gap in tree_suite():
        t_lim = 2 * tree_schedule_by_cover(tree, TREE_SUITE_N).makespan
        answer = solve(Problem(tree, "deadline", t_lim=t_lim))
        single = spider_deadline(best_path_cover(tree).spider, t_lim)[0]
        bound = float(tree_steady_state(tree).throughput) * t_lim
        rows.append({
            "seed": seed,
            "workers": tree.p,
            "t_lim": t_lim,
            "capacity_gap": round(gap, 4),
            "single_tasks": single.n_tasks,
            "tree_tasks": answer.n_tasks,
            "method": answer.extra["rounds"][0]["method"],
            "coverage": round(answer.extra["coverage"], 4),
            "single_vs_bound": round(single.n_tasks / bound, 4),
            "tree_vs_bound": round(answer.n_tasks / bound, 4),
        })
    return rows


def kernel_tree_suite() -> dict:
    """The whole tree suite, aggregated, with the per-tree rows."""

    def once() -> dict:
        t0 = time.perf_counter()
        rows = tree_suite_results()
        seconds = time.perf_counter() - t0
        wins = sum(r["tree_tasks"] > r["single_tasks"] for r in rows)
        losses = sum(r["tree_tasks"] < r["single_tasks"] for r in rows)
        return {
            "seconds": seconds,
            "trees": len(rows),
            "wins": wins,
            "ties": len(rows) - wins - losses,
            "losses": losses,
            "single_tasks": sum(r["single_tasks"] for r in rows),
            "tree_tasks": sum(r["tree_tasks"] for r in rows),
            "construction_answers": sum(
                r["method"] == "construction" for r in rows
            ),
            "mean_single_vs_bound": round(
                sum(r["single_vs_bound"] for r in rows) / len(rows), 4
            ),
            "mean_tree_vs_bound": round(
                sum(r["tree_vs_bound"] for r in rows) / len(rows), 4
            ),
            "max_tree_vs_bound": max(r["tree_vs_bound"] for r in rows),
            "suite": rows,
        }

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The online acceptance suite: policies × platforms vs the offline optimum
# ---------------------------------------------------------------------------

#: Suite shape: one chain, star and spider per heterogeneity profile, each
#: run offline (the paper's optimum) and online under every policy, all
#: through the batch engine with replay validation on — so the committed
#: numbers certify the whole unified execution layer, not just the sim.
ONLINE_SUITE_N = 24
ONLINE_SUITE_PROFILES = ("balanced", "comm_bound", "cpu_bound", "volunteer")
ONLINE_SUITE_POLICIES = ("bandwidth_centric", "demand_driven", "round_robin")


def online_suite() -> list[tuple[str, object]]:
    """``(name, platform)`` rows, deterministic by construction."""
    from repro.platforms.generators import random_spider

    suite: list[tuple[str, object]] = []
    for i, profile in enumerate(ONLINE_SUITE_PROFILES):
        suite.append(
            (f"chain-{profile}", random_chain(5, profile=profile, seed=700 + i))
        )
        suite.append(
            (f"star-{profile}", random_star(6, profile=profile, seed=720 + i))
        )
        suite.append(
            (f"spider-{profile}", random_spider(3, 3, profile=profile, seed=740 + i))
        )
    return suite


def online_suite_results() -> list[dict]:
    """Per-platform detail: offline optimum vs each policy's achieved
    makespan and the regret ratio, answered through the batch engine
    (``kind:"online"`` scenarios, ``validate=True``) so the suite also
    exercises the registry dispatch and the replay validator."""
    scenarios = []
    for name, platform in online_suite():
        pdict = platform_to_dict(platform)
        scenarios.append(Scenario(f"{name}-offline", pdict, "makespan",
                                  n=ONLINE_SUITE_N))
        for policy in ONLINE_SUITE_POLICIES:
            scenarios.append(Scenario(
                f"{name}-{policy}", pdict, "online", n=ONLINE_SUITE_N,
                options={"policy": policy},
            ))
    by_id = {
        r.scenario_id: r
        for r in BatchRunner(workers=1, validate=True).run(scenarios)
    }
    rows = []
    for name, _platform in online_suite():
        offline = by_id[f"{name}-offline"]
        assert offline.ok and offline.validated, offline.error
        row: dict = {
            "platform": name,
            "n": ONLINE_SUITE_N,
            "offline_makespan": offline.makespan,
        }
        for policy in ONLINE_SUITE_POLICIES:
            online = by_id[f"{name}-{policy}"]
            assert online.ok and online.validated, online.error
            assert online.makespan >= offline.makespan, (
                f"{name}: policy {policy} beat the offline optimum "
                f"({online.makespan} < {offline.makespan})"
            )
            row[policy] = online.makespan
            row[f"{policy}_ratio"] = round(
                float(online.makespan) / float(offline.makespan), 4
            )
        rows.append(row)
    return rows


def kernel_online_regret_suite() -> dict:
    """The whole online suite through the batch engine, aggregated, with
    the per-platform rows."""

    def once() -> dict:
        t0 = time.perf_counter()
        rows = online_suite_results()
        seconds = time.perf_counter() - t0
        out: dict = {
            "seconds": seconds,
            "platforms": len(rows),
            "runs": len(rows) * len(ONLINE_SUITE_POLICIES),
            "offline_total": sum(r["offline_makespan"] for r in rows),
        }
        for policy in ONLINE_SUITE_POLICIES:
            out[f"{policy}_total"] = sum(r[policy] for r in rows)
            out[f"{policy}_mean_ratio"] = round(
                sum(r[f"{policy}_ratio"] for r in rows) / len(rows), 4
            )
        out["suite"] = rows
        return out

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The service acceptance workload: zipf-repeated platforms through the cache
# ---------------------------------------------------------------------------

#: Workload shape: a pool of distinct platforms (all four kinds), hit by a
#: zipf-distributed request stream in which every request is a *random
#: relabeling* of its platform — the regime the canonical fingerprints
#: exist for.  Cold pass = empty store (misses solve + validate + store;
#: zipf repeats already hit), warm pass = same stream again (pure hits).
SERVICE_POOL_SIZE = 24
SERVICE_REQUESTS = 160
SERVICE_N = 48
SERVICE_SEED = 0x51CE


def relabeled_platform(platform, rng):
    """A randomly relabeled isomorphic copy (chains have no freedom)."""
    from repro.platforms.tree import Tree

    if isinstance(platform, Star):
        children = list(platform.children)
        rng.shuffle(children)
        return Star(children)
    if isinstance(platform, Spider):
        legs = list(platform.legs)
        rng.shuffle(legs)
        return Spider(legs)
    if isinstance(platform, Tree):
        nodes = platform.workers
        new_ids = rng.sample(range(1, 10 * (len(nodes) + 2)), len(nodes))
        perm = {0: 0, **dict(zip(nodes, new_ids))}
        edges = [
            (perm[platform.parent(v)], perm[v],
             platform.latency(v), platform.work(v))
            for v in nodes
        ]
        rng.shuffle(edges)
        return Tree(edges)
    return platform


def service_workload() -> list:
    """The deterministic request stream (a list of Problems)."""
    import random

    from repro.platforms.generators import random_spider
    from repro.solve import Problem

    pool = []
    for i in range(SERVICE_POOL_SIZE):
        kind = i % 4
        if kind == 0:
            pool.append(random_spider(4, 3, seed=900 + i))
        elif kind == 1:
            pool.append(random_chain(6, seed=900 + i))
        elif kind == 2:
            pool.append(random_star(8, seed=900 + i))
        else:
            pool.append(random_tree(7, seed=900 + i))
    rng = random.Random(SERVICE_SEED)
    weights = [1.0 / rank for rank in range(1, SERVICE_POOL_SIZE + 1)]
    picks = rng.choices(range(SERVICE_POOL_SIZE), weights=weights,
                        k=SERVICE_REQUESTS)
    return [
        Problem(relabeled_platform(pool[i], rng), "makespan", n=SERVICE_N)
        for i in picks
    ]


def kernel_service_zipf() -> dict:
    """The cached-service kernel: the zipf stream twice through one store.

    The cold pass starts from an empty store (misses solve, replay-validate
    and store; relabeled repeats already hit), the warm pass replays the
    stream against the primed store.  The counters show the canonical
    fingerprints at work.  Per-request latency is not measured here: this
    is in-process ``cached_solve``, a sub-path of what ``repro serve`` does
    per request, which perfbench's ``serve_hit``/``serve_miss`` time."""
    from repro.service.engine import cached_solve
    from repro.service.store import SolutionStore

    def once() -> dict:
        problems = service_workload()
        store = SolutionStore(capacity=2 * SERVICE_POOL_SIZE)
        t0 = time.perf_counter()
        cold = [cached_solve(problem, store).cached for problem in problems]
        warm = [cached_solve(problem, store).cached for problem in problems]
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "requests": len(cold) + len(warm),
            "pool": SERVICE_POOL_SIZE,
            "cold_hits": cold.count(True),
            "cold_misses": cold.count(False),
            "warm_hits": warm.count(True),
            "store_entries": len(store),
            "cold_hit_rate": round(cold.count(True) / len(cold), 4),
        }

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The replay acceptance workload: the array validator vs the event executor
# ---------------------------------------------------------------------------

#: repeats per solution when timing one validation (min taken — validation
#: is deterministic, so the minimum is the least-noisy estimator).
REPLAY_TIMING_ROUNDS = 7


def replay_workload_solutions() -> list:
    """One solved Solution per *distinct* platform of the PR 4 zipf
    workload (the relabeled repeats share fingerprints with these)."""
    from repro.service.canon import platform_fingerprint
    from repro.solve import solve

    distinct = {}
    for problem in service_workload():
        distinct.setdefault(platform_fingerprint(problem.platform), problem)
    return [solve(problem) for problem in distinct.values()]


def kernel_replay_zipf() -> dict:
    """The replay acceptance kernel: validate every distinct zipf-workload
    solution with the array validator and with the event executor, and
    compare per-solution medians.

    Times exactly what the hot paths run — ``Solution.validate()``, i.e.
    the store's write check and ``repro batch --validate`` — against the
    oracle, ``verify_by_execution`` (the serving regime: platforms live
    in the store's memory tier).  Both must accept every solution with
    the same makespan.  ``events`` is the number of trace events the
    executor emits for the whole workload (``Solution.replay()``),
    compared exactly by the regression gate.  ``validation_compiles``
    counts the platform compiles made during the validation loop: a
    schedule carries its compiled platform, so validating compiles
    nothing.  ``validate()`` keeps a passing scan's verdict on the
    columns and reuses it, so each timed round first clears it (outside
    the timer): every round times a real scan, not the memo's lookup."""
    from statistics import median

    from repro.core.compiled import clear_compile_cache, compile_stats
    from repro.sim.executor import verify_by_execution
    from repro.sim.replay_fast import verify_schedule

    def once() -> dict:
        clear_compile_cache()
        solutions = replay_workload_solutions()
        compiles = compile_stats()["compiles"]
        t0 = time.perf_counter()
        event_times: list[float] = []
        compiled_times: list[float] = []
        speedups: list[float] = []
        events = 0
        tasks = 0
        for sol in solutions:
            sol.validate()  # warm-up
            per_event = []
            per_compiled = []
            for _ in range(REPLAY_TIMING_ROUNDS):
                r0 = time.perf_counter()
                verify_by_execution(sol.schedule)
                per_event.append(time.perf_counter() - r0)
                sol.schedule.columns.verdict = None
                r0 = time.perf_counter()
                sol.validate()
                per_compiled.append(time.perf_counter() - r0)
            ev, co = min(per_event), min(per_compiled)
            event_times.append(ev)
            compiled_times.append(co)
            speedups.append(ev / co)
            # the oracle's trace is the event counter and the makespan
            # both validators must agree on
            trace = sol.replay()
            assert verify_schedule(sol.schedule) == trace.makespan, (
                f"validators disagree on {sol.solver} makespan"
            )
            events += len(trace.events)
            tasks += sol.n_tasks
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "platforms": len(solutions),
            "n": SERVICE_N,
            "tasks": tasks,
            "events": events,
            "validation_compiles": compile_stats()["compiles"] - compiles,
            "event_median_ms": round(median(event_times) * 1e3, 3),
            "compiled_median_ms": round(median(compiled_times) * 1e3, 3),
            "median_speedup": round(median(speedups), 2),
            "min_speedup": round(min(speedups), 2),
        }

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The churn acceptance workload: incremental repatch vs cold re-solve
# ---------------------------------------------------------------------------

#: episodes (seeded platforms × a fixed churn mix) in the workload.
CHURN_EPISODES = 6
CHURN_LEGS = 8
CHURN_LEG_DEPTH = 3
CHURN_N = 160

#: repeats per episode when timing one repair / one re-solve (min taken —
#: both paths are deterministic).
CHURN_TIMING_ROUNDS = 3


def churn_workload() -> list[tuple[Spider, list[dict]]]:
    """(platform, churn events) per episode.  The mix exercises all three
    event kinds: one whole leg leaves, another leg's head link drifts 2×
    slower, and a fresh fast leg joins — all at one instant so the repair
    has a single prefix boundary to honour."""
    episodes = []
    for i in range(CHURN_EPISODES):
        spider = Spider([
            random_chain(CHURN_LEG_DEPTH, seed=500 + CHURN_LEGS * i + j)
            for j in range(CHURN_LEGS)
        ])
        # churn hits halfway into the committed schedule: a healthy chunk
        # of work is already committed (the regime repair exists for), yet
        # plenty remains for the cold re-solve to chew on
        from repro.solve import Problem, solve

        base_makespan = solve(Problem(spider, "makespan", n=CHURN_N)).makespan
        t = max(1, base_makespan // 2)
        events = [
            {"op": "leave", "time": t, "processor": [1 + i % CHURN_LEGS, 1]},
            {"op": "drift", "time": t,
             "processor": [1 + (i + 1) % CHURN_LEGS, 1], "c_factor": 2},
            {"op": "join", "time": t, "c": [1], "w": [2]},
        ]
        episodes.append((spider, events))
    return episodes


def kernel_churn_repair() -> dict:
    """The churn acceptance kernel: repair vs cold re-solve per episode.

    Times exactly the two live options a serving system has once the churn
    trace is known: :func:`repro.solve.repatch.repatch_schedule` (the
    repair) vs :func:`~repro.solve.repatch.cold_resolve` (re-solving the
    not-yet-done work offline on the mutated platform); both consume the
    same precomputed :class:`~repro.sim.churn.ChurnTrace`.  Inside the
    kernel every repaired schedule is replay-validated on the mutated
    platform and its kept prefix checked bit-identical against the base
    schedule, so no claim can come from a wrong answer.  *Regret* is the
    repaired completion over the clairvoyant cold total (which discards
    in-flight work for free); the gate requires the median below 1 —
    repair must finish earlier than a restart — and bounds the max by the
    repatch tolerance.  Planning latencies are reported per strategy but
    not floored: the array-first solve kernels made cold planning ~30×
    cheaper and flipped that race, so completion time is the durable
    advantage.
    """
    from statistics import median

    from repro.sim.churn import apply_churn
    from repro.sim.replay_fast import verify_schedule
    from repro.solve.repatch import cold_resolve, repatch_schedule

    def once() -> dict:
        episodes = churn_workload()
        t0 = time.perf_counter()
        repair_times: list[float] = []
        resolve_times: list[float] = []
        speedups: list[float] = []
        regrets: list[float] = []
        kept_total = replanned_total = moved_total = 0
        for spider, events in episodes:
            base = solve(Problem(spider, "makespan", n=CHURN_N))
            # both contenders consume the same precomputed trace — the
            # timing compares the two *planning* strategies, not the
            # shared event bookkeeping
            churn = apply_churn(spider, events)
            per_repair = []
            result = None
            for _ in range(CHURN_TIMING_ROUNDS):
                r0 = time.perf_counter()
                result = repatch_schedule(base.schedule, churn)
                per_repair.append(time.perf_counter() - r0)
            per_resolve = []
            cold_total = None
            for _ in range(CHURN_TIMING_ROUNDS):
                r0 = time.perf_counter()
                _, _, cold_total = cold_resolve(base.schedule, churn)
                per_resolve.append(time.perf_counter() - r0)
            re, co = min(per_resolve), min(per_repair)
            repair_times.append(co)
            resolve_times.append(re)
            speedups.append(re / co)
            regret = result.completed_makespan / cold_total
            regrets.append(regret)
            assert regret <= REPATCH_TOLERANCE, (
                f"repair lost to cold re-solve beyond tolerance ({regret})"
            )
            # never trade correctness for speed: replay on the mutated
            # platform + bit-identical prefix, asserted every run
            verify_schedule(result.schedule)
            kmap = churn.key_map
            for task in result.kept + result.kept_done:
                old, new = base.schedule[task], result.schedule[task]
                assert new.processor == kmap[old.processor]
                assert new.start == old.start
                assert tuple(new.comms) == tuple(old.comms)
            kept_total += len(result.kept) + len(result.kept_done)
            replanned_total += len(result.replanned)
            moved_total += len(result.moved)
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "episodes": len(episodes),
            "n": CHURN_N,
            "kept": kept_total,
            "replanned": replanned_total,
            "moved": moved_total,
            "repair_median_ms": round(median(repair_times) * 1e3, 3),
            "resolve_median_ms": round(median(resolve_times) * 1e3, 3),
            "median_speedup": round(median(speedups), 2),
            "min_speedup": round(min(speedups), 2),
            "median_regret": round(median(regrets), 4),
            "max_regret": round(max(regrets), 4),
        }

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The solve acceptance workload: the array kernels vs the paper-literal oracle
# ---------------------------------------------------------------------------

#: problems per platform shape in the workload.  The scale (512 tasks on
#: ~10-processor platforms) is the regime the batch engine targets; the
#: kernels' advantage grows with ``n``, so smaller smoke runs belong in the
#: tests, not here.
SOLVE_PLATFORMS = 2
SOLVE_N = 512
SOLVE_CHAIN_DEPTH = 10
SOLVE_STAR_CHILDREN = 10
SOLVE_SPIDER_LEGS = 6
SOLVE_SPIDER_DEPTH = 5

#: repeats per problem when timing one solve (min taken — every path is
#: deterministic).
SOLVE_TIMING_ROUNDS = 3


def solve_workload() -> list:
    """The committed chain+fork+spider batch: seeded platforms, one
    makespan and one deadline question each.  The deadline is the
    platform's own ``n``-task makespan, so every question is feasible."""
    from repro.platforms.generators import random_spider, random_star
    from repro.solve import Problem, solve

    problems = []
    for i in range(SOLVE_PLATFORMS):
        platforms = (
            random_chain(SOLVE_CHAIN_DEPTH, seed=900 + i),
            random_star(SOLVE_STAR_CHILDREN, seed=920 + i),
            random_spider(SOLVE_SPIDER_LEGS, SOLVE_SPIDER_DEPTH,
                          seed=940 + i),
        )
        for platform in platforms:
            makespan = solve(Problem(platform, "makespan", n=SOLVE_N)).makespan
            problems.append(Problem(platform, "makespan", n=SOLVE_N))
            problems.append(Problem(platform, "deadline", t_lim=makespan))
    return problems


def oracle_schedule(problem):
    """The paper-literal oracle's schedule for a chain/star/spider problem."""
    platform = problem.platform
    if problem.kind == "makespan":
        solver = {Chain: schedule_chain, Star: fork_schedule,
                  Spider: spider_schedule}[type(platform)]
        return solver(platform, problem.n)
    if isinstance(platform, Spider):
        return spider_schedule_deadline(
            platform, problem.t_lim, problem.n
        ).schedule
    solver = {Chain: schedule_chain_deadline,
              Star: fork_schedule_deadline}[type(platform)]
    return solver(platform, problem.t_lim, problem.n)


def kernel_solve_batch() -> dict:
    """The solve acceptance kernel: answer every workload problem through
    ``solve`` (the kernels) and through the oracle, compare per-problem
    timings.

    Times exactly what the hot paths run — ``solve(problem)`` — in two
    regimes.  *Warm* (``compiled_median_ms``, ``median_speedup``,
    ``min_speedup``): the solve-kernel caches already hold the platform,
    as in ``repro batch``, where a scenario group shares one platform.
    *Cold* (``cold_median_ms``, ``min_cold_speedup``): the caches are
    cleared first, as on a service miss, where a new platform builds its
    chain sequences and cores from scratch.  Every kernel answer is
    asserted bit-identical to the oracle's *and* replay-validated inside
    the kernel, so the speedup can never come from a wrong schedule."""
    from collections import Counter
    from statistics import median

    from repro.core.solve_fast import clear_solve_kernels, solve_kernel_stats
    from repro.solve import solve

    def fingerprint(schedule):
        """Every task's id, processor, start and comm times, read off the
        schedule's columns as Python values."""
        cols = schedule.columns
        return (schedule.tasks(), [schedule.keys[j] for j in cols.proc.tolist()],
                cols.start.tolist(), cols.ptr.tolist(), cols.comm.tolist())

    def once() -> dict:
        clear_solve_kernels()
        problems = solve_workload()
        t0 = time.perf_counter()
        object_times: list[float] = []
        compiled_times: list[float] = []
        cold_times: list[float] = []
        speedups: list[float] = []
        cold_speedups: list[float] = []
        totals: Counter = Counter()
        tasks = 0

        def bank_and_clear() -> None:
            # clearing the caches resets the counters too: bank them first,
            # so the run's totals stay whole
            stats = solve_kernel_stats()
            totals.update({key: stats[key] for key in (
                "kernel_solves", "kernel_probes", "placements", "fallbacks",
                "seq_misses",
            )})
            clear_solve_kernels()

        for problem in problems:
            compiled = solve(problem)  # warm the caches
            oracle = oracle_schedule(problem)
            assert fingerprint(compiled.schedule) == fingerprint(oracle), (
                f"kernel and oracle disagree on {problem.platform!r} "
                f"{problem.kind}"
            )
            assert compiled.stats.get("engine") == "compiled", (
                "workload problem fell back to the oracle"
            )
            compiled.validate()
            per_object = []
            per_compiled = []
            per_cold = []
            for _ in range(SOLVE_TIMING_ROUNDS):
                r0 = time.perf_counter()
                oracle_schedule(problem)
                per_object.append(time.perf_counter() - r0)
                bank_and_clear()
                r0 = time.perf_counter()
                solve(problem)
                per_cold.append(time.perf_counter() - r0)
                r0 = time.perf_counter()
                solve(problem)
                per_compiled.append(time.perf_counter() - r0)
            ob, co, cold = min(per_object), min(per_compiled), min(per_cold)
            object_times.append(ob)
            compiled_times.append(co)
            cold_times.append(cold)
            speedups.append(ob / co)
            cold_speedups.append(ob / cold)
            tasks += compiled.n_tasks
        seconds = time.perf_counter() - t0
        bank_and_clear()
        return {
            "seconds": seconds,
            "problems": len(problems),
            "n": SOLVE_N,
            "tasks": tasks,
            "kernel_solves": totals["kernel_solves"],
            "kernel_probes": totals["kernel_probes"],
            "placements": totals["placements"],
            "kernel_fallbacks": totals["fallbacks"],
            "seq_misses": totals["seq_misses"],
            "object_median_ms": round(median(object_times) * 1e3, 3),
            "compiled_median_ms": round(median(compiled_times) * 1e3, 3),
            "median_speedup": round(median(speedups), 2),
            "min_speedup": round(min(speedups), 2),
            "cold_median_ms": round(median(cold_times) * 1e3, 3),
            "min_cold_speedup": round(min(cold_speedups), 2),
        }

    return _best_of(once, 2)


#: The deadline-sweep spider: 16 heterogeneous legs × 4 processors = 64,
#: asked for the most tasks under ``SWEEP_POINTS`` descending deadlines.
SWEEP_LEGS = 16
SWEEP_LEG_DEPTH = 4
SWEEP_N = 128
SWEEP_POINTS = 12


def acceptance_spider() -> Spider:
    return Spider(
        [random_chain(SWEEP_LEG_DEPTH, seed=100 + i) for i in range(SWEEP_LEGS)]
    )


def kernel_batch_deadline_sweep() -> dict:
    """A warm deadline sweep on the acceptance spider through the batch
    engine (serial: measures engine + warm-cap reuse, not the pool)."""

    def once() -> dict:
        spider = acceptance_spider()
        pdict = platform_to_dict(spider)
        hi = spider.t_infinity(SWEEP_N)
        t_lims = [max(1, hi * (SWEEP_POINTS - i) // SWEEP_POINTS)
                  for i in range(SWEEP_POINTS)]
        scenarios = [
            Scenario(f"t{t}", pdict, "deadline", n=SWEEP_N, t_lim=t)
            for t in t_lims
        ]
        t0 = time.perf_counter()
        results = BatchRunner(workers=1).run(scenarios)
        seconds = time.perf_counter() - t0
        assert all(r.ok for r in results)
        return {
            "seconds": seconds,
            "scenarios": len(results),
            "total_tasks": sum(r.n_tasks or 0 for r in results),
        }

    return _best_of(once, 2)


# ---------------------------------------------------------------------------
# The sharded-fleet acceptance workloads: saturation curve + chaos contract
# ---------------------------------------------------------------------------

#: saturation-curve fleet sizes (the last is the acceptance point).
SHARD_WORKERS = (1, 2, 4, 8)

#: requests per workload per fleet size.
SHARD_REQUESTS = 160

SHARD_SEED = 0x5A4D

#: acceptance ceiling: at 8 workers the zipf workload must beat the
#: serial (one worker, one request in flight) throughput by this factor
#: — *when the host can physically provide it*.  Throughput parallelism
#: comes from worker processes on separate cores; a 1-core container
#: cannot scale a CPU-bound fleet no matter how correct the router is,
#: so the enforced floor is scaled by the cores actually usable (see
#: :func:`shard_speedup_floor`) and the measured core count rides along
#: in the kernel output.
SHARD_MIN_SPEEDUP = 5.0

#: the chaos contract gate: zero invariant violations across at least
#: this many worker SIGKILLs (plus hangs / slow responses / garbled
#: frames mixed in).
SHARD_MIN_KILLS = 30

SHARD_CHAOS_SHARDS = 4


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard_speedup_floor(cores: int | None = None) -> float:
    """The enforced speedup floor at 8 workers, scaled to the host.

    ``0.5 x usable cores`` (half-efficiency: the router, the client
    driver and the OS share the same cores as the workers), capped at
    :data:`SHARD_MIN_SPEEDUP` — the full 5x claim is asserted on hosts
    with >= 10 usable cores.  On a single core the floor degrades to
    0.5, which still gates something real: fleet overhead (subprocess
    pipes, routing, supervision) must cost < 2x over serial serving.
    """
    if cores is None:
        cores = usable_cores()
    return min(SHARD_MIN_SPEEDUP, max(0.5, 0.5 * cores))


def _shard_pool() -> list:
    """The shard workloads' platform pool (same shape mix as the service
    workload, distinct seeds so the two families prime nothing for each
    other)."""
    from repro.platforms.generators import random_spider
    from repro.solve import Problem

    pool = []
    for i in range(SERVICE_POOL_SIZE):
        kind = i % 4
        if kind == 0:
            pool.append(random_spider(4, 3, seed=7100 + i))
        elif kind == 1:
            pool.append(random_chain(6, seed=7100 + i))
        elif kind == 2:
            pool.append(random_star(8, seed=7100 + i))
        else:
            pool.append(random_tree(7, seed=7100 + i))
    return [Problem(p, "makespan", n=SERVICE_N) for p in pool]


def shard_request_lines(workload: str) -> list[str]:
    """Pre-serialised solve request lines for one workload.  Client-side
    JSON cost is paid before the timer, so the measurement sees routing
    plus serving only.

    * ``zipf`` — zipf-repeated picks over the pool with relabeled
      isomorphic copies (the service family's cache-friendly regime);
    * ``uniform`` — uniform picks over the same pool (flatter repeat
      structure, still cacheable);
    * ``all_miss`` — every request a distinct platform (pure solve
      throughput, the cache never helps).
    """
    import json as _json
    import random as _random

    from repro.io.json_io import problem_to_dict
    from repro.platforms.generators import random_spider
    from repro.solve import Problem

    rng = _random.Random(SHARD_SEED)
    if workload == "zipf":
        pool = _shard_pool()
        weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
        picks = rng.choices(range(len(pool)), weights=weights,
                            k=SHARD_REQUESTS)
        problems = [
            Problem(relabeled_platform(pool[i].platform, rng),
                    "makespan", n=SERVICE_N)
            for i in picks
        ]
    elif workload == "uniform":
        pool = _shard_pool()
        problems = [pool[rng.randrange(len(pool))]
                    for _ in range(SHARD_REQUESTS)]
    elif workload == "all_miss":
        problems = [
            Problem(random_spider(4, 3, seed=7500 + i), "makespan",
                    n=SERVICE_N)
            for i in range(SHARD_REQUESTS)
        ]
    else:
        raise ValueError(f"unknown shard workload {workload!r}")
    return [
        _json.dumps({"id": f"s{i}", "op": "solve",
                     "problem": problem_to_dict(p)})
        for i, p in enumerate(problems)
    ]


def kernel_shard_saturation() -> dict:
    """Fleet throughput at 1/2/4/8 workers over three request mixes.

    Each point boots a real supervised fleet (worker subprocesses over
    stdio pipes), drives the pre-serialised request lines through the
    consistent-hash router with ``4 x workers`` requests in flight, and
    requires every response to be a valid answer (no shedding, no
    timeouts — saturation here is throughput, not failure).  The serial
    baseline is the same 1-worker fleet driven one request at a time.
    """
    import asyncio

    from repro.service.shard import ShardRouter
    from repro.service.supervisor import WorkerConfig

    lines = {w: shard_request_lines(w)
             for w in ("zipf", "uniform", "all_miss")}

    async def run_point(router, batch, concurrency) -> float:
        it = iter(range(len(batch)))
        failures: list[str] = []

        async def client() -> None:
            for i in it:
                response = await router.handle_line(batch[i])
                if not response.get("ok"):
                    failures.append(str(response.get("error_kind")))

        t0 = time.perf_counter()
        await asyncio.gather(*[client() for _ in range(concurrency)])
        elapsed = time.perf_counter() - t0
        if failures:
            raise AssertionError(
                f"saturation run lost {len(failures)} requests "
                f"(kinds: {sorted(set(failures))})"
            )
        return len(batch) / elapsed

    async def run() -> dict:
        # the serial baseline gets its own fresh fleet so its cold misses
        # prime nothing for the curve points — every zipf measurement
        # (serial and pipelined alike) starts from an empty store
        router = ShardRouter(1, WorkerConfig(threads=2, capacity=512),
                             max_queue=256)
        await router.start()
        try:
            serial_rps = await run_point(router, lines["zipf"], 1)
        finally:
            await router.aclose()
        points: list[dict] = []
        for workers in SHARD_WORKERS:
            router = ShardRouter(
                workers, WorkerConfig(threads=2, capacity=512),
                max_queue=256,
            )
            await router.start()
            try:
                # fixed order per point: zipf cold, uniform over the now-
                # primed pool (warm regime), all_miss always cold — the
                # same mix at every fleet size, so points stay comparable
                point: dict = {"workers": workers}
                for name in ("zipf", "uniform", "all_miss"):
                    rps = await run_point(router, lines[name],
                                          min(32, 4 * workers))
                    point[f"{name}_rps"] = round(rps, 1)
                points.append(point)
            finally:
                await router.aclose()
        return {"serial_zipf_rps": round(serial_rps, 1), "points": points}

    t0 = time.perf_counter()
    measured = asyncio.run(run())
    seconds = time.perf_counter() - t0
    at8 = next(p for p in measured["points"]
               if p["workers"] == SHARD_WORKERS[-1])
    speedup = at8["zipf_rps"] / measured["serial_zipf_rps"]
    return {
        "seconds": round(seconds, 3),
        "workers": [p["workers"] for p in measured["points"]],
        "requests_per_workload": SHARD_REQUESTS,
        "pool": SERVICE_POOL_SIZE,
        "n": SERVICE_N,
        "all_ok": True,  # run_point raised otherwise
        "usable_cores": usable_cores(),
        "speedup_floor": round(shard_speedup_floor(), 2),
        "serial_zipf_rps": measured["serial_zipf_rps"],
        "zipf_rps_at_8": at8["zipf_rps"],
        "speedup_vs_serial": round(speedup, 2),
        "points": measured["points"],
    }


def kernel_shard_chaos() -> dict:
    """The chaos contract run (see :mod:`repro.service.chaos`): a live
    4-shard fleet under SIGKILLs, hangs, slow responses and garbled
    frames; zero invariant violations over >= 30 kills is the gate."""
    from repro.service.chaos import chaos_run

    t0 = time.perf_counter()
    report = chaos_run(
        shards=SHARD_CHAOS_SHARDS, duration_s=8.0,
        target_kills=SHARD_MIN_KILLS, kill_every=0.2,
        concurrency=8, seed=7,
    )
    seconds = time.perf_counter() - t0
    return {
        "seconds": round(seconds, 3),
        "shards": SHARD_CHAOS_SHARDS,
        "min_kills": SHARD_MIN_KILLS,
        # the contract: exact-compared, must stay identically zero/empty
        "violations": report["violations"],
        "violation_samples": report["violation_samples"],
        # everything below wobbles with scheduling noise (timing fields)
        "kills": report["kills"],
        "chaos_requests": report["requests"],
        "ok_answers": report["ok_answers"],
        "retriable_errors": report["retriable_errors"],
        "hangs": report["hangs"],
        "slows": report["slows"],
        "garbles": report["garbles"],
        "redispatched": report["redispatched"],
        "shed": report["shed"],
        "unavailable_errors": report["unavailable"],
        "timeouts_seen": report["timeouts"],
        "restarts": report["restarts"],
        "garbled_frames": report["garbled_frames"],
    }


# ---------------------------------------------------------------------------
# The observability budget: the price of the obs layer itself
# ---------------------------------------------------------------------------

#: arm samples per side, and workload passes per sample.  Medians over many
#: interleaved samples damp scheduler noise.
OBS_REPEATS = 31
OBS_ROUNDS = 40
OBS_N = 64


def kernel_obs_overhead() -> dict:
    """The obs registry counts every kernel-cache event on the compiled
    solve+replay hot path, and the span hooks sit inline in dispatch.  This
    times that loop twice: metrics enabled (tracing off, the production
    default) vs every mutation no-op'd via
    ``repro.obs.metrics.set_enabled(False)``.  The loop reuses warm caches,
    so the counter increments are the dominant instrumentation cost being
    priced, not compile time."""
    from statistics import median

    from repro.obs import metrics, tracing

    problems = [
        Problem(Chain([2, 3, 2], [3, 5, 4]), "makespan", n=OBS_N),
        Problem(Spider([Chain([2, 3], [3, 5]), Chain([1], [4]),
                        Chain([2, 2], [2, 6])]), "makespan", n=OBS_N),
    ]

    def run() -> None:
        for problem in problems:
            solve(problem).validate()  # compiled solve + compiled replay

    def sample_ms() -> float:
        t0 = time.perf_counter()
        for _ in range(OBS_ROUNDS):
            run()
        return (time.perf_counter() - t0) * 1000.0

    assert not tracing.tracing_enabled(), (
        "overhead bound is defined with tracing off (the default); "
        "unset REPRO_TRACE for this benchmark"
    )
    t0 = time.perf_counter()
    run()  # warm every cache before timing either arm
    # interleave the arms sample-by-sample (alternating order inside each
    # pair) so machine drift — thermal, page cache, a background task —
    # lands on both equally instead of biasing whichever arm ran later
    samples: dict[bool, list[float]] = {True: [], False: []}
    for i in range(OBS_REPEATS):
        for enabled in ((True, False) if i % 2 else (False, True)):
            prev = metrics.set_enabled(enabled)
            try:
                samples[enabled].append(sample_ms())
            finally:
                metrics.set_enabled(prev)
    seconds = time.perf_counter() - t0
    enabled_ms, disabled_ms = median(samples[True]), median(samples[False])
    return {
        "seconds": seconds,
        "enabled_ms": round(enabled_ms, 3),
        "disabled_ms": round(disabled_ms, 3),
        "overhead": round(enabled_ms / disabled_ms, 4),
        "repeats": OBS_REPEATS,
        "rounds": OBS_ROUNDS,
    }


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

FAMILIES: tuple[Family, ...] = (
    Family(
        "tree",
        kernels={"tree_suite": kernel_tree_suite},
        workload={
            "trees": TREE_SUITE_SIZE,
            "min_capacity_gap": TREE_SUITE_MIN_GAP,
            "first_seed": TREE_SUITE_FIRST_SEED,
            "n": TREE_SUITE_N,
        },
        claims=(
            Claim("tree_suite", "losses", "==", 0,
                  "the tree solver never places fewer tasks than the "
                  "single cover on a tree"),
            # a time-indexed MILP proved 1,205 optimal (ROADMAP item 1);
            # multi-round covering, the solver before the chain
            # construction, placed 932
            Claim("tree_suite", "tree_tasks", ">=", 1190,
                  "tasks placed over the suite"),
            Claim("tree_suite", "max_tree_vs_bound", "<=", 1.05,
                  "the steady-state bound is an upper bound, up to a "
                  "start-up term; above it the bound or the count is wrong"),
        ),
    ),
    Family(
        "online",
        kernels={"online_regret_suite": kernel_online_regret_suite},
        workload={
            "n": ONLINE_SUITE_N,
            "profiles": list(ONLINE_SUITE_PROFILES),
            "policies": list(ONLINE_SUITE_POLICIES),
        },
    ),
    Family(
        "service",
        kernels={"service_zipf_workload": kernel_service_zipf},
        workload={
            "pool": SERVICE_POOL_SIZE,
            "requests": SERVICE_REQUESTS,
            "n": SERVICE_N,
            "zipf_seed": SERVICE_SEED,
        },
        claims=(
            Claim("service_zipf_workload", "warm_hits", "==",
                  lambda k: k["requests"] // 2,
                  "the primed store serves every warm request"),
            Claim("service_zipf_workload", "cold_misses", "<=",
                  lambda k: k["pool"],
                  "each cold miss is a distinct fingerprint: relabeled "
                  "repeats never miss"),
            Claim("service_zipf_workload", "cold_hits", "==",
                  lambda k: k["requests"] // 2 - k["cold_misses"],
                  "the cold pass's hits and misses add up to its requests"),
        ),
    ),
    Family(
        "replay",
        kernels={"replay_zipf_validation": kernel_replay_zipf},
        workload={
            "pool": SERVICE_POOL_SIZE,
            "n": SERVICE_N,
            "zipf_seed": SERVICE_SEED,
            "timing_rounds": REPLAY_TIMING_ROUNDS,
        },
        timing=frozenset({"event_median_ms", "compiled_median_ms",
                          "median_speedup", "min_speedup"}),
        claims=(
            Claim("replay_zipf_validation", "median_speedup", ">=", 10.0,
                  "the compiled kernel validates >= 10x faster than the "
                  "event executor (median per solution)"),
            Claim("replay_zipf_validation", "validation_compiles", "==", 0,
                  "validation compiles nothing: a schedule carries its "
                  "compiled platform"),
        ),
    ),
    Family(
        "churn",
        kernels={"churn_repair_vs_resolve": kernel_churn_repair},
        workload={
            "episodes": CHURN_EPISODES,
            "legs": CHURN_LEGS,
            "leg_depth": CHURN_LEG_DEPTH,
            "n": CHURN_N,
            "timing_rounds": CHURN_TIMING_ROUNDS,
        },
        timing=frozenset({"repair_median_ms", "resolve_median_ms",
                          "median_speedup", "min_speedup"}),
        claims=(
            Claim("churn_repair_vs_resolve", "median_regret", "<", 1.0,
                  "the repaired schedule completes earlier than the "
                  "clairvoyant cold re-solve (median over episodes)"),
            Claim("churn_repair_vs_resolve", "max_regret", "<=",
                  REPATCH_TOLERANCE, "the repatch regret tolerance"),
        ),
    ),
    Family(
        "solve",
        kernels={
            "solve_batch_engines": kernel_solve_batch,
            "batch_deadline_sweep_16x4": kernel_batch_deadline_sweep,
        },
        workload={
            "platforms_per_shape": SOLVE_PLATFORMS,
            "n": SOLVE_N,
            "chain_depth": SOLVE_CHAIN_DEPTH,
            "star_children": SOLVE_STAR_CHILDREN,
            "spider_legs": SOLVE_SPIDER_LEGS,
            "spider_depth": SOLVE_SPIDER_DEPTH,
            "timing_rounds": SOLVE_TIMING_ROUNDS,
            "sweep_legs": SWEEP_LEGS,
            "sweep_leg_depth": SWEEP_LEG_DEPTH,
            "sweep_n": SWEEP_N,
            "sweep_points": SWEEP_POINTS,
        },
        timing=frozenset({"object_median_ms", "compiled_median_ms",
                          "median_speedup", "min_speedup", "cold_median_ms",
                          "min_cold_speedup"}),
        claims=(
            Claim("solve_batch_engines", "median_speedup", ">=", 10.0,
                  "with warm caches the kernels answer >= 10x faster than "
                  "the paper-literal oracle (median per problem)"),
            Claim("solve_batch_engines", "min_cold_speedup", ">=", 1.4,
                  "with cold caches (a service miss: a new platform builds "
                  "its chain sequences and cores) the kernels beat the "
                  "oracle on every problem"),
            Claim("solve_batch_engines", "kernel_fallbacks", "==", 0,
                  "the workload runs entirely on the kernels; a fallback "
                  "would time the oracle against itself"),
        ),
    ),
    Family(
        "shard",
        kernels={
            "shard_saturation": kernel_shard_saturation,
            "shard_chaos": kernel_shard_chaos,
        },
        workload={
            "workers": list(SHARD_WORKERS),
            "requests_per_workload": SHARD_REQUESTS,
            "pool": SERVICE_POOL_SIZE,
            "n": SERVICE_N,
            "seed": SHARD_SEED,
            "chaos_shards": SHARD_CHAOS_SHARDS,
            "min_kills": SHARD_MIN_KILLS,
            "max_speedup_floor": SHARD_MIN_SPEEDUP,
        },
        # saturation points and chaos tallies depend on scheduling (how
        # many kills landed mid-solve, how many requests the clients
        # pushed through); the contract fields stay exact
        timing=frozenset({
            "usable_cores", "speedup_floor", "serial_zipf_rps",
            "zipf_rps_at_8", "speedup_vs_serial", "points", "kills",
            "chaos_requests", "ok_answers", "retriable_errors", "hangs",
            "slows", "garbles", "redispatched", "shed", "unavailable_errors",
            "timeouts_seen", "restarts", "garbled_frames",
        }),
        claims=(
            Claim("shard_saturation", "speedup_vs_serial", ">=",
                  lambda k: shard_speedup_floor(k["usable_cores"]),
                  "8-worker zipf throughput over serial, floored by the "
                  "usable cores"),
            Claim("shard_saturation", "all_ok", "==", True,
                  "the saturation run loses no request"),
            Claim("shard_saturation", "workers", "==", list(SHARD_WORKERS),
                  "the saturation curve covers every fleet size"),
            Claim("shard_chaos", "violations", "==", 0,
                  "every accepted request gets one replay-valid answer or "
                  "an explicit retriable error"),
            Claim("shard_chaos", "kills", ">=", SHARD_MIN_KILLS,
                  "enough worker kills landed to test the contract"),
        ),
    ),
    Family(
        "obs",
        kernels={"obs_overhead": kernel_obs_overhead},
        workload={"repeats": OBS_REPEATS, "rounds": OBS_ROUNDS, "n": OBS_N},
        timing=frozenset({"enabled_ms", "disabled_ms", "overhead"}),
        claims=(
            Claim("obs_overhead", "overhead", "<", 1.03,
                  "metrics cost < 3% on the compiled solve+replay path "
                  "(enabled/disabled median)"),
        ),
    ),
)
