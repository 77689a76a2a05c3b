"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``fig2``
    Reproduce the paper's worked example (Fig. 2 schedule + Fig. 7 nodes).
``chain``
    Optimal schedule on a chain: ``repro chain --c 2,3 --w 3,5 -n 5``.
``spider``
    Optimal schedule on a spider: ``repro spider --leg 2/3,3/5 --leg 1/4 -n 8``.
``star``
    Optimal schedule on a star: ``repro star --child 2/3 --child 1/5 -n 6``.
``compare``
    Heuristics vs the optimal algorithm on a platform.
``simulate``
    Online policies through the discrete-event simulator (dispatched
    through the registered online solver).
``steady``
    Bandwidth-centric steady-state throughput of a platform.
``tree``
    Schedule a general tree: the better of the chain construction run on
    the tree and the single spider cover.
    ``repro tree --workers 8 -n 20`` (makespan) or ``--tlim 60`` (deadline).
``failures``
    Online run with injected fail-stop workers:
    ``repro failures --leg 1/4,2/3 --leg 5/7 -n 20 --kill 6@1,1``.
``repatch``
    Incremental repair of a committed schedule under platform churn:
    ``repro repatch --leg 1/4,2/3 --leg 5/7 -n 20 --leave 6@1,1``
    (also ``--join T@SPEC`` and ``--drift T@PROC*FACTORS``).
``fig7``
    DOT rendering of the chain→fork transformation at a deadline.
``batch``
    Run a JSON scenario batch through the solver registry
    (``--cache PATH`` serves repeated platforms from the solution store).
``serve``
    Long-lived cached scheduling service speaking JSON-lines over
    stdio (default) or ``--tcp HOST:PORT``.

Every command that answers a scheduling question — offline *and* online —
does so through :func:`repro.solve.solve`; the platform-type and mode
dispatch lives in the solver registry, not here.

All commands accept ``--gantt`` (ASCII chart), ``--svg PATH`` and
``--json PATH`` outputs, and ``--platform FILE`` to load a JSON platform
instead of inline specs.

Exit codes
----------

========  ==========================================================
0         success
1         generic failure (failed batch scenarios, report errors)
2         usage error (argparse)
3         no registered solver claims the platform (``NoSolverError``)
4         the answer is infeasible (``InfeasibleScheduleError``)
5         replay validation failed (``ValidationError``)
========  ==========================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

# Only what every command needs loads here: each command imports the rest
# itself, so `repro serve` and `repro batch` start without the
# visualisers, baselines, report and online simulator.
from .io.json_io import load_platform
from .platforms.chain import Chain
from .platforms.spider import Spider
from .platforms.star import Star
from .solve import Problem, registered_solvers, solve


# distinct exit codes so scripted callers (CI gates, the service smoke
# job) can branch on *why* a command failed without parsing stderr
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2  # argparse's own code, listed for completeness
EXIT_NO_SOLVER = 3
EXIT_INFEASIBLE = 4
EXIT_VALIDATION = 5


def _version() -> str:
    """Installed package version, falling back to the source tree's."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro-dutot-ipps03")
    except PackageNotFoundError:
        from . import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: reads the package metadata only when asked."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(option_strings, dest=argparse.SUPPRESS,
                         default=argparse.SUPPRESS, nargs=0,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


class _OnlinePolicies:
    """``--policy`` choices, read from the online simulator only when a
    command checks or lists them."""

    @staticmethod
    def _names() -> list[str]:
        from .sim.online import ONLINE_POLICIES

        return sorted(ONLINE_POLICIES)

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _positive(kind):
    """An argparse ``type`` admitting only values of ``kind`` above 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _open_store(path, **options):
    """The solution store at ``path`` (``None``: memory only).  A path no
    store opens at is a usage error: one stderr line naming it, exit 2."""
    import sqlite3

    from .service.store import SolutionStore

    try:
        return SolutionStore(path=path, **options)
    except sqlite3.Error as exc:
        print(f"error: cannot open a solution store at {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _parse_ints_or_floats(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append(int(tok) if tok.lstrip("-").isdigit() else float(tok))
    return out


def _parse_leg(text: str) -> Chain:
    """``2/3,3/5`` -> Chain(c=(2,3), w=(3,5))."""
    cs, ws = [], []
    for pair in text.split(","):
        c, w = pair.split("/")
        cs.append(int(c) if c.lstrip("-").isdigit() else float(c))
        ws.append(int(w) if w.lstrip("-").isdigit() else float(w))
    return Chain(cs, ws)


def _emit(schedule, args) -> None:
    from .analysis.metrics import compute_metrics
    from .io.json_io import save_schedule
    from .viz.gantt import render_gantt
    from .viz.svg import save_svg

    print(f"makespan: {schedule.makespan}   tasks: {schedule.n_tasks}")
    m = compute_metrics(schedule)
    print(f"task counts: {m.counts}")
    if args.gantt:
        print(render_gantt(schedule))
    if args.svg:
        print(f"wrote {save_svg(schedule, args.svg)}")
    if args.json:
        print(f"wrote {save_schedule(schedule, args.json)}")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gantt", action="store_true", help="print ASCII Gantt chart")
    p.add_argument("--svg", metavar="PATH", help="write SVG Gantt chart")
    p.add_argument("--json", metavar="PATH", help="write schedule JSON")


def _platform_from_args(args) -> Any:
    if getattr(args, "platform", None):
        return load_platform(args.platform)
    if getattr(args, "leg", None):
        return Spider([_parse_leg(leg) for leg in args.leg])
    if getattr(args, "child", None):
        return Star([tuple(_parse_ints_or_floats(ch.replace("/", ","))) for ch in args.child])
    if getattr(args, "c", None) and getattr(args, "w", None):
        return Chain(_parse_ints_or_floats(args.c), _parse_ints_or_floats(args.w))
    raise SystemExit("no platform given (use --c/--w, --leg, --child or --platform)")


def _parse_time(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _parse_proc(text: str):
    """``2`` -> 2 (chain/star/tree), ``1,2`` -> [1, 2] (spider)."""
    return (
        [int(x) for x in text.split(",")] if "," in text else int(text)
    )


def _parse_leave(spec: str) -> dict:
    """``T@PROC`` (``repatch --leave``, ``failures --kill``) as a leave event."""
    time_part, proc_part = spec.split("@", 1)
    return {"op": "leave", "time": _parse_time(time_part),
            "processor": _parse_proc(proc_part)}


def _parse_churn_args(args) -> list[dict]:
    """The ``--leave/--join/--drift`` specs as churn event dicts."""

    def scalar(tok: str):
        tok = tok.strip()
        return int(tok) if tok.lstrip("-").isdigit() else float(tok)

    events: list[dict] = [_parse_leave(spec) for spec in args.leave]
    for spec in args.join:
        time_part, body = spec.split("@", 1)
        event: dict = {"op": "join", "time": _parse_time(time_part)}
        for pair in body.split(","):
            key, _, value = pair.partition("=")
            if not value:
                raise SystemExit(
                    f"--join spec needs key=value pairs, got {pair!r}"
                )
            parsed = (
                [scalar(v) for v in value.split(";")]
                if ";" in value else scalar(value)
            )
            event[key.strip()] = parsed
        events.append(event)
    for spec in args.drift:
        head, star, factors = spec.partition("*")
        if not star:
            raise SystemExit(
                f"--drift spec needs T@PROC*FACTORS, got {spec!r}"
            )
        time_part, proc_part = head.split("@", 1)
        event = {"op": "drift", "time": _parse_time(time_part),
                 "processor": _parse_proc(proc_part)}
        for factor in factors.split(","):
            factor = factor.strip()
            if factor[:1] not in ("c", "w"):
                raise SystemExit(
                    f"--drift factors are cF and/or wF, got {factor!r}"
                )
            event[f"{factor[0]}_factor"] = scalar(factor[1:])
        events.append(event)
    return events


def _solver_lines() -> str:
    """The registered-solver list, one line per solver (drives batch help)."""
    return "\n".join(
        f"  {s.name:<8}[{s.mode}] {s.summary}" for s in registered_solvers()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Master-slave tasking on heterogeneous processors (Dutot, IPPS 2003)",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2", help="reproduce the paper's worked example")
    _add_output_flags(p)

    p = sub.add_parser("chain", help="optimal schedule on a chain")
    p.add_argument("--c", help="comma-separated link latencies")
    p.add_argument("--w", help="comma-separated processing times")
    p.add_argument("--platform", help="platform JSON file")
    p.add_argument("-n", type=int, required=True, help="number of tasks")
    _add_output_flags(p)

    p = sub.add_parser("spider", help="optimal schedule on a spider")
    p.add_argument("--leg", action="append", help="leg spec c/w,c/w,... (repeatable)")
    p.add_argument("--platform", help="platform JSON file")
    p.add_argument("-n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("star", help="optimal schedule on a star (fork)")
    p.add_argument("--child", action="append", help="child spec c/w (repeatable)")
    p.add_argument("--platform", help="platform JSON file")
    p.add_argument("-n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("compare", help="heuristics vs the optimal algorithm")
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--leg", action="append")
    p.add_argument("--child", action="append")
    p.add_argument("--platform")
    p.add_argument("-n", type=int, required=True)

    p = sub.add_parser("simulate", help="online policies through the simulator")
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--leg", action="append")
    p.add_argument("--child", action="append")
    p.add_argument("--platform")
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--policy", default="demand_driven", choices=_OnlinePolicies(),
        metavar="POLICY", help="%(choices)s (default %(default)s)",
    )

    p = sub.add_parser("steady", help="steady-state throughput")
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--leg", action="append")
    p.add_argument("--child", action="append")
    p.add_argument("--platform")

    p = sub.add_parser(
        "tree", help="schedule a general tree: the chain construction run on "
        "the tree, or the single spider cover when it does better"
    )
    p.add_argument("--workers", type=int, default=8, help="number of workers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--profile", default="balanced",
        help="random-tree heterogeneity profile (see repro.platforms.generators)",
    )
    p.add_argument("--platform", help="tree platform JSON file (overrides --workers)")
    p.add_argument("-n", type=int, required=True, help="task count / budget")
    p.add_argument("--tlim", type=int, help="deadline mode: maximise tasks by TLIM")
    p.add_argument("--dot", action="store_true",
                   help="print the single spider cover as DOT")

    p = sub.add_parser("failures", help="online run with injected failures")
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--leg", action="append")
    p.add_argument("--child", action="append")
    p.add_argument("--platform")
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--policy", default="demand_driven", choices=_OnlinePolicies(),
        metavar="POLICY", help="%(choices)s (default %(default)s)",
    )
    p.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="T@PROC",
        help="failure spec time@processor, e.g. 6@2 (star child) or 6@1,2 "
        "(spider leg,pos); repeatable",
    )

    p = sub.add_parser(
        "repatch",
        help="repair a committed schedule against platform churn",
        description=(
            "Solve offline, mutate the platform per the churn events, and "
            "repair the committed schedule incrementally (mode=\"repatch\" "
            "through the solver registry): work finished or in flight "
            "before the churn instant is kept bit-identically, the rest is "
            "re-routed around it on the mutated platform."
        ),
    )
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--leg", action="append")
    p.add_argument("--child", action="append")
    p.add_argument("--platform")
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--leave", action="append", default=[], metavar="T@PROC",
        help="processor leave time@processor, e.g. 6@2 (star child) or "
        "6@1,2 (spider leg,pos); repeatable",
    )
    p.add_argument(
        "--join", action="append", default=[], metavar="T@SPEC",
        help="processor join time@spec with key=value pairs, ';' separating "
        "list items: 4@c=1,w=2 (chain/star), 4@c=1;2,w=3;4 (new spider "
        "leg), 4@leg=2,c=1,w=2 (extend a leg), 4@parent=0,c=1,w=2 (tree); "
        "repeatable",
    )
    p.add_argument(
        "--drift", action="append", default=[], metavar="T@PROC*FACTORS",
        help="bandwidth/work drift time@processor*factors, factors being "
        "cF and/or wF: 4@2*w2 doubles child 2's work, 4@1,2*c0.5,w2 "
        "rescales a spider processor's link and CPU; repeatable",
    )
    _add_output_flags(p)

    p = sub.add_parser("fig7", help="DOT of the chain→fork transformation")
    p.add_argument("--leg", action="append")
    p.add_argument("--c", help="chain link latencies")
    p.add_argument("--w", help="chain processing times")
    p.add_argument("--platform")
    p.add_argument("--tlim", type=int, required=True)

    p = sub.add_parser(
        "batch",
        help="run a JSON scenario batch through the solver registry",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Run a JSON scenario batch; every scenario is dispatched through\n"
            "the solver registry (repro.solve).  Registered solvers:\n"
            + _solver_lines()
        ),
    )
    p.add_argument("--scenarios", required=True, metavar="FILE",
                   help="JSON file: {\"scenarios\": [{id, platform, kind, n|t_lim}, ...]}")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = inline serial)")
    p.add_argument("--validate", action="store_true",
                   help="replay-validate every answer through the simulator")
    p.add_argument("--cache", metavar="PATH",
                   help="solution-store SQLite file: repeated (isomorphic) "
                   "platforms are served from cache instead of re-solved")
    p.add_argument("--profile", metavar="PATH",
                   help="cProfile the batch run: binary pstats dump to PATH "
                   "plus a top-25 cumulative summary on stderr")
    p.add_argument("--out", metavar="PATH", help="write results JSON")

    p = sub.add_parser(
        "serve",
        help="cached scheduling service (JSON-lines over stdio or TCP)",
        description=(
            "Long-lived scheduling service: requests are canonically "
            "fingerprinted, answered from the content-addressed solution "
            "store when possible (isomorphic platforms share entries), and "
            "coalesced when identical requests are in flight."
        ),
    )
    p.add_argument("--store", metavar="PATH",
                   help="persistent SQLite solution store (default: memory only)")
    p.add_argument("--workers", type=_positive(int), default=2,
                   help="solver thread-pool size (default 2)")
    p.add_argument("--capacity", type=_positive(int), default=256,
                   help="in-memory LRU capacity (default 256)")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="serve over TCP instead of stdio (PORT 0 = ephemeral)")
    p.add_argument("--request-timeout", type=_positive(float), default=None,
                   metavar="SECONDS",
                   help="per-request solve deadline; slower requests answer "
                   "with error kind 'timeout' (default: unbounded)")
    p.add_argument("--shards", type=_non_negative_int, default=0,
                   metavar="N",
                   help="run a self-healing fleet of N supervised worker "
                   "subprocesses behind a consistent-hash router "
                   "(default 0 = single process)")
    p.add_argument("--max-queue", type=_positive(int), default=64,
                   help="per-worker in-flight bound before the router sheds "
                   "load with error kind 'overloaded' (default 64)")
    p.add_argument("--chaos-ops", action="store_true",
                   help="accept 'inject' fault requests (chaos testing only; "
                   "never enable in production)")

    p = sub.add_parser(
        "chaos",
        help="chaos-test the sharded service fleet",
        description=(
            "Boot a real worker fleet, drive a concurrent solve workload, "
            "and inject faults (SIGKILL, hangs, slow responses, garbled "
            "frames) while asserting that every request gets exactly one "
            "valid replay-checked answer or an explicit retriable error. "
            "Exits non-zero on any invariant violation."
        ),
    )
    p.add_argument("--shards", type=int, default=4,
                   help="fleet size (default 4)")
    p.add_argument("--duration", type=float, default=20.0, metavar="SECONDS",
                   help="nominal run length (default 20; extends until "
                   "--kills worker kills have landed)")
    p.add_argument("--kills", type=int, default=30,
                   help="minimum worker SIGKILLs to inject (default 30)")
    p.add_argument("--kill-every", type=float, default=0.5, metavar="SECONDS",
                   help="fault injection period (default 0.5)")
    p.add_argument("--concurrency", type=int, default=12,
                   help="concurrent client loops (default 12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="write the report JSON")

    p = sub.add_parser("report", help="regenerate the headline results as "
                       "markdown, or build the HTML dashboard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="larger sweeps")
    p.add_argument("--out", metavar="PATH", help="write markdown to a file")
    p.add_argument("--html", metavar="PATH",
                   help="write the self-contained HTML dashboard (rendered "
                   "from committed BENCH_*.json baselines; no solver sweeps, "
                   "no network) instead of the markdown report")
    p.add_argument("--bench-dir", metavar="DIR", default="benchmarks",
                   help="directory holding BENCH_*.json (default: benchmarks)")
    p.add_argument("--snapshot", metavar="PATH",
                   help="metrics snapshot JSON (repro.obs snapshot shape) to "
                   "render latency histograms and live counters from")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .core.types import InfeasibleScheduleError, ReproError
    from .solve.problem import NoSolverError, ValidationError

    try:
        return _run(args)
    except NoSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLVER
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ReproError as exc:
        # any other library error (bad churn spec, solve failure, ...):
        # report cleanly instead of dumping a traceback at the operator
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _run(args) -> int:
    if args.command == "fig2":
        from .core.feasibility import assert_feasible
        from .platforms.presets import paper_fig2_chain

        chain = paper_fig2_chain()
        sched = solve(Problem(chain, "makespan", n=5)).schedule
        assert_feasible(sched)
        print("Paper Fig. 2 — chain c=(2,3), w=(3,5), n=5")
        _emit(sched, args)
        nodes = sorted(14 - a.first_emission - 2 for a in sched)
        print(f"Fig. 7 fork-node processing times: {nodes} (paper: [3, 6, 8, 10, 12])")
        return 0

    if args.command in ("chain", "spider", "star"):
        from .core.feasibility import assert_feasible

        platform = _platform_from_args(args)
        sched = solve(Problem(platform, "makespan", n=args.n)).schedule
        assert_feasible(sched)
        _emit(sched, args)
        return 0

    if args.command == "compare":
        from .analysis.metrics import comparison_table, format_table
        from .baselines.heuristics import ALL_HEURISTICS
        from .solve import solver_for

        platform = _platform_from_args(args)
        sol = solve(Problem(platform, "makespan", n=args.n))
        # honest labelling: the tree solver is a heuristic, not the
        # paper's optimum — don't present its makespan as "optimal".
        reference = (
            "optimal (paper)"
            if solver_for(platform).exact
            else f"{sol.solver} solver (heuristic)"
        )
        results = {reference: sol.makespan}
        for name, heuristic in ALL_HEURISTICS.items():
            results[name] = heuristic(platform, args.n).makespan
        rows = comparison_table(results, reference)
        print(format_table(["strategy", "makespan", "ratio"],
                           [(r.label, r.makespan, f"x{r.ratio:.3f}") for r in rows]))
        return 0

    if args.command == "simulate":
        from .core.feasibility import assert_feasible

        platform = _platform_from_args(args)
        sol = solve(Problem(platform, "makespan", n=args.n, mode="online",
                            options={"policy": args.policy}))
        assert_feasible(sol.schedule)
        print(f"policy: {sol.extra['policy']}")
        print(f"makespan: {sol.makespan}   tasks: {sol.n_tasks}")
        for key, util in sorted(sol.trace.summary()["resources"].items()):
            print(f"  {key}: {util:.1%}")
        return 0

    if args.command == "steady":
        from .analysis.steady_state import steady_state

        ss = steady_state(_platform_from_args(args))
        print(f"throughput: {ss.throughput} tasks/unit  (= {float(ss.throughput):.4f})")
        print(f"child rates: {[str(r) for r in ss.child_rates]}")
        return 0

    if args.command == "tree":
        from .analysis.steady_state import steady_state
        from .core.feasibility import assert_feasible
        from .platforms.generators import random_tree
        from .platforms.tree import Tree
        from .trees.heuristic import best_path_cover
        from .viz.dot import platform_to_dot

        if args.platform:
            tree = load_platform(args.platform)
            if not isinstance(tree, Tree):
                raise SystemExit("the tree command needs a tree platform")
            origin = args.platform
        else:
            tree = random_tree(args.workers, profile=args.profile, seed=args.seed)
            origin = f"seed {args.seed}, profile {args.profile}"
        if args.tlim is not None:
            problem = Problem(tree, "deadline", n=args.n, t_lim=args.tlim)
        else:
            problem = Problem(tree, "makespan", n=args.n)
        sol = solve(problem)
        assert_feasible(sol.schedule)

        print(f"tree: {tree.p} workers ({origin}); spider? {tree.is_spider()}")
        served = sol.schedule.task_counts()
        idle = sorted(set(tree.workers) - set(served))
        print(f"answered by the {sol.extra['rounds'][0]['method']} (the better "
              f"of the tree construction and the single spider cover); "
              f"{len(served)}/{tree.p} workers compute, idle {idle}")
        if args.tlim is not None:
            print(f"tasks by Tlim={args.tlim}: {sol.n_tasks}   "
                  f"(makespan {sol.makespan})")
        else:
            print(f"makespan for {args.n} tasks: {sol.makespan}")
        print(f"tree steady-state bound: {steady_state(tree).throughput}; "
              f"efficiency against it (an upper bound): "
              f"{sol.extra['efficiency']:.1%}")
        if args.dot:
            print(platform_to_dot(best_path_cover(tree).spider, "spider_cover"))
        return 0

    if args.command == "failures":
        platform = _platform_from_args(args)
        failures = [_parse_leave(spec) for spec in args.kill]
        sol = solve(Problem(platform, "makespan", n=args.n, mode="online",
                            options={"policy": args.policy,
                                     "churn": failures}))
        sol.validate()  # trace-only answers: re-check resource exclusivity
        if failures:
            print(f"policy: {sol.extra['policy']}   failures: {len(failures)}")
            print(f"makespan: {sol.makespan}   completed: {sol.stats['completed']}")
            print(f"dispatches: {sol.stats['attempts']}   "
                  f"reissues: {sol.stats['reissues']}")
            print(f"survivors: {sol.extra['survivors']}")
        else:
            print(f"policy: {sol.extra['policy']}   failures: 0")
            print(f"makespan: {sol.makespan}   completed: {sol.n_tasks}")
            print(f"dispatches: {sol.n_tasks}   reissues: 0")
            print(f"survivors: {sol.schedule.adapter.processors()}")
        return 0

    if args.command == "repatch":
        platform = _platform_from_args(args)
        events = _parse_churn_args(args)
        if not events:
            raise SystemExit(
                "repatch needs at least one --leave/--join/--drift event"
            )
        sol = solve(Problem(platform, "makespan", n=args.n, mode="repatch",
                            options={"churn": events}))
        sol.validate()
        print(f"base: {sol.extra['base_solver']} solver, "
              f"makespan {sol.extra['base_makespan']}")
        print(f"churn: {len(sol.extra['churn'])} event(s) applied at "
              f"t={sol.extra['instant']}")
        print(f"kept: {sol.stats['kept']} placed + {sol.stats['kept_done']} "
              f"done   replanned: {sol.stats['replanned']}   "
              f"moved: {sol.stats['moved']}")
        if sol.stats["done_off"]:
            print(f"done off-platform before churn: {sol.stats['done_off']}")
        print(f"completed makespan: {sol.extra['completed_makespan']}")
        _emit(sol.schedule, args)
        return 0

    if args.command == "fig7":
        from .platforms.chain import Chain as _Chain
        from .viz.transformation import transformation_to_dot

        platform = _platform_from_args(args)
        if isinstance(platform, _Chain):
            platform = Spider([platform])
        if not isinstance(platform, Spider):
            raise SystemExit("fig7 needs a chain or a spider")
        print(transformation_to_dot(platform, args.tlim))
        return 0

    if args.command == "batch":
        from .analysis.metrics import format_table
        from .batch import load_scenarios, run_batch, save_results

        scenarios = load_scenarios(args.scenarios)
        if args.cache is not None:
            _open_store(args.cache).close()
        from .obs import metrics as obs_metrics
        from .obs import tracing as obs_tracing

        obs_before = obs_metrics.snapshot()

        def _run_batch():
            return run_batch(scenarios, workers=args.workers,
                             validate=args.validate, cache=args.cache)

        if args.profile:
            import cProfile
            import io
            import json as _json
            import pstats

            prof = cProfile.Profile()
            results = prof.runcall(_run_batch)
            prof.dump_stats(args.profile)
            buf = io.StringIO()
            stats = pstats.Stats(prof, stream=buf)
            stats.sort_stats("cumulative").print_stats(25)
            print(buf.getvalue(), file=sys.stderr)
            # machine-readable twin of the stderr summary: top functions
            # by cumulative time, one JSON file next to the pstats dump
            entries = [
                {
                    "file": func[0], "line": func[1], "name": func[2],
                    "ncalls": nc, "primitive_calls": cc,
                    "tottime": round(tt, 6), "cumtime": round(ct, 6),
                }
                for func, (cc, nc, tt, ct, _callers) in stats.stats.items()
            ]
            entries.sort(key=lambda e: (-e["cumtime"], e["file"], e["line"]))
            summary = {
                "schema": 1,
                "total_seconds": round(stats.total_tt, 6),
                "total_calls": stats.total_calls,
                "functions": entries[:25],
            }
            with open(f"{args.profile}.json", "w", encoding="utf-8") as fh:
                _json.dump(summary, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote profile {args.profile} (+ {args.profile}.json)",
                  file=sys.stderr)
        else:
            results = _run_batch()
        headers = ["scenario", "kind", "status", "makespan", "tasks", "rounds",
                   "policy", "engine", "seconds"]
        if args.validate:
            headers.append("validated_by")
        rows = [
            (
                r.scenario_id,
                r.kind,
                "ok" if r.ok else "FAIL",
                "" if r.makespan is None else r.makespan,
                "" if r.n_tasks is None else r.n_tasks,
                "" if r.rounds is None else r.rounds,
                "" if r.policy is None else r.policy,
                r.stats.get("engine", ""),
                f"{r.wall_s:.4f}",
            )
            + ((r.validated_by or "",) if args.validate else ())
            for r in results
        ]
        print(format_table(headers, rows))
        failed = [r for r in results if not r.ok]
        checked = sum(1 for r in results if r.validated)
        hits = sum(1 for r in results if r.cached)
        print(f"{len(results) - len(failed)}/{len(results)} scenarios ok"
              + (f"   ({checked} replay-validated)" if args.validate else "")
              + (f"   ({hits} cache hits)" if args.cache else ""))
        from .core.solve_fast import solve_kernel_stats

        ks = solve_kernel_stats()
        print("solve kernels: "
              f"{ks['kernel_solves']} kernel solves, "
              f"{ks['fallbacks']} fallbacks, "
              f"seq cache {ks['seq_hits']}/{ks['seq_hits'] + ks['seq_misses']} "
              f"hits, core cache {ks['core_hits']}/"
              f"{ks['core_hits'] + ks['core_misses']} hits")
        # merged telemetry, scoped to this batch: with --workers > 1 the
        # delta includes the workers' numbers (shipped back per group)
        delta = obs_metrics.diff_snapshots(obs_before, obs_metrics.snapshot())
        dispatches = sum(v for k, v in delta["counters"].items()
                         if k.startswith("solve.dispatch"))
        obs_line = f"obs: {dispatches} solve dispatches"
        if obs_tracing.tracing_enabled():
            obs_line += f", {len(obs_tracing.spans())} spans collected"
        print(obs_line)
        if args.out:
            print(f"wrote {save_results(results, args.out)}")
        return EXIT_OK if not failed else EXIT_FAILURE

    if args.command == "serve":
        import asyncio

        host, port = "", ""
        if args.tcp:
            host, sep, port = args.tcp.rpartition(":")
            if not sep or not port.isdigit():
                raise SystemExit(
                    f"--tcp needs HOST:PORT (e.g. 127.0.0.1:7000), "
                    f"got {args.tcp!r}"
                )

        def tcp_ready(p):
            # stderr keeps stdout clean for clients tee-ing both
            print(f"listening on {host or '127.0.0.1'}:{p}",
                  file=sys.stderr, flush=True)

        if args.shards > 0:
            from .service.shard import ShardRouter
            from .service.supervisor import WorkerConfig

            config = WorkerConfig(
                threads=args.workers, capacity=args.capacity,
                store_path=args.store,
                request_timeout=args.request_timeout,
                chaos_ops=args.chaos_ops,
            )
            if args.store is not None:
                # each worker would die opening it, over and over
                for shard in range(args.shards):
                    _open_store(config.shard_store(shard)).close()
            router = ShardRouter(args.shards, config,
                                 max_queue=args.max_queue,
                                 request_timeout=args.request_timeout)

            async def fleet_main():
                router.install_signal_handlers()
                await router.start()
                if router.closing:  # shut down during the boot
                    return
                try:
                    if args.tcp:
                        await router.serve_tcp(host or "127.0.0.1",
                                               int(port), ready=tcp_ready)
                    else:
                        await router.serve_stdio()
                finally:
                    await router.aclose()

            try:
                asyncio.run(fleet_main())
            except KeyboardInterrupt:  # pragma: no cover - interactive stop
                pass
            return 0

        from .service.engine import ScheduleService

        store = _open_store(args.store, capacity=args.capacity)
        service = ScheduleService(store=store, workers=args.workers,
                                  request_timeout=args.request_timeout,
                                  chaos_ops=args.chaos_ops)

        async def solo_main():
            service.install_signal_handlers()
            if args.tcp:
                await service.serve_tcp(host or "127.0.0.1", int(port),
                                        ready=tcp_ready)
            else:
                await service.serve_stdio()

        try:
            asyncio.run(solo_main())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        finally:
            service.close()
        return 0

    if args.command == "chaos":
        import json as _json

        from .service.chaos import chaos_run

        report = chaos_run(
            shards=args.shards, duration_s=args.duration,
            target_kills=args.kills, kill_every=args.kill_every,
            concurrency=args.concurrency, seed=args.seed,
            progress=lambda msg: print(f"chaos: {msg}", file=sys.stderr,
                                       flush=True),
        )
        print(_json.dumps(report, indent=2))
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(_json.dumps(report, indent=2) + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        if report["violations"]:
            print(f"chaos: {report['violations']} invariant violation(s)",
                  file=sys.stderr)
            return EXIT_FAILURE
        print(f"chaos: contract held over {report['kills']} kills, "
              f"{report['requests']} requests", file=sys.stderr)
        return EXIT_OK

    if args.command == "report":
        if args.html:
            import json as _json

            from .obs.report import build_dashboard

            snap = None
            if args.snapshot:
                with open(args.snapshot, encoding="utf-8") as fh:
                    snap = _json.load(fh)
            html = build_dashboard(args.bench_dir, snap)
            with open(args.html, "w", encoding="utf-8") as fh:
                fh.write(html)
            print(f"wrote {args.html}")
            return EXIT_OK

        from .analysis.report import build_report

        rep = build_report(seed=args.seed, quick=not args.full)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rep.markdown)
            print(f"wrote {args.out}")
        else:
            print(rep.markdown)
        return EXIT_OK if rep.ok else EXIT_FAILURE

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
