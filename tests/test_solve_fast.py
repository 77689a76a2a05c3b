"""Differential suite for the solve kernels.

Every chain/star/spider solve runs on the flat-array kernels of
:mod:`repro.core.solve_fast`, which must be *bit-identical* to the
paper-literal oracles (:mod:`repro.core.chain`, :mod:`repro.core.fork`,
:mod:`repro.core.spider`) — same schedules, same makespans, same replay
traces, same error messages on infeasible inputs.  Every
property here answers the same problem through ``solve`` (asserting the
kernel answered) and through the oracle directly, and compares the full
answer, so any divergence in the array kernels shows up as a
counterexample, not a statistical drift.
"""

from __future__ import annotations

import asyncio
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.steady_state import spider_steady_state, star_steady_state
from repro.core.chain import schedule_chain, schedule_chain_deadline
from repro.core.fork import fork_schedule, fork_schedule_deadline
from repro.core.solve_fast import (
    SolveKernelUnsupported,
    _chain_seq,
    _Copies,
    _least_horizon,
    _oracle_spider_deadline,
    _oracle_spider_schedule,
    _probe,
    _spider_core,
    _star_core,
    clear_solve_kernels,
    solve_kernel_stats,
    spider_deadline,
    spider_schedule as kernel_spider_schedule,
    star_deadline,
    star_schedule,
)
from repro.core.spider import spider_schedule, spider_schedule_deadline
from repro.core.types import PlatformError
from repro.io.json_io import (
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.service import ScheduleService, SolutionStore
from repro.service.protocol import serve_line
from repro.solve import Problem, Solution, SolveError, register, solve, solver_for
from repro.solve.solvers import ChainSolver

from conftest import chains, spiders, stars


def schedule_key(schedule):
    """Bit-exact fingerprint of a schedule (or None)."""
    if schedule is None:
        return None
    return {
        a.task: (str(a.processor), a.start, tuple(a.comms.times))
        for a in schedule.assignments.values()
    }


def oracle(problem):
    """The paper-literal oracle's answer as a ``Solution``."""
    p, n, t_lim = problem.platform, problem.n, problem.t_lim
    if problem.kind == "makespan":
        solver = {Chain: schedule_chain, Star: fork_schedule}.get(
            type(p), spider_schedule
        )
        sched = solver(p, n)
    elif isinstance(p, (Chain, Star)):
        solver = schedule_chain_deadline if isinstance(p, Chain) else (
            fork_schedule_deadline
        )
        sched = solver(p, t_lim, n)
    else:
        sched = spider_schedule_deadline(p, t_lim, n).schedule
    return Solution(problem, sched, "oracle")


def serve(problem):
    """The response to one solve request from a fresh in-process service."""
    async def ask():
        service = ScheduleService(store=SolutionStore(), workers=1)
        try:
            return await serve_line(service, json.dumps({
                "id": "r", "op": "solve", "problem": problem_to_dict(problem),
            }))
        finally:
            service.close()

    return json.loads(asyncio.run(ask()))


def solve_both(problem):
    kernel = solve(problem)
    assert kernel.stats["engine"] == "compiled"
    return kernel, oracle(problem)


def assert_identical(kernel, obj):
    assert schedule_key(kernel.schedule) == schedule_key(obj.schedule)
    assert kernel.makespan == obj.makespan
    assert kernel.n_tasks == obj.n_tasks


# ---------------------------------------------------------------------------
# the kernel-then-oracle rule, as the registry exposes it
# ---------------------------------------------------------------------------


class TestEngineAxis:
    def test_engines_and_default(self):
        """Integer platforms are answered by the kernel ("compiled"); the
        oracle ("object") answers only what the kernel refuses."""
        chain = random_chain(3, seed=1)
        assert solve(Problem(chain, "makespan", n=4)).stats["engine"] == "compiled"
        floats = Chain([1.5, 2.0], [2.5, 3.0])
        assert solve(Problem(floats, "makespan", n=4)).stats["engine"] == "object"

    def test_solver_names_stable_across_engines(self):
        for platform, name in (
            (random_chain(3, seed=1), "chain"),
            (random_star(3, seed=1), "star"),
            (random_spider(2, 2, seed=1), "spider"),
        ):
            assert solver_for(platform).name == name
            assert solve(Problem(platform, "makespan", n=3)).solver == name
        floats = Chain([1.5], [2.5])
        assert solve(Problem(floats, "makespan", n=2)).solver == "chain"

    def test_double_claim_raises(self):
        with pytest.raises(SolveError, match="already claimed"):
            register(ChainSolver())


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


class TestChainDifferential:
    @given(chains(max_p=6), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_makespan(self, chain, n):
        compiled, obj = solve_both(Problem(chain, "makespan", n=n))
        assert_identical(compiled, obj)

    @given(chains(max_p=6), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_deadline(self, chain, t_lim):
        compiled, obj = solve_both(Problem(chain, "deadline", t_lim=t_lim))
        assert_identical(compiled, obj)

    @given(chains(max_p=5), st.integers(1, 25), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_deadline_with_budget(self, chain, n, t_lim):
        compiled, obj = solve_both(
            Problem(chain, "deadline", n=n, t_lim=t_lim)
        )
        assert_identical(compiled, obj)

    @given(chains(max_p=5), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_replay_trace_identical(self, chain, n):
        compiled, obj = solve_both(Problem(chain, "makespan", n=n))
        assert compiled.replay() == obj.replay()
        compiled.validate()


# ---------------------------------------------------------------------------
# stars (the fork EDF allocator)
# ---------------------------------------------------------------------------


class TestStarDifferential:
    @given(stars(max_k=5), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    def test_makespan(self, star, n):
        problem = Problem(star, "makespan", n=n)
        try:
            compiled = solve(problem)
        except PlatformError as exc:
            with pytest.raises(PlatformError) as obj_exc:
                oracle(problem)
            assert str(exc) == str(obj_exc.value)
            return
        assert compiled.stats["engine"] == "compiled"
        assert_identical(compiled, oracle(problem))

    @given(stars(max_k=5), st.integers(0, 80))
    @settings(max_examples=80, deadline=None)
    def test_deadline(self, star, t_lim):
        compiled, obj = solve_both(Problem(star, "deadline", t_lim=t_lim))
        assert_identical(compiled, obj)

    @given(stars(max_k=4), st.integers(1, 15), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_deadline_with_budget(self, star, n, t_lim):
        compiled, obj = solve_both(
            Problem(star, "deadline", n=n, t_lim=t_lim)
        )
        assert_identical(compiled, obj)

    @given(stars(max_k=4), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_replay_trace_identical(self, star, n):
        problem = Problem(star, "makespan", n=n)
        try:
            compiled = solve(problem)
        except PlatformError:
            return
        assert compiled.replay() == oracle(problem).replay()
        compiled.validate()

    # a star child is a one-processor leg: the fork-graph core's closed
    # form and its chain sequences agree, and so do the star and spider
    # kernels on ``S`` and ``Spider([Chain([c], [w]), ...])``

    @staticmethod
    def stars_and_legs(count):
        """``count`` random integer stars, each with its spider of
        one-processor legs (and the generator, for the question)."""
        rng = random.Random("star-as-spider")
        for _ in range(count):
            star = random_star(rng.randint(1, 5), rng=rng)
            legs = Spider([Chain([ch.c], [ch.w]) for ch in star.children])
            yield rng, star, legs

    def test_copies_are_the_legs_fork_nodes(self):
        for _, star, _ in self.stars_and_legs(400):
            for child in star.children:
                seq = _chain_seq(Chain([child.c], [child.w]))
                assert seq.works(40).tolist() == (
                    _Copies(child).works(40).tolist()
                )

    def test_deadline_counts_agree(self):
        for rng, star, legs in self.stars_and_legs(400):
            t_lim = rng.randint(0, 80)
            n = rng.choice([None, rng.randint(1, 30)])
            by_star, by_legs = star_deadline(star, t_lim, n), spider_deadline(
                legs, t_lim, n
            )
            assert by_star[1]["engine"] == by_legs[1]["engine"] == "compiled"
            assert by_star[0].n_tasks == by_legs[0].n_tasks

    def test_makespans_agree(self):
        for rng, star, legs in self.stars_and_legs(400):
            n = rng.randint(1, 40)
            by_star, by_legs = star_schedule(star, n), kernel_spider_schedule(
                legs, n
            )
            assert by_star[1]["engine"] == by_legs[1]["engine"] == "compiled"
            assert by_star[0].makespan == by_legs[0].makespan


# ---------------------------------------------------------------------------
# spiders
# ---------------------------------------------------------------------------


class TestSpiderDifferential:
    @given(spiders(max_legs=3, max_depth=3), st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_makespan(self, spider, n):
        compiled, obj = solve_both(Problem(spider, "makespan", n=n))
        assert_identical(compiled, obj)

    @given(spiders(max_legs=3, max_depth=3), st.integers(0, 70))
    @settings(max_examples=60, deadline=None)
    def test_deadline(self, spider, t_lim):
        compiled, obj = solve_both(Problem(spider, "deadline", t_lim=t_lim))
        assert_identical(compiled, obj)

    @given(spiders(max_legs=3, max_depth=2), st.integers(1, 15))
    @settings(max_examples=30, deadline=None)
    def test_replay_trace_identical(self, spider, n):
        compiled, obj = solve_both(Problem(spider, "makespan", n=n))
        assert compiled.replay() == obj.replay()
        compiled.validate()

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_legs(self, seed):
        """Identical legs share one cached sequence (and tie everywhere
        when homogeneous): makespan, then a deadline deep in the run."""
        rng = random.Random(seed)
        leg = (
            Chain.homogeneous(rng.randint(2, 4), rng.randint(1, 3),
                              rng.randint(2, 6))
            if seed % 2 else random_chain(rng.randint(2, 4), rng=rng)
        )
        other = random_chain(rng.randint(1, 3), rng=rng)
        for spider in (Spider([leg, leg]), Spider([leg, other, leg])):
            compiled, obj = solve_both(Problem(spider, "makespan", n=60))
            assert_identical(compiled, obj)
            compiled, obj = solve_both(
                Problem(spider, "deadline", t_lim=compiled.makespan - 1)
            )
            assert_identical(compiled, obj)


# ---------------------------------------------------------------------------
# the makespan search: gallop up from the steady-state bound
# ---------------------------------------------------------------------------


def miss_star(rng: random.Random) -> Star:
    """A star of the service miss stream's shape: nine children."""
    return random_star(9, rng=rng)


def miss_spider(rng: random.Random, zero_latency: bool = False) -> Spider:
    """A spider of the miss stream's shape: five legs of two processors;
    ``zero_latency`` opens every other leg with a ``c = 0`` link."""
    legs = [random_chain(2, rng=rng) for _ in range(5)]
    if zero_latency:
        legs = [Chain((0, *leg.c[1:]), leg.w) if i % 2 else leg
                for i, leg in enumerate(legs)]
    return Spider(legs)


class TestMakespanSearch:
    @pytest.mark.parametrize("answer, lo, start, step, hi, last_step", [
        # infeasible start, one gallop step: 100 ✗, 108 ✓
        (105, 10, 100, 8, 1000, 8),
        # several: 100 ✗, 108 ✗, 124 ✗, 156 ✓
        (150, 10, 100, 8, 1000, 32),
        # the gallop stops at the cap: … 604 ✗, 1000 ✓
        (990, 10, 100, 8, 1000, 512),
        # the answer one above an infeasible start
        (101, 10, 100, 8, 1000, 8),
        # feasible start: searched down to the answer (no gallop step)
        (60, 10, 100, 8, 1000, None),
        # start at or above the cap
        (700, 10, 1000, 8, 1000, None),
        (700, 10, 5000, 8, 1000, None),
        # lower bound equal to the cap
        (50, 50, 40, 8, 50, None),
        # the answer is the lower bound: from above, and from a start below
        (10, 10, 100, 8, 1000, None),
        (10, 10, 3, 8, 1000, None),
    ])
    def test_least_feasible_horizon(self, answer, lo, start, step, hi,
                                    last_step):
        probes = []

        def probe(t):
            probes.append(t)
            return ("outcome", t) if t >= answer else None

        assert _least_horizon(probe, lo, start, step, hi) == (
            answer, ("outcome", answer)
        )
        assert len(probes) == len(set(probes)), "a horizon probed twice"
        assert all(lo <= t <= hi for t in probes)
        first = min(max(start, lo), hi)
        assert probes[0] == first
        if last_step is None:  # the start fits: nothing above it is probed
            assert max(probes) == first
        else:
            assert max(probes) - answer < last_step

    def test_infeasible_cap(self):
        probes = []

        def probe(t):
            probes.append(t)

        assert _least_horizon(probe, 10, 100, 8, 1000) is None
        assert max(probes) == 1000 and probes.count(1000) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_miss_shapes_match_the_oracle(self, seed):
        """Kernel == oracle where the gallop runs far: n = 128 on the miss
        stream's shapes (the hypothesis differentials stop at n <= 30),
        and no makespan beats the steady-state bound the search starts
        from."""
        rng = random.Random(f"miss-shapes:{seed}")
        n = 128
        for platform, rate in (
            (miss_star(rng), star_steady_state),
            (miss_spider(rng), spider_steady_state),
            (miss_spider(rng, zero_latency=seed % 2 == 1),
             spider_steady_state),
        ):
            compiled, obj = solve_both(Problem(platform, "makespan", n=n))
            assert_identical(compiled, obj)
            assert compiled.makespan >= n / rate(platform).throughput

    def test_probes_per_makespan_solve(self):
        """Every star and spider makespan solve at the miss stream's
        n = 512 takes at most 7 deadline probes (the bisection took 10-13
        on this set)."""
        rng = random.Random("miss-probes")
        platforms = [miss_star(rng) for _ in range(8)]
        platforms += [miss_spider(rng) for _ in range(8)]
        for platform in platforms:
            before = solve_kernel_stats()["kernel_probes"]
            answer = solve(Problem(platform, "makespan", n=512))
            assert answer.stats["engine"] == "compiled"
            probes = solve_kernel_stats()["kernel_probes"] - before
            assert 1 <= probes <= 7, (platform, probes)


# ---------------------------------------------------------------------------
# makespan probes present each group up to a guess
# ---------------------------------------------------------------------------

#: platforms where a guess is most likely wrong: children and legs that
#: share a first-link latency (the steady state splits their pooled rate
#: arbitrarily), a port-saturating group (``(1, 1)``: it alone fills the
#: master's port, so every other group's steady-state rate is 0), and
#: spider legs opening with a ``c = 0`` link (presented whole).  The last
#: spider's makespan search grows a cut leg once: a rerun is rare (1 of
#: 3,000 random stars and spiders at n = 16–512).
CUT_STARS = (
    Star([(1, 1), (2, 3), (2, 5), (2, 4), (3, 2), (3, 7), (5, 2), (1, 6)]),
    Star([(2, 3), (2, 3), (2, 5), (3, 2), (4, 1), (6, 1)]),
)
CUT_SPIDERS = (
    Spider([Chain((1, 1), (1, 1)), Chain((1, 3), (2, 2)),
            Chain((0, 2), (4, 3)), Chain((2, 1), (3, 2)),
            Chain((2, 2), (5, 1))]),
    Spider([Chain((4, 1, 2), (9, 2, 4)), Chain((1, 1, 3), (4, 1, 6)),
            Chain((4, 4), (9, 8)), Chain((3, 4, 2), (4, 4, 9)),
            Chain((2, 3), (9, 5))]),
)


class TestCutGroups:
    @pytest.mark.parametrize(
        "platform", CUT_STARS + CUT_SPIDERS,
        ids=["star-saturated", "star-shared", "spider-saturated",
             "spider-regrown"],
    )
    def test_makespans_match_the_oracle_at_512(self, platform):
        compiled, obj = solve_both(Problem(platform, "makespan", n=512))
        assert_identical(compiled, obj)

    @staticmethod
    def accepted(probe):
        keep = probe.accepted
        return (probe.group[keep].tolist(), probe.c[keep].tolist(),
                probe.w[keep].tolist())

    @pytest.mark.parametrize("n", [64, 512])
    def test_forced_growth_accepts_what_whole_groups_do(self, n):
        """Every guess set to 1 makes every group grow from one node, by
        reruns, to its first rejected node; the accepted nodes must be the
        ones the probe accepts with every group presented whole, at
        horizons below, at and above the makespan."""
        rng = random.Random(f"cut-groups:{n}")
        platforms = [*CUT_STARS, *CUT_SPIDERS, miss_star(rng),
                     miss_spider(rng), miss_spider(rng, zero_latency=True)]
        for platform in platforms:
            core = (_star_core(platform) if isinstance(platform, Star)
                    else _spider_core(platform))
            ones = [1] * len(core.groups)
            makespan = solve(Problem(platform, "makespan", n=n)).makespan
            for t in (makespan // 2, makespan - 1, makespan, makespan + 3,
                      2 * makespan):
                whole = _probe(core, t, n)
                cut = _probe(core, t, n, guesses=ones)
                assert self.accepted(cut) == self.accepted(whole), (
                    platform, t
                )
                assert cut.candidates > cut.c.shape[0], "no group grew"
                assert all(a <= b for a, b in zip(cut.counts, whole.counts))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_spider_makespans_build_what_they_use(self, seed):
        """Cold miss-shaped spider makespans (5 legs of 2 processors,
        n = 512) build a median of at most 1.4 chain placements per task
        they answer (1.16 and 1.14 here; 2.48 and 2.33 when every probe
        ran each leg to n or its horizon)."""
        rng = random.Random(f"miss-placements:{seed}")
        per_task = []
        for _ in range(15):
            clear_solve_kernels()
            answer = solve(Problem(miss_spider(rng), "makespan", n=512))
            assert answer.stats["engine"] == "compiled"
            per_task.append(
                solve_kernel_stats()["placements"] / answer.n_tasks
            )
        per_task.sort()
        assert per_task[len(per_task) // 2] <= 1.4, per_task


# ---------------------------------------------------------------------------
# edge cases and the fallback contract
# ---------------------------------------------------------------------------


class TestEdgesAndFallback:
    def test_zero_deadline_all_platforms(self):
        for platform in (random_chain(3, seed=3), random_star(3, seed=3),
                         random_spider(2, 2, seed=3)):
            compiled, obj = solve_both(
                Problem(platform, "deadline", t_lim=0)
            )
            assert_identical(compiled, obj)
            assert compiled.n_tasks == 0

    def test_single_processor_chain(self):
        compiled, obj = solve_both(
            Problem(Chain([2], [3]), "makespan", n=5)
        )
        assert_identical(compiled, obj)

    def test_float_platform_falls_back(self):
        problem = Problem(Chain([1.5, 2.0], [2.5, 3.0]), "makespan", n=4)
        answer = solve(problem)
        assert answer.stats["engine"] == "object"
        assert schedule_key(answer.schedule) == schedule_key(
            oracle(problem).schedule
        )

    def test_float_tlim_falls_back(self):
        problem = Problem(random_chain(3, seed=4), "deadline", t_lim=12.5)
        answer = solve(problem)
        assert answer.stats["engine"] == "object"
        assert answer.n_tasks == oracle(problem).n_tasks

    def test_fallback_counts(self):
        before = solve_kernel_stats()["fallbacks"]
        solve(Problem(Chain([1.5], [2.5]), "makespan", n=2))
        assert solve_kernel_stats()["fallbacks"] == before + 1

    @pytest.mark.parametrize("star", [
        Star([(1.5, 2.25), (0.5, 3.0), (2.0, 1.0)]),
        Star([(Fraction(3, 2), Fraction(7, 3)), (Fraction(1, 3), 3)]),
    ], ids=["float", "fraction"])
    def test_star_makespan_falls_back_to_the_fork_oracle(self, star):
        before = solve_kernel_stats()["fallbacks"]
        answer = solve(Problem(star, "makespan", n=7))
        assert solve_kernel_stats()["fallbacks"] == before + 1
        assert answer.stats["engine"] == "object"
        assert schedule_key(answer.schedule) == schedule_key(
            fork_schedule(star, 7)
        )
        answer.validate()

    @pytest.mark.parametrize("problem, n_tasks, makespan", [
        (Problem(Star([
            (432345564227567616, 72057594037927936),
            (576460752303423488, 432345564227567616),
            (288230376151711744, 288230376151711744),
            (432345564227567616, 72057594037927936),
            (72057594037927936, 576460752303423488),
            (288230376151711744, 504403158265495552),
        ]), "deadline", t_lim=9162357014845774145), 42, None),
        (Problem(Star([(2 ** 61, 3 * 2 ** 61), (2 ** 62, 2 ** 61)]),
                 "makespan", n=3), 3, 13835058055282163712),
    ], ids=["deadline", "makespan"])
    def test_int64_overflow_falls_back_to_the_oracle(
        self, problem, n_tasks, makespan
    ):
        """Integers whose int64 sums in the fork core could wrap are the
        oracle's: one counted fallback, served ok with its answer."""
        before = solve_kernel_stats()["fallbacks"]
        response = serve(problem)
        assert solve_kernel_stats()["fallbacks"] == before + 1
        assert response["ok"], response
        answer = solution_from_dict(response["solution"])
        assert answer.stats["engine"] == "object"
        assert answer.n_tasks == n_tasks == oracle(problem).n_tasks
        if makespan is not None:
            assert answer.makespan == makespan

    def test_kernel_unsupported_is_raisable(self):
        with pytest.raises(SolveKernelUnsupported):
            raise SolveKernelUnsupported("no numpy")


# ---------------------------------------------------------------------------
# kernel cache counters
# ---------------------------------------------------------------------------


class TestKernelCaches:
    def test_stats_shape(self):
        stats = solve_kernel_stats()
        for key in ("seq_hits", "seq_misses", "core_hits", "core_misses",
                    "kernel_solves", "kernel_probes", "fallbacks",
                    "placements", "seq_entries", "core_entries"):
            assert key in stats, key

    def test_solves_and_hits_accumulate(self):
        clear_solve_kernels()
        chain = random_chain(4, seed=9)
        solve(Problem(chain, "makespan", n=10))
        mid = solve_kernel_stats()
        assert mid["kernel_solves"] == 1
        assert mid["seq_misses"] >= 1
        solve(Problem(chain, "makespan", n=10))
        after = solve_kernel_stats()
        assert after["kernel_solves"] == 2
        assert after["seq_hits"] > mid["seq_hits"]

    def test_stats_independent_of_cache_history(self):
        """An answer, stats included, depends only on its problem: solved
        cold, after a larger solve of the same chain, and after a spider
        that shares a leg, it serialises to the same dict."""
        chain = Chain([2, 3, 1], [3, 5, 2])
        other = Chain([1, 2], [4, 3])
        tree = random_tree(7, seed=5)
        problems = [
            Problem(chain, "makespan", n=10),
            Problem(chain, "deadline", t_lim=30),
            Problem(Spider([chain, other]), "makespan", n=12),
            Problem(Spider([chain, other]), "deadline", t_lim=25),
            Problem(Spider([chain, chain]), "makespan", n=12),
            Problem(tree, "deadline", t_lim=40),
        ]
        histories = [
            [],
            [Problem(chain, "makespan", n=300),
             Problem(tree, "makespan", n=150)],
            [Problem(Spider([other, chain, Chain([4], [1])]), "makespan",
                     n=200)],
        ]
        for problem in problems:
            answers = []
            for history in histories:
                clear_solve_kernels()
                for earlier in history:
                    solve(earlier)
                answers.append(solution_to_dict(solve(problem)))
            assert answers[1] == answers[0], problem
            assert answers[2] == answers[0], problem

    def test_clear_resets(self):
        solve(Problem(random_chain(3, seed=12), "makespan", n=4))
        clear_solve_kernels()
        stats = solve_kernel_stats()
        assert stats["kernel_solves"] == 0
        assert stats["seq_entries"] == 0
        assert stats["core_entries"] == 0


# ---------------------------------------------------------------------------
# the tree solver runs its spider cover on the same entries
# ---------------------------------------------------------------------------


class TestTreesOnTheKernel:
    @staticmethod
    def on_oracle(monkeypatch):
        """Point the tree solver's spider calls at the oracle."""
        import repro.trees.construction as construction

        monkeypatch.setattr(
            construction, "spider_schedule", _oracle_spider_schedule
        )
        monkeypatch.setattr(
            construction, "spider_deadline", _oracle_spider_deadline
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kernel_path_matches_oracle_pipeline(self, seed, monkeypatch):
        import random

        from benchmarks.kernels import relabeled_platform

        rng = random.Random(seed)
        trees = [random_tree(8, profile="cpu_heavy", seed=seed)]
        trees.append(relabeled_platform(trees[0], rng))
        problems = [
            Problem(t, kind, n=24, t_lim=None if kind == "makespan" else 60)
            for t in trees for kind in ("makespan", "deadline")
        ]
        before = solve_kernel_stats()["fallbacks"]
        kernel = [solve(p) for p in problems]
        assert solve_kernel_stats()["fallbacks"] == before
        self.on_oracle(monkeypatch)
        for answer, problem in zip(kernel, problems):
            assert schedule_key(answer.schedule) == schedule_key(
                solve(problem).schedule
            )

    def test_float_tree_counts_one_fallback_per_refusal(self, monkeypatch):
        from repro.platforms.tree import Tree
        import repro.trees.construction as construction

        calls = []

        def counted(module, name):
            entry = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return entry(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(construction, "spider_schedule")
        counted(construction, "spider_deadline")
        tree = Tree([(0, 1, 1.5, 2.0), (1, 2, 0.5, 1.0), (0, 3, 2.0, 1.5)])
        before = solve_kernel_stats()["fallbacks"]
        for problem in (Problem(tree, "makespan", n=6),
                        Problem(tree, "deadline", n=6, t_lim=9.5)):
            solve(problem).validate()
        assert calls
        assert solve_kernel_stats()["fallbacks"] - before == len(calls)
