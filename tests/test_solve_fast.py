"""Differential suite for the solve kernels.

Every chain/star/spider solve runs on the flat-array kernels of
:mod:`repro.core.solve_fast`, which must be *bit-identical* to the
paper-literal oracles (:mod:`repro.core.chain`, :mod:`repro.core.fork`,
:mod:`repro.core.spider`) — same schedules, same makespans, same replay
traces, same warm caps, same error messages on infeasible inputs.  Every
property here answers the same problem through ``solve`` (asserting the
kernel answered) and through the oracle directly, and compares the full
answer, so any divergence in the array kernels shows up as a
counterexample, not a statistical drift.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import schedule_chain, schedule_chain_deadline
from repro.core.fork import fork_schedule, fork_schedule_deadline
from repro.core.solve_fast import (
    SolveKernelUnsupported,
    _oracle_spider_deadline,
    _oracle_spider_schedule,
    clear_solve_kernels,
    export_solve_cores,
    seed_solve_cores,
    solve_kernel_stats,
)
from repro.core.spider import spider_schedule, spider_schedule_deadline
from repro.core.types import PlatformError
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.star import Star
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
    """The paper-literal oracle's answer: ``Solution`` with warm caps."""
    p, n, t_lim = problem.platform, problem.n, problem.t_lim
    caps = None
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
        leg_caps = None if problem.warm_caps is None else dict(problem.warm_caps)
        res = spider_schedule_deadline(p, t_lim, n, leg_caps=leg_caps)
        sched, caps = res.schedule, dict(res.leg_counts)
    return Solution(problem, sched, "oracle", warm_caps=caps)


def solve_both(problem):
    kernel = solve(problem)
    assert kernel.stats["engine"] == "compiled"
    return kernel, oracle(problem)


def assert_identical(kernel, obj):
    assert schedule_key(kernel.schedule) == schedule_key(obj.schedule)
    assert kernel.makespan == obj.makespan
    assert kernel.n_tasks == obj.n_tasks
    assert kernel.warm_caps == obj.warm_caps


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

    @given(spiders(max_legs=3, max_depth=2), st.integers(0, 40),
           st.lists(st.integers(0, 5), min_size=0, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_warm_caps(self, spider, t_lim, caps_list):
        caps = {i + 1: cap for i, cap in enumerate(caps_list)
                if i < len(list(spider.legs))}
        compiled, obj = solve_both(
            Problem(spider, "deadline", t_lim=t_lim, warm_caps=caps)
        )
        assert_identical(compiled, obj)

    @given(spiders(max_legs=3, max_depth=2), st.integers(1, 15))
    @settings(max_examples=30, deadline=None)
    def test_replay_trace_identical(self, spider, n):
        compiled, obj = solve_both(Problem(spider, "makespan", n=n))
        assert compiled.replay() == obj.replay()
        compiled.validate()


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

    def test_kernel_unsupported_is_raisable(self):
        with pytest.raises(SolveKernelUnsupported):
            raise SolveKernelUnsupported("no numpy")


# ---------------------------------------------------------------------------
# kernel cache counters and cross-process seeding (satellites 1 + 6)
# ---------------------------------------------------------------------------


class TestKernelCaches:
    def test_stats_shape(self):
        stats = solve_kernel_stats()
        for key in ("seq_hits", "seq_misses", "core_hits", "core_misses",
                    "kernel_solves", "kernel_probes", "fallbacks",
                    "seq_entries", "core_entries"):
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

    def test_export_seed_roundtrip(self):
        clear_solve_kernels()
        chain = random_chain(4, seed=11)
        compiled, obj = solve_both(Problem(chain, "makespan", n=8))
        assert_identical(compiled, obj)
        exported = export_solve_cores()
        assert exported

        clear_solve_kernels()
        assert seed_solve_cores(exported) == len(exported)
        seeded = solve_kernel_stats()
        assert seeded["seq_entries"] == len(exported)
        # a seeded cache answers without re-deriving the sequence
        again = solve(Problem(chain, "makespan", n=8))
        assert schedule_key(again.schedule) == schedule_key(obj.schedule)
        assert solve_kernel_stats()["seq_hits"] >= 1

    def test_clear_resets(self):
        solve(Problem(random_chain(3, seed=12), "makespan", n=4))
        clear_solve_kernels()
        stats = solve_kernel_stats()
        assert stats["kernel_solves"] == 0
        assert stats["seq_entries"] == 0
        assert stats["core_entries"] == 0


# ---------------------------------------------------------------------------
# the tree heuristic runs its spider rounds on the same entries
# ---------------------------------------------------------------------------


class TestTreesOnTheKernel:
    @staticmethod
    def on_oracle(monkeypatch):
        """Point the tree heuristic's spider calls at the oracle."""
        import repro.trees.heuristic as heuristic
        import repro.trees.multiround as multiround

        monkeypatch.setattr(heuristic, "spider_schedule", _oracle_spider_schedule)
        monkeypatch.setattr(multiround, "spider_deadline", _oracle_spider_deadline)

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
        import repro.trees.heuristic as heuristic
        import repro.trees.multiround as multiround

        calls = []

        def counted(module, name):
            entry = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return entry(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(heuristic, "spider_schedule")
        counted(multiround, "spider_deadline")
        tree = Tree([(0, 1, 1.5, 2.0), (1, 2, 0.5, 1.0), (0, 3, 2.0, 1.5)])
        before = solve_kernel_stats()["fallbacks"]
        for problem in (Problem(tree, "makespan", n=6),
                        Problem(tree, "deadline", n=6, t_lim=9.5)):
            solve(problem).validate()
        assert calls
        assert solve_kernel_stats()["fallbacks"] - before == len(calls)
