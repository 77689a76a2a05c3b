"""Tests of the solver registry (:mod:`repro.solve`)."""

import pytest

from repro.core.chain import chain_makespan, max_tasks_within
from repro.core.fork import fork_schedule, fork_schedule_deadline
from repro.core.spider import spider_makespan, spider_schedule_deadline
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.solve import (
    NoSolverError,
    Problem,
    SolveError,
    Solver,
    register,
    registered_solvers,
    solve,
    solver_for,
    unregister,
)


class TestProblemRecord:
    def test_makespan_needs_n(self):
        with pytest.raises(SolveError):
            Problem(random_chain(2, seed=1), "makespan")

    def test_deadline_needs_tlim(self):
        with pytest.raises(SolveError):
            Problem(random_chain(2, seed=1), "deadline")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SolveError):
            Problem(random_chain(2, seed=1), "steady", n=3)


class TestRegistry:
    def test_all_builtin_platforms_claimed(self):
        assert {s.name for s in registered_solvers()} == {
            "chain", "star", "spider", "tree", "online", "repatch",
        }
        assert {s.name for s in registered_solvers("offline")} == {
            "chain", "star", "spider", "tree",
        }
        assert [s.name for s in registered_solvers("online")] == ["online"]

    def test_online_summary_names_every_policy(self):
        from repro.sim.online import ONLINE_POLICIES

        summary = solver_for(object(), "online").summary
        assert all(policy in summary for policy in ONLINE_POLICIES)

    def test_solver_for_each_platform(self):
        assert solver_for(random_chain(3, seed=1)).name == "chain"
        assert solver_for(random_star(3, seed=1)).name == "star"
        assert solver_for(random_spider(2, 2, seed=1)).name == "spider"
        assert solver_for(random_tree(4, seed=1)).name == "tree"

    def test_unclaimed_type_raises_with_solver_list(self):
        with pytest.raises(NoSolverError, match="chain, spider, star, tree"):
            solver_for(object())

    def test_double_registration_rejected(self):
        class Dummy(Solver):
            name = "dummy-chain"
            platform_type = Chain

        with pytest.raises(SolveError, match="already claimed"):
            register(Dummy())

    def test_register_replace_and_unregister(self):
        class Marker:  # a platform type nothing claims
            pass

        class MarkerSolver(Solver):
            name = "marker"
            platform_type = Marker

        try:
            register(MarkerSolver())
            assert solver_for(Marker()).name == "marker"
            register(MarkerSolver(), replace=True)  # idempotent with replace
        finally:
            unregister(Marker)
        with pytest.raises(NoSolverError):
            solver_for(Marker())

    def test_unknown_option_rejected(self):
        tree = random_tree(4, seed=2)
        with pytest.raises(SolveError, match="bogus"):
            solve(Problem(tree, "makespan", n=3, options={"bogus": 1}))
        with pytest.raises(SolveError, match="max_rounds"):
            # chain solver takes no options at all
            solve(Problem(random_chain(2, seed=1), "makespan", n=3,
                          options={"max_rounds": 2}))


class TestSolveMatchesDirectCalls:
    """``solve()`` must answer exactly like the underlying algorithms."""

    def test_chain(self):
        chain = random_chain(4, seed=9)
        assert solve(Problem(chain, "makespan", n=7)).makespan == \
            chain_makespan(chain, 7)
        sol = solve(Problem(chain, "deadline", t_lim=30))
        assert sol.n_tasks == max_tasks_within(chain, 30)

    def test_star(self):
        star = random_star(5, seed=9)
        assert solve(Problem(star, "makespan", n=6)).makespan == \
            fork_schedule(star, 6).makespan
        sol = solve(Problem(star, "deadline", t_lim=15))
        assert sol.n_tasks == fork_schedule_deadline(star, 15, None).n_tasks

    def test_spider(self):
        spider = random_spider(3, 3, seed=9)
        assert solve(Problem(spider, "makespan", n=7)).makespan == \
            spider_makespan(spider, 7)
        sol = solve(Problem(spider, "deadline", t_lim=25))
        assert sol.n_tasks == spider_schedule_deadline(spider, 25).n_tasks

    def test_tree_extra_fields(self):
        tree = random_tree(8, profile="cpu_heavy", seed=310)
        sol = solve(Problem(tree, "deadline", t_lim=80))
        assert sol.extra["rounds"] in ([{"method": "construction"}],
                                       [{"method": "cover"}])
        served = {a.processor for a in sol.schedule}
        assert sol.extra["coverage"] == len(served) / tree.p
        assert 0 < sol.extra["efficiency"] <= 1.05
