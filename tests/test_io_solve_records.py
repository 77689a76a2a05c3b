"""JSON round trips of the solve-layer records (problems, solutions, traces).

These are the payloads the service store and the wire protocol archive, so
every field — including execution traces and tuple-shaped resource keys —
must survive ``to_dict → json → from_dict`` bit-exactly.
"""

import json
from dataclasses import replace

import pytest

from repro.io.json_io import (
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.core.types import ReproError
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree
from repro.solve import Problem, SolveError, solve


def roundtrip(d):
    """Force a real JSON pass so tuples/keys degrade exactly as on disk."""
    return json.loads(json.dumps(d))


PLATFORMS = [
    Chain([2, 3], [3, 5]),
    Star([(2, 3), (1, 5)]),
    Spider([Chain([2, 3], [3, 5]), Chain([1], [4])]),
    Tree([(0, 1, 2, 3), (0, 2, 1, 4), (2, 3, 2, 2)]),
]


class TestProblemRoundTrip:
    @pytest.mark.parametrize("platform", PLATFORMS,
                             ids=lambda p: type(p).__name__)
    def test_makespan_problem(self, platform):
        problem = Problem(platform, "makespan", n=6)
        back = problem_from_dict(roundtrip(problem_to_dict(problem)))
        assert back.kind == "makespan" and back.n == 6
        assert back.platform.to_dict() == platform.to_dict()
        assert back.mode == "offline"

    def test_deadline_problem_with_options(self):
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        problem = Problem(
            spider, "deadline", n=20, t_lim=35,
            options={"a": 1, "b": [1, 2]},
        )
        back = problem_from_dict(roundtrip(problem_to_dict(problem)))
        assert back.t_lim == 35 and back.n == 20
        assert dict(back.options) == {"a": 1, "b": [1, 2]}

    def test_retired_warm_caps(self):
        """Problems take no caps; an older record's cap list is dropped."""
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        problem = Problem(spider, "deadline", t_lim=35)
        assert replace(problem, warm_caps=None) == problem
        with pytest.raises(SolveError, match="retired"):
            Problem(spider, "deadline", t_lim=35, warm_caps={1: 9, 2: 4})
        d = problem_to_dict(problem)
        assert "warm_caps" not in d
        assert problem_from_dict({**d, "warm_caps": [[1, 9], [2, 4]]}) == \
            problem_from_dict(d)

    def test_legacy_allocator_key(self):
        d = problem_to_dict(Problem(Chain([2], [3]), "makespan", n=3))
        assert "allocator" not in d
        for legacy in ("greedy", "incremental"):
            back = problem_from_dict({**d, "allocator": legacy})
            assert back == problem_from_dict(d)
        with pytest.raises(ReproError, match="'allocator'"):
            problem_from_dict({**d, "allocator": "moore"})

    def test_online_problem(self):
        problem = Problem(Chain([2], [3]), "makespan", n=3, mode="online",
                          options={"policy": "round_robin"})
        back = problem_from_dict(roundtrip(problem_to_dict(problem)))
        assert back.mode == "online"
        assert back.options["policy"] == "round_robin"

    def test_wrong_record_tag_rejected(self):
        with pytest.raises(ReproError):
            problem_from_dict({"record": "solution"})


class TestSolutionRoundTrip:
    @pytest.mark.parametrize("platform", PLATFORMS,
                             ids=lambda p: type(p).__name__)
    def test_offline_solution(self, platform):
        solution = solve(Problem(platform, "makespan", n=6))
        back = solution_from_dict(roundtrip(solution_to_dict(solution)))
        assert back.solver == solution.solver
        assert back.makespan == solution.makespan
        assert back.n_tasks == solution.n_tasks
        assert back.stats == solution.stats
        # schedule is bound to the reconstructed problem's platform object
        assert back.schedule.platform is back.problem.platform
        back.validate()  # the round trip must preserve replayability

    def test_extra_survives(self):
        tree = Tree([(0, 1, 2, 3), (0, 2, 1, 4), (1, 3, 1, 2)])
        solution = solve(Problem(tree, "deadline", t_lim=35))
        assert solution.extra
        back = solution_from_dict(roundtrip(solution_to_dict(solution)))
        assert back.extra == solution.extra

    def test_legacy_warm_caps_record_loads(self):
        """A spider deadline answer written with its leg counts (as stores
        held them) loads to the same answer, and none is written now."""
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        solution = solve(Problem(spider, "deadline", t_lim=35))
        d = roundtrip(solution_to_dict(solution))
        assert "warm_caps" not in d
        back = solution_from_dict({**d, "warm_caps": [[1, 9], [2, 4]]})
        assert solution_to_dict(back) == d
        back.validate()

    def test_online_solution_with_trace(self):
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        solution = solve(Problem(spider, "makespan", n=5, mode="online",
                                 options={"policy": "demand_driven"}))
        assert solution.trace is not None
        back = solution_from_dict(roundtrip(solution_to_dict(solution)))
        assert back.trace is not None
        assert back.trace.makespan == solution.trace.makespan
        assert back.trace.tasks_completed() == solution.trace.tasks_completed()
        assert back.trace.summary() == solution.trace.summary()
        back.validate()

    def test_trace_only_solution(self):
        """Fault runs have no schedule; the trace alone must round-trip."""
        star = Star([(2, 3), (1, 5), (2, 2)])
        solution = solve(Problem(
            star, "makespan", n=8, mode="online",
            options={"policy": "demand_driven",
                     "failures": [{"time": 6, "processor": 2}]},
        ))
        assert solution.schedule is None
        back = solution_from_dict(roundtrip(solution_to_dict(solution)))
        assert back.schedule is None
        assert back.makespan == solution.makespan
        assert back.n_tasks == solution.n_tasks
        back.validate()  # trace exclusivity re-check still works


class TestTraceRoundTrip:
    def test_tuple_resource_keys_survive(self):
        spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4])])
        trace = solve(Problem(spider, "makespan", n=4)).replay()
        back = trace_from_dict(roundtrip(trace_to_dict(trace)))
        assert len(back.events) == len(trace.events)
        assert back.busy.keys() == trace.busy.keys()
        for key, intervals in trace.busy.items():
            assert back.busy[key] == intervals
        for a, b in zip(trace.events, back.events):
            assert (a.time, a.kind, a.task, a.resource) == (
                b.time, b.kind, b.task, b.resource
            )

    def test_wrong_record_tag_rejected(self):
        with pytest.raises(ReproError):
            trace_from_dict({"record": "problem"})
