"""Unit tests for the Schedule container and platform adapters."""

import numpy as np
import pytest

from repro.core.commvector import CommVector
from repro.core.schedule import (
    ChainAdapter,
    Schedule,
    SpiderAdapter,
    StarAdapter,
    TaskAssignment,
    TreeAdapter,
    adapter_for,
)
from repro.core.types import ScheduleError
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree


@pytest.fixture
def chain() -> Chain:
    return Chain(c=(2, 3), w=(3, 5))


@pytest.fixture
def chain_schedule(chain) -> Schedule:
    s = Schedule(chain)
    s.add(TaskAssignment(1, 1, 2, CommVector([0])))
    s.add(TaskAssignment(2, 2, 9, CommVector([4, 6])))
    return s


class TestAdapters:
    def test_adapter_dispatch(self, chain):
        assert isinstance(adapter_for(chain), ChainAdapter)
        assert isinstance(adapter_for(Star([(1, 2)])), StarAdapter)
        assert isinstance(adapter_for(Spider([chain])), SpiderAdapter)
        assert isinstance(adapter_for(Tree([(0, 1, 1, 1)])), TreeAdapter)

    def test_adapter_rejects_unknown(self):
        with pytest.raises(ScheduleError):
            adapter_for(object())

    def test_chain_routes_and_ports(self, chain):
        a = ChainAdapter(chain)
        assert a.route(2) == [1, 2]
        assert a.sender(1) == 0 and a.sender(2) == 1
        assert a.receiver(2) == 2
        assert a.work(2) == 5 and a.latency(1) == 2

    def test_star_shares_master_port(self):
        a = StarAdapter(Star([(1, 2), (3, 4)]))
        assert a.sender(1) == "master" and a.sender(2) == "master"
        assert a.route(2) == [2]

    def test_spider_routes(self):
        sp = Spider([Chain(c=(1, 2), w=(1, 2)), Chain(c=(3,), w=(4,))])
        a = SpiderAdapter(sp)
        assert a.route((1, 2)) == [(1, 1), (1, 2)]
        assert a.sender((1, 1)) == "master" and a.sender((2, 1)) == "master"
        assert a.sender((1, 2)) == (1, 1)
        assert a.processors() == [(1, 1), (1, 2), (2, 1)]

    def test_tree_routes(self):
        t = Tree([(0, 1, 2, 3), (1, 2, 1, 4), (1, 3, 2, 5)])
        a = TreeAdapter(t)
        assert a.route(3) == [1, 3]
        assert a.sender(3) == 1 and a.sender(1) == 0
        assert a.work(2) == 4 and a.latency(3) == 2


class TestScheduleBasics:
    def test_makespan(self, chain_schedule):
        # task 1 ends at 2+3=5; task 2 at 9+5=14
        assert chain_schedule.makespan == 14

    def test_empty_makespan(self, chain):
        assert Schedule(chain).makespan == 0

    def test_completion_of(self, chain_schedule):
        assert chain_schedule.completion_of(1) == 5
        assert chain_schedule.completion_of(2) == 14

    def test_duplicate_task_rejected(self, chain, chain_schedule):
        with pytest.raises(ScheduleError):
            chain_schedule.add(TaskAssignment(1, 1, 0, CommVector([0])))

    def test_wrong_vector_length_rejected(self, chain):
        s = Schedule(chain)
        with pytest.raises(ScheduleError):
            s.add(TaskAssignment(1, 2, 0, CommVector([0])))  # route has 2 links

    def test_missing_task_lookup(self, chain_schedule):
        with pytest.raises(ScheduleError):
            chain_schedule[99]

    def test_accessors(self, chain_schedule):
        assert chain_schedule.processor_of(2) == 2
        assert chain_schedule.start_of(1) == 2
        assert chain_schedule.comms_of(2).times == (4, 6)

    def test_tasks_sorted(self, chain_schedule):
        assert chain_schedule.tasks() == [1, 2]

    def test_tasks_on(self, chain_schedule):
        assert chain_schedule.tasks_on(1) == [1]
        assert chain_schedule.tasks_on(2) == [2]

    def test_task_counts(self, chain_schedule):
        assert chain_schedule.task_counts() == {1: 1, 2: 1}

    def test_chain_processor_off_the_platform_rejected(self):
        # the route of "processor 5" happens to have 5 links; the schedule
        # must still refuse a processor the one-worker chain lacks
        with pytest.raises(ScheduleError, match="processor 5"):
            Schedule(Chain([1], [1]), {
                1: TaskAssignment(1, 5, 10, CommVector([0, 1, 2, 3, 4]))})

    def test_star_child_off_the_platform_rejected(self):
        with pytest.raises(ScheduleError, match="processor 3"):
            Schedule(Star([(1, 1)]), {1: TaskAssignment(1, 3, 10, CommVector([0]))})


class TestColumns:
    def test_columns_hold_definition_1(self, chain_schedule):
        cols = chain_schedule.columns
        assert chain_schedule.keys == (1, 2)
        assert cols.proc.tolist() == [0, 1]
        assert cols.start.tolist() == [2, 9]
        assert cols.ptr.tolist() == [0, 1, 3]
        assert cols.comm.tolist() == [0, 4, 6]
        assert cols.tasks.tolist() == [1, 2]

    def test_columns_and_views_are_read_only(self, chain_schedule):
        with pytest.raises(ValueError):
            chain_schedule.columns.start[0] = 0
        with pytest.raises(TypeError):
            chain_schedule.assignments[1] = chain_schedule[2]
        assert chain_schedule.assignments == {1: chain_schedule[1],
                                              2: chain_schedule[2]}

    def test_views_hand_out_python_numbers(self, chain_schedule):
        cols = chain_schedule.columns
        rebuilt = Schedule.from_columns(
            chain_schedule.platform, cols.proc, cols.start, cols.ptr, cols.comm)
        for a in rebuilt:
            assert type(a.start) is int
            assert all(type(t) is int for t in a.comms)
        assert type(rebuilt.makespan) is int
        assert rebuilt == chain_schedule

    def test_exact_values_keep_their_type(self, chain):
        from fractions import Fraction

        s = Schedule(chain, {1: TaskAssignment(1, 1, 2.5, CommVector([0])),
                             2: TaskAssignment(2, 2, Fraction(19, 2),
                                               CommVector([4, 6.5]))})
        assert s[1].comms.times == (0,) and type(s[1].comms[1]) is int
        assert s[2].start == Fraction(19, 2) and s.makespan == Fraction(29, 2)

    def test_from_columns_checks_route_lengths(self, chain):
        with pytest.raises(ScheduleError, match="route length 2"):
            Schedule.from_columns(chain, [1], [9], [0, 1], [4])

    def test_rebound_shares_columns_and_swaps_keys(self):
        star = Star([(2, 3), (4, 5)])
        s = Schedule(star, {1: TaskAssignment(1, 1, 2, CommVector([0])),
                            2: TaskAssignment(2, 2, 6, CommVector([2]))})
        mirror = Star([(4, 5), (2, 3)])
        moved = s.rebound(mirror, (2, 1))
        assert moved.columns is s.columns
        assert moved[1].processor == 2 and moved.makespan == s.makespan
        with pytest.raises(ScheduleError):
            s.rebound(mirror, (1, 3))  # 3 is not a child of the mirror

    def test_out_of_order_adds(self, chain):
        s = Schedule(chain)
        s.add(TaskAssignment(5, 1, 2, CommVector([0])))
        s.add(TaskAssignment(3, 1, 5, CommVector([2])))
        with pytest.raises(ScheduleError, match="assigned twice"):
            s.add(TaskAssignment(3, 1, 8, CommVector([4])))
        assert s.tasks() == [3, 5] and s[3].start == 5
        assert s.columns.tasks.tolist() == [3, 5]


    def test_ints_past_int64_arithmetic_stay_exact(self):
        # 2**62 + (2**62 + 1) wraps in int64: such columns hold Python ints
        s = Schedule(Chain([1], [2 ** 62]), {
            1: TaskAssignment(1, 1, 1, CommVector([0])),
            2: TaskAssignment(2, 1, 2 ** 62 + 1, CommVector([1]))})
        assert s.columns.start.dtype == object
        assert s.makespan == 2 ** 63 + 1 and type(s.makespan) is int
        assert s[2].start == 2 ** 62 + 1 and s.shifted(-1)[2].start == 2 ** 62

    def test_int64_columns_stay_below_the_exact_limit(self):
        from repro.core.schedule import INT_TIME_LIMIT, time_column

        assert time_column([1, -INT_TIME_LIMIT + 1]).dtype == np.int64
        for values in ([INT_TIME_LIMIT], [1, -INT_TIME_LIMIT], [2 ** 70],
                       np.array([2 ** 62], dtype=np.int64)):
            column = time_column(values)
            assert column.dtype == object and type(column[0]) is int


class TestIntervals:
    def test_link_intervals(self, chain_schedule):
        ivs = chain_schedule.link_intervals()
        assert ivs[1] == [(0, 2, 1), (4, 6, 2)]
        assert ivs[2] == [(6, 9, 2)]

    def test_port_intervals_chain(self, chain_schedule):
        ivs = chain_schedule.port_intervals()
        assert ivs[0] == [(0, 2, 1), (4, 6, 2)]  # master = node 0
        assert ivs[1] == [(6, 9, 2)]

    def test_processor_intervals(self, chain_schedule):
        ivs = chain_schedule.processor_intervals()
        assert ivs[1] == [(2, 5, 1)]
        assert ivs[2] == [(9, 14, 2)]

    def test_star_port_intervals_merge(self):
        star = Star([(2, 3), (4, 5)])
        s = Schedule(star)
        s.add(TaskAssignment(1, 1, 2, CommVector([0])))
        s.add(TaskAssignment(2, 2, 6, CommVector([2])))
        ivs = s.port_intervals()
        assert ivs["master"] == [(0, 2, 1), (2, 6, 2)]


class TestTransformations:
    def test_shift(self, chain_schedule):
        shifted = chain_schedule.shifted(10)
        assert shifted.makespan == 24
        assert shifted[1].comms.times == (10,)

    def test_normalised(self, chain):
        s = Schedule(chain)
        s.add(TaskAssignment(1, 1, 7, CommVector([5])))
        norm = s.normalised()
        assert norm.earliest_emission == 0
        assert norm[1].start == 2

    def test_restricted_to(self, chain_schedule):
        r = chain_schedule.restricted_to([2])
        assert r.tasks() == [2] and r.makespan == 14

    def test_renumbered(self, chain):
        s = Schedule(chain)
        s.add(TaskAssignment(5, 1, 2, CommVector([0])))
        s.add(TaskAssignment(3, 1, 5, CommVector([2])))
        rn = s.renumbered()
        assert rn.tasks() == [1, 2]
        assert rn[1].first_emission == 0  # earliest emission becomes task 1

    def test_round_trip_dict(self, chain_schedule):
        d = chain_schedule.to_dict()
        back = Schedule.from_dict(d)
        assert back.makespan == chain_schedule.makespan
        assert back[2].comms.times == (4, 6)

    def test_spider_round_trip_tuple_keys(self):
        sp = Spider([Chain(c=(1,), w=(2,))])
        s = Schedule(sp)
        s.add(TaskAssignment(1, (1, 1), 1, CommVector([0])))
        back = Schedule.from_dict(s.to_dict())
        assert back[1].processor == (1, 1)
