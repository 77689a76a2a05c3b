"""Tests for release-dated (bursty) online arrivals."""

import pytest

from repro.analysis.steady_state import spider_steady_state
from repro.core.feasibility import check
from repro.core.types import ScheduleError
from repro.platforms.chain import Chain
from repro.platforms.presets import seti_like_spider
from repro.platforms.star import Star
from repro.sim.online import simulate_online


class TestArrivals:
    def test_all_at_zero_matches_default(self):
        star = Star([(1, 3), (2, 2)])
        default = simulate_online(star, 6, "demand_driven")
        explicit = simulate_online(star, 6, "demand_driven", arrivals=[0] * 6)
        assert default.makespan == explicit.makespan

    def test_emissions_respect_releases(self):
        star = Star([(1, 1)])
        res = simulate_online(star, 3, "demand_driven", arrivals=[0, 10, 20])
        emissions = sorted(a.first_emission for a in res.schedule)
        assert emissions[1] >= 10 and emissions[2] >= 20
        assert check(res.schedule) == []

    def test_late_burst_stretches_makespan(self):
        star = Star([(1, 2), (1, 2)])
        immediate = simulate_online(star, 8, "demand_driven")
        bursty = simulate_online(
            star, 8, "demand_driven", arrivals=[0, 0, 0, 0, 30, 30, 30, 30]
        )
        assert bursty.makespan > immediate.makespan
        assert bursty.trace.tasks_completed() == 8
        # a burst at t=30 on the SETI-like spider ends at least half an
        # all-at-zero run after its release
        sp = seti_like_spider()
        base = simulate_online(sp, 24, "bandwidth_centric").makespan
        late = simulate_online(sp, 24, "bandwidth_centric", arrivals=[30] * 24)
        assert late.makespan >= 30 + 0.5 * base

    def test_steady_drip_feasible_on_spider(self):
        sp = seti_like_spider()
        arrivals = [2 * i for i in range(12)]
        res = simulate_online(sp, 12, "bandwidth_centric", arrivals=arrivals)
        assert res.trace.tasks_completed() == 12
        assert check(res.schedule) == []
        # releases never help, and a drip at the platform's own cadence
        # keeps the port busy: it costs less than 2.2x all-at-zero
        base = simulate_online(sp, 24, "bandwidth_centric").makespan
        cadence = float(1 / spider_steady_state(sp).throughput)
        for arrivals in ([int(i * cadence) for i in range(24)],
                         [0] * 12 + [20] * 12):
            res = simulate_online(sp, 24, "bandwidth_centric", arrivals=arrivals)
            assert check(res.schedule) == []
            assert base <= res.makespan <= 2.2 * base

    def test_wrong_length_rejected(self):
        with pytest.raises(ScheduleError):
            simulate_online(Chain(c=(1,), w=(1,)), 3, arrivals=[0, 1])

    def test_unsorted_arrivals_are_sorted(self):
        star = Star([(1, 1)])
        res = simulate_online(star, 3, "demand_driven", arrivals=[20, 0, 10])
        assert res.trace.tasks_completed() == 3
        emissions = sorted(a.first_emission for a in res.schedule)
        assert emissions == [0, 10, 20]

    def test_makespan_at_least_last_release_plus_service(self):
        ch = Chain(c=(2,), w=(3,))
        res = simulate_online(ch, 4, "demand_driven", arrivals=[0, 1, 2, 50])
        assert res.makespan >= 50 + 2 + 3
