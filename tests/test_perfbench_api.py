"""The names perfbench's per-layer pass calls keep working.

perfbench (``perfbench/layers.py``) re-enacts the served path in process
with ``serve_path`` and counts replay checks with ``hooked_replays``; it
reads ``ScheduleService().verify_rebinds`` and passes ``warm_caps=None``
to ``dataclasses.replace`` on a problem.  perfbench changes only with the
benchmark, so a break of any of those names would otherwise show only in
its own self-test.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.io.json_io import problem_to_dict
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.service.engine import ScheduleService
from repro.service.store import SolutionStore
from repro.solve import Problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _line(spider: Spider) -> bytes:
    problem = Problem(spider, "deadline", t_lim=40)
    return json.dumps({"id": 1, "op": "solve",
                       "problem": problem_to_dict(problem)}).encode()


def test_serve_path_miss_then_hit(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    legs = [Chain([2, 3], [3, 5]), Chain([1], [4]), Chain([2, 1], [6, 2])]
    service = ScheduleService()
    try:
        verify = service.verify_rebinds
    finally:
        service.close()
    store = SolutionStore()
    validations = layers.CallCounter()
    with layers.hooked_replays(validations):
        miss = json.loads(layers.serve_path(
            layers.NO_SPANS, store, _line(Spider(legs)), verify))
        # a relabeled isomorph: served from the store, rebound and checked
        hit = json.loads(layers.serve_path(
            layers.NO_SPANS, store, _line(Spider(legs[::-1])), verify))
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert miss["solution"]["schedule"]["assignments"]
    # the store's write check and the rebound miss, then the rebound hit
    assert validations.calls == 3
