"""The served wire bytes, pinned against a recorded golden file.

``tests/data/served_lines.jsonl`` holds one batch of solve requests per
line, with the response lines a fresh :class:`ScheduleService` served for
them.  A batch of two is submitted concurrently (the pair coalesces on
one solve); every other batch holds a single request.  The requests cover
chain, star, spider and tree platforms, makespan and deadline problems
(one with an empty answer), misses, relabeled hits, a repatch request and
dyadic-float platforms.  The test replays the requests through a fresh
service and compares every response byte for byte.

Regenerate the file (only for a deliberate wire-format change) with::

    PYTHONPATH=src python tests/test_served_bytes.py
"""

import asyncio
import json
import random
from pathlib import Path

from repro.io.json_io import problem_to_dict
from repro.platforms.chain import Chain
from repro.platforms.generators import random_tree
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree
from repro.service import ScheduleService, SolutionStore
from repro.service.protocol import serve_line
from repro.solve import Problem

GOLDEN = Path(__file__).parent / "data" / "served_lines.jsonl"


def _relabel(platform, seed):
    """A relabeled isomorphic copy of a star, spider or tree."""
    rng = random.Random(seed)
    if isinstance(platform, Star):
        children = list(platform.children)
        rng.shuffle(children)
        return Star(children)
    if isinstance(platform, Spider):
        legs = list(platform.legs)
        rng.shuffle(legs)
        return Spider(legs)
    nodes = platform.workers
    new_ids = rng.sample(range(1, 10 * (len(nodes) + 2)), len(nodes))
    perm = {0: 0, **dict(zip(nodes, new_ids))}
    edges = [(perm[platform.parent(v)], perm[v], platform.latency(v),
              platform.work(v)) for v in nodes]
    rng.shuffle(edges)
    return Tree(edges)


def _batches() -> list[list[Problem]]:
    chain = Chain([2, 3, 1, 4], [3, 5, 2, 6])
    star = Star([(2, 3), (1, 5), (3, 2), (2, 7)])
    spider = Spider([Chain([2, 3], [3, 5]), Chain([1], [4]),
                     Chain([2, 2, 1], [2, 6, 3])])
    # zero-latency first links: first emissions tie across legs, and
    # eleven legs make the processor-string tie order differ from the
    # numeric one
    flat = Spider([Chain([0, 1], [3 + leg % 4, 2]) for leg in range(11)])
    tree = random_tree(7, seed=11)
    float_chain = Chain([0.5, 1.25, 0.75], [1.5, 2.0, 3.25])
    float_star = Star([(0.5, 1.5), (1.25, 2.0), (0.25, 4.5)])
    coalesced = Spider([Chain([1, 2], [4, 3]), Chain([2], [5])])
    return [
        [Problem(chain, "makespan", n=24)],
        [Problem(chain, "makespan", n=24)],                   # hit
        [Problem(chain, "deadline", t_lim=40)],
        [Problem(chain, "deadline", t_lim=1)],                # empty answer
        [Problem(chain, "deadline", t_lim=40, n=5)],
        [Problem(star, "makespan", n=16)],
        [Problem(_relabel(star, 1), "makespan", n=16)],       # relabeled hit
        [Problem(star, "deadline", t_lim=25)],
        [Problem(_relabel(star, 2), "deadline", t_lim=25)],
        [Problem(spider, "makespan", n=20)],
        [Problem(_relabel(spider, 3), "makespan", n=20)],
        [Problem(_relabel(spider, 4), "makespan", n=20)],
        [Problem(spider, "deadline", t_lim=30)],
        [Problem(_relabel(spider, 5), "deadline", t_lim=30)],
        [Problem(spider, "deadline", t_lim=30, n=7)],
        [Problem(flat, "makespan", n=30)],
        [Problem(_relabel(flat, 6), "makespan", n=30)],
        [Problem(coalesced, "makespan", n=9),                 # coalesced
         Problem(_relabel(coalesced, 1), "makespan", n=9)],
        [Problem(tree, "makespan", n=14)],
        [Problem(_relabel(tree, 7), "makespan", n=14)],
        [Problem(tree, "deadline", t_lim=30)],
        [Problem(_relabel(tree, 8), "deadline", t_lim=30)],
        [Problem(chain, "makespan", n=10, mode="repatch", options={
            "churn": [{"op": "drift", "time": 6, "processor": 2,
                       "w_factor": 2}]})],
        [Problem(float_chain, "makespan", n=8)],
        [Problem(float_chain, "makespan", n=8)],
        [Problem(float_chain, "deadline", t_lim=12.5)],
        [Problem(float_star, "makespan", n=7)],
        [Problem(_relabel(float_star, 9), "makespan", n=7)],
        [Problem(Chain([5, 7], [9, 11]), "makespan", n=96)],
        [Problem(_relabel(star, 10), "makespan", n=16)],
    ]


def _request_line(rid: str, problem: Problem) -> str:
    return json.dumps({"id": rid, "op": "solve",
                       "problem": problem_to_dict(problem)})


async def _serve(batches: list[list[str]]) -> list[list[str]]:
    """Each batch's response lines from one fresh service, batch after
    batch; the lines of a batch are submitted concurrently."""
    service = ScheduleService(store=SolutionStore(), workers=2)
    try:
        return [list(await asyncio.gather(
            *(serve_line(service, line) for line in batch)))
            for batch in batches]
    finally:
        service.close()


def test_served_lines_equal_the_golden_file():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) >= 30
    served = asyncio.run(_serve([r["requests"] for r in records]))
    for record, responses in zip(records, served):
        for want, got in zip(record["responses"], responses, strict=True):
            assert got == want


def _write_golden() -> None:
    batches = [[_request_line(f"r{b}.{i}", p) for i, p in enumerate(batch)]
               for b, batch in enumerate(_batches())]
    served = asyncio.run(_serve(batches))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(
        json.dumps({"requests": requests, "responses": responses}) + "\n"
        for requests, responses in zip(batches, served)))


if __name__ == "__main__":
    _write_golden()
