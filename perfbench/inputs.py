"""Seeded workload inputs and the in-process references they are checked by.

Everything here is a pure function of the workload seed: the program under
test only ever sees the request lines and scenario files built from it.

* the **zipf pool** (``serve_hit``, ``fleet_zipf``): 24 platforms cycling
  chain / star / spider / tree, requested with zipf(1) popularity and a
  fresh random relabeling per request, makespan at n=48;
* the **miss stream** (``serve_miss``): distinct chains (6), stars (9)
  and spiders (5 legs of 2) at n=512, alternating makespan and deadline
  questions, deduplicated by canonical fingerprint so every request
  misses the store;
* the **tree batch** (``batch_tree``): distinct random trees of 10
  workers, ``balanced`` and ``cpu_heavy`` profiles, makespan at n=48 and
  deadline questions capped at n=48.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from benchmarks.kernels import relabeled_platform
from repro.io.json_io import platform_to_dict, problem_to_dict
from repro.platforms.chain import Chain
from repro.platforms.generators import (
    random_chain,
    random_spider,
    random_star,
    random_tree,
)
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.service.engine import cache_key
from repro.solve import Problem, solve

POOL_SIZE = 24
POOL_N = 48
#: distinct request lines built per zipf stream; a closed loop that outruns
#: them cycles (a repeated line is still a relabeled hit).
ZIPF_LINES = 4096
MISS_N = 512
#: miss-stream platform sizes: fixed, so seeds vary values, not sizes.
MISS_CHAIN, MISS_STAR, MISS_LEGS, MISS_LEG_DEPTH = 6, 9, 5, 2
TREE_N = 48
TREE_WORKERS = 10


@dataclass(frozen=True)
class Request:
    """One solve request: the line body (without ``id``) plus what the
    answer must match — the pool slot for zipf streams, else ``None``."""

    problem: Problem
    body: str
    slot: int | None = None


def body(problem: Problem) -> str:
    """The JSON-lines request minus the leading ``{"id": …,`` — the sender
    splices a fresh id in front (see :func:`with_id`)."""
    return json.dumps({"op": "solve", "problem": problem_to_dict(problem)})[1:]


def with_id(rid: int, text: str) -> bytes:
    """One request line: ``text`` from :func:`body` under id ``rid``."""
    return b'{"id": %d, ' % rid + text.encode() + b"\n"


def zipf_pool(seed: int) -> list[Problem]:
    """The 24 pool problems, in the generator's own labels."""
    rng = random.Random(f"pool:{seed}")
    makers = (
        lambda: random_chain(6, rng=rng),
        lambda: random_star(8, rng=rng),
        lambda: random_spider(4, 3, rng=rng),
        lambda: random_tree(7, rng=rng),
    )
    return [Problem(makers[i % 4](), "makespan", n=POOL_N)
            for i in range(POOL_SIZE)]


def zipf_stream(seed: int, pool: list[Problem]) -> list[Request]:
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    picks = rng.choices(range(len(pool)), weights=weights, k=ZIPF_LINES)
    out = []
    for slot in picks:
        problem = Problem(relabeled_platform(pool[slot].platform, rng),
                          "makespan", n=POOL_N)
        out.append(Request(problem, body(problem), slot))
    return out


def _port_bound(platform) -> int:
    """Makespan of sending every task to the fastest first-hop worker — a
    valid schedule, so an upper bound on the optimum.  Deadlines are drawn
    as a fraction of it."""
    firsts = ([(platform.c[0], platform.w[0])] if isinstance(platform, Chain)
              else [(s.c, s.w) for s in platform.children]
              if isinstance(platform, Star)
              else [(leg.c[0], leg.w[0]) for leg in platform.legs])
    return min(c + MISS_N * max(c, w) for c, w in firsts)


def miss_stream(seed: int, count: int) -> list[Request]:
    """``count`` pairwise non-isomorphic n=512 problems (all store misses)."""
    rng = random.Random(f"miss:{seed}")
    seen: set[str] = set()
    out: list[Request] = []
    while len(out) < count:
        i = len(out)
        kind = i % 3
        if kind == 0:
            platform = random_chain(MISS_CHAIN, rng=rng)
        elif kind == 1:
            platform = random_star(MISS_STAR, rng=rng)
        else:
            platform = Spider(random_chain(MISS_LEG_DEPTH, rng=rng)
                              for _ in range(MISS_LEGS))
        if (i // 3) % 2 == 0:
            problem = Problem(platform, "makespan", n=MISS_N)
        else:
            t_lim = max(1, int(_port_bound(platform) * rng.uniform(0.15, 0.4)))
            problem = Problem(platform, "deadline", n=MISS_N, t_lim=t_lim)
        fingerprint = cache_key(problem)[0]
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        out.append(Request(problem, body(problem)))
    return out


def tree_scenarios(seed: int, count: int) -> list[dict]:
    """``count`` batch scenarios over distinct random trees."""
    rng = random.Random(f"tree:{seed}")
    out = []
    for i in range(count):
        profile = ("balanced", "cpu_heavy")[i % 2]
        tree = random_tree(TREE_WORKERS, profile=profile, rng=rng)
        scenario = {"id": f"t{i}", "platform": platform_to_dict(tree)}
        if (i // 2) % 2 == 0:
            scenario.update(kind="makespan", n=TREE_N)
        else:
            scenario.update(kind="deadline", n=TREE_N,
                            t_lim=rng.randint(40, 120))
        out.append(scenario)
    return out


def trivial_scenario() -> dict:
    """The one-scenario batch whose wall time is ``batch_tree``'s set-up."""
    return {"id": "setup", "platform": platform_to_dict(Chain([1], [1])),
            "kind": "makespan", "n": 1}


def expected(problem: Problem, served: bool = False):
    """What a correct answer must report: the makespan for a makespan
    question, the task count for a deadline question.

    ``repro serve`` solves the canonical representative of a request's
    isomorphism class and rebinds that answer (``served``).  The tree
    heuristic's makespan can depend on node labels (149 vs 150 on two
    labelings of one 7-worker tree), so a served answer is compared with
    the representative's."""
    if served:
        problem = replace(problem, platform=cache_key(problem)[1].platform)
    solution = solve(problem)
    return solution.makespan if problem.kind == "makespan" else solution.n_tasks
