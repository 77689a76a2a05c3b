"""Seeded random platform generators.

All generators take an explicit ``rng`` (``random.Random``) or ``seed`` so
every experiment in the benchmark harness is reproducible bit-for-bit.
Values default to small positive integers: integer platforms keep the core
algorithms exact, which the optimality cross-checks rely on.

Heterogeneity *profiles* mirror the regimes discussed in the paper's
introduction and related work:

* ``"balanced"``   — c and w of comparable magnitude (pipelining matters),
* ``"comm_bound"`` — links slower than CPUs (the master's port dominates),
* ``"cpu_bound"``  — CPUs slower than links (placement depth matters less),
* ``"volunteer"``  — a few fast nodes and a long tail of slow ones
  (SETI@home / Mersenne-search style platforms).
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from ..core.types import PlatformError, Time
from .chain import Chain
from .spider import Spider
from .star import Star
from .tree import Tree

Profile = str

_PROFILES: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    # name: ((c_lo, c_hi), (w_lo, w_hi))
    "balanced": ((1, 6), (1, 6)),
    "comm_bound": ((4, 12), (1, 4)),
    "cpu_bound": ((1, 3), (5, 15)),
    # links much faster than CPUs: the master's port has slack, so a single
    # spider cover strands real capacity on the dropped branches — the
    # regime where the tree construction (repro.trees.construction) pays off.
    "cpu_heavy": ((1, 2), (8, 20)),
}


def _resolve_rng(rng: random.Random | None, seed: int | None) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(0 if seed is None else seed)


def _draw_cw(rng: random.Random, profile: Profile) -> tuple[int, int]:
    if profile == "volunteer":
        # 25% fast well-connected nodes, 75% slow far nodes
        if rng.random() < 0.25:
            return rng.randint(1, 2), rng.randint(1, 4)
        return rng.randint(3, 10), rng.randint(5, 20)
    try:
        (c_lo, c_hi), (w_lo, w_hi) = _PROFILES[profile]
    except KeyError:
        raise PlatformError(
            f"unknown profile {profile!r}; choose from "
            f"{sorted(_PROFILES) + ['volunteer']}"
        ) from None
    return rng.randint(c_lo, c_hi), rng.randint(w_lo, w_hi)


def random_chain(
    p: int,
    *,
    profile: Profile = "balanced",
    rng: random.Random | None = None,
    seed: int | None = None,
) -> Chain:
    """A random heterogeneous chain of ``p`` processors."""
    r = _resolve_rng(rng, seed)
    pairs = [_draw_cw(r, profile) for _ in range(p)]
    return Chain((c for c, _ in pairs), (w for _, w in pairs))


def random_star(
    k: int,
    *,
    profile: Profile = "balanced",
    rng: random.Random | None = None,
    seed: int | None = None,
) -> Star:
    """A random star with ``k`` children."""
    r = _resolve_rng(rng, seed)
    return Star(_draw_cw(r, profile) for _ in range(k))


def random_spider(
    legs: int,
    max_depth: int,
    *,
    profile: Profile = "balanced",
    rng: random.Random | None = None,
    seed: int | None = None,
) -> Spider:
    """A random spider with ``legs`` legs of depth 1..max_depth each."""
    r = _resolve_rng(rng, seed)
    if legs < 1 or max_depth < 1:
        raise PlatformError("spider needs legs >= 1 and max_depth >= 1")
    return Spider(
        random_chain(r.randint(1, max_depth), profile=profile, rng=r)
        for _ in range(legs)
    )


def random_tree(
    p: int,
    *,
    max_children: int = 3,
    profile: Profile = "balanced",
    rng: random.Random | None = None,
    seed: int | None = None,
) -> Tree:
    """A random rooted tree with ``p`` workers (uniform attachment, bounded
    arity)."""
    r = _resolve_rng(rng, seed)
    if p < 1:
        raise PlatformError("tree needs at least one worker")
    edges: list[tuple[int, int, Time, Time]] = []
    child_count = {0: 0}
    for v in range(1, p + 1):
        candidates = [u for u, k in child_count.items() if k < max_children]
        parent = r.choice(candidates)
        child_count[parent] += 1
        child_count[v] = 0
        c, w = _draw_cw(r, profile)
        edges.append((parent, v, c, w))
    return Tree(edges)


def chain_family(
    p_values: list[int],
    *,
    profile: Profile = "balanced",
    seed: int = 0,
) -> Iterator[Chain]:
    """A deterministic family of chains for scaling sweeps (one rng reused so
    the family is nested-consistent across runs)."""
    r = random.Random(seed)
    for p in p_values:
        yield random_chain(p, profile=profile, rng=r)


def instance_stream(
    make: Callable[[random.Random], object], count: int, seed: int = 0
) -> Iterator[object]:
    """Generic seeded stream: ``make`` receives a per-instance rng."""
    base = random.Random(seed)
    for _ in range(count):
        yield make(random.Random(base.getrandbits(64)))
