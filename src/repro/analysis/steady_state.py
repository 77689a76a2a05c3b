"""Bandwidth-centric steady-state throughput (Beaumont et al. [2]).

The paper's §1 situates its finite-``n`` optimality next to the *steady
state* literature: for ``n → ∞`` the optimal task rate of a master-slave
tree is given by the bandwidth-centric rule — every node serves its
children in ascending order of link latency, spending at most one time unit
of its out-port per time unit of wall clock.

For a star with children ``(c_i, w_i)`` the optimal rate solves::

    maximise   Σ x_i
    subject to Σ c_i·x_i ≤ 1        (master port: one send at a time)
               0 ≤ x_i ≤ 1/w_i      (worker CPU)

whose greedy solution fills children by ascending ``c_i`` (fractional
knapsack: every unit of port time buys ``1/c_i`` tasks).  For trees the rule
nests: a subtree aggregates into an equivalent consumer whose demand is its
own bandwidth-centric throughput (its ability to *absorb* tasks through one
incoming link is also capped by the link itself at the parent).

These values upper-bound the asymptotic rate of any schedule and are met in
the limit by the paper's algorithms — experiment E9 measures
``n / makespan(n) → throughput``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..core.types import PlatformError
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import ROOT, Tree

Rate = Union[Fraction, float]


@dataclass(frozen=True)
class SteadyState:
    """Optimal steady-state tasks-per-time-unit and the per-child rates."""

    throughput: Fraction
    #: rate actually granted to each child subtree, in child order
    child_rates: tuple[Fraction, ...]

    @property
    def period_hint(self) -> Fraction:
        """Length of a periodic schedule realising the rates (lcm-free hint:
        just the inverse throughput)."""
        if self.throughput == 0:
            return Fraction(0)
        return 1 / self.throughput


def _greedy_port_alloc(
    demands: list[tuple[Fraction, Fraction]]
) -> tuple[Fraction, list[Fraction]]:
    """Allocate one unit of port time to ``(c, demand)`` children by
    ascending ``c``; returns (total rate, per-child granted rates).  A
    zero-latency child (a spider leg may open with ``c == 0``) costs no
    port time: it gets its full demand and the budget stays as it is."""
    order = sorted(range(len(demands)), key=lambda i: demands[i][0])
    budget = Fraction(1)
    granted = [Fraction(0)] * len(demands)
    total = Fraction(0)
    for i in order:
        c, demand = demands[i]
        if demand <= 0 or (c > 0 and budget <= 0):
            continue
        rate = min(demand, budget / c) if c > 0 else demand
        granted[i] = rate
        total += rate
        budget -= rate * c
    return total, granted


def star_steady_state(star: Star) -> SteadyState:
    """Optimal steady-state throughput of a star (exact rationals)."""
    demands = [
        (Fraction(ch.c), Fraction(1, 1) / Fraction(ch.w)) for ch in star.children
    ]
    total, granted = _greedy_port_alloc(demands)
    return SteadyState(total, tuple(granted))


def chain_steady_state(chain: Chain) -> SteadyState:
    """Steady-state throughput of a chain (nested aggregation).

    Processor ``i`` absorbs ``1/w_i`` and forwards the rest, but its
    *incoming* link carries everything for processors ``>= i`` (one receive
    at a time) and its *outgoing* port everything for ``> i``.  Aggregating
    from the tail: the subtree hanging below link ``i`` can consume at rate
    ``min(1/c_i, 1/w_i + r_{i+1})`` where ``r_{i+1}`` is what the rest of
    the chain absorbs through processor ``i``'s port (itself ≤ 1/c_{i+1}).
    """
    rate = Fraction(0)  # rate absorbed below the last processor
    for i in range(chain.p, 0, -1):
        w = Fraction(chain.work(i))
        c = Fraction(chain.latency(i))
        absorb = Fraction(1) / w + rate
        if c > 0:
            rate = min(absorb, Fraction(1) / c)
        else:
            rate = absorb
    return SteadyState(rate, (rate,))


def spider_steady_state(spider: Spider) -> SteadyState:
    """Spider: legs aggregate like chains, then the master's port splits."""
    demands = []
    for leg in spider:
        leg_rate = chain_steady_state(leg).throughput
        demands.append((Fraction(leg.latency(1)), leg_rate))
    total, granted = _greedy_port_alloc(demands)
    return SteadyState(total, tuple(granted))


def tree_steady_state(tree: Tree, node: int = ROOT) -> SteadyState:
    """General tree, recursively (the full bandwidth-centric theorem [2]).

    ``node``'s aggregated demand = its own ``1/w`` (the master consumes
    nothing) plus the port-constrained greedy allocation over its children's
    aggregated demands, each capped by its incoming link ``1/c``.
    """
    children = tree.children(node)
    demands: list[tuple[Fraction, Fraction]] = []
    for ch in children:
        sub = tree_steady_state(tree, ch).throughput
        own = Fraction(1) / Fraction(tree.work(ch))
        demand = own + sub
        c = Fraction(tree.latency(ch))
        demands.append((c, min(demand, Fraction(1) / c)))
    total, granted = _greedy_port_alloc(demands)
    return SteadyState(total, tuple(granted))


#: platform class → steady-state analysis (MRO-resolved like the solver
#: registry, so consumers never if/elif over platform types).  New platform
#: types register via :func:`register_steady_state` next to their
#: ``repro.solve.register`` call.
_STEADY_DISPATCH = {
    Chain: chain_steady_state,
    Star: star_steady_state,
    Spider: spider_steady_state,
    Tree: tree_steady_state,
}


def register_steady_state(platform_type: type, fn) -> None:
    """Register the steady-state analysis for a new platform type."""
    _STEADY_DISPATCH[platform_type] = fn


def steady_state(platform) -> SteadyState:
    """Bandwidth-centric steady state of any supported platform."""
    for cls in type(platform).__mro__:
        fn = _STEADY_DISPATCH.get(cls)
        if fn is not None:
            return fn(platform)
    raise PlatformError(
        f"no steady-state analysis for platform type {type(platform).__name__!r} "
        f"(register one with repro.analysis.register_steady_state)"
    )
