"""The spider algorithm (§7 of the paper) — optimal on spider graphs.

Pipeline, exactly as the paper's five-line summary::

    (1) Given Tlim, n and a spider
    (2) For each chain of the spider: compute n, C, P and T   (chain §3/§7)
    (3) Create the associated fork graph                       (Fig. 7)
    (4) Compute the optimal schedule on the fork graph         (§6, ref [2])
    (5) Revert to a spider schedule                            (Lemma 3)

Each leg is first scheduled alone with the deadline variant of the chain
algorithm; every placed task ``i`` (first-link emission ``C¹_i``) becomes a
virtual single-task slave ``(c₁, Tlim − C¹_i − c₁)`` of a fork graph rooted
at the master.  The fork allocator selects which slaves run; reverting keeps,
for each leg, the suffix schedule with as many tasks as the fork accepted
(Lemma 2/4 suffix property), with first-link emissions overridden by the
fork's EDF serialisation (always earlier, Lemma 3 — so every downstream time
of the leg schedule stays feasible).

Theorem 3 proves the construction optimal in the number of tasks within
``Tlim``; makespan minimisation is recovered by monotone search over
``Tlim`` (exact integer bisection on integral platforms).

This module is the paper-literal *oracle*: each leg runs the literal
chain construction of :mod:`repro.core.chain` and the port runs the
literal greedy of :mod:`repro.core.fork`.  Production solves use the
flat-array kernel (:func:`repro.core.solve_fast.fast_spider_schedule`),
which is bit-identical on integer platforms and hands floats and Fractions
back here.  Two optimisations over the five-line pipeline keep the
oracle usable (results are bit-identical; the property suite
cross-checks against the exhaustive baseline either way):

* **Suffix reuse in step (5).**  Lemma 2 says the deadline run capped at
  ``k`` tasks *is* the last ``k`` tasks of the uncapped run, at the same
  absolute times — so the revert extracts that suffix from the step-(2) leg
  schedules instead of running the chain algorithm a second time per leg.
* **Warm-started bisection.**  Per-leg task counts are monotone in ``Tlim``,
  so the counts observed at a feasible probe are valid *caps* for every
  later (smaller) probe: legs whose cap is 0 are skipped outright, capped
  legs stop their backward construction early, and a probe where even the
  cheap per-leg upper bounds (warm caps ∩ port-rate bounds) sum below ``n``
  is refuted without scheduling anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..platforms.spider import Spider
from .chain import (
    ChainRunStats,
    _task_upper_bound,
    schedule_chain,
    schedule_chain_deadline,
)
from .commvector import CommVector
from .fork import (
    _edf_emissions,
    Allocation,
    AllocStats,
    VirtualSlave,
    allocate_greedy,
)
from .schedule import Schedule, TaskAssignment
from .types import PlatformError, Time


@dataclass
class SpiderRunStats:
    """Operation counters for the spider pipeline (mirrors
    :class:`~repro.core.chain.ChainRunStats`).

    One instance can span a whole makespan search: every bisection probe
    adds to the same counters, so ``probes``/``legs_skipped`` quantify the
    warm-start win and ``alloc.structure_ops`` the allocator's asymptotics.
    """

    probes: int = 0  # full deadline-pipeline runs
    probes_short_circuited: int = 0  # probes refuted by cap sums alone
    legs_scheduled: int = 0  # per-leg chain runs actually executed
    legs_skipped: int = 0  # legs skipped because their warm cap was 0
    fork_nodes: int = 0  # virtual slaves fed to the allocator
    chain: ChainRunStats = field(default_factory=ChainRunStats)
    alloc: AllocStats = field(default_factory=AllocStats)


@dataclass
class SpiderDeadlineResult:
    """Outcome of one deadline run: the schedule plus the intermediate
    artefacts (leg schedules, fork nodes, allocation) so experiments can
    inspect the transformation — this is what Fig. 7 depicts."""

    schedule: Schedule
    t_lim: Time
    leg_schedules: dict[int, Schedule]
    fork_nodes: list[VirtualSlave]
    allocation: Allocation
    #: pre-allocation task count of each leg's chain run — monotone in
    #: ``t_lim``, hence reusable as warm caps for probes at smaller ``t_lim``.
    leg_counts: dict[int, int] = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        return self.schedule.n_tasks


def spider_schedule_deadline(
    spider: Spider,
    t_lim: Time,
    n: Optional[int] = None,
    *,
    stats: Optional[SpiderRunStats] = None,
    leg_caps: Optional[dict[int, int]] = None,
) -> SpiderDeadlineResult:
    """Schedule as many tasks as possible (at most ``n``) on ``spider``
    completing by ``t_lim``.  Optimal in task count (Theorem 3).

    ``leg_caps`` (optional) gives a proven upper bound on each leg's task
    count at this ``t_lim`` — e.g. the ``leg_counts`` of a previous run at a
    *larger* deadline.  Capping is output-transparent (Lemma 2: the capped
    run is the suffix of the uncapped one) but lets legs stop early or be
    skipped entirely.
    """
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    if stats is not None:
        stats.probes += 1

    # (2) per-leg chain schedules within the deadline
    chain_stats = stats.chain if stats is not None else None
    leg_schedules: dict[int, Schedule] = {}
    leg_counts: dict[int, int] = {}
    fork_nodes: list[VirtualSlave] = []
    for leg_idx in range(1, spider.arity + 1):
        leg = spider.leg(leg_idx)
        cap = n
        if leg_caps is not None and leg_idx in leg_caps:
            warm = leg_caps[leg_idx]
            cap = warm if cap is None else min(cap, warm)
        if cap == 0:
            leg_schedules[leg_idx] = Schedule(leg)
            leg_counts[leg_idx] = 0
            if stats is not None:
                stats.legs_skipped += 1
            continue
        leg_sched = schedule_chain_deadline(leg, t_lim, cap, stats=chain_stats)
        leg_schedules[leg_idx] = leg_sched
        leg_counts[leg_idx] = leg_sched.n_tasks
        if stats is not None:
            stats.legs_scheduled += 1
        c1 = leg.latency(1)
        # (3) one virtual single-task slave per placed task
        for t in leg_sched.tasks():
            emission = leg_sched[t].first_emission
            fork_nodes.append(
                VirtualSlave(c=c1, work=t_lim - emission - c1, tag=(leg_idx, t))
            )

    # (4) allocate the master's port over the fork nodes
    alloc_stats = stats.alloc if stats is not None else None
    if stats is not None:
        stats.fork_nodes += len(fork_nodes)
    alloc = allocate_greedy(fork_nodes, t_lim, stats=alloc_stats)
    accepted = list(alloc.accepted)
    if n is not None and len(accepted) > n:
        accepted = sorted(accepted, key=lambda s: (s.work, s.c))[:n]

    # normalise: per leg keep the count, mapped to the *loosest* (smallest
    # virtual work = latest leg task) nodes, so accepted nodes are exactly
    # the suffix tasks of each leg (exchange-safe: smaller work = looser
    # deadline, so feasibility is preserved).
    per_leg_count: dict[int, int] = {}
    for s in accepted:
        leg_idx, _task = s.tag
        per_leg_count[leg_idx] = per_leg_count.get(leg_idx, 0) + 1
    normalised: list[VirtualSlave] = []
    for leg_idx, count in per_leg_count.items():
        leg_nodes = sorted(
            (s for s in fork_nodes if s.tag[0] == leg_idx),
            key=lambda s: s.work,
        )
        normalised.extend(leg_nodes[:count])
    accepted, emissions = _edf_emissions(normalised, t_lim)
    alloc = Allocation(t_lim, accepted, emissions, alloc.rejected)

    # (5) revert to a spider schedule
    schedule = _revert(spider, per_leg_count, leg_schedules, alloc, n)
    return SpiderDeadlineResult(
        schedule, t_lim, leg_schedules, fork_nodes, alloc, leg_counts
    )


def _revert(
    spider: Spider,
    per_leg_count: dict[int, int],
    leg_schedules: dict[int, Schedule],
    alloc: Allocation,
    n: Optional[int],
) -> Schedule:
    """Lemma 3: map accepted fork nodes back to physical leg schedules.

    The suffix schedule of each leg (same task count as the fork accepted)
    is read straight out of the step-(2) leg schedule — Lemma 2 guarantees
    its last ``count`` tasks *are* the capped run, at the same absolute
    times — so no chain algorithm re-run happens here.
    """
    assignments: list[TaskAssignment] = []
    for leg_idx, count in sorted(per_leg_count.items()):
        if count == 0:
            continue
        leg_sched = leg_schedules[leg_idx]
        tasks = leg_sched.tasks()
        assert len(tasks) >= count, "suffix property violated"
        suffix = tasks[len(tasks) - count :]
        # fork emissions for this leg, ascending == leg task order 1..count
        # (task 1 of the suffix schedule has the largest virtual work, hence
        # the earliest deadline, hence the earliest EDF emission)
        leg_emissions = sorted(
            emit
            for slave, emit in zip(alloc.accepted, alloc.emissions)
            if slave.tag[0] == leg_idx
        )
        for t, fork_emit in zip(suffix, leg_emissions):
            a = leg_sched[t]
            times = list(a.comms.times)
            assert fork_emit <= times[0] + 1e-12, (
                "fork emission must not be later than the leg's (Lemma 3)"
            )
            times[0] = fork_emit
            proc = (leg_idx, a.processor)
            assignments.append(
                TaskAssignment(0, proc, a.start, CommVector(times))
            )
    # global task ids in emission order (the paper's WLOG convention)
    assignments.sort(key=lambda a: (a.first_emission, str(a.processor)))
    sched = Schedule(spider)
    for i, a in enumerate(assignments, start=1):
        sched.add(TaskAssignment(i, a.processor, a.start, a.comms))
    if n is not None and sched.n_tasks > n:  # pragma: no cover - capped above
        raise PlatformError("internal error: task budget exceeded")
    return sched


def spider_max_tasks(
    spider: Spider,
    t_lim: Time,
    *,
    stats: Optional[SpiderRunStats] = None,
) -> int:
    """Maximum number of tasks completable on ``spider`` by ``t_lim``."""
    return spider_schedule_deadline(spider, t_lim, stats=stats).n_tasks


def spider_schedule(
    spider: Spider,
    n: int,
    *,
    stats: Optional[SpiderRunStats] = None,
) -> Schedule:
    """Optimal-makespan schedule of ``n`` tasks on a spider.

    Monotone search over ``Tlim``: integer bisection on integral platforms
    (exact — the optimum is an integer because exhaustive ASAP optima are),
    epsilon bisection otherwise.  Single-leg spiders shortcut to the chain
    algorithm (identical results; asserted in tests).

    Probes are warm-started: every feasible probe's per-leg counts cap the
    legs of all later (smaller-``Tlim``) probes, and a probe whose per-leg
    upper bounds (warm caps ∩ cheap port-rate bounds) cannot reach ``n`` is
    refuted without running the pipeline at all.
    """
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    if spider.is_chain():
        chain_stats = stats.chain if stats is not None else None
        chain_sched = schedule_chain(spider.leg(1), n, stats=chain_stats)
        return _lift_chain_schedule(spider, chain_sched)
    lo = min(
        leg.route_latency(i) + leg.work(i)
        for leg in spider
        for i in range(1, leg.p + 1)
    )
    hi = spider.t_infinity(n)

    caps: Optional[dict[int, int]] = None

    def probe(t: Time) -> Optional[SpiderDeadlineResult]:
        """Run one warm deadline probe; None means provably infeasible.

        Before paying for the pipeline, each leg's count is bounded by the
        cheap port-rate bound of :func:`repro.core.chain._task_upper_bound`
        (an O(1) overestimate) intersected with the warm cap; if even those
        optimistic bounds cannot reach ``n``, the probe is refuted without
        scheduling anything.
        """
        nonlocal caps
        reachable: Time = 0
        for leg_idx in range(1, spider.arity + 1):
            bound = _task_upper_bound(spider.leg(leg_idx), t)
            if caps is not None and leg_idx in caps:
                bound = min(bound, caps[leg_idx])
            reachable += bound
        if reachable < n:
            if stats is not None:
                stats.probes_short_circuited += 1
            return None
        res = spider_schedule_deadline(spider, t, n, stats=stats, leg_caps=caps)
        if res.n_tasks >= n:
            caps = dict(res.leg_counts)
        return res

    if spider.is_integer():
        lo_i, hi_i = int(lo), int(hi)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            res = probe(mid)
            if res is not None and res.n_tasks >= n:
                hi_i = mid
            else:
                lo_i = mid + 1
        final = probe(hi_i)
        assert final is not None and final.n_tasks >= n
        return final.schedule
    flo, fhi = float(lo), float(hi)
    for _ in range(100):
        mid = (flo + fhi) / 2
        res = probe(mid)
        if res is not None and res.n_tasks >= n:
            fhi = mid
        else:
            flo = mid
    final = probe(fhi)
    assert final is not None and final.n_tasks >= n
    return final.schedule


def spider_makespan(
    spider: Spider,
    n: int,
    *,
    stats: Optional[SpiderRunStats] = None,
) -> Time:
    """Minimum makespan for ``n`` tasks on ``spider``."""
    return spider_schedule(spider, n, stats=stats).makespan


def _lift_chain_schedule(spider: Spider, chain_sched: Schedule) -> Schedule:
    """Re-address a chain schedule as a one-leg spider schedule."""
    sched = Schedule(spider)
    for a in chain_sched:
        sched.add(TaskAssignment(a.task, (1, a.processor), a.start, a.comms))
    return sched
