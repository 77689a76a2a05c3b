"""The solve kernels: the production path of every chain/star/spider solve.

Each of the paper's algorithms has exactly two implementations: the
paper-literal **oracle** (:mod:`repro.core.chain`, :mod:`repro.core.fork`,
:mod:`repro.core.spider`) and the flat-array **kernel** here.  The six
kernel-then-oracle entries at the bottom of this module (one per platform
× question) are the only way production code solves: the registered
solvers and the tree heuristic both call them.  Two cores do the work:
the chain sequences, and one fork-graph core that star and spider solves
share, whose probes run a vectorised port allocator.

**Universal chain sequences.**  The backward chain construction is
*translation covariant*: every quantity in it is built from ``min``/``+``
over the horizon-initialised hull/occupancy vectors, so running the
construction at horizon ``t`` equals running it at horizon ``0`` and
adding ``t`` to every time.  One placement sequence per chain
(cached by the chain's value tuple, shared across spider legs, batches
and relabeled isomorphs) therefore answers *every* makespan and deadline
query on that chain:

* placement ``i`` stores its processor, start offset and communication
  offsets (``offset = −(horizon-0 time)``; actual time = ``t − offset``);
* the deadline stop rule ``vector[0] < 0`` becomes ``first_offset > t``,
  so the task count within ``t`` is a binary search on the running maximum
  of first-emission offsets — no construction runs at solve time;
* the makespan schedule of ``n`` tasks is ``times = off[n−1] − off`` (the
  horizon cancels against the final shift-to-zero).

Growing the sequence is the only chain work a solve on a new platform
does: one loop (:meth:`_ChainSeq._extend`) places task after task, each
time picking the ≺-greatest candidate on a closed form of the hull and
occupancy, ties included, and building only that one vector.

**One fork-graph core.**  The paper solves a spider by turning each
leg's chain schedule into fork-graph nodes (§7 step 3, Fig. 7) and running
the §6 fork-graph algorithm on them, and a star is the spider whose legs
all have one processor.  :class:`_ForkCore` is that fork-graph stage for
both: its *groups* are a star child's Fig. 6 copies ``W_q = w + q·m`` in
closed form (:class:`_Copies`) or a spider leg's chain sequence (node
``i`` of work ``W_i = off[i] − c₁``), and both answer ``count_within`` and
``works``.  The nodes do not depend on the probe deadline — only *how
many* of each group are present does (a per-group prefix) — so the scan
order ``(c, W, group, −index)`` and the EDF slot order ``(−W, c, scan)``
are precomputed once per platform and shared by every deadline probe; a
probe compresses the prefix masks, runs the block allocator, and — except
for the final construction — never builds a single Python object.  Only
the reconstructions differ, as the oracles' do: a star stacks each
child's tasks ASAP (:func:`_star_finish`), a spider normalises and
reverts to its legs by Lemma 3 (:func:`_spider_finish`).

**A vectorised port allocator.**  The fork-graph EDF greedy
(:func:`repro.core.fork.allocate_greedy`) is replayed in *runs*.  Two
exact reductions make every step an O(k) array sweep: a rejection leaves
the greedy state untouched, so one vectorised single-candidate pass skips
whole rejection runs and bounds the next acceptance run; and a run is
accepted wholesale iff the *merged* state stays EDF-feasible at every
occupied slot (one cumsum — acceptance of each member at its own turn is
equivalent to non-negative final slack, see :func:`_block_ok`).  On a
mixed run, a binary search over prefixes finds the first rejection.  Tests
per probe scale with the number of accept/reject alternations, not with
the candidate count — no Python tree walks, no per-candidate objects.

Star and spider makespans are found by :func:`_least_horizon`.

**Makespan probes build only what the port accepts.**  At a makespan
search's horizons the port greedy rejects most of a group's nodes, so
there each probe presents group ``g`` only up to a guess and accepts that
cut once one of the group's present nodes is rejected.  The cut is exact.
A group's nodes share one latency ``c > 0`` and have strictly increasing
works: a leg's node ``i`` has work ``off[i] − c₁``, and each first
emission is at least ``c₁`` before the previous one
(``ᵏC₁ ≤ h₁ − c₁``); a star child's copy ``q`` has work ``w + q·m``,
``m > 0``.  So the present prefix by index is the prefix in scan order,
and each later node has the same ``c`` and an earlier deadline.  The
greedy rejects a node when the accepted set plus that node is not
EDF-feasible; more accepted nodes, or the same ``c`` due earlier, only
add load below each deadline, so every node past a rejected one is
rejected too, and since a rejection leaves the greedy's state untouched,
leaving those nodes out changes nothing.  A cut group whose present
nodes were all accepted doubles its guess, and the probe reruns
(:func:`_probe`).  The guesses come from the steady state the search
already starts from (:func:`_guesser`): group ``g``'s guess at horizon
``t`` is ``⌊1.25 · R_g · t⌋ + 2·p_g + 4``, where ``p_g`` is its processor
count and ``R_g`` sums the granted steady-state rates of every group that
shares its first-link latency (the finite greedy interleaves
equal-latency groups by work, so the steady state's split between them
is no guide).  Presented whole are groups whose first-link latency is 0
(their nodes hold no port time, so none is rejected while its deadline
holds) and every group of the deadline entries: a spider deadline's
per-leg counts are the oracle's warm caps, and a star deadline is a
single probe.  Inside the spider search only whole groups' counts become
warm caps: a cut count is no chain-run size.

Bit-identity contract: for integer platforms every schedule produced here
is equal, element for element, to the oracle's — same assignments, same
task numbering, same tie-breaks.  The final physical reconstruction reuses
the oracle's logic verbatim on the (small) accepted set.  Anything outside
the contract — floats, Fractions, and star or spider integers big enough
for the fork core's int64 sums to wrap (:func:`_require_int`) — raises
:class:`SolveKernelUnsupported`, and the entries hand the question to the
oracle, counting one ``fallbacks`` in :func:`solve_kernel_stats`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..obs import metrics as _obs
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from . import chain as _chain_oracle
from . import fork as _fork_oracle
from . import spider as _spider_oracle
from .chain import ChainRunStats, _task_upper_bound
from .fork import AllocStats
from .schedule import INT_TIME_LIMIT, Schedule, csr_take, time_column
from .spider import SpiderRunStats
from .types import PlatformError, Time

__all__ = [
    "SPIDER_STAT_KEYS",
    "SolveKernelUnsupported",
    "chain_deadline",
    "chain_schedule",
    "clear_solve_kernels",
    "fast_chain_deadline",
    "fast_chain_schedule",
    "fast_spider_deadline",
    "fast_spider_schedule",
    "fast_star_deadline",
    "fast_star_schedule",
    "solve_kernel_stats",
    "spider_deadline",
    "spider_schedule",
    "star_deadline",
    "star_schedule",
]


class SolveKernelUnsupported(Exception):
    """The kernels do not cover this problem; the oracle answers it."""


# ---------------------------------------------------------------------------
# Cache + counters
# ---------------------------------------------------------------------------

#: value-keyed caches: chain sequences and fork-graph (star/spider) cores.
SEQ_CACHE_CAPACITY = 256
CORE_CACHE_CAPACITY = 512

_LOCK = threading.RLock()
_SEQ_CACHE: "OrderedDict[tuple, _ChainSeq]" = OrderedDict()
_CORE_CACHE: "OrderedDict[tuple, _ForkCore]" = OrderedDict()

#: counters live on the process-wide obs registry (``solve_kernel.*``);
#: :func:`solve_kernel_stats` is the dict-shaped back-compat view.
_STATS = _obs.REGISTRY.counter_group(
    "solve_kernel",
    (
        "seq_hits",
        "seq_misses",
        "core_hits",
        "core_misses",
        "kernel_solves",
        "kernel_probes",
        "fallbacks",
        "placements",
    ),
)


def solve_kernel_stats() -> dict:
    """Counters of the solve kernels (cache hits/misses, solves, deadline
    probes, fallbacks, and ``placements``: chain-sequence placements
    built) — a view over the obs registry's ``solve_kernel.*`` counters."""
    stats = _STATS.to_dict()
    with _LOCK:
        stats["seq_entries"] = len(_SEQ_CACHE)
        stats["core_entries"] = len(_CORE_CACHE)
    return stats


def clear_solve_kernels() -> None:
    """Drop every cached sequence/core and reset the counters (tests)."""
    with _LOCK:
        _SEQ_CACHE.clear()
        _CORE_CACHE.clear()
    _STATS.reset()


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise SolveKernelUnsupported(why)


def _require_int(
    values: Sequence[Time], horizon: Optional[Time] = None,
    groups: Optional[int] = None,
) -> None:
    """The kernels' one guard: the oracle answers unless every platform
    value and the ``horizon`` (a deadline, or a makespan search's cap) is
    an int — and, for a fork-graph solve over ``groups`` groups, small
    enough for int64.

    The chain kernel computes in Python ints and takes any size.  The fork
    core and :func:`_run_greedy` compute in int64; with ``M`` the largest
    value or horizon ``H``, none of their numbers exceeds
    ``(2·groups + 1)·M``.  Works, deadlines and slacks lie within ``H``.
    A group's present fork nodes each hold the master's port for the
    group's ``c`` before ``H``, so their latencies sum to at most
    ``H + c ≤ 2M``; every load the greedy forms (accepted nodes plus a
    trial block or candidate) is a sum over present nodes.  Keeping the
    bound below ``_INF = 2**62`` also keeps the greedy's infinity above
    every real slack."""
    _require(all(_is_int(v) for v in values), "the platform is not integer")
    _require(horizon is None or _is_int(horizon), "the horizon is no int")
    if groups is not None:
        _require(
            (2 * groups + 1) * max(horizon, *values) < _INF,
            "fork-graph sums could overflow int64",
        )


def _chain_key(chain: Chain) -> tuple:
    return (tuple(chain.c), tuple(chain.w))


def _cache_get(cache: OrderedDict, key: tuple):
    with _LOCK:
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
        return entry


def _cache_put(cache: OrderedDict, key: tuple, entry, capacity: int):
    with _LOCK:
        cache[key] = entry
        cache.move_to_end(key)
        while len(cache) > capacity:
            cache.popitem(last=False)
    return entry


# ---------------------------------------------------------------------------
# Universal chain sequences
# ---------------------------------------------------------------------------


class _ChainSeq:
    """The horizon-0 placement sequence of one chain, extended on demand.

    By translation covariance, the backward construction at horizon ``t``
    is this sequence with ``t`` added to every time.  Placement ``i``
    (0-based; the *last* task in time is placement 0) stores offsets such
    that at horizon ``t``: start = ``t − soff[i]``, emission on link ``j``
    = ``t − voff[base[i]+j−1]``, first emission = ``t − off[i]``.

    ``max_off[i] = max(off[0..i])`` makes the deadline stop rule a binary
    search: the construction at horizon ``t`` stops right before the first
    placement with ``off > t``.

    The construction's state, 1-based like the oracle's, is kept shifted
    by the prefix latencies ``S_j = c_1 + ... + c_j`` (``prefix[j]``,
    ``S_0 = 0``): with ``h`` and ``o`` the oracle's hull and occupancy at
    horizon 0, ``hull[m] = h_m − S_m`` and ``occ[m] = o_m − w_m − S_m``.
    :meth:`_extend` places tasks on it.
    """

    __slots__ = (
        "chain", "hull", "occ", "prefix", "procs", "soff", "voff", "vbase",
        "off", "max_off", "lock",
    )

    def __init__(self, chain: Chain):
        self.chain = chain
        self.lock = threading.RLock()
        p = chain.p
        prefix: list[Time] = [0] * (p + 1)
        for j in range(1, p + 1):
            prefix[j] = prefix[j - 1] + chain.c[j - 1]
        self.prefix = prefix
        self.hull: list[Time] = [-s for s in prefix]
        self.occ: list[Time] = [0] + [
            -chain.w[m - 1] - prefix[m] for m in range(1, p + 1)
        ]
        self.procs: list[int] = []
        self.soff: list[Time] = []
        self.voff: list[Time] = []   # CSR-flattened comm offsets
        self.vbase: list[int] = [0]  # CSR index: placement i -> voff slice
        self.off: list[Time] = []    # first-emission offsets
        self.max_off: list[Time] = []

    def __len__(self) -> int:
        return len(self.procs)

    def _extend(self, limit: int, t_lim: Optional[Time] = None) -> None:
        """Place tasks until ``limit`` are placed or, given ``t_lim``, one
        first emits past it (``max_off[-1] > t_lim``).  The caller holds
        ``lock``.  A task costs O(p) plus O(p) per tie-break position;
        ties resolve within one or two positions on average (on random and
        homogeneous chains alike), so O(p) in practice against the
        oracle's O(p²).  The worst case, ties through every position, is
        O(p²).

        The shifted state is the closed form's two terms:

        * ``E_m = (h_m − c_m) − S_{m−1} = hull[m]``       (hull-limited
          term at hop m)
        * ``F_m = min(o_m − w_m − c_m, h_m − c_m) − S_{m−1}
          = min(occ[m], hull[m])``                        (target term at m)

        Unrolling the oracle's recurrence
        ``ᵏC_j = min(ᵏC_{j+1} − c_j, h_j − c_j)`` gives
        ``ᵏC_j = S_{j−1} + min(F_k, min_{j ≤ m < k} E_m)``.  Definition 3
        compares candidates element by element, and ``S_{j−1}`` is common
        to every candidate at position ``j``, so the ≺-greatest candidate
        is ranked on the ``min(…)`` term alone.  Pass 1 keeps the targets
        whose first emission ``min(F_k, min_{m<k} E_m)`` is largest, in
        ascending ``k``.  At position ``j ≥ 2`` a survivor with
        ``k = j−1`` has run out of elements: its vector is a prefix of
        every other survivor's, hence ≺-greater, and it wins.  Otherwise
        the survivors with the largest ``min(F_k, min_{j≤m<k} E_m)`` stay
        (most tasks tie on their first emission on integer chains).

        Only the winner's vector is built.  Committing it on target ``k``
        sets ``h_j = ᵏC_j = S_{j−1} + run_j`` (``run_j`` the minimum
        above), so ``hull[j] = run_j − c_j`` for ``j ≤ k``, and
        ``o_k`` to the task's start ``o_k − w_k``, so ``occ[k]`` drops by
        ``w_k``.  The lists stay in locals across placements."""
        E, G, S = self.hull, self.occ, self.prefix
        c, w = self.chain.c, self.chain.w
        procs, soff, voff, vbase = self.procs, self.soff, self.voff, self.vbase
        off, max_off = self.off, self.max_off
        targets = range(1, len(S))
        inf = float("inf")
        placed = before = len(procs)
        top_off = max_off[-1] if max_off else None
        while placed < limit and (
            t_lim is None or top_off is None or top_off <= t_lim
        ):
            run: Time = inf  # min of E_m, m < k
            top: Time = -inf
            for k in targets:
                e = E[k]
                g = G[k]
                f = g if g < e else e
                first = f if f < run else run
                if first > top:
                    top = first
                    tied = [k]
                elif first == top:
                    tied.append(k)
                if e < run:
                    run = e
            j = 2
            while len(tied) > 1:
                if tied[0] == j - 1:
                    break
                run = inf  # min of E_m, j <= m < k
                m = j
                top = -inf
                for k in tied:
                    while m < k:
                        if E[m] < run:
                            run = E[m]
                        m += 1
                    e = E[k]
                    g = G[k]
                    f = g if g < e else e
                    value = f if f < run else run
                    if value > top:
                        top = value
                        keep = [k]
                    elif value == top:
                        keep.append(k)
                tied = keep
                j += 1
            k = tied[0]
            e = E[k]
            g = G[k]
            run = g if g < e else e
            procs.append(k)
            soff.append(-(g + S[k]))  # start o_k − w_k, negated
            G[k] = g - w[k - 1]
            vector = [0] * k  # comm offsets, −ᵏC_j
            vector[k - 1] = -(S[k - 1] + run)
            E[k] = run - c[k - 1]
            for j in range(k - 1, 0, -1):
                e = E[j]
                if e < run:
                    run = e
                vector[j - 1] = -(S[j - 1] + run)
                E[j] = run - c[j - 1]
            voff += vector
            vbase.append(len(voff))
            first = vector[0]
            off.append(first)
            if top_off is None or first > top_off:
                top_off = first
            max_off.append(top_off)
            placed += 1
        if placed > before:
            _STATS.inc("placements", placed - before)

    def ensure_len(self, n: int) -> None:
        if len(self.procs) >= n:
            return
        with self.lock:
            self._extend(n)

    def count_within(
        self, t_lim: Time, cap: Optional[int] = None
    ) -> tuple[int, int]:
        """Tasks placed by the deadline construction at horizon ``t_lim``
        capped at ``cap`` (by default at the port bound) — without running
        the construction; and the placements that construction reaches
        from a cold sequence: unless the cap stopped it, it also built the
        first placement past ``t_lim`` (that is how it learns to stop)."""
        limit = _task_upper_bound(self.chain, t_lim) if cap is None else cap
        # extend until either the limit is generated or an offset exceeds t
        # (the structures are append-only: reads of settled prefixes are
        # safe, only the extension itself needs the lock)
        if len(self.procs) < limit and (
            not self.max_off or self.max_off[-1] <= t_lim
        ):
            with self.lock:
                self._extend(limit, t_lim)
        # first violating placement (prefix-max is monotone; the first
        # offset > t equals the first prefix-max > t)
        count = min(limit, bisect_right(self.max_off, t_lim))
        return count, (count + 1 if count < limit else count)

    def works(self, count: int) -> np.ndarray:
        """Fork-node works of placements ``0..count−1`` (§7 step 3): at
        horizon ``t`` placement ``i`` first emits at ``t − off[i]``, so its
        work ``t − emission − c₁`` is ``off[i] − c₁`` whatever ``t``."""
        self.ensure_len(count)
        return np.asarray(self.off[:count], dtype=np.int64) - self.chain.c[0]

    # -- materialisation ---------------------------------------------------

    def columns(self, count: int, horizon: Time) -> tuple:
        """Placements ``0..count−1`` at ``horizon`` as schedule columns
        ``(proc, start, ptr, comm)`` of tasks ``1..count``: task ``t`` is
        placement ``count − t``, and ``proc`` holds chain positions.
        Times past int64's exact range are computed as Python ints."""
        rows = np.arange(count - 1, -1, -1)
        ptr, voff = csr_take(
            self.vbase[:count + 1],
            time_column(self.voff[:self.vbase[count]]), rows,
        )
        soff = time_column(self.soff[:count])[rows]
        if not -INT_TIME_LIMIT < horizon < INT_TIME_LIMIT:
            soff, voff = soff.astype(object), voff.astype(object)
        procs = np.asarray(self.procs[:count], dtype=np.int64)[rows]
        return procs, horizon - soff, ptr, horizon - voff

    def schedule(self, count: int, horizon: Time) -> Schedule:
        procs, start, ptr, comm = self.columns(count, horizon)
        return Schedule.from_columns(self.chain, procs - 1, start, ptr, comm)


def _chain_seq(chain: Chain) -> _ChainSeq:
    key = _chain_key(chain)
    seq = _cache_get(_SEQ_CACHE, key)
    _STATS.inc("seq_misses" if seq is None else "seq_hits")
    if seq is None:
        seq = _cache_put(_SEQ_CACHE, key, _ChainSeq(chain), SEQ_CACHE_CAPACITY)
    return seq


def _chain_stats(seq: _ChainSeq, placed: int, reach: int) -> dict:
    """A chain solve's counters.  They depend only on the problem:
    ``vector_elements`` counts the elements of placements ``0..reach−1``,
    the ones this solve's own construction reaches, as a cold cache builds
    them — not whatever earlier solves left in the shared sequence."""
    return {
        "tasks_placed": placed,
        "candidates_evaluated": placed * seq.chain.p,
        "vector_elements": seq.vbase[reach],
        "comparisons": 0,
    }


def fast_chain_schedule(chain: Chain, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.chain.schedule_chain`."""
    _require_int((*chain.c, *chain.w))
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    seq = _chain_seq(chain)
    _STATS.inc("kernel_solves")
    # horizon cancels: the oracle shifts the first emission (placement
    # n−1) to zero, so materialise at horizon off[n−1]
    seq.ensure_len(n)
    return seq.schedule(n, seq.off[n - 1]), _chain_stats(seq, n, n)


def fast_chain_deadline(
    chain: Chain, t_lim: Time, n: Optional[int] = None
) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.chain.schedule_chain_deadline`
    (unshifted times)."""
    _require_int((*chain.c, *chain.w), t_lim)
    seq = _chain_seq(chain)
    placed, reach = seq.count_within(t_lim, n)
    _STATS.inc("kernel_solves")
    return seq.schedule(placed, t_lim), _chain_stats(seq, placed, reach)


# ---------------------------------------------------------------------------
# The vectorised shared-port greedy
# ---------------------------------------------------------------------------

_INF = (1 << 62)


def _acc1(c_scan, d_scan, slot_scan, active, d_slot, load_incl):
    """Exact single-candidate accept mask at the current state.

    Because a rejection leaves the greedy state untouched, this mask is
    exact along any run of rejections; and a candidate rejected *alone*
    is also rejected inside any block (blocks only add load), so runs of
    ``False`` skip wholesale and runs of ``True`` bound the next block.
    """
    k = load_incl.shape[0]
    slack = np.where(active, d_slot - load_incl, _INF)
    sm = np.empty(k + 1, dtype=np.int64)
    sm[k] = _INF
    sm[:k] = np.minimum.accumulate(slack[::-1])[::-1]
    ok = d_scan >= c_scan
    ok &= load_incl[slot_scan] + c_scan <= d_scan
    ok &= c_scan <= sm[slot_scan + 1]
    return ok


def _block_ok(active, cur_c, d_slot, m_c, m_d, m_s) -> bool:
    """Exact test: would the sequential greedy accept *every* member of the
    block ``(m_c, m_d, m_s)`` given the current accepted state?

    All-acceptance is equivalent to the *merged* state being EDF-feasible
    (non-negative slack) at every occupied slot:

    * feasible ⇒ accepted: when member ``u`` is tested, loads can only
      grow afterwards, so its own conditions are implied by final-state
      slack at ``s_u``; and any occupant ``j > s_u`` still lacks ``c_u``
      of its final load, so its at-test slack is ≥ final slack + ``c_u``
      ≥ ``c_u`` — exactly the greedy's suffix-slack demand.
    * accepted ⇒ feasible: the greedy keeps non-negative slack as an
      invariant — its own-load test seeds the new slot's slack, and the
      suffix-slack test preserves every later occupant's.
    """
    cur2 = cur_c.copy()
    cur2[m_s] = m_c
    li2 = np.cumsum(cur2)
    if bool((li2[m_s] > m_d).any()):
        return False
    return not bool((active & (li2 > d_slot)).any())


def _run_greedy(c_scan, d_scan, slot_scan) -> tuple["np.ndarray", int]:
    """Replay the greedy over scan-ordered candidates; returns the accepted
    mask (scan order) and an element-op count for the stats surface."""
    k = int(c_scan.shape[0])
    accepted = np.zeros(k, dtype=bool)
    active = np.zeros(k, dtype=bool)          # by slot
    cur_c = np.zeros(k, dtype=np.int64)       # by slot
    d_slot = np.empty(k, dtype=np.int64)
    d_slot[slot_scan] = d_scan
    ops = 0
    r = 0
    while r < k:
        load_incl = np.cumsum(cur_c)
        acc1 = _acc1(c_scan, d_scan, slot_scan, active, d_slot, load_incl)
        ops += k
        rem = acc1[r:]
        if not bool(rem.any()):
            break  # every remaining candidate is rejected outright
        r += int(rem.argmax())  # skip the rejection run wholesale
        run = acc1[r:]
        m = run.shape[0] if bool(run.all()) else int((~run).argmax())
        if m == 1:
            s = int(slot_scan[r])
            accepted[r] = True
            active[s] = True
            cur_c[s] = c_scan[r]
            r += 1
            continue
        window = slice(r, r + m)
        ok = _block_ok(
            active, cur_c, d_slot,
            c_scan[window], d_scan[window], slot_scan[window],
        )
        ops += k + m
        if ok:
            take = m
        else:
            # first failing prefix via binary search on exact tests
            lo, hi = 0, m  # P(lo) holds, P(hi) fails
            while hi - lo > 1:
                mid = (lo + hi) // 2
                sub = slice(r, r + mid)
                if _block_ok(
                    active, cur_c, d_slot,
                    c_scan[sub], d_scan[sub], slot_scan[sub],
                ):
                    lo = mid
                else:
                    hi = mid
                ops += k + mid
            take = hi - 1  # members r..r+take-1 accepted, r+take rejected
        if take:
            got = slice(r, r + take)
            slots = slot_scan[got]
            accepted[got] = True
            active[slots] = True
            cur_c[slots] = c_scan[got]
        r += take + (0 if ok else 1)
    return accepted, ops


# ---------------------------------------------------------------------------
# The fork-graph core: star children and spider legs as groups
# ---------------------------------------------------------------------------


class _Copies:
    """A star child as a fork-graph group: Fig. 6's virtual copies, copy
    ``q`` of work ``W_q = w + q·m`` (``m = max(c, w)``), in closed form."""

    __slots__ = ("c", "w", "m")

    def __init__(self, child) -> None:
        self.c, self.w, self.m = child.c, child.w, child.m

    def count_within(
        self, t_lim: Time, cap: Optional[int] = None
    ) -> tuple[int, int]:
        """``expand_star``'s copies within ``t_lim`` (``c + W_q ≤ t_lim``),
        at most ``cap``; and the same count as the cold reach: a closed
        form builds nothing past them."""
        if self.c + self.w > t_lim:
            return 0, 0
        count = (t_lim - self.c - self.w) // self.m + 1
        if cap is not None and cap < count:
            count = cap
        return count, count

    def works(self, count: int) -> np.ndarray:
        # an integer arange fills w + q·m exactly, in one numpy call per
        # child: a cold star builds its universe a few times per solve
        w, m = self.w, self.m
        return np.arange(w, w + count * m, m, dtype=np.int64)


class _ForkCore:
    """The fork graph of one star or spider, grown on demand.

    Group ``g`` (0-based; a star child's :class:`_Copies` or a spider
    leg's :class:`_ChainSeq`) contributes its first ``counts[g]`` fork
    nodes, each holding the master's port for the group's first-link
    latency ``c[g]``; ``w`` holds each group's first processor's work.
    The universe holds every node any probe has asked for, in scan order
    (``group``, ``index`` within it, ``node_c``, ``node_w``) with each
    node's EDF ``slot_rank``; a probe's present set is a per-group
    prefix."""

    __slots__ = (
        "platform", "groups", "c", "w", "built", "lock", "group", "index",
        "node_c", "node_w", "slot_rank",
    )

    def __init__(self, platform, groups: list, first: tuple) -> None:
        self.platform = platform
        self.groups = groups
        self.c = np.array([c for c, _ in first], dtype=np.int64)
        self.w = np.array([w for _, w in first], dtype=np.int64)
        self.lock = threading.RLock()
        self.built = [0] * len(groups)
        empty = np.empty(0, dtype=np.int64)
        self.group = self.index = self.node_c = self.node_w = empty
        self.slot_rank = empty

    def counts_at(
        self, t_lim: Time, n: Optional[int],
        caps: Optional[dict[int, int]] = None,
        guesses: Optional[list[Optional[int]]] = None,
    ) -> tuple[list[int], list[int], int, list[int]]:
        """Per-group node counts within ``t_lim``, each at most ``n``, its
        warm cap in ``caps`` (keyed 1-based, as leg counts are) and its
        guess in ``guesses`` (``None``: the group is presented whole); how
        far a cold run of each reaches; how many groups a zero cap skips
        outright; and the groups their guess cut (0-based)."""
        counts, reach, skipped, cut = [], [], 0, []
        for g, group in enumerate(self.groups):
            cap = n
            if caps is not None and g + 1 in caps:
                warm = caps[g + 1]
                cap = warm if cap is None else min(cap, warm)
            if cap == 0:
                counts.append(0)
                reach.append(0)
                skipped += 1
                continue
            guess = None if guesses is None else guesses[g]
            cuts = guess is not None and (cap is None or guess < cap)
            count, far = group.count_within(t_lim, guess if cuts else cap)
            if cuts and count == guess:
                cut.append(g)
            counts.append(count)
            reach.append(far)
        return counts, reach, skipped, cut

    def ensure(self, counts: list[int]) -> None:
        if all(b >= c for b, c in zip(self.built, counts)):
            return
        target = [max(b, c) for b, c in zip(self.built, counts)]
        sizes = np.array(target, dtype=np.int64)
        group = np.repeat(np.arange(sizes.size), sizes)
        ends = np.cumsum(sizes)
        index = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        c = self.c[group]
        w = np.concatenate([g.works(k) for g, k in zip(self.groups, target)])
        # scan: ascending (c, W), ties to the lower group, then to the
        # higher index — a leg's earlier task (its task ids ascend as the
        # placement index descends).  A star child's works strictly
        # increase with its copy index (w > 0 makes m > 0), so within one
        # child (c, W) never ties and the last key never decides: the
        # order is the fork oracle's stable sort over expand_star's.
        scan = np.lexsort((-index, group, w, c))
        self.group, self.index = group[scan], index[scan]
        self.node_c, self.node_w = c[scan], w[scan]
        # EDF slots: ascending (deadline, c, scan position) = (−W, c, scan)
        n_cand = scan.shape[0]
        slot_seq = np.lexsort((np.arange(n_cand), self.node_c, -self.node_w))
        self.slot_rank = np.empty(n_cand, dtype=np.int64)
        self.slot_rank[slot_seq] = np.arange(n_cand)
        self.built = target

    def present(self, counts: list[int]):
        """Scan-ordered candidate arrays of the probe's present prefix set.

        Returns ``(group, c, W, slot)`` — materialised copies, so a
        concurrent ``ensure`` rebuilding the universe cannot go stale under
        a caller's feet."""
        with self.lock:
            self.ensure(counts)
            mask = self.index < np.asarray(counts, dtype=np.int64)[self.group]
            group = self.group[mask]
            c = self.node_c[mask]
            w = self.node_w[mask]
            ranks = self.slot_rank[mask]
        slot = np.empty(ranks.shape[0], dtype=np.int64)
        slot[np.argsort(ranks, kind="stable")] = np.arange(ranks.shape[0])
        return group, c, w, slot


def _fork_core(key: tuple, build) -> _ForkCore:
    core = _cache_get(_CORE_CACHE, key)
    _STATS.inc("core_hits" if core is not None else "core_misses")
    if core is None:
        core = _cache_put(_CORE_CACHE, key, build(), CORE_CACHE_CAPACITY)
    return core


def _star_core(star: Star) -> _ForkCore:
    # a star's key holds (c, w) pairs, a spider's (c tuple, w tuple)
    # pairs: the two never collide in the one cache
    first = tuple((ch.c, ch.w) for ch in star.children)
    return _fork_core(first, lambda: _ForkCore(
        star, [_Copies(ch) for ch in star.children], first
    ))


def _spider_core(spider: Spider) -> _ForkCore:
    legs = spider.legs
    return _fork_core(tuple(_chain_key(leg) for leg in legs), lambda: _ForkCore(
        spider, [_chain_seq(leg) for leg in legs],
        tuple((leg.c[0], leg.w[0]) for leg in legs),
    ))


class _Probe(NamedTuple):
    """One deadline probe's raw outcome (arrays, no Python objects): the
    per-group counts, cold reaches, zero-cap skips and guess cuts of
    :meth:`_ForkCore.counts_at`, the present nodes in scan order
    (``group``, ``c``, ``w``, EDF ``slot``), the accepted mask, and the
    candidates and element ops of every allocator run the probe made."""

    counts: list
    reach: list
    skipped: int
    cut: list
    group: np.ndarray
    c: np.ndarray
    w: np.ndarray
    slot: np.ndarray
    accepted: np.ndarray
    candidates: int
    ops: int

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())


def _probe(
    core: _ForkCore, t_lim: Time, n: Optional[int],
    caps: Optional[dict[int, int]] = None,
    guesses: Optional[list[Optional[int]]] = None,
) -> _Probe:
    """One allocation probe at ``t_lim``: every group capped at ``n``, its
    warm cap and its guess (see :func:`_guesser`), the present nodes
    through the port greedy.  A group the guess cut is final once one of
    its present nodes is rejected: every node past it would be rejected
    too.  A cut group whose present nodes were all accepted doubles its
    guess, and the greedy reruns on the larger prefix."""
    guesses = None if guesses is None else list(guesses)
    candidates = ops = 0
    while True:
        counts, reach, skipped, cut = core.counts_at(t_lim, n, caps, guesses)
        group, c, w, slot = core.present(counts)
        accepted, run_ops = _run_greedy(c, t_lim - w, slot)
        candidates += int(c.shape[0])
        ops += run_ops
        if not cut:
            break
        rejected = np.bincount(group[~accepted], minlength=len(counts))
        grow = [g for g in cut if not rejected[g]]
        if not grow:
            break
        for g in grow:
            guesses[g] *= 2
    _STATS.inc("kernel_probes")
    return _Probe(
        counts, reach, skipped, cut, group, c, w, slot, accepted,
        candidates, ops,
    )


def _back_to_back(comm: np.ndarray) -> np.ndarray:
    """Emission times of messages ``comm`` sent back to back from 0."""
    emissions = np.zeros(comm.size, dtype=np.int64)
    np.cumsum(comm[:-1], out=emissions[1:])
    return emissions


def _least_horizon(probe, lo: int, start: int, step: int, hi: int):
    """The least horizon in ``[lo, hi]`` whose probe is feasible, and that
    probe's outcome — the makespan search of both star and spider kernels.

    ``probe(t)`` returns the deadline probe's outcome when ``n`` tasks fit
    within ``t`` and ``None`` otherwise; feasibility is monotone in ``t``.
    The search probes ``start`` (clamped into the range) first.  Above an
    infeasible start it gallops upward by ``step``, doubling the step after
    every probe, until a probe fits or ``hi`` does not; below a feasible
    start it searches down to ``lo``.  Only that last bracket is bisected,
    and the answer is the least feasible probe's own outcome, never probed
    twice.  Returns ``None`` when even ``hi`` is infeasible.
    """
    t = min(max(start, lo), hi)
    best = probe(t)
    while best is None:
        if t >= hi:
            return None
        lo, t = t + 1, min(t + step, hi)
        step *= 2
        best = probe(t)
    # ``t`` fits and nothing below ``lo`` does: bisect [lo, t)
    while lo < t:
        mid = (lo + t) // 2
        res = probe(mid)
        if res is None:
            lo = mid + 1
        else:
            t, best = mid, res
    return t, best


def _steady_start(n: int, rate) -> int:
    """``⌈n/ρ⌉``: no schedule completes ``n`` tasks faster than the
    platform's bandwidth-centric steady-state rate ``ρ`` allows."""
    return -(-n // rate)


def _guesser(core: _ForkCore, rates: Sequence, procs: Sequence[int]):
    """A makespan search's per-group guesses as a function of the horizon
    ``t`` (see the module docstring): ``⌊1.25 · R_g · t⌋ + 2·p_g + 4`` for
    group ``g`` of ``procs[g]`` processors, ``R_g`` the granted
    steady-state ``rates`` pooled over the groups sharing its first-link
    latency, and ``None`` (presented whole) at latency 0.  A guess only
    sizes the work, so the rates are floats, converted once."""
    latencies = core.c.tolist()
    pooled: dict = {}
    for c, rate in zip(latencies, rates):
        pooled[c] = pooled.get(c, 0) + rate
    slopes = [None if c == 0 else 1.25 * float(pooled[c]) for c in latencies]
    bases = [2 * p + 4 for p in procs]

    def at(t: Time) -> list[Optional[int]]:
        t = float(t)
        return [None if s is None else int(s * t) + b
                for s, b in zip(slopes, bases)]

    return at


# ---------------------------------------------------------------------------
# Stars: Fig. 6's copies, stacked ASAP per child
# ---------------------------------------------------------------------------


def _star_values(star: Star) -> list:
    return [v for ch in star.children for v in (ch.c, ch.w)]


def _star_finish(core: _ForkCore, n: Optional[int], probe: _Probe) -> Schedule:
    """Emissions + n-cap + per-child ASAP stacking, exactly as the oracle
    code does it (``fork_schedule_deadline`` after the allocation)."""
    acc_pos = np.flatnonzero(probe.accepted)
    edf = acc_pos[np.argsort(probe.slot[acc_pos], kind="stable")]
    comm = probe.c[edf]
    emissions = _back_to_back(comm)
    work = probe.w[edf]
    child = probe.group[edf]
    if n is not None and edf.size > n:
        # keep the n easiest slots (smallest virtual work), stable over the
        # EDF order, then re-serialise EDF from scratch
        keep = np.lexsort((np.arange(edf.size), comm, work))[:n]
        keep.sort()  # preserve EDF relative order among the kept
        kept_w = work[keep]
        kept_c = comm[keep]
        kept_child = child[keep]
        edf2 = np.lexsort((np.arange(keep.size), kept_c, -kept_w))
        work = kept_w[edf2]
        comm = kept_c[edf2]
        child = kept_child[edf2]
        emissions = _back_to_back(comm)
    m = child.size
    if not m:
        return Schedule(core.platform)
    # stack each child's tasks ASAP in emission order: the j-th (0-based)
    # starts at max(arrival_j, start_{j−1} + w) = j·w + max_{k≤j}(arrival_k
    # − k·w), a running maximum per child
    by_child = np.lexsort((emissions, child))
    child, emit = child[by_child], emissions[by_child]
    c = core.c[child]
    w = core.w[child]
    first = np.flatnonzero(np.r_[True, child[1:] != child[:-1]])
    ends = np.r_[first[1:], m]
    rank = np.arange(m) - np.repeat(first, ends - first)
    lead = emit + c - rank * w
    for lo, hi in zip(first.tolist(), ends.tolist()):
        np.maximum.accumulate(lead[lo:hi], out=lead[lo:hi])
    start = lead + rank * w
    # tasks numbered in (emission, child, start) order
    task = np.lexsort((start, child, emit))
    return Schedule.from_columns(
        core.platform, child[task], start[task], np.arange(m + 1), emit[task],
    )


def fast_star_deadline(
    star: Star,
    t_lim: Time,
    n: Optional[int] = None,
) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.fork.fork_schedule_deadline`."""
    _require_int(_star_values(star), t_lim, star.arity)
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    core = _star_core(star)
    probe = _probe(core, t_lim, n)
    _STATS.inc("kernel_solves")
    sched = _star_finish(core, n, probe)
    stats = {
        "alloc_candidates": probe.candidates,
        "alloc_structure_ops": probe.ops + 1,
    }
    return sched, stats


def fast_star_schedule(star: Star, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.fork.fork_schedule` (makespan).

    Same answer as the oracle's bisection over ``[min c+w, best single
    child's n-task time]``; the search (:func:`_least_horizon`) starts at
    the steady-state bound instead, and each probe presents every child
    up to its guess (:func:`_guesser`)."""
    from ..analysis.steady_state import star_steady_state

    singles = [ch.c + ch.w for ch in star.children]
    best = min(star.children, key=lambda ch: ch.c + ch.w + (n - 1) * ch.m)
    hi = best.c + best.w + (n - 1) * best.m
    _require_int(_star_values(star), hi, star.arity)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    core = _star_core(star)
    steady = star_steady_state(star)
    guesses_at = _guesser(core, steady.child_rates, [1] * star.arity)
    ops_total = 0
    candidates_total = 0

    def fits(t: Time) -> Optional[_Probe]:
        nonlocal ops_total, candidates_total
        probe = _probe(core, t, n, guesses=guesses_at(t))
        ops_total += probe.ops
        candidates_total += probe.candidates
        return probe if probe.n_accepted >= n else None

    found = _least_horizon(
        fits, min(singles), _steady_start(n, steady.throughput),
        max(singles), hi,
    )
    if found is None:  # pragma: no cover - hi is a valid horizon
        raise PlatformError(f"horizon {hi} cannot fit {n} tasks")
    _STATS.inc("kernel_solves")
    sched = _star_finish(core, n, found[1])
    stats = {
        "alloc_candidates": candidates_total,
        "alloc_structure_ops": ops_total + 1,
    }
    return sched, stats


# ---------------------------------------------------------------------------
# Spiders: leg sequences as fork nodes, reverted by Lemma 3
# ---------------------------------------------------------------------------


def _spider_values(spider: Spider) -> list:
    return [v for leg in spider.legs for v in (*leg.c, *leg.w)]


def _spider_finish(
    core: _ForkCore, t_lim: Time, n: Optional[int], probe: _Probe
) -> Schedule:
    """Normalise + EDF + revert, mirroring ``spider_schedule_deadline``
    steps (4)–(5) and ``_revert`` on the accepted set only."""
    spider = core.platform
    acc_pos = np.flatnonzero(probe.accepted)
    edf = acc_pos[np.argsort(probe.slot[acc_pos], kind="stable")]
    acc_leg = probe.group[edf]
    acc_w = probe.w[edf]
    acc_c = probe.c[edf]
    if n is not None and edf.size > n:
        keep = np.lexsort((np.arange(edf.size), acc_c, acc_w))[:n]
        # the oracle *keeps* the (work, c)-sorted order here — the
        # per-leg-count dict is built in that order, not the EDF order
        acc_leg = acc_leg[keep]
        acc_w = acc_w[keep]
        acc_c = acc_c[keep]
    # per-leg counts, dict insertion order = first appearance in `acc_leg`
    per_leg_count: dict[int, int] = {}
    for leg in acc_leg.tolist():
        per_leg_count[leg] = per_leg_count.get(leg, 0) + 1
    # normalise: per leg (insertion order) the `count` smallest-work fork
    # nodes; within a leg the oracle sorts by work, stable over generation
    # order (task-id ascending = idx descending)
    norm_w, norm_c, norm_leg = [], [], []
    for leg, count in per_leg_count.items():
        # the fork-node works of this leg's present prefix, straight from
        # the (append-only, hence race-free) sequence offsets
        leg_w = core.groups[leg].works(probe.counts[leg])
        leg_idx_arr = np.arange(leg_w.size, dtype=np.int64)
        sel = np.lexsort((-leg_idx_arr, leg_w))[:count]
        norm_w.append(leg_w[sel])
        norm_c.append(np.full(count, core.c[leg], dtype=np.int64))
        norm_leg.append(np.full(count, leg, dtype=np.int64))
    none = [np.empty(0, dtype=np.int64)]
    norm_w_a = np.concatenate(norm_w or none)
    norm_c_a = np.concatenate(norm_c or none)
    norm_leg_a = np.concatenate(norm_leg or none)
    # _edf_emissions over the normalised list: stable (deadline, c) sort
    edf_n = np.lexsort((np.arange(norm_w_a.size), norm_c_a, -norm_w_a))
    emit = _back_to_back(norm_c_a[edf_n])
    emit_leg = norm_leg_a[edf_n]
    # revert (Lemma 3): per leg, the suffix placements (the leg's tasks
    # 1..count) get the fork emissions in ascending order.  Processor
    # indices run leg by leg, position by position (adapter order)
    leg_base = np.cumsum([0] + [leg.p for leg in spider.legs])
    procs, starts, lengths, comms = [], [], [], []
    for leg in sorted(per_leg_count):
        proc, start, ptr, comm = core.groups[leg].columns(
            per_leg_count[leg], t_lim
        )
        fork = np.sort(emit[emit_leg == leg])
        assert (fork <= comm[ptr[:-1]]).all(), (
            "fork emission must not be later than the leg's (Lemma 3)"
        )
        comm[ptr[:-1]] = fork
        procs.append(leg_base[leg] + proc - 1)
        starts.append(start)
        lengths.append(np.diff(ptr))
        comms.append(comm)
    if not procs:
        return Schedule(spider)
    proc = np.concatenate(procs)
    ptr = np.zeros(proc.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=ptr[1:])
    comm = np.concatenate(comms)
    # global ids in (first emission, str(processor)) order, the oracle's
    # tie-break between equal first emissions
    keys = [str((leg, pos)) for leg in range(1, spider.arity + 1)
            for pos in range(1, spider.leg(leg).p + 1)]
    str_rank = np.empty(len(keys), dtype=np.int64)
    str_rank[sorted(range(len(keys)), key=keys.__getitem__)] = (
        np.arange(len(keys))
    )
    task = np.lexsort((str_rank[proc], comm[ptr[:-1]]))
    ptr, comm = csr_take(ptr, comm, task)
    return Schedule.from_columns(
        spider, proc[task], np.concatenate(starts)[task], ptr, comm
    )


#: the counters every spider solve reports, kernel or oracle.  The kernel's
#: values depend only on the problem: ``chain_vector_elements`` counts the
#: leg-sequence elements up to the furthest placement the solve's own probes
#: reach (:func:`_spider_elements`), as a cold cache builds them.
SPIDER_STAT_KEYS = (
    "probes", "probes_short_circuited", "legs_scheduled", "legs_skipped",
    "fork_nodes", "chain_vector_elements", "alloc_candidates",
    "alloc_structure_ops",
)


def _spider_elements(seqs: list[_ChainSeq], reach: list[int]) -> int:
    """Vector elements a cold cache builds for per-leg reaches ``reach``.
    Identical legs share one sequence, built up to the furthest reach
    among them and counted once per leg."""
    furthest: dict[_ChainSeq, int] = {}
    for seq, r in zip(seqs, reach):
        furthest[seq] = max(furthest.get(seq, 0), r)
    return sum(seq.vbase[furthest[seq]] for seq in seqs)


def _spider_stats(
    probes: int, short_circuited: int, scheduled: int, skipped: int,
    fork_nodes: int, elements: int, ops: int,
) -> dict:
    """Every fork node is an allocator candidate: ``alloc_candidates``
    repeats ``fork_nodes``."""
    return dict(zip(SPIDER_STAT_KEYS, (
        probes, short_circuited, scheduled, skipped, fork_nodes, elements,
        fork_nodes, ops + 1,
    )))


def fast_spider_deadline(
    spider: Spider,
    t_lim: Time,
    n: Optional[int] = None,
    *,
    leg_caps: Optional[dict[int, int]] = None,
) -> tuple[Schedule, dict, dict[int, int]]:
    """Kernel of :func:`repro.core.spider.spider_schedule_deadline`.

    Returns ``(schedule, stats, leg_counts)`` — the leg counts are the
    pre-allocation per-leg chain-run sizes, reusable as warm caps exactly
    like the oracle's.
    """
    _require_int(_spider_values(spider), t_lim, spider.arity)
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    core = _spider_core(spider)
    probe = _probe(core, t_lim, n, leg_caps)
    _STATS.inc("kernel_solves")
    sched = _spider_finish(core, t_lim, n, probe)
    leg_counts = {li + 1: c for li, c in enumerate(probe.counts)}
    stats = _spider_stats(
        1, 0, spider.arity - probe.skipped, probe.skipped,
        probe.candidates, _spider_elements(core.groups, probe.reach),
        probe.ops,
    )
    return sched, stats, leg_counts


def fast_spider_schedule(spider: Spider, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.spider.spider_schedule`.

    Same answer as the oracle's warm-started bisection over ``[shortest
    single task, T∞]``; the search (:func:`_least_horizon`) starts at the
    steady-state bound instead, with the oracle's warm caps and
    short-circuit on every probe, and each probe presents every leg up to
    its guess (:func:`_guesser`)."""
    from ..analysis.steady_state import spider_steady_state

    if spider.is_chain():
        # leg 1's position k is spider processor index k − 1, as on the
        # chain, whose kernel runs the guard
        cols = fast_chain_schedule(spider.leg(1), n)[0].columns
        sched = Schedule.from_columns(
            spider, cols.proc, cols.start, cols.ptr, cols.comm
        )
        return sched, _spider_stats(0, 0, 0, 0, 0, 0, 0)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    hi = spider.t_infinity(n)
    _require_int(_spider_values(spider), hi, spider.arity)
    singles = [
        leg.route_latency(i) + leg.work(i)
        for leg in spider
        for i in range(1, leg.p + 1)
    ]
    core = _spider_core(spider)
    steady = spider_steady_state(spider)
    guesses_at = _guesser(
        core, steady.child_rates, [leg.p for leg in spider.legs]
    )

    caps: dict[int, int] = {}
    reach = [0] * spider.arity  # furthest placement each leg's runs reach
    probes = short = 0
    legs_scheduled = legs_skipped = 0
    fork_nodes = ops_total = 0

    def fits(t: Time) -> Optional[_Probe]:
        nonlocal reach, probes, short, fork_nodes, ops_total
        nonlocal legs_scheduled, legs_skipped
        reachable: Time = 0
        for leg_idx in range(1, spider.arity + 1):
            bound = _task_upper_bound(spider.leg(leg_idx), t)
            if leg_idx in caps:
                bound = min(bound, caps[leg_idx])
            reachable += bound
        if reachable < n:
            short += 1
            return None
        probe = _probe(core, t, n, caps, guesses_at(t))
        probes += 1
        legs_skipped += probe.skipped
        legs_scheduled += spider.arity - probe.skipped
        fork_nodes += probe.candidates
        ops_total += probe.ops
        reach = list(map(max, reach, probe.reach))
        if probe.n_accepted < n:
            return None
        # per-leg counts are monotone in t, so these caps never bind a
        # lower probe: they only let it skip legs and short-circuit.  A
        # cut leg's count is no chain-run size (as a cap it would bind), so
        # only the legs presented whole update their caps
        caps.update(
            (li + 1, c) for li, c in enumerate(probe.counts)
            if li not in probe.cut
        )
        return probe

    found = _least_horizon(
        fits, min(singles), _steady_start(n, steady.throughput),
        max(singles), hi,
    )
    assert found is not None, "T∞ is a valid horizon"
    t_final, final = found
    _STATS.inc("kernel_solves")
    sched = _spider_finish(core, t_final, n, final)
    stats = _spider_stats(
        probes, short, legs_scheduled, legs_skipped, fork_nodes,
        _spider_elements(core.groups, reach), ops_total,
    )
    return sched, stats


# ---------------------------------------------------------------------------
# Kernel-then-oracle entries: one per platform and question
# ---------------------------------------------------------------------------


def _answer(kernel, oracle, *args, **kwargs) -> tuple:
    """``kernel(*args, **kwargs)``, or — when it raises
    :class:`SolveKernelUnsupported` — one counted fallback to the
    paper-literal ``oracle`` with the same arguments.  Both return
    ``(schedule, stats, ...)``; ``stats["engine"]`` records which one
    answered (``"compiled"`` or ``"object"``)."""
    try:
        out = kernel(*args, **kwargs)
        engine = "compiled"
    except SolveKernelUnsupported:
        _STATS.inc("fallbacks")
        out = oracle(*args, **kwargs)
        engine = "object"
    out[1]["engine"] = engine
    return out


def _chain_stats_dict(stats: ChainRunStats) -> dict:
    return {
        "tasks_placed": stats.tasks_placed,
        "candidates_evaluated": stats.candidates_evaluated,
        "vector_elements": stats.vector_elements,
        "comparisons": stats.comparisons,
    }


def _alloc_stats_dict(stats: AllocStats) -> dict:
    return {
        "alloc_candidates": stats.candidates,
        "alloc_structure_ops": stats.structure_ops,
    }


def _spider_stats_dict(stats: SpiderRunStats) -> dict:
    return dict(zip(SPIDER_STAT_KEYS, (
        stats.probes, stats.probes_short_circuited, stats.legs_scheduled,
        stats.legs_skipped, stats.fork_nodes, stats.chain.vector_elements,
        stats.alloc.candidates, stats.alloc.structure_ops,
    )))


def _oracle_chain_schedule(chain: Chain, n: int):
    stats = ChainRunStats()
    sched = _chain_oracle.schedule_chain(chain, n, stats=stats)
    return sched, _chain_stats_dict(stats)


def _oracle_chain_deadline(chain: Chain, t_lim: Time, n: Optional[int] = None):
    stats = ChainRunStats()
    sched = _chain_oracle.schedule_chain_deadline(chain, t_lim, n, stats=stats)
    return sched, _chain_stats_dict(stats)


def _oracle_star_schedule(star: Star, n: int):
    stats = AllocStats()
    sched = _fork_oracle.fork_schedule(star, n, stats=stats)
    return sched, _alloc_stats_dict(stats)


def _oracle_star_deadline(star: Star, t_lim: Time, n: Optional[int] = None):
    stats = AllocStats()
    sched = _fork_oracle.fork_schedule_deadline(star, t_lim, n, stats=stats)
    return sched, _alloc_stats_dict(stats)


def _oracle_spider_schedule(spider: Spider, n: int):
    stats = SpiderRunStats()
    sched = _spider_oracle.spider_schedule(spider, n, stats=stats)
    return sched, _spider_stats_dict(stats)


def _oracle_spider_deadline(
    spider: Spider, t_lim: Time, n: Optional[int] = None, *,
    leg_caps: Optional[dict[int, int]] = None,
):
    stats = SpiderRunStats()
    res = _spider_oracle.spider_schedule_deadline(
        spider, t_lim, n, stats=stats, leg_caps=leg_caps
    )
    return res.schedule, _spider_stats_dict(stats), dict(res.leg_counts)


def chain_schedule(chain: Chain, n: int) -> tuple[Schedule, dict]:
    """Optimal-makespan schedule of ``n`` tasks on ``chain`` (Theorem 1)."""
    return _answer(fast_chain_schedule, _oracle_chain_schedule, chain, n)


def chain_deadline(
    chain: Chain, t_lim: Time, n: Optional[int] = None
) -> tuple[Schedule, dict]:
    """Most tasks (at most ``n``) completing on ``chain`` by ``t_lim``."""
    return _answer(
        fast_chain_deadline, _oracle_chain_deadline, chain, t_lim, n
    )


def star_schedule(star: Star, n: int) -> tuple[Schedule, dict]:
    """Optimal-makespan schedule of ``n`` tasks on ``star`` (§6)."""
    return _answer(fast_star_schedule, _oracle_star_schedule, star, n)


def star_deadline(
    star: Star, t_lim: Time, n: Optional[int] = None
) -> tuple[Schedule, dict]:
    """Most tasks (at most ``n``) completing on ``star`` by ``t_lim``."""
    return _answer(fast_star_deadline, _oracle_star_deadline, star, t_lim, n)


def spider_schedule(spider: Spider, n: int) -> tuple[Schedule, dict]:
    """Optimal-makespan schedule of ``n`` tasks on ``spider`` (Theorem 3)."""
    return _answer(fast_spider_schedule, _oracle_spider_schedule, spider, n)


def spider_deadline(
    spider: Spider,
    t_lim: Time,
    n: Optional[int] = None,
    *,
    leg_caps: Optional[dict[int, int]] = None,
) -> tuple[Schedule, dict, dict[int, int]]:
    """Most tasks (at most ``n``) completing on ``spider`` by ``t_lim``,
    plus the per-leg counts reusable as ``leg_caps`` at a smaller
    deadline."""
    return _answer(
        fast_spider_deadline, _oracle_spider_deadline, spider, t_lim, n,
        leg_caps=leg_caps,
    )
