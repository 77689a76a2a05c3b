"""The solve kernels: the production path of every chain/star/spider solve.

Each of the paper's algorithms has exactly two implementations: the
paper-literal **oracle** (:mod:`repro.core.chain`, :mod:`repro.core.fork`,
:mod:`repro.core.spider`) and the flat-array **kernel** here.  The six
kernel-then-oracle entries at the bottom of this module (one per platform
× question) are the only way production code solves: the registered
solvers and the tree heuristic both call them.  Three numeric cores do
the work:

**Universal chain sequences.**  The backward chain construction is
*translation covariant*: every quantity in :class:`_FastState` is built
from ``min``/``+`` over the horizon-initialised hull/occupancy vectors, so
running the construction at horizon ``t`` equals running it at horizon
``0`` and adding ``t`` to every time.  One placement sequence per chain
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
does: each placement picks the ≺-greatest candidate on the closed form of
:class:`_FastState`, ties included, and builds only that one vector.

**A vectorised port allocator.**  The fork/spider EDF greedy
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

**t-independent candidate universes.**  A star child's virtual copies
``(c, w + q·m)`` and a spider leg's fork nodes ``(c₁, off_i − c₁)`` do not
depend on the probe deadline — only *how many* of them are present does
(a per-group prefix).  The scan order ``(c, W, group, generation)`` and the
EDF slot order ``(−W, c, scan)`` are therefore precomputed once per
platform core and shared by every deadline probe; a probe compresses the
prefix masks, runs the block allocator, and — except for the final
construction — never builds a single Python object.

Star and spider makespans are found by :func:`_least_horizon`.

Bit-identity contract: for integer platforms every schedule produced here
is equal, element for element, to the oracle's — same assignments, same
task numbering, same tie-breaks.  The final physical reconstruction reuses
the oracle's logic verbatim on the (small) accepted set.  Anything outside
the contract — floats, Fractions — raises :class:`SolveKernelUnsupported`,
and the entries hand the question to the oracle, counting one
``fallbacks`` in :func:`solve_kernel_stats`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from typing import Optional

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
# Cache + counters (mirrors the conventions of repro.core.compiled)
# ---------------------------------------------------------------------------

#: value-keyed caches: chain sequences and star/spider solve cores.
SEQ_CACHE_CAPACITY = 256
CORE_CACHE_CAPACITY = 512

_LOCK = threading.RLock()
_SEQ_CACHE: "OrderedDict[tuple, _ChainSeq]" = OrderedDict()
_STAR_CACHE: "OrderedDict[tuple, _StarCore]" = OrderedDict()
_SPIDER_CACHE: "OrderedDict[tuple, _SpiderCore]" = OrderedDict()

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
    ),
)


def solve_kernel_stats() -> dict:
    """Counters of the solve-kernel caches (hits/misses/solves/fallbacks)
    — a view over the obs registry's ``solve_kernel.*`` counters."""
    stats = _STATS.to_dict()
    with _LOCK:
        stats["seq_entries"] = len(_SEQ_CACHE)
        stats["core_entries"] = len(_STAR_CACHE) + len(_SPIDER_CACHE)
    return stats


def clear_solve_kernels() -> None:
    """Drop every cached sequence/core and reset the counters (tests)."""
    with _LOCK:
        _SEQ_CACHE.clear()
        _STAR_CACHE.clear()
        _SPIDER_CACHE.clear()
    _STATS.reset()


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise SolveKernelUnsupported(why)


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


class _FastState:
    """Hull/occupancy state of one backward chain construction at horizon
    0.  A task costs O(p) plus O(p) per tie-break position; ties resolve
    within one or two positions on average (on random and homogeneous
    chains alike), so O(p) in practice against the oracle's O(p²).  The
    worst case, ties through every position, is O(p²).

    Write ``S_j = c_1 + ... + c_j`` (prefix latencies, ``S_0 = 0``) and,
    for the current hull/occupancy state,

    * ``E_m = (h_m − c_m) − S_{m−1}``            (hull-limited term at hop m)
    * ``F_m = min(o_m − w_m − c_m, h_m − c_m) − S_{m−1}``   (target term at m)

    Unrolling the oracle's recurrence
    ``ᵏC_j = min(ᵏC_{j+1} − c_j, h_j − c_j)`` gives
    ``ᵏC_j = S_{j−1} + min(F_k, min_{j ≤ m < k} E_m)``.  Definition 3
    compares candidates element by element, and ``S_{j−1}`` is common to
    every candidate at position ``j``, so :meth:`choose` ranks candidates
    on the ``min(…)`` term alone: one O(p) sweep finds the first-emission
    argmax, and ties (most tasks tie on their first emission on integer
    chains) are broken one position at a time among the survivors, on the
    same closed form.  Only the winner's vector is ever built.
    """

    __slots__ = ("chain", "h", "o", "prefix")

    def __init__(self, chain: Chain):
        self.chain = chain
        p = chain.p
        self.h: list[Time] = [0] * (p + 1)
        self.o: list[Time] = [0] * (p + 1)
        prefix: list[Time] = [0] * (p + 1)
        for j in range(1, p + 1):
            prefix[j] = prefix[j - 1] + chain.c[j - 1]
        self.prefix = prefix  # prefix[j] = S_j

    def choose(self) -> tuple[Time, ...]:
        """The ≺-greatest candidate vector, built once.

        ``c_k + S_{k−1} = S_k``, so ``E_k = h_k − S_k`` and
        ``F_k = min(o_k − w_k, h_k) − S_k``.  Pass 1 keeps the targets
        whose first emission ``min(F_k, min_{m<k} E_m)`` is largest, in
        ascending ``k``.  At position ``j ≥ 2`` a survivor with ``k = j−1``
        has run out of elements: its vector is a prefix of every other
        survivor's, hence ≺-greater, and it wins.  Otherwise the survivors
        with the largest ``min(F_k, min_{j≤m<k} E_m)`` stay.
        """
        h, o, S, w = self.h, self.o, self.prefix, self.chain.w
        p = len(S) - 1
        E: list[Time] = [0] * (p + 1)
        F: list[Time] = [0] * (p + 1)
        run: Time = float("inf")  # min of E_m, m < k
        top: Time = float("-inf")
        tied: list[int] = []
        for k in range(1, p + 1):
            hk = h[k]
            sk = S[k]
            e = hk - sk
            ow = o[k] - w[k - 1]
            f = (ow if ow < hk else hk) - sk
            E[k] = e
            F[k] = f
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
            run = float("inf")  # min of E_m, j <= m < k
            m = j
            top = float("-inf")
            keep: list[int] = []
            for k in tied:
                while m < k:
                    if E[m] < run:
                        run = E[m]
                    m += 1
                f = F[k]
                value = f if f < run else run
                if value > top:
                    top = value
                    keep = [k]
                elif value == top:
                    keep.append(k)
            tied = keep
            j += 1
        k = tied[0]
        run = F[k]
        vector: list[Time] = [0] * k
        vector[k - 1] = S[k - 1] + run
        for j in range(k - 1, 0, -1):
            e = E[j]
            if e < run:
                run = e
            vector[j - 1] = S[j - 1] + run
        return tuple(vector)

    def commit(self, vector: tuple[Time, ...]) -> tuple[int, Time]:
        k = len(vector)
        start = self.o[k] - self.chain.w[k - 1]
        self.o[k] = start
        self.h[1:k + 1] = vector
        return k, start


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
    """

    __slots__ = (
        "chain", "state", "procs", "soff", "voff", "vbase", "off",
        "max_off", "lock",
    )

    def __init__(self, chain: Chain):
        self.chain = chain
        self.lock = threading.RLock()
        self.state = _FastState(chain)
        self.procs: list[int] = []
        self.soff: list[Time] = []
        self.voff: list[Time] = []   # CSR-flattened comm offsets
        self.vbase: list[int] = [0]  # CSR index: placement i -> voff slice
        self.off: list[Time] = []    # first-emission offsets
        self.max_off: list[Time] = []

    def __len__(self) -> int:
        return len(self.procs)

    def _extend_one(self) -> None:
        vector = self.state.choose()
        proc, start = self.state.commit(vector)
        self.procs.append(proc)
        self.soff.append(-start)
        self.voff.extend([-v for v in vector])
        self.vbase.append(len(self.voff))
        first = -vector[0]
        self.off.append(first)
        prev = self.max_off[-1] if self.max_off else first
        self.max_off.append(first if first > prev else prev)

    def ensure_len(self, n: int) -> None:
        if len(self.procs) >= n:
            return
        with self.lock:
            while len(self.procs) < n:
                self._extend_one()

    def count_within(self, t_lim: Time, limit: int) -> int:
        """Tasks placed by the deadline construction at horizon ``t_lim``
        capped at ``limit`` — without running the construction."""
        # extend until either the limit is generated or an offset exceeds t
        # (the structures are append-only: reads of settled prefixes are
        # safe, only the extension itself needs the lock)
        if len(self.procs) < limit and (
            not self.max_off or self.max_off[-1] <= t_lim
        ):
            with self.lock:
                while len(self.procs) < limit and (
                    not self.max_off or self.max_off[-1] <= t_lim
                ):
                    self._extend_one()
        # first violating placement (prefix-max is monotone; the first
        # offset > t equals the first prefix-max > t)
        violation = bisect_right(self.max_off, t_lim)
        return min(limit, violation)

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

    def deadline_schedule(
        self, t_lim: Time, limit: int
    ) -> tuple[Schedule, int]:
        total = self.count_within(t_lim, limit)
        procs, start, ptr, comm = self.columns(total, t_lim)
        return Schedule.from_columns(
            self.chain, procs - 1, start, ptr, comm
        ), total

    def makespan_schedule(self, n: int) -> Schedule:
        # horizon cancels: the oracle shifts the first emission
        # (placement n−1) to zero, so materialise at horizon off[n−1]
        self.ensure_len(n)
        procs, start, ptr, comm = self.columns(n, self.off[n - 1])
        return Schedule.from_columns(self.chain, procs - 1, start, ptr, comm)


def _chain_seq(chain: Chain) -> _ChainSeq:
    key = _chain_key(chain)
    seq = _cache_get(_SEQ_CACHE, key)
    _STATS.inc("seq_misses" if seq is None else "seq_hits")
    if seq is None:
        seq = _cache_put(_SEQ_CACHE, key, _ChainSeq(chain), SEQ_CACHE_CAPACITY)
    return seq


def _require_int_chain(chain: Chain, t_lim: Optional[Time]) -> None:
    _require(
        all(_is_int(v) for v in (*chain.c, *chain.w)),
        "chain kernel needs an integer platform",
    )
    _require(t_lim is None or _is_int(t_lim), "chain kernel needs integer t_lim")


def _cold_reach(count: int, limit: int) -> int:
    """Placements a cold sequence holds once ``count_within`` returned
    ``count``: unless ``limit`` stopped it, the deadline run also built the
    first placement past ``t_lim`` (that is how it learns to stop)."""
    return count + 1 if count < limit else count


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
    _require_int_chain(chain, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    seq = _chain_seq(chain)
    _STATS.inc("kernel_solves")
    return seq.makespan_schedule(n), _chain_stats(seq, n, n)


def fast_chain_deadline(
    chain: Chain, t_lim: Time, n: Optional[int] = None
) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.chain.schedule_chain_deadline`
    (unshifted times)."""
    _require_int_chain(chain, t_lim)
    seq = _chain_seq(chain)
    limit = n if n is not None else _task_upper_bound(chain, t_lim)
    sched, placed = seq.deadline_schedule(t_lim, limit)
    _STATS.inc("kernel_solves")
    return sched, _chain_stats(seq, placed, _cold_reach(placed, limit))


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
# Star core
# ---------------------------------------------------------------------------

class _StarCore:
    """t-independent candidate universe of one star, grown on demand."""

    __slots__ = (
        "star", "child_c", "child_w", "child_m", "built", "lock",
        "cand_child", "cand_q", "cand_c", "cand_w", "scan", "slot_rank",
    )

    def __init__(self, star: Star):
        self.star = star
        self.lock = threading.RLock()
        self.child_c = [ch.c for ch in star.children]
        self.child_w = [ch.w for ch in star.children]
        self.child_m = [ch.m for ch in star.children]
        self.built = [0] * star.arity
        self.cand_child = np.empty(0, dtype=np.int64)
        self.cand_q = np.empty(0, dtype=np.int64)
        self.cand_c = np.empty(0, dtype=np.int64)
        self.cand_w = np.empty(0, dtype=np.int64)
        self.scan = np.empty(0, dtype=np.int64)
        self.slot_rank = np.empty(0, dtype=np.int64)

    def counts_at(self, t_lim: Time, cap: Optional[int]) -> list[int]:
        """Per-child virtual-copy counts: exactly ``expand_star``'s loop."""
        counts = []
        for c, w, mm in zip(self.child_c, self.child_w, self.child_m):
            if c + w > t_lim:
                counts.append(0)
                continue
            natural = (t_lim - c - w) // mm + 1
            counts.append(int(natural if cap is None else min(cap, natural)))
        return counts

    def ensure(self, counts: list[int]) -> None:
        if all(b >= c for b, c in zip(self.built, counts)):
            return
        target = [max(b, c) for b, c in zip(self.built, counts)]
        child_parts, q_parts = [], []
        for idx, n_q in enumerate(target):
            child_parts.append(np.full(n_q, idx + 1, dtype=np.int64))
            q_parts.append(np.arange(n_q, dtype=np.int64))
        self.cand_child = np.concatenate(child_parts) if child_parts else (
            np.empty(0, dtype=np.int64)
        )
        self.cand_q = np.concatenate(q_parts) if q_parts else (
            np.empty(0, dtype=np.int64)
        )
        c_arr = np.asarray(self.child_c, dtype=np.int64)
        w_arr = np.asarray(self.child_w, dtype=np.int64)
        m_arr = np.asarray(self.child_m, dtype=np.int64)
        ci = self.cand_child - 1
        self.cand_c = c_arr[ci]
        self.cand_w = w_arr[ci] + self.cand_q * m_arr[ci]
        # scan: ascending (c, W), generation (child, q) breaking ties —
        # exactly the oracle's stable sort over expand_star's order
        self.scan = np.lexsort(
            (self.cand_q, self.cand_child, self.cand_w, self.cand_c)
        )
        # EDF slots: ascending (deadline, c, scan position) = (−W, c, scan)
        n_cand = self.scan.shape[0]
        slot_seq = np.lexsort((
            np.arange(n_cand),
            self.cand_c[self.scan],
            -self.cand_w[self.scan],
        ))
        self.slot_rank = np.empty(n_cand, dtype=np.int64)
        self.slot_rank[slot_seq] = np.arange(n_cand)
        self.built = target

    def present(self, counts: list[int]):
        """Scan-ordered candidate arrays of the probe's present prefix set.

        Returns ``(child, c, W, slot)`` — materialised copies, so a
        concurrent ``ensure`` rebuilding the universe cannot go stale under
        a caller's feet."""
        with self.lock:
            self.ensure(counts)
            caps = np.asarray(counts, dtype=np.int64)
            mask = (
                self.cand_q[self.scan] < caps[self.cand_child[self.scan] - 1]
            )
            pres = self.scan[mask]
            child_s = self.cand_child[pres]
            c_s = self.cand_c[pres]
            w_s = self.cand_w[pres]
            ranks = self.slot_rank[np.flatnonzero(mask)]
        slot = np.empty(ranks.shape[0], dtype=np.int64)
        slot[np.argsort(ranks, kind="stable")] = np.arange(ranks.shape[0])
        return child_s, c_s, w_s, slot


def _star_core(star: Star) -> _StarCore:
    key = tuple((ch.c, ch.w) for ch in star.children)
    core = _cache_get(_STAR_CACHE, key)
    _STATS.inc("core_hits" if core is not None else "core_misses")
    if core is None:
        core = _cache_put(_STAR_CACHE, key, _StarCore(star), CORE_CACHE_CAPACITY)
    return core


def _require_int_star(star: Star, t_lim: Optional[Time]) -> None:
    _require(
        all(_is_int(v) for ch in star.children for v in (ch.c, ch.w)),
        "star kernel needs an integer platform",
    )
    _require(t_lim is None or _is_int(t_lim), "star kernel needs integer t_lim")


def _star_probe(core: _StarCore, t_lim: Time, cap: Optional[int]):
    """One allocation probe: present set + accepted mask (+ ops)."""
    counts = core.counts_at(t_lim, cap)
    child_s, c_s, w_s, slot = core.present(counts)
    d_s = t_lim - w_s
    accepted, ops = _run_greedy(c_s, d_s, slot)
    _STATS.inc("kernel_probes")
    return child_s, c_s, w_s, slot, accepted, ops


def fast_star_deadline(
    star: Star,
    t_lim: Time,
    n: Optional[int] = None,
) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.fork.fork_schedule_deadline`."""
    _require_int_star(star, t_lim)
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    core = _star_core(star)
    child_s, c_s, w_s, slot, accepted, ops = _star_probe(core, t_lim, n)
    _STATS.inc("kernel_solves")
    sched = _star_finish(core, n, child_s, c_s, w_s, slot, accepted)
    stats = {
        "alloc_candidates": int(c_s.shape[0]),
        "alloc_structure_ops": int(ops) + 1,
    }
    return sched, stats


def _star_finish(
    core: _StarCore, n: Optional[int],
    child_s, c_s, w_s, slot, accepted,
) -> Schedule:
    """Emissions + n-cap + per-child ASAP stacking, exactly as the oracle
    code does it (``fork_schedule_deadline`` after the allocation)."""
    acc_pos = np.flatnonzero(accepted)
    edf = acc_pos[np.argsort(slot[acc_pos], kind="stable")]
    comm = c_s[edf]
    emissions = np.concatenate(([0], np.cumsum(comm)[:-1])) if edf.size else (
        np.empty(0, dtype=np.int64)
    )
    work = w_s[edf]
    child = child_s[edf]
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
        emissions = (
            np.concatenate(([0], np.cumsum(comm)[:-1]))
            if edf2.size else np.empty(0, dtype=np.int64)
        )
    m = child.size
    if not m:
        return Schedule(core.star)
    # stack each child's tasks ASAP in emission order: the j-th (0-based)
    # starts at max(arrival_j, start_{j−1} + w) = j·w + max_{k≤j}(arrival_k
    # − k·w), a running maximum per child
    by_child = np.lexsort((emissions, child))
    child, emit = child[by_child], emissions[by_child]
    c = np.asarray(core.child_c, dtype=np.int64)[child - 1]
    w = np.asarray(core.child_w, dtype=np.int64)[child - 1]
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
        core.star, child[task] - 1, start[task], np.arange(m + 1), emit[task]
    )


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


def fast_star_schedule(star: Star, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.fork.fork_schedule` (makespan).

    Same answer as the oracle's bisection over ``[min c+w, best single
    child's n-task time]``; the search (:func:`_least_horizon`) starts at
    the steady-state bound instead."""
    from ..analysis.steady_state import star_steady_state

    _require_int_star(star, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    singles = [ch.c + ch.w for ch in star.children]
    best = min(star.children, key=lambda ch: ch.c + ch.w + (n - 1) * ch.m)
    hi = best.c + best.w + (n - 1) * best.m
    core = _star_core(star)
    ops_total = 0
    candidates_total = 0

    def fits(t: Time):
        nonlocal ops_total, candidates_total
        probe = _star_probe(core, t, n)
        _, c_s, _, _, accepted, ops = probe
        ops_total += ops
        candidates_total += int(c_s.shape[0])
        return probe if int(accepted.sum()) >= n else None

    found = _least_horizon(
        fits, min(singles),
        _steady_start(n, star_steady_state(star).throughput), max(singles), hi,
    )
    if found is None:  # pragma: no cover - hi is a valid horizon
        raise PlatformError(f"horizon {hi} cannot fit {n} tasks")
    child_s, c_s, w_s, slot, accepted, _ = found[1]
    _STATS.inc("kernel_solves")
    sched = _star_finish(core, n, child_s, c_s, w_s, slot, accepted)
    stats = {
        "alloc_candidates": candidates_total,
        "alloc_structure_ops": ops_total + 1,
    }
    return sched, stats


# ---------------------------------------------------------------------------
# Spider core
# ---------------------------------------------------------------------------


class _SpiderCore:
    """Per-leg sequences + the t-independent fork-node universe."""

    __slots__ = (
        "spider", "seqs", "c1", "built", "lock", "cand_leg", "cand_idx",
        "cand_c", "cand_w", "scan", "slot_rank", "leg_base", "str_rank",
    )

    def __init__(self, spider: Spider):
        self.spider = spider
        self.lock = threading.RLock()
        self.seqs = [_chain_seq(leg) for leg in spider.legs]
        self.c1 = [leg.latency(1) for leg in spider.legs]
        # processor indices in adapter order: leg by leg, position by
        # position; and each processor's rank in str() order, the oracle's
        # tie-break between equal first emissions
        self.leg_base = np.cumsum([0] + [leg.p for leg in spider.legs])
        keys = [(leg, pos) for leg in range(1, spider.arity + 1)
                for pos in range(1, spider.leg(leg).p + 1)]
        self.str_rank = np.empty(len(keys), dtype=np.int64)
        self.str_rank[sorted(range(len(keys)), key=lambda j: str(keys[j]))] = (
            np.arange(len(keys))
        )
        self.built = [0] * spider.arity
        self.cand_leg = np.empty(0, dtype=np.int64)
        self.cand_idx = np.empty(0, dtype=np.int64)
        self.cand_c = np.empty(0, dtype=np.int64)
        self.cand_w = np.empty(0, dtype=np.int64)
        self.scan = np.empty(0, dtype=np.int64)
        self.slot_rank = np.empty(0, dtype=np.int64)

    def ensure(self, counts: list[int]) -> None:
        if all(b >= c for b, c in zip(self.built, counts)):
            return
        target = [max(b, c) for b, c in zip(self.built, counts)]
        leg_parts, idx_parts, c_parts, w_parts = [], [], [], []
        for li, (seq, cnt) in enumerate(zip(self.seqs, target)):
            seq.ensure_len(cnt)
            leg_parts.append(np.full(cnt, li + 1, dtype=np.int64))
            idx_parts.append(np.arange(cnt, dtype=np.int64))
            c_parts.append(np.full(cnt, self.c1[li], dtype=np.int64))
            # fork node of placement i: work = t − emission − c1
            #                                = off[i] − c1  (t-independent)
            w_parts.append(
                np.asarray(seq.off[:cnt], dtype=np.int64) - self.c1[li]
            )
        self.cand_leg = np.concatenate(leg_parts)
        self.cand_idx = np.concatenate(idx_parts)
        self.cand_c = np.concatenate(c_parts)
        self.cand_w = np.concatenate(w_parts)
        # scan: ascending (c, W); generation order breaks ties — legs
        # ascending, and within a leg task-id ascending = idx descending
        self.scan = np.lexsort(
            (-self.cand_idx, self.cand_leg, self.cand_w, self.cand_c)
        )
        n_cand = self.scan.shape[0]
        slot_seq = np.lexsort((
            np.arange(n_cand),
            self.cand_c[self.scan],
            -self.cand_w[self.scan],
        ))
        self.slot_rank = np.empty(n_cand, dtype=np.int64)
        self.slot_rank[slot_seq] = np.arange(n_cand)
        self.built = target

    def counts_at(
        self, t_lim: Time, n: Optional[int],
        leg_caps: Optional[dict[int, int]],
    ) -> tuple[list[int], list[int]]:
        """Per-leg task counts of the capped deadline chain runs, and how
        far each run reaches into its leg's sequence (:func:`_cold_reach`)."""
        counts, reach = [], []
        for li, seq in enumerate(self.seqs):
            cap = n
            if leg_caps is not None and (li + 1) in leg_caps:
                warm = leg_caps[li + 1]
                cap = warm if cap is None else min(cap, warm)
            if cap == 0:
                counts.append(0)
                reach.append(0)
                continue
            limit = cap if cap is not None else _task_upper_bound(
                self.spider.leg(li + 1), t_lim
            )
            count = seq.count_within(t_lim, limit)
            counts.append(count)
            reach.append(_cold_reach(count, limit))
        return counts, reach

    def elements_to(self, reach: list[int]) -> int:
        """Vector elements a cold cache builds for per-leg reaches
        ``reach``.  Identical legs share one sequence, built up to the
        furthest reach among them and counted once per leg."""
        furthest: dict[_ChainSeq, int] = {}
        for seq, r in zip(self.seqs, reach):
            furthest[seq] = max(furthest.get(seq, 0), r)
        return sum(seq.vbase[furthest[seq]] for seq in self.seqs)

    def present(self, counts: list[int]):
        with self.lock:
            self.ensure(counts)
            caps = np.asarray(counts, dtype=np.int64)
            mask = (
                self.cand_idx[self.scan] < caps[self.cand_leg[self.scan] - 1]
            )
            pres = self.scan[mask]
            leg_s = self.cand_leg[pres]
            c_s = self.cand_c[pres]
            w_s = self.cand_w[pres]
            ranks = self.slot_rank[np.flatnonzero(mask)]
        slot = np.empty(ranks.shape[0], dtype=np.int64)
        slot[np.argsort(ranks, kind="stable")] = np.arange(ranks.shape[0])
        return leg_s, c_s, w_s, slot


def _spider_core(spider: Spider) -> _SpiderCore:
    key = tuple((tuple(leg.c), tuple(leg.w)) for leg in spider.legs)
    core = _cache_get(_SPIDER_CACHE, key)
    _STATS.inc("core_hits" if core is not None else "core_misses")
    if core is None:
        core = _cache_put(
            _SPIDER_CACHE, key, _SpiderCore(spider), CORE_CACHE_CAPACITY
        )
    return core


def _require_int_spider(spider: Spider, t_lim: Optional[Time]) -> None:
    _require(
        all(
            _is_int(v) for leg in spider.legs for v in (*leg.c, *leg.w)
        ),
        "spider kernel needs an integer platform",
    )
    _require(
        t_lim is None or _is_int(t_lim), "spider kernel needs integer t_lim"
    )


class _SpiderProbe:
    """One deadline probe's raw outcome (arrays, no Python objects)."""

    __slots__ = (
        "counts", "reach", "leg_s", "c_s", "w_s", "slot", "accepted", "ops",
    )

    def __init__(self, counts, reach, leg_s, c_s, w_s, slot, accepted, ops):
        self.counts = counts
        self.reach = reach
        self.leg_s = leg_s
        self.c_s = c_s
        self.w_s = w_s
        self.slot = slot
        self.accepted = accepted
        self.ops = ops

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())


def _spider_probe(
    core: _SpiderCore, t_lim: Time, n: Optional[int],
    leg_caps: Optional[dict[int, int]],
) -> _SpiderProbe:
    counts, reach = core.counts_at(t_lim, n, leg_caps)
    leg_s, c_s, w_s, slot = core.present(counts)
    d_s = t_lim - w_s
    accepted, ops = _run_greedy(c_s, d_s, slot)
    _STATS.inc("kernel_probes")
    return _SpiderProbe(counts, reach, leg_s, c_s, w_s, slot, accepted, ops)


def _spider_finish(
    core: _SpiderCore, t_lim: Time, n: Optional[int], probe: _SpiderProbe
) -> Schedule:
    """Normalise + EDF + revert, mirroring ``spider_schedule_deadline``
    steps (4)–(5) and ``_revert`` on the accepted set only."""
    spider = core.spider
    acc_pos = np.flatnonzero(probe.accepted)
    edf = acc_pos[np.argsort(probe.slot[acc_pos], kind="stable")]
    acc_leg = probe.leg_s[edf]
    acc_w = probe.w_s[edf]
    acc_c = probe.c_s[edf]
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
    for leg_idx, count in per_leg_count.items():
        li = leg_idx - 1
        cnt_leg = probe.counts[li]
        # fork-node works of this leg's present prefix, straight from the
        # (append-only, hence race-free) sequence offsets
        seq = core.seqs[li]
        leg_w = (
            np.asarray(seq.off[:cnt_leg], dtype=np.int64) - core.c1[li]
        )
        leg_idx_arr = np.arange(cnt_leg, dtype=np.int64)
        sel = np.lexsort((-leg_idx_arr, leg_w))[:count]
        norm_w.append(leg_w[sel])
        norm_c.append(np.full(count, core.c1[li], dtype=np.int64))
        norm_leg.append(np.full(count, leg_idx, dtype=np.int64))
    if norm_w:
        norm_w_a = np.concatenate(norm_w)
        norm_c_a = np.concatenate(norm_c)
        norm_leg_a = np.concatenate(norm_leg)
    else:
        norm_w_a = np.empty(0, dtype=np.int64)
        norm_c_a = np.empty(0, dtype=np.int64)
        norm_leg_a = np.empty(0, dtype=np.int64)
    # _edf_emissions over the normalised list: stable (deadline, c) sort
    edf_n = np.lexsort((np.arange(norm_w_a.size), norm_c_a, -norm_w_a))
    emit = np.concatenate(
        ([0], np.cumsum(norm_c_a[edf_n])[:-1])
    ) if edf_n.size else np.empty(0, dtype=np.int64)
    emit_leg = norm_leg_a[edf_n]
    # revert (Lemma 3): per leg, the suffix placements (the leg's tasks
    # 1..count) get the fork emissions in ascending order
    procs, starts, lengths, comms = [], [], [], []
    for leg_idx in sorted(per_leg_count):
        proc, start, ptr, comm = core.seqs[leg_idx - 1].columns(
            per_leg_count[leg_idx], t_lim
        )
        fork = np.sort(emit[emit_leg == leg_idx])
        assert (fork <= comm[ptr[:-1]]).all(), (
            "fork emission must not be later than the leg's (Lemma 3)"
        )
        comm[ptr[:-1]] = fork
        procs.append(core.leg_base[leg_idx - 1] + proc - 1)
        starts.append(start)
        lengths.append(np.diff(ptr))
        comms.append(comm)
    if not procs:
        return Schedule(spider)
    proc = np.concatenate(procs)
    ptr = np.zeros(proc.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=ptr[1:])
    comm = np.concatenate(comms)
    # global ids in (first emission, str(processor)) order
    task = np.lexsort((core.str_rank[proc], comm[ptr[:-1]]))
    ptr, comm = csr_take(ptr, comm, task)
    return Schedule.from_columns(
        spider, proc[task], np.concatenate(starts)[task], ptr, comm
    )


#: the counters every spider solve reports, kernel or oracle.  The kernel's
#: values depend only on the problem: ``chain_vector_elements`` counts the
#: leg-sequence elements up to the furthest placement the solve's own probes
#: reach (:meth:`_SpiderCore.elements_to`), as a cold cache builds them.
SPIDER_STAT_KEYS = (
    "probes", "probes_short_circuited", "legs_scheduled", "legs_skipped",
    "fork_nodes", "chain_vector_elements", "alloc_candidates",
    "alloc_structure_ops",
)


def _spider_stats(
    probes: int, short_circuited: int, scheduled: int, skipped: int,
    fork_nodes: int, elements: int, candidates: int, ops: int,
) -> dict:
    return dict(zip(SPIDER_STAT_KEYS, (
        probes, short_circuited, scheduled, skipped, fork_nodes, elements,
        candidates, ops + 1,
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
    _require_int_spider(spider, t_lim)
    if t_lim < 0:
        raise PlatformError(f"Tlim must be >= 0, got {t_lim}")
    core = _spider_core(spider)
    probe = _spider_probe(core, t_lim, n, leg_caps)
    _STATS.inc("kernel_solves")
    sched = _spider_finish(core, t_lim, n, probe)
    leg_counts = {li + 1: c for li, c in enumerate(probe.counts)}
    stats = _spider_stats(
        1, 0,
        sum(1 for li in range(spider.arity) if not _cap_zero(li + 1, n, leg_caps)),
        sum(1 for li in range(spider.arity) if _cap_zero(li + 1, n, leg_caps)),
        int(probe.c_s.shape[0]),
        core.elements_to(probe.reach),
        int(probe.c_s.shape[0]),
        probe.ops,
    )
    return sched, stats, leg_counts


def _cap_zero(
    leg_idx: int, n: Optional[int], leg_caps: Optional[dict[int, int]]
) -> bool:
    """True when the oracle would skip this leg outright."""
    cap = n
    if leg_caps is not None and leg_idx in leg_caps:
        warm = leg_caps[leg_idx]
        cap = warm if cap is None else min(cap, warm)
    return cap == 0


def fast_spider_schedule(spider: Spider, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.spider.spider_schedule`.

    Same answer as the oracle's warm-started bisection over ``[shortest
    single task, T∞]``; the search (:func:`_least_horizon`) starts at the
    steady-state bound instead, with the oracle's warm caps and
    short-circuit on every probe."""
    from ..analysis.steady_state import spider_steady_state

    _require_int_spider(spider, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    if spider.is_chain():
        # leg 1's position k is spider processor index k − 1, as on the chain
        cols = fast_chain_schedule(spider.leg(1), n)[0].columns
        sched = Schedule.from_columns(
            spider, cols.proc, cols.start, cols.ptr, cols.comm
        )
        return sched, _spider_stats(0, 0, 0, 0, 0, 0, 0, 0)
    singles = [
        leg.route_latency(i) + leg.work(i)
        for leg in spider
        for i in range(1, leg.p + 1)
    ]
    hi = spider.t_infinity(n)
    core = _spider_core(spider)

    caps: Optional[dict[int, int]] = None
    reach = [0] * spider.arity  # furthest placement each leg's runs reach
    probes = short = 0
    legs_scheduled = legs_skipped = 0
    fork_nodes = candidates = ops_total = 0

    def fits(t: Time) -> Optional[_SpiderProbe]:
        nonlocal caps, reach, probes, short, fork_nodes, candidates, ops_total
        nonlocal legs_scheduled, legs_skipped
        reachable: Time = 0
        for leg_idx in range(1, spider.arity + 1):
            bound = _task_upper_bound(spider.leg(leg_idx), t)
            if caps is not None and leg_idx in caps:
                bound = min(bound, caps[leg_idx])
            reachable += bound
        if reachable < n:
            short += 1
            return None
        skipped = sum(
            1 for li in range(spider.arity) if _cap_zero(li + 1, n, caps)
        )
        probe = _spider_probe(core, t, n, caps)
        probes += 1
        legs_skipped += skipped
        legs_scheduled += spider.arity - skipped
        fork_nodes += int(probe.c_s.shape[0])
        candidates += int(probe.c_s.shape[0])
        ops_total += probe.ops
        reach = list(map(max, reach, probe.reach))
        if probe.n_accepted < n:
            return None
        # per-leg counts are monotone in t, so these caps never bind a
        # lower probe: they only let it skip legs and short-circuit
        caps = {li + 1: c for li, c in enumerate(probe.counts)}
        return probe

    found = _least_horizon(
        fits, min(singles),
        _steady_start(n, spider_steady_state(spider).throughput),
        max(singles), hi,
    )
    assert found is not None, "T∞ is a valid horizon"
    t_final, final = found
    _STATS.inc("kernel_solves")
    sched = _spider_finish(core, t_final, n, final)
    stats = _spider_stats(
        probes, short, legs_scheduled, legs_skipped,
        fork_nodes, core.elements_to(reach), candidates, ops_total,
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


# ---------------------------------------------------------------------------
# Cross-process seeding (repro batch --executor processes)
# ---------------------------------------------------------------------------


def export_solve_cores() -> list[tuple]:
    """Snapshot the cached chain sequences as picklable value tuples.

    Star/spider cores hold numpy state rebuilt in milliseconds; the chain
    sequences are the part worth shipping across a fork boundary (they
    embody the per-leg constructions).  Workers re-derive everything else.
    """
    with _LOCK:
        return [
            (key, len(seq)) for key, seq in _SEQ_CACHE.items()
        ]


def seed_solve_cores(entries: list[tuple]) -> int:
    """Rebuild exported chain sequences in this process; returns how many."""
    built = 0
    for (c, w), length in entries:
        if length <= 0:
            continue
        seq = _chain_seq(Chain(c, w))
        seq.ensure_len(length)
        built += 1
    return built
