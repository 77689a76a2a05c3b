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
platform core and shared by every bisection probe; a probe compresses the
prefix masks, runs the block allocator, and — except for the final
construction — never builds a single Python object.

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

try:  # numpy is the array substrate; without it the kernels stand down
    import numpy as np

    _HAVE_NUMPY = True
except Exception:  # pragma: no cover - the toolchain bakes numpy in
    np = None  # type: ignore[assignment]
    _HAVE_NUMPY = False

from ..obs import metrics as _obs
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from . import chain as _chain_oracle
from . import fork as _fork_oracle
from . import spider as _spider_oracle
from .chain import ChainRunStats, _precedes, _task_upper_bound
from .commvector import CommVector
from .fork import AllocStats
from .schedule import Schedule, TaskAssignment
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


def _require_numpy() -> None:
    _require(_HAVE_NUMPY, "numpy unavailable")


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
    0, in O(p) per task instead of the oracle's O(p²).

    Write ``S_j = c_1 + ... + c_j`` (prefix latencies, ``S_0 = 0``) and,
    for the current hull/occupancy state,

    * ``E_m = (h_m − c_m) − S_{m−1}``            (hull-limited term at hop m)
    * ``F_m = min(o_m − w_m − c_m, h_m − c_m) − S_{m−1}``   (target term at m)

    Unrolling the oracle's recurrence
    ``ᵏC_j = min(ᵏC_{j+1} − c_j, h_j − c_j)`` gives
    ``ᵏC_j = S_{j−1} + min(F_k, min_{j ≤ m < k} E_m)``, so the first
    emission of the candidate for target ``k`` is
    ``min(F_k, prefix-min of E)``.  The ≺-greatest candidate maximises the
    first emission (Definition 3 compares element-wise), so the winner is
    the argmax of that expression — one O(p) sweep.  Ties on the first
    emission (common on homogeneous chains) are resolved exactly as in the
    paper, by materialising the tied vectors and comparing with ≺.
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

    def first_emissions(self) -> list[Time]:
        """``ᵏC_1`` for every target k (1-based list, index 0 unused)."""
        chain, h, o, S = self.chain, self.h, self.o, self.prefix
        c, w = chain.c, chain.w
        out: list[Time] = [0] * (chain.p + 1)
        run: Time = float("inf")  # prefix-min of E_m, m < k
        for k in range(1, chain.p + 1):
            f_k = min(o[k] - w[k - 1] - c[k - 1], h[k] - c[k - 1]) - S[k - 1]
            out[k] = min(f_k, run)
            e_k = (h[k] - c[k - 1]) - S[k - 1]
            run = e_k if e_k < run else run
        return out

    def full_vector(self, k: int) -> tuple[Time, ...]:
        """Materialise ᵏC via the suffix-min closed form (O(k))."""
        chain, h, o, S = self.chain, self.h, self.o, self.prefix
        c, w = chain.c, chain.w
        run: Time = min(o[k] - w[k - 1] - c[k - 1], h[k] - c[k - 1]) - S[k - 1]
        vec: list[Time] = [0] * k
        vec[k - 1] = S[k - 1] + run
        for j in range(k - 1, 0, -1):
            e_j = (h[j] - c[j - 1]) - S[j - 1]
            run = e_j if e_j < run else run
            vec[j - 1] = S[j - 1] + run
        return tuple(vec)

    def choose(self) -> tuple[Time, ...]:
        """The ≺-greatest candidate, via first-emission argmax + tie check."""
        firsts = self.first_emissions()
        best_first = max(firsts[1:])
        tied = [k for k in range(1, self.chain.p + 1) if firsts[k] == best_first]
        best = self.full_vector(tied[0])
        for k in tied[1:]:
            cand = self.full_vector(k)
            if _precedes(best, cand):
                best = cand
        return best

    def commit(self, vector: tuple[Time, ...]) -> tuple[int, Time]:
        k = len(vector)
        start = self.o[k] - self.chain.w[k - 1]
        self.o[k] = start
        for j in range(1, k + 1):
            self.h[j] = vector[j - 1]
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
        "max_off", "elements", "lock",
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
        self.elements = 0            # vector elements materialised (stats)

    def __len__(self) -> int:
        return len(self.procs)

    def _extend_one(self) -> None:
        vector = self.state.choose()
        proc, start = self.state.commit(vector)
        self.procs.append(proc)
        self.soff.append(-start)
        self.voff.extend(-v for v in vector)
        self.vbase.append(len(self.voff))
        first = -vector[0]
        self.off.append(first)
        prev = self.max_off[-1] if self.max_off else first
        self.max_off.append(first if first > prev else prev)
        self.elements += len(vector)

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

    def assignment(self, i: int, task: int, horizon: Time) -> TaskAssignment:
        lo, hi = self.vbase[i], self.vbase[i + 1]
        times = [horizon - v for v in self.voff[lo:hi]]
        return TaskAssignment(
            task, self.procs[i], horizon - self.soff[i], CommVector(times)
        )

    def deadline_schedule(
        self, t_lim: Time, limit: int
    ) -> tuple[Schedule, int]:
        total = self.count_within(t_lim, limit)
        placements = {
            total - i: self.assignment(i, total - i, t_lim)
            for i in range(total)
        }
        return Schedule(self.chain, placements), total

    def makespan_schedule(self, n: int) -> Schedule:
        # horizon cancels: the oracle shifts the first emission
        # (placement n−1) to zero, so materialise at horizon off[n−1]
        self.ensure_len(n)
        horizon = self.off[n - 1]
        placements = {
            n - i: self.assignment(i, n - i, horizon) for i in range(n)
        }
        return Schedule(self.chain, placements)


def _chain_seq(chain: Chain) -> _ChainSeq:
    key = _chain_key(chain)
    seq = _cache_get(_SEQ_CACHE, key)
    _STATS.inc("seq_misses" if seq is None else "seq_hits")
    if seq is None:
        seq = _cache_put(_SEQ_CACHE, key, _ChainSeq(chain), SEQ_CACHE_CAPACITY)
    return seq


def _require_int_chain(chain: Chain, t_lim: Optional[Time]) -> None:
    _require_numpy()
    _require(
        all(_is_int(v) for v in (*chain.c, *chain.w)),
        "chain kernel needs an integer platform",
    )
    _require(t_lim is None or _is_int(t_lim), "chain kernel needs integer t_lim")


def _chain_stats(seq: _ChainSeq, placed: int) -> dict:
    return {
        "tasks_placed": placed,
        "candidates_evaluated": placed * seq.chain.p,
        "vector_elements": seq.elements,
        "comparisons": 0,
    }


def fast_chain_schedule(chain: Chain, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.chain.schedule_chain`."""
    _require_int_chain(chain, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    seq = _chain_seq(chain)
    _STATS.inc("kernel_solves")
    return seq.makespan_schedule(n), _chain_stats(seq, n)


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
    return sched, _chain_stats(seq, placed)


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
    _require_numpy()
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
    # group per child in accepted order (dict preserves first appearance),
    # stack ASAP, then number tasks in global emission order
    per_child: dict[int, list[tuple[Time, Time]]] = {}
    child_l = child.tolist()
    emit_l = emissions.tolist()
    for ch, emit in zip(child_l, emit_l):
        per_child.setdefault(ch, []).append(emit)
    schedule = Schedule(core.star)
    order: list[tuple[Time, int, Time]] = []
    for child_idx, emits in per_child.items():
        spec = core.star.child(child_idx)
        emits.sort()
        proc_free: Time = 0
        for emit in emits:
            arrival = emit + spec.c
            start = arrival if arrival > proc_free else proc_free
            proc_free = start + spec.w
            order.append((emit, child_idx, start))
    order.sort()
    for task_id, (emit, child_idx, start) in enumerate(order, start=1):
        schedule.add(
            TaskAssignment(task_id, child_idx, start, CommVector([emit]))
        )
    return schedule


def fast_star_schedule(star: Star, n: int) -> tuple[Schedule, dict]:
    """Kernel of :func:`repro.core.fork.fork_schedule` (makespan)."""
    _require_int_star(star, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    lo = min(ch.c + ch.w for ch in star.children)
    best = min(star.children, key=lambda ch: ch.c + ch.w + (n - 1) * ch.m)
    hi = best.c + best.w + (n - 1) * best.m
    core = _star_core(star)
    ops_total = 0
    candidates_total = 0

    def count_at(t: Time) -> int:
        nonlocal ops_total, candidates_total
        _, c_s, _, slot, accepted, ops = _star_probe(core, t, n)
        ops_total += ops
        candidates_total += int(c_s.shape[0])
        return int(accepted.sum())

    if count_at(hi) < n:  # pragma: no cover - hi is a valid horizon
        raise PlatformError(f"horizon {hi} cannot fit {n} tasks")
    while lo < hi:
        mid = (lo + hi) // 2
        if count_at(mid) >= n:
            hi = mid
        else:
            lo = mid + 1
    child_s, c_s, w_s, slot, accepted, ops = _star_probe(core, lo, n)
    ops_total += ops
    candidates_total += int(c_s.shape[0])
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
        "cand_c", "cand_w", "scan", "slot_rank",
    )

    def __init__(self, spider: Spider):
        self.spider = spider
        self.lock = threading.RLock()
        self.seqs = [_chain_seq(leg) for leg in spider.legs]
        self.c1 = [leg.latency(1) for leg in spider.legs]
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
    ) -> list[int]:
        """Per-leg task counts of the capped deadline chain runs."""
        counts = []
        for li, seq in enumerate(self.seqs):
            cap = n
            if leg_caps is not None and (li + 1) in leg_caps:
                warm = leg_caps[li + 1]
                cap = warm if cap is None else min(cap, warm)
            if cap == 0:
                counts.append(0)
                continue
            limit = cap if cap is not None else _task_upper_bound(
                self.spider.leg(li + 1), t_lim
            )
            counts.append(seq.count_within(t_lim, limit))
        return counts

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
    _require_numpy()
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

    __slots__ = ("counts", "leg_s", "c_s", "w_s", "slot", "accepted", "ops")

    def __init__(self, counts, leg_s, c_s, w_s, slot, accepted, ops):
        self.counts = counts
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
    counts = core.counts_at(t_lim, n, leg_caps)
    leg_s, c_s, w_s, slot = core.present(counts)
    d_s = t_lim - w_s
    accepted, ops = _run_greedy(c_s, d_s, slot)
    _STATS.inc("kernel_probes")
    return _SpiderProbe(counts, leg_s, c_s, w_s, slot, accepted, ops)


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
    # revert (Lemma 3): per leg, suffix placements get the fork emissions
    # in ascending order; then global ids in emission order
    assignments: list[tuple[Time, str, tuple, Time, list]] = []
    for leg_idx in sorted(per_leg_count):
        count = per_leg_count[leg_idx]
        if count == 0:  # pragma: no cover - zero-count legs never inserted
            continue
        li = leg_idx - 1
        seq = core.seqs[li]
        leg_emissions = np.sort(emit[emit_leg == leg_idx]).tolist()
        # suffix task j (ascending ids) is placement idx = count−1−j
        for j, fork_emit in enumerate(leg_emissions):
            i = count - 1 - j
            lo, hi = seq.vbase[i], seq.vbase[i + 1]
            times = [t_lim - v for v in seq.voff[lo:hi]]
            assert fork_emit <= times[0] + 1e-12, (
                "fork emission must not be later than the leg's (Lemma 3)"
            )
            times[0] = fork_emit
            proc = (leg_idx, seq.procs[i])
            start = t_lim - seq.soff[i]
            assignments.append((times[0], str(proc), proc, start, times))
    assignments.sort(key=lambda a: (a[0], a[1]))
    sched = Schedule(spider)
    for task_id, (_, _, proc, start, times) in enumerate(
        assignments, start=1
    ):
        sched.add(TaskAssignment(task_id, proc, start, CommVector(times)))
    return sched


#: the counters every spider solve reports, kernel or oracle.
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
        sum(seq.elements for seq in core.seqs),
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
    """Kernel of :func:`repro.core.spider.spider_schedule`."""
    _require_int_spider(spider, None)
    if n < 1:
        raise PlatformError(f"need n >= 1 tasks, got {n}")
    if spider.is_chain():
        chain_sched, _ = fast_chain_schedule(spider.leg(1), n)
        sched = Schedule(spider)
        for a in chain_sched:
            sched.add(
                TaskAssignment(a.task, (1, a.processor), a.start, a.comms)
            )
        return sched, _spider_stats(0, 0, 0, 0, 0, 0, 0, 0)
    _require(spider.is_integer(), "spider kernel needs integer bisection")
    lo = min(
        leg.route_latency(i) + leg.work(i)
        for leg in spider
        for i in range(1, leg.p + 1)
    )
    hi = spider.t_infinity(n)
    core = _spider_core(spider)

    caps: Optional[dict[int, int]] = None
    probes = short = 0
    legs_scheduled = legs_skipped = 0
    fork_nodes = candidates = ops_total = 0

    def probe_at(t: Time) -> Optional[_SpiderProbe]:
        nonlocal caps, probes, short, fork_nodes, candidates, ops_total
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
        if probe.n_accepted >= n:
            caps = {li + 1: c for li, c in enumerate(probe.counts)}
        return probe

    lo_i, hi_i = int(lo), int(hi)
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        res = probe_at(mid)
        if res is not None and res.n_accepted >= n:
            hi_i = mid
        else:
            lo_i = mid + 1
    final = probe_at(hi_i)
    assert final is not None and final.n_accepted >= n
    _STATS.inc("kernel_solves")
    sched = _spider_finish(core, hi_i, n, final)
    stats = _spider_stats(
        probes, short, legs_scheduled, legs_skipped,
        fork_nodes,
        sum(seq.elements for seq in core.seqs),
        candidates, ops_total,
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
