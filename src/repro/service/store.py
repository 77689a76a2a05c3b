"""Content-addressed solution store: in-memory LRU over persistent SQLite.

Keys are problem fingerprints (:func:`repro.service.canon.problem_fingerprint`);
values are serialised :class:`~repro.solve.problem.Solution` records in
**canonical platform coordinates** (the service solves the canonical
representative, so one entry serves every relabeled-isomorphic request).

Two tiers:

* a bounded in-memory LRU of live ``Solution`` objects — the hot path,
  no deserialisation on hit.  An integer schedule costs 8 bytes per
  processor index, start, offset and comm time of each task here, plus
  its rows' JSON text once it has been served, and every rebind of it
  shares both;
* an optional SQLite file of JSON payloads (``path=None`` disables it) —
  survives restarts, backs multi-process batch runs, and re-feeds the
  memory tier on miss.

**Nothing corrupt is ever served**: every write replay-validates the
solution (:meth:`~repro.solve.problem.Solution.validate`) before either
tier accepts it; a solution that fails replay raises and is not stored.
A rebind's check may reuse that scan's verdict, kept on the columns: it
shares the read-only columns and compiled arrays the scan read, after
checking each key on the request platform, so a second scan would reach
the same makespan.  Replaced columns carry no verdict and scan again.
The read path holds the same line against *external* damage — a SQLite row
that no longer deserialises or replays (truncated file, bit rot, foreign
writer) is quarantined and the lookup degrades to a miss; a locked or
corrupt database file degrades the store to its memory tier.  Neither
condition ever raises through the serving loop (``corrupt_rows`` /
``sqlite_errors`` in :meth:`SolutionStore.stats` count them).

All operations are thread-safe (one lock; the SQLite connection is shared
across threads) and counted: hits per tier, misses, writes, memory
evictions and validation rejections are exposed via :meth:`SolutionStore.stats`.

The SQLite tier opens in **WAL mode** with a ``busy_timeout``: a worker
process SIGKILLed mid-``put`` leaves at worst an uncommitted WAL tail,
which the next opener discards on first access — never a hot rollback
journal that stalls the replacement worker (the sharded fleet's
supervisor restarts workers onto the same store file).
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..io.json_io import solution_from_dict, solution_to_dict
from ..obs import metrics as _obs
from ..solve.problem import Solution

__all__ = ["SolutionStore", "StoreStats"]


@dataclass
class StoreStats:
    """Operation counters of one :class:`SolutionStore`."""

    memory_hits: int = 0
    sqlite_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    rejected: int = 0
    #: SQLite rows whose payload would not deserialise or replay —
    #: quarantined on read and counted here, never raised to the caller.
    corrupt_rows: int = 0
    #: SQLite-level failures (locked / corrupt database file) the store
    #: degraded around by serving the memory tier only.
    sqlite_errors: int = 0

    def record(self, name: str, n: int = 1) -> None:
        """Bump one counter field, mirroring it into the process-wide obs
        registry as ``store.<name>`` (per-instance fields stay canonical —
        several stores can coexist in one process)."""
        setattr(self, name, getattr(self, name) + n)
        _obs.counter(f"store.{name}").inc(n)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.sqlite_hits

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "sqlite_hits": self.sqlite_hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "corrupt_rows": self.corrupt_rows,
            "sqlite_errors": self.sqlite_errors,
            "hit_rate": round(self.hit_rate(), 4),
        }


@dataclass
class SolutionStore:
    """Two-tier fingerprint → solution cache (see module docstring).

    ``path=None`` keeps the store memory-only; a path (or ``":memory:"``)
    adds the persistent SQLite tier.  ``capacity`` bounds the memory tier
    (LRU eviction; evicted entries stay in SQLite when it exists).
    """

    path: Optional[Union[str, Path]] = None
    capacity: int = 256
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"store capacity must be >= 1, got {self.capacity}")
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Solution] = OrderedDict()
        self._db: Optional[sqlite3.Connection] = None
        if self.path is not None:
            # one shared connection; our lock serialises access, and the
            # busy timeout rides out other *processes* on the same file
            self._db = sqlite3.connect(
                str(self.path), check_same_thread=False, timeout=30.0
            )
            try:
                # WAL survives a SIGKILLed writer without leaving a hot
                # rollback journal behind: a replacement worker opening the
                # same file recovers the log on first read instead of
                # stalling on (or replaying) a stale journal.  busy_timeout
                # backs the same promise at the statement level when two
                # fleet workers ever share one file.  ":memory:" databases
                # simply report "memory" here — harmless.
                self._db.execute("PRAGMA journal_mode=WAL")
                self._db.execute("PRAGMA busy_timeout=30000")
                self._db.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                self.stats.record("sqlite_errors")
            with self._db:
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS solutions ("
                    " fingerprint TEXT PRIMARY KEY,"
                    " solver TEXT NOT NULL,"
                    " payload TEXT NOT NULL)"
                )
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS quarantine ("
                    " fingerprint TEXT PRIMARY KEY,"
                    " reason TEXT NOT NULL,"
                    " payload TEXT)"
                )

    # -- lookup --------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Solution]:
        """The cached canonical solution under ``fingerprint``, or ``None``.

        A SQLite hit is deserialised and replay-checked before being
        promoted into the memory tier; a row that fails either check is
        **quarantined** (moved to the quarantine table, counted in
        ``corrupt_rows``) and the lookup degrades to a miss instead of
        raising through the serving loop.  SQLite-level
        failures (locked or corrupt database file) likewise degrade to the
        memory tier (``sqlite_errors``).  Callers must not mutate the
        returned object (a rebind shares its read-only columns)."""
        with self._lock:
            hit = self._memory.get(fingerprint)
            if hit is not None:
                self._memory.move_to_end(fingerprint)
                self.stats.record("memory_hits")
                return hit
            if self._db is not None:
                try:
                    row = self._db.execute(
                        "SELECT payload FROM solutions WHERE fingerprint = ?",
                        (fingerprint,),
                    ).fetchone()
                except sqlite3.Error:
                    self.stats.record("sqlite_errors")
                    row = None
                if row is not None:
                    try:
                        sol = solution_from_dict(json.loads(row[0]))
                        sol.validate()
                    except Exception as exc:
                        self.stats.record("corrupt_rows")
                        self._quarantine_locked(
                            fingerprint, f"{type(exc).__name__}: {exc}", row[0]
                        )
                    else:
                        self.stats.record("sqlite_hits")
                        return self._admit(fingerprint, sol)
            self.stats.record("misses")
            return None

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
            if self._db is None:
                return False
            try:
                row = self._db.execute(
                    "SELECT 1 FROM solutions WHERE fingerprint = ?", (fingerprint,)
                ).fetchone()
            except sqlite3.Error:
                self.stats.record("sqlite_errors")
                return False
            return row is not None

    def __len__(self) -> int:
        """Distinct entries across both tiers."""
        with self._lock:
            if self._db is None:
                return len(self._memory)
            try:
                (count,) = self._db.execute(
                    "SELECT COUNT(*) FROM solutions"
                ).fetchone()
            except sqlite3.Error:
                self.stats.record("sqlite_errors")
                return len(self._memory)
            return max(count, len(self._memory))

    # -- write ---------------------------------------------------------------

    def put(self, fingerprint: str, solution: Solution) -> None:
        """Admit ``solution`` (canonical coordinates) under ``fingerprint``.

        Replay-validates first: the schedule is checked against the
        model's rules and its makespan bit-exactly.
        :class:`~repro.solve.problem.ValidationError` propagates and the
        store stays unchanged."""
        try:
            solution.validate()
        except Exception:
            with self._lock:
                self.stats.record("rejected")
            raise
        # only the SQLite tier stores text: a memory-only store (the
        # ``repro serve`` default) never pays for encoding the payload
        payload = (None if self._db is None
                   else json.dumps(solution_to_dict(solution), sort_keys=True))
        with self._lock:
            self.stats.record("writes")
            if self._db is not None:  # open now, so open above: payload is set
                try:
                    with self._db:
                        self._db.execute(
                            "INSERT OR REPLACE INTO solutions"
                            " (fingerprint, solver, payload) VALUES (?, ?, ?)",
                            (fingerprint, solution.solver, payload),
                        )
                except sqlite3.Error:
                    # locked / corrupt file: degrade to memory-only for
                    # this write rather than crash the serving loop
                    self.stats.record("sqlite_errors")
            self._admit(fingerprint, solution)

    def _admit(self, fingerprint: str, solution: Solution) -> Solution:
        """Insert a fresh entry into the memory LRU, evicting the coldest
        past capacity.  Caller holds the lock."""
        self._memory[fingerprint] = solution
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.record("evictions")
        return solution

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, fingerprint: str, reason: str) -> None:
        """Evict ``fingerprint`` from both tiers and park its SQLite row in
        the quarantine table (best effort — quarantining never raises)."""
        with self._lock:
            self._quarantine_locked(fingerprint, reason, None)

    def _quarantine_locked(
        self, fingerprint: str, reason: str, payload: Optional[str]
    ) -> None:
        """Caller holds the lock.  ``payload`` is the raw row text when the
        caller already read it (read-path corruption); otherwise it is
        fetched so the evidence survives the eviction."""
        self._memory.pop(fingerprint, None)
        if self._db is None:
            return
        try:
            if payload is None:
                row = self._db.execute(
                    "SELECT payload FROM solutions WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
                payload = row[0] if row is not None else None
            with self._db:
                self._db.execute(
                    "INSERT OR REPLACE INTO quarantine"
                    " (fingerprint, reason, payload) VALUES (?, ?, ?)",
                    (fingerprint, reason, payload),
                )
                self._db.execute(
                    "DELETE FROM solutions WHERE fingerprint = ?", (fingerprint,)
                )
        except sqlite3.Error:
            self.stats.record("sqlite_errors")

    def quarantined(self) -> list[tuple[str, str]]:
        """``(fingerprint, reason)`` of every quarantined row (empty when
        memory-only or when SQLite itself is unreadable)."""
        with self._lock:
            if self._db is None:
                return []
            try:
                return [
                    (f, r)
                    for f, r in self._db.execute(
                        "SELECT fingerprint, reason FROM quarantine"
                        " ORDER BY fingerprint"
                    )
                ]
            except sqlite3.Error:
                self.stats.record("sqlite_errors")
                return []

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def __enter__(self) -> "SolutionStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
