"""The content-addressed solution store (repro.service.store)."""

import pytest

from repro.core.schedule import Schedule, TaskAssignment
from repro.platforms.chain import Chain
from repro.platforms.spider import Spider
from repro.service.canon import problem_fingerprint
from repro.service.store import SolutionStore
from repro.solve import Problem, solve
from repro.solve.problem import ValidationError


def solved(n: int = 5):
    problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=n)
    return problem_fingerprint(problem), solve(problem)


class TestMemoryTier:
    def test_miss_then_hit(self):
        store = SolutionStore()
        fp, sol = solved()
        assert store.get(fp) is None
        store.put(fp, sol)
        assert store.get(fp) is sol
        assert store.stats.misses == 1
        assert store.stats.memory_hits == 1
        assert store.stats.writes == 1
        assert fp in store
        assert len(store) == 1

    def test_lru_eviction_order(self):
        store = SolutionStore(capacity=2)
        entries = [solved(n) for n in (3, 4, 5)]
        for fp, sol in entries[:2]:
            store.put(fp, sol)
        store.get(entries[0][0])  # touch: entry 0 is now the hottest
        store.put(*entries[2])    # evicts entry 1, not 0
        assert entries[0][0] in store
        assert entries[1][0] not in store
        assert entries[2][0] in store
        assert store.stats.evictions == 1

    def test_hit_rate(self):
        store = SolutionStore()
        fp, sol = solved()
        store.get(fp)
        store.put(fp, sol)
        store.get(fp)
        assert store.stats.hit_rate() == 0.5
        assert store.stats.to_dict()["hit_rate"] == 0.5


class TestSqliteTier:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "solutions.sqlite"
        fp, sol = solved()
        with SolutionStore(path=path) as store:
            store.put(fp, sol)
        with SolutionStore(path=path) as store:
            cached = store.get(fp)
            assert cached is not None
            assert cached.makespan == sol.makespan
            assert store.stats.sqlite_hits == 1
            # the sqlite hit was promoted: second read is a memory hit
            assert store.get(fp) is cached
            assert store.stats.memory_hits == 1

    def test_eviction_falls_back_to_sqlite(self, tmp_path):
        store = SolutionStore(path=tmp_path / "s.sqlite", capacity=1)
        a, b = solved(3), solved(4)
        store.put(*a)
        store.put(*b)  # evicts a from memory; sqlite still holds it
        assert store.stats.evictions == 1
        assert store.get(a[0]) is not None
        assert store.stats.sqlite_hits == 1

    def test_len_counts_persistent_entries(self, tmp_path):
        store = SolutionStore(path=tmp_path / "s.sqlite", capacity=1)
        store.put(*solved(3))
        store.put(*solved(4))
        assert len(store) == 2


class TestEntriesAndPayloads:
    def test_memory_only_put_never_encodes(self, monkeypatch):
        import repro.service.store as store_module

        def encode(solution):
            raise AssertionError("a memory-only put encoded its payload")

        monkeypatch.setattr(store_module, "solution_to_dict", encode)
        store = SolutionStore()
        fp, sol = solved()
        store.put(fp, sol)
        assert store.get(fp) is sol

    def test_eviction_and_quarantine_drop_the_memory_entry(self, tmp_path):
        store = SolutionStore(path=tmp_path / "s.sqlite", capacity=1)
        a, b = solved(3), solved(4)
        store.put(*a)
        assert store.get(a[0]) is a[1]
        store.put(*b)  # evicts a; its SQLite row comes back as a new object
        again = store.get(a[0])
        assert again is not a[1] and again.schedule == a[1].schedule
        store.quarantine(a[0], "operator request")
        assert store.get(a[0]) is None
        store.put(*a)
        assert store.get(a[0]) is a[1]


class TestValidationOnWrite:
    def test_corrupt_solution_rejected(self):
        store = SolutionStore()
        fp, sol = solved()
        # corrupt the claimed schedule: shift one start to overlap its CPU
        task = sol.schedule[2]
        sol.schedule = Schedule(sol.schedule.platform, {
            **sol.schedule.assignments,
            2: TaskAssignment(task.task, task.processor, task.start - 2,
                              task.comms),
        })
        with pytest.raises(ValidationError):
            store.put(fp, sol)
        assert store.stats.rejected == 1
        assert store.stats.writes == 0
        assert fp not in store

    def test_deadline_miss_rejected(self):
        spider = Spider([Chain([2, 3], [3, 5])])
        problem = Problem(spider, "deadline", t_lim=30)
        solution = solve(problem)
        # claim a deadline the schedule cannot hold
        object.__setattr__(solution.problem, "t_lim", solution.makespan - 1)
        with pytest.raises(ValidationError):
            SolutionStore().put("fp", solution)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SolutionStore(capacity=0)


class TestDamageDegradation:
    """External SQLite damage degrades to a miss / the memory tier —
    never an exception through the serving loop."""

    def seeded(self, path):
        fp, sol = solved()
        with SolutionStore(path=path) as store:
            store.put(fp, sol)
        return fp

    def test_truncated_row_is_quarantined(self, tmp_path):
        import sqlite3

        path = tmp_path / "s.sqlite"
        fp = self.seeded(path)
        with sqlite3.connect(path) as db:  # a foreign writer bit-rots the row
            db.execute(
                "UPDATE solutions SET payload = substr(payload, 1, 25)"
            )
        with SolutionStore(path=path) as store:
            assert store.get(fp) is None  # degrades to a miss, no raise
            assert store.stats.corrupt_rows == 1
            assert store.stats.misses == 1
            (entry,) = store.quarantined()
            assert entry[0] == fp and "JSONDecodeError" in entry[1]
            # the bad row is gone: the next read is a plain miss
            assert store.get(fp) is None
            assert store.stats.corrupt_rows == 1

    def test_row_that_parses_but_fails_replay_is_quarantined(self, tmp_path):
        import json as _json
        import sqlite3

        path = tmp_path / "s.sqlite"
        fp = self.seeded(path)
        with sqlite3.connect(path) as db:
            (payload,) = db.execute(
                "SELECT payload FROM solutions"
            ).fetchone()
            doc = _json.loads(payload)
            doc["schedule"]["assignments"][0]["start"] = 0  # CPU overlap
            db.execute("UPDATE solutions SET payload = ?",
                       (_json.dumps(doc),))
        with SolutionStore(path=path) as store:
            assert store.get(fp) is None
            assert store.stats.corrupt_rows == 1
            (entry,) = store.quarantined()
            assert "ValidationError" in entry[1]

    def test_quarantine_keeps_the_evidence(self, tmp_path):
        import json
        import sqlite3

        from repro.io.json_io import solution_to_dict

        path = tmp_path / "s.sqlite"
        fp = self.seeded(path)
        with SolutionStore(path=path) as store:
            store.quarantine(fp, "operator request")
            assert store.get(fp) is None
        with sqlite3.connect(path) as db:
            (payload,) = db.execute(
                "SELECT payload FROM quarantine WHERE fingerprint = ?",
                (fp,),
            ).fetchone()
        # the original row text survived the eviction, in full
        expected = json.dumps(solution_to_dict(solved()[1]))
        assert json.loads(payload) == json.loads(expected)

    def test_dead_connection_degrades_to_memory_tier(self, tmp_path):
        store = SolutionStore(path=tmp_path / "s.sqlite")
        fp, sol = solved()
        store.put(fp, sol)
        store._db.close()  # simulate a yanked / corrupt database file
        # memory tier still serves
        assert store.get(fp) is sol
        # sqlite paths degrade instead of raising
        other_fp, other = solved(7)
        assert store.get(other_fp) is None
        store.put(other_fp, other)
        assert store.get(other_fp) is other
        assert other_fp in store
        assert len(store) == 2  # falls back to the memory count
        assert store.quarantined() == []
        assert store.stats.sqlite_errors >= 3
        store._db = None  # close() must not re-close

    def test_stats_expose_damage_counters(self):
        d = SolutionStore().stats.to_dict()
        assert d["corrupt_rows"] == 0 and d["sqlite_errors"] == 0

    def test_concurrent_readers_of_damaged_row_quarantine_once(
        self, tmp_path
    ):
        """Two threads racing onto the same bit-rotted row: neither may
        raise, and the evidence lands in quarantine exactly once."""
        import sqlite3
        import threading

        path = tmp_path / "s.sqlite"
        fp = self.seeded(path)
        with sqlite3.connect(path) as db:
            db.execute(
                "UPDATE solutions SET payload = substr(payload, 1, 25)"
            )
        with SolutionStore(path=path) as store:
            barrier = threading.Barrier(2)
            results, errors = [], []

            def read():
                barrier.wait()
                try:
                    results.append(store.get(fp))
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert errors == []
            assert results == [None, None]  # both degrade to a miss
            assert store.stats.corrupt_rows == 1
            assert len(store.quarantined()) == 1


# ---------------------------------------------------------------------------
# Durability: WAL mode and crash recovery
# ---------------------------------------------------------------------------


class TestDurabilityUnderCrash:
    def test_sqlite_tier_runs_in_wal_mode_with_busy_timeout(self, tmp_path):
        with SolutionStore(path=tmp_path / "s.sqlite") as store:
            (mode,) = store._db.execute("PRAGMA journal_mode").fetchone()
            (busy,) = store._db.execute("PRAGMA busy_timeout").fetchone()
        assert mode == "wal"
        assert busy == 30000

    def test_sigkill_mid_write_loses_no_committed_rows(self, tmp_path):
        """SIGKILL a writer mid-``put`` loop; the reopened store must serve
        every row the writer acknowledged, with zero corrupt rows."""
        import os
        import signal
        import sqlite3
        import subprocess
        import sys
        import time

        path = tmp_path / "s.sqlite"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        writer = (
            "import sys\n"
            "from repro.platforms.chain import Chain\n"
            "from repro.service.store import SolutionStore\n"
            "from repro.solve import Problem, solve\n"
            "sol = solve(Problem(Chain([2, 3], [3, 5]), 'makespan', n=5))\n"
            f"store = SolutionStore(path={str(path)!r})\n"
            "i = 0\n"
            "while True:\n"
            "    store.put(f'fp{i:05d}', sol)\n"
            "    i += 1\n"
            "    print(i, flush=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", writer],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        acked = 0
        try:
            deadline = time.monotonic() + 60
            while acked < 25:
                line = proc.stdout.readline()
                assert line, "writer died before acknowledging 25 puts"
                acked = int(line)
                assert time.monotonic() < deadline
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()

        # every acknowledged put was a committed transaction: all of them
        # survive the kill (later, unacknowledged ones may too)
        with sqlite3.connect(path) as db:
            rows = [
                fp for (fp,) in db.execute(
                    "SELECT fingerprint FROM solutions"
                )
            ]
        assert len(rows) >= acked
        with SolutionStore(path=path) as store:
            for fp in rows:
                assert store.get(fp) is not None, f"lost row {fp}"
            assert store.stats.corrupt_rows == 0
            assert store.quarantined() == []
