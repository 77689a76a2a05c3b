"""The sharded fleet: hash ring, router semantics, supervised workers.

Unit tests drive the :class:`~repro.service.shard.ShardRouter` against
stub workers (no subprocesses), so every failure-handling branch —
load shedding, re-dispatch on death, exhaustion — is pinned exactly.
The end-to-end tests boot a real supervised fleet (worker subprocesses
over stdio pipes) and exercise the contract live: routing, caching,
SIGKILL failover, restart, merged fleet stats, and a miniature chaos
run that must report zero invariant violations.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.types import ReproError
from repro.io.json_io import problem_to_dict, solution_to_dict
from repro.platforms.chain import Chain
from repro.platforms.generators import random_spider
from repro.platforms.spider import Spider
from repro.service import supervisor as supervisor_module
from repro.service.shard import HashRing, ShardRouter
from repro.service.supervisor import (
    Supervisor,
    WorkerConfig,
    WorkerDied,
    WorkerProcess,
)
from repro.solve import Problem, solve

SRC = str(Path(__file__).resolve().parents[1] / "src")


def solve_line(problem, rid="t1"):
    return json.dumps({"id": rid, "op": "solve",
                       "problem": problem_to_dict(problem)})


def spider_problem(seed=1, n=16):
    return Problem(random_spider(4, 3, seed=seed), "makespan", n=n)


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_preference_covers_all_shards_distinctly(self):
        ring = HashRing()
        for shard in range(5):
            ring.add(shard)
        pref = ring.preference("some-fingerprint")
        assert sorted(pref) == [0, 1, 2, 3, 4]
        assert pref[0] == ring.owner("some-fingerprint")

    def test_routing_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for shard in range(4):
            a.add(shard)
            b.add(shard)
        keys = [f"fp{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_remove_moves_only_the_dead_shards_keys(self):
        ring = HashRing()
        for shard in range(4):
            ring.add(shard)
        keys = [f"fp{i}" for i in range(400)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove(2)
        for k in keys:
            if before[k] != 2:
                # bounded rebalancing: a surviving shard keeps its keys
                assert ring.owner(k) == before[k]
            else:
                assert ring.owner(k) != 2

    def test_failover_order_is_the_preference_walk(self):
        ring = HashRing()
        for shard in range(4):
            ring.add(shard)
        pref = ring.preference("fp")
        ring.remove(pref[0])
        assert ring.owner("fp") == pref[1]

    def test_vnodes_spread_load(self):
        ring = HashRing(vnodes=64)
        for shard in range(4):
            ring.add(shard)
        counts = {s: 0 for s in range(4)}
        for i in range(2000):
            counts[ring.owner(f"fp{i}")] += 1
        # no shard owns more than half the keyspace with 64 vnodes
        assert max(counts.values()) < 1000
        assert min(counts.values()) > 100

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.preference("fp") == []
        assert ring.owner("fp") is None


# ---------------------------------------------------------------------------
# Router semantics against stub workers (no subprocesses)
# ---------------------------------------------------------------------------


class StubWorker:
    def __init__(self, outcome="ok", inflight=0):
        self.outcome = outcome
        self.inflight = inflight
        self.requests = 0
        self.pid = None

    async def forward(self, payload, timeout=None):
        self.requests += 1
        if self.outcome == "died":
            raise WorkerDied("stub died")
        if self.outcome == "timeout":
            raise asyncio.TimeoutError()
        response = {"id": "w1", "ok": True, "stub": True}
        return response, json.dumps(response)[len('{"id": "w1"'):]


class StubSupervisor:
    def __init__(self, workers):
        self.workers = workers
        self.slots = list(workers)

    def worker(self, shard_id):
        return self.workers.get(shard_id)

    def stats(self):
        return {"workers": len(self.workers), "restarts": 0,
                "garbled_frames": 0}


def stub_router(workers, **kw):
    router = ShardRouter(len(workers), WorkerConfig(), **kw)
    router.supervisor = StubSupervisor(workers)
    for shard_id in workers:
        router._on_up(shard_id)
    return router


class TestRouterSemantics:
    def run(self, coro):
        return asyncio.run(coro)

    def test_routes_to_live_worker(self):
        workers = {0: StubWorker(), 1: StubWorker()}
        router = stub_router(workers)
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["ok"] and response["stub"]
        assert response["id"] == "t1"
        assert sum(w.requests for w in workers.values()) == 1

    def test_same_problem_same_shard(self):
        workers = {i: StubWorker() for i in range(4)}
        router = stub_router(workers)
        for rid in ("a", "b", "c"):
            self.run(router.handle_line(solve_line(spider_problem(), rid)))
        assert sorted(w.requests for w in workers.values()) == [0, 0, 0, 3]

    def test_saturated_owner_sheds_explicitly(self):
        workers = {0: StubWorker(inflight=2), 1: StubWorker(inflight=2)}
        router = stub_router(workers, max_queue=2)
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["ok"] is False
        assert response["error_kind"] == "overloaded"
        assert response["retriable"] is True
        assert router.shed == 1
        assert all(w.requests == 0 for w in workers.values())

    def test_dead_owner_redispatches_to_survivor(self):
        problem = spider_problem()
        probe = stub_router({i: StubWorker() for i in range(2)})
        self.run(probe.handle_line(solve_line(problem)))
        owner = next(s for s, w in probe.supervisor.workers.items()
                     if w.requests)
        workers = {owner: StubWorker("died"), 1 - owner: StubWorker()}
        router = stub_router(workers)
        response = self.run(router.handle_line(solve_line(problem)))
        assert response["ok"] is True
        assert router.redispatched == 1
        assert workers[1 - owner].requests == 1

    def test_all_dead_is_explicit_unavailable(self):
        router = stub_router({i: StubWorker("died") for i in range(3)})
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["ok"] is False
        assert response["error_kind"] == "unavailable"
        assert response["retriable"] is True

    def test_no_live_shard_is_unavailable(self):
        router = stub_router({0: StubWorker()})
        router._on_down(0)
        router.supervisor.workers.clear()
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["error_kind"] == "unavailable"

    def test_worker_timeout_is_retriable(self):
        router = stub_router({0: StubWorker("timeout")},
                             request_timeout=0.01)
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["error_kind"] == "timeout"
        assert response["retriable"] is True

    def test_bad_payload_is_bad_request(self):
        router = stub_router({0: StubWorker()})
        line = json.dumps({"id": "x", "op": "solve",
                           "problem": {"nonsense": 1}})
        response = self.run(router.handle_line(line))
        assert response["error_kind"] == "bad_request"

    @pytest.mark.parametrize("bad_id", ["a", True, 1.5])
    def test_non_int_tree_node_ids_are_bad_requests(self, bad_id):
        """The route key canonicalises the problem; a str id used to raise
        out of it and answer ``error`` with a traceback."""
        worker = StubWorker()
        router = stub_router({0: worker})
        line = json.dumps({"id": "x", "op": "solve", "problem": {
            "platform": {"kind": "tree",
                         "edges": [[0, bad_id, 1, 2], [0, 2, 1, 3]]},
            "kind": "makespan", "n": 2}})
        response = self.run(router.handle_line(line))
        assert response["error_kind"] == "bad_request"
        assert worker.requests == 0

    def test_shutdown_refuses_new_solves(self):
        router = stub_router({0: StubWorker()})
        router.begin_shutdown()
        response = self.run(router.handle_line(solve_line(spider_problem())))
        assert response["error_kind"] == "shutting_down"
        assert response["retriable"] is True

    def test_ping_is_local(self):
        router = stub_router({0: StubWorker()})
        response = self.run(router.handle_line(
            json.dumps({"id": "p", "op": "ping"})
        ))
        assert response["ok"] and response["pong"]

    def test_inject_refused_without_chaos_ops(self):
        router = stub_router({0: StubWorker()})
        response = self.run(router.handle_line(
            json.dumps({"id": "i", "op": "inject", "shard": 0,
                        "fault": "hang"})
        ))
        assert response["ok"] is False
        assert response["error_kind"] == "bad_request"

    def test_client_chosen_ops_share_one_metric_label(self):
        router = stub_router({0: StubWorker()})
        ops = [f"bogus{i}" for i in range(50)] + [["a", "list"]]

        async def go():
            return [await router.handle_line(json.dumps({"id": i, "op": op}))
                    for i, op in enumerate(ops)]

        responses = self.run(go())
        assert all(r["error_kind"] == "bad_request" for r in responses)
        assert "'bogus7'" in responses[7]["error"]  # the answer names the op
        assert list(router.metrics.histograms("service.op_ms")) == [
            "service.op_ms{op=unknown}"]
        assert router.metrics.histograms()[
            "service.op_ms{op=unknown}"].count == 51


# ---------------------------------------------------------------------------
# Verbatim forwarding: the worker's validated answer line, id spliced in
# ---------------------------------------------------------------------------


class PipeProc:
    """A worker subprocess stand-in over in-memory pipes: every request
    line written to its stdin is answered on its stdout with the line
    ``answer(request)`` returns."""

    def __init__(self, answer):
        self.answer = answer
        self.returncode = None
        self.pid = None
        self.stdin = self
        self.stdout = asyncio.StreamReader()

    def write(self, data):
        self.stdout.feed_data(self.answer(json.loads(data)).encode() + b"\n")

    async def drain(self):
        pass

    def kill(self):
        self.returncode = -9
        self.stdout.feed_eof()

    async def wait(self):
        pass


async def pipe_router(answer):
    """A one-shard router whose shard is a real :class:`WorkerProcess`
    (its real reader included) over a :class:`PipeProc`."""
    worker = WorkerProcess(0, WorkerConfig())
    worker.proc = PipeProc(answer)
    # no OS process stands behind it: any signal just ends the stand-in
    worker._signal = lambda sig: worker.proc.kill()
    worker._reader_task = asyncio.ensure_future(worker._read_loop())
    return stub_router({0: worker}), worker


#: every error kind the protocol defines, the fleet's retriable ones too
ERROR_KINDS = ("no_solver", "infeasible", "validation", "bad_request",
               "timeout", "shutting_down", "error", "overloaded",
               "unavailable")
MISSING = object()
#: client ids of every JSON type, and none at all
CLIENT_IDS = ["t1", "ü😀\u2028\"q\"", 7, -1.5, 1e300, None, True, False,
              [1, "ü", None], {"k": ["v", 2.5], "ü": {}}, MISSING]


def answer_bodies():
    """Worker answers (without their id) covering hits, misses, every
    error kind, awkward floats, non-ASCII text and a ``shard`` field."""
    solution = solution_to_dict(solve(spider_problem(seed=2, n=12)))
    head = {"fingerprint": "0f" * 32, "solution": solution}
    bodies = {
        "hit": {"ok": True, "cached": True, "coalesced": False, **head},
        "miss": {"ok": True, "cached": False, "coalesced": False, **head},
        "coalesced": {"ok": True, "cached": False, "coalesced": True, **head},
        "floats": {"ok": True, "x": [0.1, -0.0, 1e300, 5e-324, 2**70, -7,
                                     float("inf"), float("-inf"),
                                     float("nan")]},
        "non_ascii": {"ok": False, "error_kind": "bad_request",
                      "error": "bad payload: ünï ✓ 😀 \u2028 \x7f \"q\" \\ \t"},
        "shard_set": {"ok": True, "shard": 7},
        "id_only": {},
    }
    for kind in ERROR_KINDS:
        bodies[f"error_{kind}"] = {"ok": False, "error": f"{kind}: no",
                                   "error_kind": kind, "retriable": False}
    return bodies


class TestVerbatimForwarding:
    @pytest.mark.parametrize("kind", sorted(answer_bodies()))
    def test_client_line_equals_the_patched_answer_encoded(self, kind):
        body = answer_bodies()[kind]

        def answer(request):
            return json.dumps({"id": request["id"], **body})

        async def go():
            router, worker = await pipe_router(answer)
            served = []
            try:
                for rid in CLIENT_IDS:
                    request = {"op": "solve",
                               "problem": problem_to_dict(spider_problem())}
                    if rid is not MISSING:
                        request["id"] = rid
                    served.append(await router.render_line(json.dumps(request)))
            finally:
                worker.kill()
                await worker.wait()
            return served, worker

        served, worker = asyncio.run(go())
        assert worker.garbled_frames == 0
        for rid, line in zip(CLIENT_IDS, served):
            patched = json.loads(answer({"id": "w1"}))  # what the router parsed
            patched["id"] = None if rid is MISSING else rid
            patched.setdefault("shard", 0)
            assert line == json.dumps(patched)

    @pytest.mark.parametrize("frame", [
        '{{"ok": true, "cached": true, "id": "{wid}"}}',  # id not first
        '{{ "id": "{wid}", "ok": true}}',  # id first, not as rendered
        '{{"id": "{wid}", "ok": tr',  # truncated
        '["{wid}"]',  # not an object
    ])
    def test_unspliceable_frame_is_garbled_and_never_forwarded(self, frame):
        async def go():
            router, worker = await pipe_router(
                lambda request: frame.format(wid=request["id"]))
            try:
                line = await router.render_line(solve_line(spider_problem()))
            finally:
                worker.kill()
                await worker.wait()
            return line, worker

        line, worker = asyncio.run(go())
        assert worker.garbled_frames == 1
        assert not worker.alive
        response = json.loads(line)
        assert response == {
            "id": "t1", "ok": False, "error_kind": "unavailable",
            "retriable": True,
            "error": "all 1 reachable shards died mid-request; "
                     "retry with backoff"}


class TestWorkerConfig:
    def test_argv_carries_every_option(self):
        config = WorkerConfig(threads=3, capacity=99, store_path="/tmp/s",
                              verify_rebinds=False, request_timeout=1.5,
                              chaos_ops=True)
        argv = config.argv(7)
        assert argv[:4] == [sys.executable, "-m", "repro", "serve"]
        for flag, value in (("--workers", "3"), ("--capacity", "99"),
                            ("--store", "/tmp/s.shard7"),
                            ("--request-timeout", "1.5")):
            assert value == argv[argv.index(flag) + 1]
        assert "--no-verify-rebinds" in argv
        assert "--chaos-ops" in argv

    def test_env_makes_repro_importable(self):
        env = WorkerConfig.env()
        assert SRC in env["PYTHONPATH"].split(os.pathsep)


# ---------------------------------------------------------------------------
# Real fleet end to end (worker subprocesses)
# ---------------------------------------------------------------------------


class TestFleetEndToEnd:
    def test_solve_cache_kill_failover_restart_stats(self):
        async def scenario():
            router = ShardRouter(2, WorkerConfig(threads=1, capacity=32))
            await router.start()
            try:
                assert sorted(router.live) == [0, 1]
                problem = spider_problem(seed=3)
                reference = solve(problem).makespan

                first = await router.handle_line(solve_line(problem, "a"))
                assert first["ok"] and first["cached"] is False
                second = await router.handle_line(solve_line(problem, "b"))
                assert second["ok"] and second["cached"] is True
                assert first["shard"] == second["shard"]
                from repro.io.json_io import solution_from_dict

                solution = solution_from_dict(second["solution"])
                solution.validate()
                assert solution.makespan == reference

                stats = (await router.handle_line(
                    json.dumps({"id": "s", "op": "stats"})
                ))["stats"]
                assert stats["sharded"] is True
                assert stats["live_shards"] == [0, 1]
                assert stats["store"]["hits"] == 1
                assert stats["supervisor"]["up"] == 2
                assert "solve" in stats["latency"]

                # SIGKILL the owner: the very next identical request must
                # still be answered (failover or re-solve — never an error)
                owner = first["shard"]
                worker = router.supervisor.worker(owner)
                os.kill(worker.pid, signal.SIGKILL)
                third = await router.handle_line(solve_line(problem, "c"))
                assert third["ok"], third

                deadline = time.monotonic() + 20
                while len(router.live) < 2 and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                assert sorted(router.live) == [0, 1], "worker never restarted"
                assert router.supervisor.stats()["restarts"] >= 1
            finally:
                await router.aclose()

        asyncio.run(scenario())

    def test_mini_chaos_run_holds_the_contract(self):
        from repro.service.chaos import run_chaos

        report = asyncio.run(run_chaos(
            shards=2, duration_s=2.0, target_kills=3, kill_every=0.3,
            concurrency=4, pool_size=4, n=12, seed=5,
        ))
        assert report["kills"] >= 3
        assert report["violations"] == 0, report["violation_samples"]
        assert report["ok_answers"] > 0
        assert report["requests"] == (
            report["ok_answers"] + report["retriable_errors"]
        )


class TestWorkerExitStatus:
    def test_killed_and_drained_workers_keep_their_exit_status(self, caplog):
        """A worker's returncode is what ended it: -9 after a SIGKILL, 0
        after a drained shutdown.  The reader's EOF handler signals a
        worker that has just exited; if that reaped it before asyncio's
        child watcher, the watcher would log "Unknown child process" and
        report 255."""
        caplog.set_level(logging.WARNING, logger="asyncio")

        async def scenario():
            codes = []
            for _ in range(3):
                workers = [WorkerProcess(i, WorkerConfig(threads=1))
                           for i in range(4)]
                await asyncio.gather(*(w.start() for w in workers))
                await asyncio.gather(*(
                    w.request({"op": "ping"}, timeout=30) for w in workers
                ))
                killed, drained = workers[:2], workers[2:]
                for w in killed:
                    os.kill(w.pid, signal.SIGKILL)
                await asyncio.gather(*(w.wait() for w in killed),
                                     *(w.terminate() for w in drained))
                codes += [(w.proc.returncode, -signal.SIGKILL) for w in killed]
                codes += [(w.proc.returncode, 0) for w in drained]
            return codes

        codes = asyncio.run(scenario())
        assert [got for got, _ in codes] == [want for _, want in codes]
        assert not [r for r in caplog.records
                    if "Unknown child process" in r.getMessage()]


# ---------------------------------------------------------------------------
# Fault accounting: garble injections and counts across restarts
# ---------------------------------------------------------------------------


class TestGarbleAccounting:
    def test_garble_ack_is_intact_and_the_next_solve_is_cut(self):
        """Through the real serving loop, one request at a time."""
        from repro.service.engine import ScheduleService
        from repro.service.store import SolutionStore

        lines = [json.dumps({"id": "g", "op": "inject", "fault": "garble",
                             "count": 1}),
                 solve_line(spider_problem(), "s1"),
                 solve_line(spider_problem(), "s2")]
        sent: list[str] = []

        async def go():
            service = ScheduleService(store=SolutionStore(), workers=1,
                                      chaos_ops=True)
            pending = list(lines)

            async def readline():
                # lockstep: line k is read once k responses went out
                while len(sent) < len(lines) - len(pending):
                    await asyncio.sleep(0.005)
                return (pending.pop(0) + "\n").encode() if pending else b""

            async def send(text):
                sent.append(text)

            try:
                await service.handle_connection(readline, send)
            finally:
                service.close()

        asyncio.run(go())
        ack = json.loads(sent[0])
        assert ack == {"id": "g", "ok": True, "fault": "garble", "count": 1}
        with pytest.raises(ValueError):
            json.loads(sent[1])  # the next response line is truncated ...
        assert json.loads(sent[2])["ok"]  # ... and only that one

    def test_garbled_frames_survive_the_worker_restart(self):
        async def scenario():
            router = ShardRouter(1, WorkerConfig(threads=1, capacity=8,
                                                 chaos_ops=True))
            await router.start()
            try:
                first_pid = router.supervisor.worker(0).pid
                # a malformed inject is answered by the worker, at once
                t0 = time.monotonic()
                bad = await router.handle_line(json.dumps(
                    {"id": "b", "op": "inject", "shard": 0,
                     "fault": "slow", "count": "x"}))
                assert bad["error_kind"] == "bad_request", bad
                assert "'count'" in bad["error"]
                assert time.monotonic() - t0 < 2.0
                ack = await router.handle_line(json.dumps(
                    {"id": "g", "op": "inject", "shard": 0,
                     "fault": "garble", "count": 1}))
                assert ack["ok"], ack  # the ack crossed the pipe intact
                # the next response the worker writes is cut off: the
                # router kills it, and with no other shard the solve
                # answers "unavailable"
                response = await router.handle_line(
                    solve_line(spider_problem(), "s"))
                assert response["error_kind"] == "unavailable", response
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    worker = router.supervisor.worker(0)
                    if worker is not None and worker.pid != first_pid:
                        break
                    await asyncio.sleep(0.05)
                stats = router.supervisor.stats()
                assert stats["restarts"] >= 1
                assert stats["garbled_frames"] == 1
                again = await router.handle_line(
                    solve_line(spider_problem(), "t"))
                assert again["ok"], again
            finally:
                await router.aclose()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Graceful shutdown of the serving process (SIGTERM drain)
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def serve_subprocess(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env, text=True,
        )

    def test_sigterm_drains_and_exits_zero(self):
        proc = self.serve_subprocess()
        try:
            problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
            proc.stdin.write(solve_line(problem, "r1") + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["id"] == "r1" and response["ok"]

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0, (
                "SIGTERM must drain and exit 0, not die mid-response"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdin.close()
            proc.stdout.close()

    def test_sigterm_mid_request_still_answers_it(self):
        proc = self.serve_subprocess()
        try:
            # handshake first: a pong proves the serving loop is live and
            # its SIGTERM handler installed (a signal during interpreter
            # startup would hit the default disposition and kill us)
            proc.stdin.write(json.dumps({"id": "hi", "op": "ping"}) + "\n")
            proc.stdin.flush()
            assert json.loads(proc.stdout.readline())["pong"]

            problem = spider_problem(seed=9, n=24)
            proc.stdin.write(solve_line(problem, "rq") + "\n")
            proc.stdin.flush()
            # give the warm loop a beat to *read* the line, then signal
            # while the solve may still be in flight — the drain contract
            # says the answer must be flushed before the process exits
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            line = proc.stdout.readline()
            assert line, "in-flight request was dropped on SIGTERM"
            response = json.loads(line)
            assert response["id"] == "rq" and response["ok"]
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdin.close()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Supervisor restart budget
# ---------------------------------------------------------------------------


class TestServedReadSize:
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="minor fault counts come from Linux /proc")
    def test_served_hits_do_not_fault_per_request(self):
        """A served hit must not map fresh pages per request line: reads
        are capped at READ_SIZE, below glibc's mmap threshold."""
        proc = TestGracefulDrain().serve_subprocess()

        def minor_faults() -> int:
            with open(f"/proc/{proc.pid}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
            return int(fields[7])  # minflt: field 10 of proc(5)

        def ask(rid: str) -> None:
            proc.stdin.write(solve_line(problem, rid) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["ok"] and response["id"] == rid

        try:
            problem = spider_problem(seed=3, n=48)
            for i in range(50):  # the miss, then warm the hit path
                ask(f"w{i}")
            before = minor_faults()
            hits = 300
            for i in range(hits):
                ask(f"h{i}")
            per_request = (minor_faults() - before) / hits
            assert per_request < 0.5, f"{per_request:.3f} minor faults per hit"
        finally:
            proc.kill()
            proc.wait(timeout=15)
            proc.stdin.close()
            proc.stdout.close()


class TestBootAbort:
    """A shutdown requested while the fleet boots (SIGTERM to ``repro
    serve --shards N``) ends the boot, with every worker it spawned gone,
    even when no worker can ever come up."""

    @staticmethod
    def never_up(monkeypatch, script: str):
        """Workers running ``script`` instead of ``repro serve``, and the
        list every spawned worker process lands in."""
        spawned = []
        start = WorkerProcess.start

        async def recording_start(self):
            await start(self)
            spawned.append(self.proc)

        monkeypatch.setattr(WorkerProcess, "start", recording_start)
        config = WorkerConfig(threads=1)
        object.__setattr__(config, "argv", lambda shard_id: [
            sys.executable, "-c", script])
        return config, spawned

    @pytest.mark.parametrize("script", [
        "raise SystemExit(2)",  # dies on its flag, as --workers 0 did
        "import time; time.sleep(60)",  # never answers its ping
    ], ids=["crash-loop", "hang"])
    def test_shutdown_during_boot_stops_every_worker(self, monkeypatch,
                                                     script):
        config, spawned = self.never_up(monkeypatch, script)

        async def scenario():
            router = ShardRouter(2, config, backoff_base=0.01,
                                 backoff_cap=0.05, boot_deadline=60)
            boot = asyncio.ensure_future(router.start())
            try:
                while len(spawned) < 2:
                    await asyncio.sleep(0.01)
                router.request_shutdown()
                t0 = time.monotonic()
                await asyncio.wait_for(boot, 10)
                return (router, time.monotonic() - t0,
                        [p.pid for p in spawned if p.returncode is None])
            finally:
                await router.supervisor.aclose()  # a no-op once stopped

        router, elapsed, running = asyncio.run(scenario())
        assert router.closing and not router.live
        assert elapsed < 5, f"the boot took {elapsed:.1f}s to stop"
        assert running == []

    def test_shutdown_before_boot_leaves_no_worker(self, monkeypatch):
        config, spawned = self.never_up(monkeypatch, "raise SystemExit(2)")

        async def scenario():
            router = ShardRouter(2, config)
            router.request_shutdown()
            try:
                await asyncio.wait_for(router.start(), 10)
                return router, [p.pid for p in spawned if p.returncode is None]
            finally:
                await router.supervisor.aclose()

        router, running = asyncio.run(scenario())
        assert router.closing and running == []


class TestRestartBudget:
    def test_default_budget_fails_a_crash_loop_within_its_bound(
        self, monkeypatch
    ):
        """With the default budget and backoff cap, a worker that dies at
        once is failed after 60 boots and the 113.1 s of backoff the
        ``Supervisor`` docstring states.  The sleeps are recorded, not
        slept, and the supervisor's clock runs as if they were."""
        slept = []
        backoff = Supervisor._backoff

        def recorded(self, slot):
            slept.append(backoff(self, slot))
            if len(slept) > self.restart_budget:  # past its budget: stop
                self._closing = True
            return 0.0

        monkeypatch.setattr(Supervisor, "_backoff", recorded)
        monkeypatch.setattr(supervisor_module, "time", SimpleNamespace(
            monotonic=lambda: time.monotonic() + sum(slept)))
        config, spawned = TestBootAbort.never_up(monkeypatch,
                                                 "raise SystemExit(3)")

        async def scenario():
            supervisor = Supervisor(1, config, on_up=lambda s: None,
                                    on_down=lambda s: None)
            with pytest.raises(ReproError, match="no worker came up"):
                await asyncio.wait_for(supervisor.start(), 120)
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.stats()["failed"] == 1
        assert len(spawned) == supervisor.restart_budget == 60
        assert all(p.returncode is not None for p in spawned)
        assert len(slept) == 60
        assert sum(slept) == pytest.approx(113.1)

    def test_crash_loop_exhausts_budget_and_fails_permanently(self):
        async def scenario():
            # a worker that can never come up: unknown CLI flag, instant exit
            config = WorkerConfig(threads=1)
            broken = WorkerConfig(threads=1)
            object.__setattr__(broken, "argv",
                               lambda shard_id: [sys.executable, "-c",
                                                 "raise SystemExit(3)"])
            object.__setattr__(broken, "env", config.env)
            supervisor = Supervisor(
                1, broken, on_up=lambda s: None, on_down=lambda s: None,
                boot_deadline=0.2, backoff_base=0.01, backoff_cap=0.02,
                restart_budget=3,
            )
            with pytest.raises(Exception):
                await supervisor.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if supervisor.stats()["failed"] == 1:
                    break
                await asyncio.sleep(0.05)
            stats = supervisor.stats()
            assert stats["failed"] == 1, stats
            assert stats["restarts"] <= 3
            await supervisor.aclose()

        asyncio.run(scenario())
