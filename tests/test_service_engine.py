"""The serving engine: cached_solve, coalescing, protocol, client, CLI.

The acceptance-critical test is
``TestCachedSolve::test_relabeled_isomorphic_hit_replays_bit_exactly``:
for every registered offline solver, a relabeled-isomorphic platform must
be served from cache and the rebound solution must replay-validate
bit-exactly on the *relabeled* platform.
"""

import asyncio
import contextvars
import json
import random
import threading
import time

import pytest

from repro.core.schedule import TaskAssignment
from repro.io.json_io import problem_to_dict, solution_to_dict
from repro.obs import tracing as obs_tracing
from repro.platforms.chain import Chain
from repro.platforms.generators import random_tree
from repro.platforms.spider import Spider
from repro.platforms.star import Star
from repro.platforms.tree import Tree
from repro.service import (
    ScheduleService,
    ServiceClient,
    ServiceError,
    SolutionStore,
    cached_solve,
)
from repro.service import engine as engine_module
from repro.service.engine import cache_key
from repro.service.protocol import handle_request, serve_line, smoke
from repro.solve import Problem, Solution, registered_solvers, solve


def _relabel(platform, seed: int = 7):
    """A randomly relabeled isomorphic copy of ``platform``."""
    rng = random.Random(seed)
    if isinstance(platform, Chain):
        return platform  # a chain has no relabeling freedom
    if isinstance(platform, Star):
        children = list(platform.children)
        rng.shuffle(children)
        return Star(children)
    if isinstance(platform, Spider):
        legs = list(platform.legs)
        rng.shuffle(legs)
        return Spider(legs)
    if isinstance(platform, Tree):
        nodes = platform.workers
        new_ids = rng.sample(range(1, 10 * (len(nodes) + 2)), len(nodes))
        perm = {0: 0, **dict(zip(nodes, new_ids))}
        edges = [
            (perm[platform.parent(v)], perm[v],
             platform.latency(v), platform.work(v))
            for v in nodes
        ]
        rng.shuffle(edges)
        return Tree(edges)
    raise AssertionError(f"unhandled platform {type(platform)}")


def _platform_for(solver):
    """A representative platform instance for a registered solver."""
    return {
        "chain": Chain([2, 3, 1], [3, 5, 2]),
        "star": Star([(2, 3), (1, 5), (3, 2)]),
        "spider": Spider([Chain([2, 3], [3, 5]), Chain([1], [4]),
                          Chain([2, 2], [2, 6])]),
        "tree": random_tree(6, seed=11),
    }[solver.name]


class TestCachedSolve:
    @pytest.mark.parametrize(
        "solver", registered_solvers("offline"), ids=lambda s: s.name
    )
    def test_relabeled_isomorphic_hit_replays_bit_exactly(self, solver):
        platform = _platform_for(solver)
        store = SolutionStore()
        cold = cached_solve(Problem(platform, "makespan", n=10), store)
        assert not cold.cached
        relabeled = _relabel(platform)
        warm = cached_solve(Problem(relabeled, "makespan", n=10), store)
        assert warm.cached, f"{solver.name}: relabeled platform must hit"
        assert store.stats.hits == 1 and store.stats.writes == 1
        # the served schedule lives on the *relabeled* platform ...
        assert warm.solution.schedule.platform is relabeled
        # ... matches the cold answer bit-exactly ...
        assert warm.solution.makespan == cold.solution.makespan
        assert warm.solution.n_tasks == cold.solution.n_tasks
        # ... and replay-validates on it (simulator re-execution)
        warm.solution.validate()

    @pytest.mark.parametrize(
        "solver", registered_solvers("offline"), ids=lambda s: s.name
    )
    def test_deadline_problems_cache_too(self, solver):
        platform = _platform_for(solver)
        t_lim = solve(Problem(platform, "makespan", n=6)).makespan
        store = SolutionStore()
        cold = cached_solve(Problem(platform, "deadline", t_lim=t_lim), store)
        warm = cached_solve(
            Problem(_relabel(platform), "deadline", t_lim=t_lim), store
        )
        assert warm.cached
        assert warm.solution.n_tasks == cold.solution.n_tasks
        warm.solution.validate()

    def test_different_questions_do_not_collide(self):
        chain = Chain([2, 3], [3, 5])
        store = SolutionStore()
        a = cached_solve(Problem(chain, "makespan", n=5), store)
        b = cached_solve(Problem(chain, "makespan", n=6), store)
        assert not b.cached
        assert a.fingerprint != b.fingerprint

    def test_online_mode_bypasses_cache(self):
        chain = Chain([2, 3], [3, 5])
        store = SolutionStore()
        out = cached_solve(
            Problem(chain, "makespan", n=4, mode="online",
                    options={"policy": "round_robin"}),
            store,
        )
        assert out.fingerprint is None
        assert store.stats.requests == 0 and len(store) == 0
        assert out.solution.trace is not None

    def test_cached_solution_is_a_fresh_rebind(self):
        """Hits must not alias the stored object's mutable parts."""
        chain = Chain([2, 3], [3, 5])
        store = SolutionStore()
        a = cached_solve(Problem(chain, "makespan", n=5), store)
        b = cached_solve(Problem(chain, "makespan", n=5), store)
        assert b.cached
        assert b.solution is not a.solution
        assert b.solution.schedule is not a.solution.schedule
        b.solution.stats["poked"] = True
        assert "poked" not in store.get(b.fingerprint).stats


class TestServiceEngine:
    def test_coalescing_single_solve(self):
        async def go():
            service = ScheduleService(store=SolutionStore(), workers=2)
            try:
                legs = [Chain([2, 3], [3, 5]), Chain([1], [4])]
                platforms = [Spider(legs), Spider(legs[::-1])] * 3
                outs = await asyncio.gather(
                    *(service.submit(Problem(p, "makespan", n=24))
                      for p in platforms)
                )
            finally:
                service._pool.shutdown(wait=True)
            return service, outs

        service, outs = asyncio.run(go())
        assert service.store.stats.writes == 1, "one in-flight solve total"
        assert sum(o.coalesced for o in outs) == len(outs) - 1
        makespans = {o.solution.makespan for o in outs}
        assert len(makespans) == 1
        for o in outs:
            o.solution.validate()

    def test_sequential_requests_hit_the_store(self):
        async def go():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                chain = Chain([2, 3], [3, 5])
                first = await service.submit(Problem(chain, "makespan", n=5))
                second = await service.submit(Problem(chain, "makespan", n=5))
            finally:
                service._pool.shutdown(wait=True)
            return first, second

        first, second = asyncio.run(go())
        assert not first.cached and second.cached

    def test_solver_errors_propagate_to_all_waiters(self):
        async def go():
            service = ScheduleService(store=SolutionStore(), workers=2)
            try:
                bad = Problem(Chain([2], [3]), "makespan", n=2,
                              options={"not_an_option": 1})
                results = await asyncio.gather(
                    *(service.submit(bad) for _ in range(3)),
                    return_exceptions=True,
                )
            finally:
                service._pool.shutdown(wait=True)
            return service, results

        service, results = asyncio.run(go())
        assert all(isinstance(r, Exception) for r in results)
        assert service.errors == 3

    def test_stats_shape(self):
        service = ScheduleService(store=SolutionStore(), workers=2)
        stats = service.stats()
        assert stats["workers"] == 2
        assert stats["store"]["hit_rate"] == 0.0
        service._pool.shutdown(wait=True)

    def test_stats_reports_uptime(self):
        service = ScheduleService(store=SolutionStore(), workers=1)
        try:
            first = service.stats()["uptime_s"]
            assert first >= 0
            time.sleep(0.01)
            assert service.stats()["uptime_s"] >= first
        finally:
            service._pool.shutdown(wait=True)

    def test_stats_latency_percentiles_per_op(self):
        from repro.io.json_io import problem_to_dict

        service = ScheduleService(store=SolutionStore(), workers=1)
        try:
            problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
            request = {"op": "solve",
                       "problem": problem_to_dict(problem)}
            for _ in range(3):
                asyncio.run(handle_request(service, json.dumps(request)))
            asyncio.run(handle_request(service, json.dumps({"op": "ping"})))
            latency = service.stats()["latency"]
        finally:
            service._pool.shutdown(wait=True)
        assert latency["solve"]["count"] == 3
        assert latency["ping"]["count"] == 1
        for op_stats in latency.values():
            # bucketed estimates from the shared ms ladder, not exact
            assert op_stats["p50_ms"] is not None
            assert (op_stats["p50_ms"] <= op_stats["p95_ms"]
                    <= op_stats["p99_ms"])

    def test_latency_is_per_instance(self):
        a = ScheduleService(store=SolutionStore(), workers=1)
        b = ScheduleService(store=SolutionStore(), workers=1)
        try:
            asyncio.run(handle_request(a, json.dumps({"op": "ping"})))
            assert "ping" in a.stats()["latency"]
            assert b.stats()["latency"] == {}
        finally:
            a._pool.shutdown(wait=True)
            b._pool.shutdown(wait=True)


class TestProtocol:
    def _request(self, service, payload) -> dict:
        return asyncio.run(handle_request(service, json.dumps(payload)))

    def test_solve_roundtrip_and_hit(self):
        from repro.io.json_io import problem_to_dict, solution_from_dict

        service = ScheduleService(store=SolutionStore(), workers=1)
        problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
        request = {"id": "r1", "op": "solve",
                   "problem": problem_to_dict(problem)}
        first = self._request(service, request)
        assert first["ok"] and first["id"] == "r1" and not first["cached"]
        assert solution_from_dict(first["solution"]).makespan == 14
        second = self._request(service, request)
        assert second["cached"]
        service._pool.shutdown(wait=True)

    def test_ping_stats_and_errors(self):
        service = ScheduleService(store=SolutionStore(), workers=1)
        assert self._request(service, {"op": "ping"})["pong"]
        assert "store" in self._request(service, {"op": "stats"})["stats"]
        bad_op = self._request(service, {"op": "nope"})
        assert not bad_op["ok"] and bad_op["error_kind"] == "bad_request"
        bad_payload = self._request(service, {"op": "solve", "problem": {}})
        assert bad_payload["error_kind"] == "bad_request"
        malformed = asyncio.run(handle_request(service, "{not json"))
        assert malformed["error_kind"] == "bad_request"
        service._pool.shutdown(wait=True)

    def test_solver_error_kinds(self):
        from repro.io.json_io import problem_to_dict

        service = ScheduleService(store=SolutionStore(), workers=1)
        problem = Problem(Chain([2], [3]), "makespan", n=2,
                          options={"bogus": 1})
        response = self._request(
            service, {"op": "solve", "problem": problem_to_dict(problem)}
        )
        assert not response["ok"] and response["error_kind"] == "error"
        service._pool.shutdown(wait=True)


def _solve_line(rid, problem) -> str:
    return json.dumps({"id": rid, "op": "solve",
                       "problem": problem_to_dict(problem)})


@pytest.fixture()
def replay_threads(monkeypatch):
    """Names of the threads every ``Solution.validate`` call ran on, in
    call order (the store's write check included)."""
    threads: list[str] = []
    original = Solution.validate

    def validate(self, engine=None):
        threads.append(threading.current_thread().name)
        return original(self, engine)

    monkeypatch.setattr(Solution, "validate", validate)
    return threads


class TestHitPath:
    """The served hit path: one replay per hit, template-rendered bytes
    that equal the full encoder's, quarantine of damaged hits, and the
    loop/pool split by answer size."""

    @pytest.mark.parametrize(
        "solver", registered_solvers("offline"), ids=lambda s: s.name
    )
    def test_served_lines_equal_the_full_encoding(self, solver):
        """Misses, coalesced waiters, first hits (template built) and
        later hits (template rendered) of relabeled platforms — spider
        keys are tuples — all serve the bytes of encoding the outcome."""
        platform = _platform_for(solver)
        problems = [Problem(_relabel(platform, seed), "makespan", n=12)
                    for seed in range(6)]
        outcome_of = contextvars.ContextVar("outcome")

        async def go():
            service = ScheduleService(store=SolutionStore(), workers=2)
            submit = service.submit

            async def recording_submit(problem):
                outcome = await submit(problem)
                outcome_of.set(outcome)  # this request's task context
                return outcome

            service.submit = recording_submit

            async def one(rid, problem):
                text = await serve_line(service, _solve_line(rid, problem))
                return rid, text, outcome_of.get()

            try:
                # three concurrent requests coalesce on one solve, then
                # three sequential relabeled hits
                served = list(await asyncio.gather(
                    *(one(f"r{i}", p) for i, p in enumerate(problems[:3]))))
                for i, p in enumerate(problems[3:], start=3):
                    served.append(await one(f"r{i}", p))
            finally:
                service.close()
            return served

        served = asyncio.run(go())
        for rid, text, outcome in served:
            assert text == json.dumps({
                "id": rid, "ok": True, "cached": outcome.cached,
                "coalesced": outcome.coalesced,
                "fingerprint": outcome.fingerprint,
                "solution": solution_to_dict(outcome.solution),
            })
        kinds = [(o.cached, o.coalesced) for _, _, o in served]
        assert kinds == [(False, False)] + [(False, True)] * 2 + [(True, False)] * 3

    def test_one_replay_per_hit_two_per_miss(self, replay_threads):
        problem = Problem(Spider([Chain([2, 3], [3, 5]), Chain([1], [4])]),
                          "makespan", n=10)
        relabeled = Problem(_relabel(problem.platform), "makespan", n=10)
        service = ScheduleService(store=SolutionStore(), workers=1)
        counts = []
        try:
            for rid, p in enumerate((problem, problem, relabeled)):
                before = len(replay_threads)
                response = asyncio.run(
                    handle_request(service, _solve_line(rid, p)))
                assert response["ok"]
                counts.append(len(replay_threads) - before)
        finally:
            service.close()
        assert counts == [2, 1, 1]  # store write + rebind, then rebind only

    def test_damaged_hit_is_quarantined_and_resolved_inline(
        self, replay_threads
    ):
        problem = Problem(Star([(2, 3), (1, 5), (3, 2)]), "makespan", n=5)
        fingerprint, canon = cache_key(problem)
        damaged = solve(Problem(canon.platform, "makespan", n=5))
        a = damaged.schedule.assignments[1]
        damaged.schedule.assignments[1] = TaskAssignment(
            a.task, a.processor, -1, a.comms)  # starts before time 0
        store = SolutionStore(validate_on_write=False)  # let corruption in
        store.put(fingerprint, damaged)

        async def go():
            service = ScheduleService(store=store, workers=1)
            try:
                first = await service.submit(problem)
                second = await service.submit(problem)
            finally:
                service._pool.shutdown(wait=True)
            return first, second

        first, second = asyncio.run(go())
        # the failed check, the fresh answer's and the next hit's rebind
        # checks all ran on the event loop (the main thread here); the
        # store skips its own check (validate_on_write is off)
        assert replay_threads == [threading.main_thread().name] * 3
        assert not first.cached  # the damaged hit was not served ...
        first.solution.validate()
        assert second.cached  # ... and the fresh answer replaced it
        assert store.get(fingerprint) is not damaged

    def test_rebinds_run_on_the_loop_up_to_the_task_bound(
        self, replay_threads, monkeypatch
    ):
        problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=6)

        def serve_twice():
            async def go():
                service = ScheduleService(store=SolutionStore(), workers=1)
                try:
                    await service.submit(problem)
                    await service.submit(problem)
                finally:
                    service.close()

            replay_threads.clear()
            asyncio.run(go())
            # [store write (pool), miss rebind, hit rebind]
            return replay_threads[1:]

        loop_thread = threading.main_thread().name
        assert serve_twice() == [loop_thread, loop_thread]
        monkeypatch.setattr(engine_module, "INLINE_REBIND_TASKS", 5)
        assert all(name.startswith("repro-serve") for name in serve_twice())

    def test_served_hit_emits_decode_canon_rebind_encode_spans(self):
        problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
        service = ScheduleService(store=SolutionStore(), workers=1)
        previous = obs_tracing.set_tracing(True)
        try:
            asyncio.run(handle_request(service, _solve_line(1, problem)))
            obs_tracing.clear_spans()
            asyncio.run(handle_request(service, _solve_line(2, problem)))
            names = [s["name"] for s in obs_tracing.spans()]
        finally:
            obs_tracing.set_tracing(previous)
            obs_tracing.clear_spans()
            service.close()
        for name in ("service.decode", "service.canon", "service.rebind",
                     "service.encode", "service.request"):
            assert name in names, names
        assert "service.solve_canonical" not in names  # it was a hit


class TestServeEndToEnd:
    """Spawn the real ``repro serve`` subprocess over stdio."""

    def test_smoke(self):
        summary = smoke()
        assert summary["requests"] == 3
        assert summary["hits"] == 2

    def test_client_error_response(self):
        with ServiceClient.spawn(workers=1) as client:
            response = client.request({"op": "solve", "problem": {"nope": 1}})
            assert not response["ok"]
            assert response["error_kind"] == "bad_request"
            with pytest.raises(ServiceError):
                client.solve(Problem(Chain([2], [3]), "makespan", n=1,
                                     options={"bogus": True}))

    def test_persistent_store_across_server_restarts(self, tmp_path):
        store = tmp_path / "serve.sqlite"
        problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
        with ServiceClient.spawn(store_path=str(store), workers=1) as client:
            _, meta = client.solve(problem)
            assert meta["cached"] is False
        with ServiceClient.spawn(store_path=str(store), workers=1) as client:
            solution, meta = client.solve(problem)
            assert meta["cached"] is True
            assert solution.makespan == 14

    def test_shutdown_op_ends_stdio_server(self):
        with ServiceClient.spawn(workers=1) as client:
            assert client.ping()
            assert client.shutdown() is True
        # context exit waited for the process: EOF-free clean termination
        assert client._proc.returncode == 0


class TestTcpTransport:
    """serve_tcp + ServiceClient.connect, driven against a live server."""

    @pytest.fixture()
    def tcp_service(self):
        import threading

        service = ScheduleService(store=SolutionStore(), workers=1)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        port_ready = threading.Event()
        port_box: list[int] = []

        def ready(port: int) -> None:
            port_box.append(port)
            port_ready.set()

        server = asyncio.run_coroutine_threadsafe(
            service.serve_tcp("127.0.0.1", 0, ready=ready), loop
        )
        assert port_ready.wait(timeout=10), "server never bound a port"
        yield "127.0.0.1", port_box[0]
        server.cancel()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
        service._pool.shutdown(wait=True)

    def test_solve_hit_and_shutdown_over_tcp(self, tcp_service):
        host, port = tcp_service
        problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=5)
        with ServiceClient.connect(host, port) as client:
            assert client.ping()
            solution, meta = client.solve(problem)
            assert solution.makespan == 14 and meta["cached"] is False
            _, meta2 = client.solve(problem)
            assert meta2["cached"] is True
            assert client.shutdown() is True
            # the connection is closed; the next read sees EOF
            with pytest.raises(ServiceError, match="closed"):
                client.request({"op": "ping"})
        # ... but the server keeps listening for new connections
        with ServiceClient.connect(host, port) as client:
            _, meta3 = client.solve(problem)
            assert meta3["cached"] is True

    def test_cli_rejects_portless_tcp(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "--tcp", "localhost"])


class TestOversizedRequests:
    def test_too_long_line_answers_then_drops_connection(self):
        """A request past the reader's line limit gets a bad_request answer
        and a clean connection close, not a serving-loop crash."""

        async def go():
            service = ScheduleService(store=SolutionStore(), workers=1)
            sent = []
            calls = {"n": 0}

            async def readline():
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ValueError("Separator is not found, and chunk exceed the limit")
                return b""  # must never be reached before the break

            async def send(text):
                # the serving loop hands the transport a serialised line
                sent.append(json.loads(text))

            try:
                await service.handle_connection(readline, send)
            finally:
                service._pool.shutdown(wait=True)
            return calls["n"], sent

        reads, sent = asyncio.run(go())
        assert reads == 1
        assert len(sent) == 1
        assert not sent[0]["ok"] and sent[0]["error_kind"] == "bad_request"
        assert "too long" in sent[0]["error"]
