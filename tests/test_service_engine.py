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

from repro.core.schedule import Schedule, TaskAssignment
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
from repro.service.engine import cache_key
from repro.service.frontend import JsonLinesFrontend
from repro.service.protocol import (
    MAX_SERVED_TASKS, handle_request, serve_line, smoke,
)
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

    @pytest.mark.parametrize("bad_id", ["a", True, 1.5])
    def test_non_int_tree_node_ids_are_bad_requests(self, bad_id):
        """A str id used to crash canonicalisation (an ``error``, a server
        fault); a bool aliased node 1 and a float was served."""
        service = ScheduleService(store=SolutionStore(), workers=1)
        problem = {"platform": {"kind": "tree",
                                "edges": [[0, bad_id, 1, 2], [0, 2, 1, 3]]},
                   "kind": "makespan", "n": 2}
        try:
            response = self._request(
                service, {"id": "t", "op": "solve", "problem": problem})
        finally:
            service.close()
        assert response["error_kind"] == "bad_request"
        assert "node ids must be ints" in response["error"]

    def test_client_chosen_ops_share_one_metric_label(self):
        from repro.obs import metrics as obs_metrics

        service = ScheduleService(store=SolutionStore(), workers=1)

        async def go():
            return [await handle_request(
                        service, json.dumps({"id": i, "op": f"bogus{i}"}))
                    for i in range(200)]

        try:
            responses = asyncio.run(go())
            latency = service.stats()["latency"]
        finally:
            service.close()
        assert all(r["error_kind"] == "bad_request" for r in responses)
        assert "'bogus7'" in responses[7]["error"]  # the answer names the op
        assert list(latency) == ["unknown"]
        assert latency["unknown"]["count"] == 200
        assert not any("bogus" in key
                       for key in obs_metrics.snapshot()["counters"])

    def test_inject_fields_are_validated(self):
        service = ScheduleService(store=SolutionStore(), workers=1,
                                  chaos_ops=True)
        bad = [({"count": "x"}, "'count'"), ({"count": -1}, "'count'"),
               ({"count": True}, "'count'"), ({"count": 1.5}, "'count'"),
               ({"seconds": "soon"}, "'seconds'"),
               ({"seconds": float("nan")}, "'seconds'"),
               ({"seconds": -0.5}, "'seconds'")]
        try:
            for fields, named in bad:
                response = self._request(service, {
                    "id": "i", "op": "inject", "fault": "slow", **fields})
                assert response["error_kind"] == "bad_request", fields
                assert named in response["error"], response
            ok = self._request(service, {"id": "j", "op": "inject",
                                         "fault": "slow", "count": 2,
                                         "seconds": 0})
            assert ok == {"id": "j", "ok": True, "fault": "slow", "count": 2}
        finally:
            service.close()

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
    """The served hit path: one replay check per hit and one scan per
    answer, template-rendered bytes that equal the full encoder's,
    quarantine of damaged hits, and every rebind on the event loop."""

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
        counts, scans = [], []
        try:
            for rid, p in enumerate((problem, problem, relabeled)):
                before = len(replay_threads), service.stats()["replay"]
                response = asyncio.run(
                    handle_request(service, _solve_line(rid, p)))
                assert response["ok"]
                after = service.stats()["replay"]
                counts.append(len(replay_threads) - before[0])
                scans.append(after["scans"] - before[1]["scans"])
                assert after["verify"] - before[1]["verify"] == counts[-1]
        finally:
            service.close()
        assert counts == [2, 1, 1]  # store write + rebind, then rebind only
        # the store write scans; every rebind reuses its verdict
        assert scans == [1, 0, 0]

    def test_damaged_hit_is_quarantined_and_resolved_inline(
        self, replay_threads
    ):
        problem = Problem(Star([(2, 3), (1, 5), (3, 2)]), "makespan", n=5)
        fingerprint, canon = cache_key(problem)
        damaged = solve(Problem(canon.platform, "makespan", n=5))
        store = SolutionStore()
        store.put(fingerprint, damaged)
        # in-memory damage after the write check passed
        a = damaged.schedule[1]
        damaged.schedule = Schedule(damaged.schedule.platform, {
            **damaged.schedule.assignments,
            1: TaskAssignment(a.task, a.processor, -1, a.comms),  # before 0
        })
        del replay_threads[:]  # count the service's checks only

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
        # fresh answer's write check ran with its solve on the pool
        on_loop = [name == threading.main_thread().name
                   for name in replay_threads]
        assert on_loop == [True, False, True, True]
        assert not first.cached  # the damaged hit was not served ...
        first.solution.validate()
        assert second.cached  # ... and the fresh answer replaced it
        assert store.get(fingerprint) is not damaged

    @pytest.mark.parametrize("n", [6, 3000])
    def test_rebinds_run_on_the_loop_at_any_size(self, replay_threads, n):
        star = Star([(2, 3), (1, 5), (3, 2)])
        problems = [Problem(platform, "makespan", n=n)
                    for platform in (star, star, _relabel(star))]

        async def go():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                for problem in problems:
                    await service.submit(problem)
            finally:
                service.close()

        asyncio.run(go())
        # the store write ran with its solve on the pool; the miss's own
        # rebind and both hits' ran on the loop
        loop_thread = threading.main_thread().name
        assert replay_threads[0].startswith("repro-serve")
        assert replay_threads[1:] == [loop_thread] * 3

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
        assert summary["scans"] == [1, 0, 0]

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
        assert client._proc.stderr.closed  # no pipe outlives the client


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
        # a graceful stop: the server drains and returns before the loop
        # stops, so no serving coroutine outlives its loop
        loop.call_soon_threadsafe(service.request_shutdown)
        server.result(timeout=10)
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


class TestAnswerSizeBound:
    """A solve whose answer could hold more than ``MAX_SERVED_TASKS``
    tasks is refused before it reaches a solver thread."""

    STAR = {"kind": "star", "children": [{"c": 1, "w": 1}]}

    def _serve(self, problem):
        """``(response, seconds, solver threads started)``."""
        service = ScheduleService(store=SolutionStore(), workers=1,
                                  request_timeout=3)
        try:
            t0 = time.perf_counter()
            response = asyncio.run(handle_request(service, json.dumps(
                {"id": "b", "op": "solve", "problem": problem})))
            seconds = time.perf_counter() - t0
            threads = len(service._pool._threads)
        finally:
            service.close()
        return response, seconds, threads

    @pytest.mark.parametrize("t_lim", [1e300, float("inf"), 1e6])
    def test_unbounded_deadline_is_refused_without_a_solve(self, t_lim):
        response, seconds, threads = self._serve(
            {"platform": self.STAR, "kind": "deadline", "t_lim": t_lim})
        assert response["error_kind"] == "bad_request"
        assert str(MAX_SERVED_TASKS) in response["error"]
        assert seconds < 0.5 and threads == 0

    def test_n_bounds_the_deadline_answer(self):
        response, _, _ = self._serve(
            {"platform": self.STAR, "kind": "deadline", "t_lim": 1e300,
             "n": 10})
        assert response["ok"]
        assert len(response["solution"]["schedule"]["assignments"]) == 10

    def test_int_deadline_under_the_bound_answers(self):
        response, _, _ = self._serve(
            {"platform": self.STAR, "kind": "deadline", "t_lim": 10 ** 5})
        assert response["ok"]
        assert len(response["solution"]["schedule"]["assignments"]) == 99_999

    def test_large_makespan_n_is_refused(self):
        response, _, threads = self._serve(
            {"platform": self.STAR, "kind": "makespan", "n": 10 ** 6})
        assert response["error_kind"] == "bad_request" and threads == 0


class LineFrontend(JsonLinesFrontend):
    """The serving loop over a scripted handler."""

    def __init__(self, render):
        self.render = render

    async def render_line(self, raw_line):
        return await self.render(raw_line.strip())


async def _echo(text):
    return text


def _serve_lines(frontend, lines, after_read=None):
    """Drive ``handle_connection`` over scripted request lines (EOF after
    the last); returns ``(lines read, response texts sent)``.
    ``after_read(k)`` runs once line ``k`` was read."""
    sent, read = [], []

    async def readline():
        if after_read is not None and read:
            after_read(len(read) - 1)
        if len(read) == len(lines):
            return b""
        read.append(lines[len(read)])
        return (read[-1] + "\n").encode()

    async def send(text):
        sent.append(text)

    async def go():
        await asyncio.wait_for(frontend.handle_connection(readline, send), 10)

    asyncio.run(go())
    return read, sent


class TestServingLoop:
    """``JsonLinesFrontend.handle_connection``: one reader, one stop
    watcher and one respond task per line, concurrent answers, and the
    shutdown and error contracts."""

    def test_one_task_per_request_line(self):
        created = []
        lines = [json.dumps({"id": i}) for i in range(100)]
        sent = []

        async def go():
            loop = asyncio.get_running_loop()

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            pending = list(lines)

            async def readline():
                return (pending.pop(0) + "\n").encode() if pending else b""

            async def send(text):
                sent.append(text)

            loop.set_task_factory(factory)
            await LineFrontend(_echo).handle_connection(readline, send)

        asyncio.run(go())
        assert sorted(sent) == sorted(lines)
        assert len(created) <= len(lines) + 4, len(created)

    def test_pipelined_answers_are_concurrent(self):
        other_arrived = asyncio.Event()

        async def render(text):
            if text == '"first"':
                # answered only once the *next* line is being served
                await asyncio.wait_for(other_arrived.wait(), 5)
            else:
                other_arrived.set()
            return text

        _, sent = _serve_lines(LineFrontend(render), ['"first"', '"second"'])
        assert sent == ['"second"', '"first"']

    def test_pipelined_solves_are_all_answered_before_the_shutdown_ack(self):
        service = ScheduleService(store=SolutionStore(), workers=2)
        lines = [_solve_line(f"r{k}", Problem(Chain([2, 3], [3, 5 + k]),
                                              "makespan", n=40))
                 for k in range(4)]
        lines += [json.dumps({"id": "bye", "op": "shutdown"}),
                  json.dumps({"id": "never", "op": "ping"})]
        try:
            read, sent = _serve_lines(service, lines)
        finally:
            service.close()
        assert len(read) == 5  # nothing is read past the shutdown
        answers = [json.loads(text) for text in sent]
        assert answers[-1] == {"id": "bye", "ok": True, "shutdown": True}
        assert sorted(a["id"] for a in answers[:-1]) == ["r0", "r1", "r2", "r3"]
        assert all(a["ok"] for a in answers[:-1])

    def test_stop_during_the_shutdown_flush_keeps_every_answer(self):
        frontend = None

        async def slow(text):
            await asyncio.sleep(0.1)
            return text

        def after_read(k):
            if k == 2:  # the shutdown line: its flush is under way
                asyncio.get_running_loop().call_later(
                    0.02, frontend.request_shutdown)

        frontend = LineFrontend(slow)
        lines = ['"a"', '"b"', json.dumps({"id": "s", "op": "shutdown"})]
        read, sent = _serve_lines(frontend, lines, after_read)
        assert sorted(sent[:2]) == ['"a"', '"b"']
        assert json.loads(sent[2]) == {"id": "s", "ok": True, "shutdown": True}

    def test_stop_while_waiting_for_a_line_flushes_in_flight_answers(self):
        frontend = None
        reads = []

        async def slow(text):
            await asyncio.sleep(0.1)
            return text

        async def readline():
            reads.append(1)
            if len(reads) == 1:
                return b'"a"\n'
            asyncio.get_running_loop().call_later(
                0.02, frontend.request_shutdown)
            await asyncio.Event().wait()  # no more lines, ever

        sent = []

        async def send(text):
            sent.append(text)

        frontend = LineFrontend(slow)
        asyncio.run(asyncio.wait_for(
            frontend.handle_connection(readline, send), 10))
        assert sent == ['"a"']
        assert len(reads) == 2

    def test_a_raising_handler_still_answers_its_line_once(self, capsys):
        async def render(text):
            request = json.loads(text)
            if request.get("boom"):
                raise RuntimeError("handler bug")
            return text

        lines = [json.dumps({"id": "x", "boom": True}), "  ",
                 json.dumps({"id": "y"})]
        _, sent = _serve_lines(LineFrontend(render), lines)
        assert len(sent) == 2  # the blank line is skipped, not answered
        error = json.loads(next(t for t in sent if '"x"' in t))
        assert error == {"id": "x", "ok": False, "error_kind": "error",
                         "error": "internal error: RuntimeError: handler bug"}
        assert json.loads(next(t for t in sent if '"y"' in t)) == {"id": "y"}
        assert "RuntimeError: handler bug" in capsys.readouterr().err

    def test_stop_flushes_every_tcp_connection(self):
        frontend = None
        started = []

        async def slow(text):
            started.append(text)
            await asyncio.sleep(0.1)
            return text

        async def go():
            ports = []
            server = asyncio.ensure_future(
                frontend.serve_tcp("127.0.0.1", 0, ready=ports.append))
            while not ports:
                await asyncio.sleep(0.01)
            conns = [await asyncio.open_connection("127.0.0.1", ports[0])
                     for _ in range(2)]
            for k, (_, writer) in enumerate(conns):
                writer.write(f'"c{k}"\n'.encode())
                await writer.drain()
            while len(started) < 2:  # both answers are in flight
                await asyncio.sleep(0.01)
            frontend.request_shutdown()
            answers = [await reader.read() for reader, _ in conns]  # to EOF
            await asyncio.wait_for(server, 5)
            for _, writer in conns:
                writer.close()
            return answers

        frontend = LineFrontend(slow)
        answers = asyncio.run(asyncio.wait_for(go(), 10))
        assert answers == [b'"c0"\n', b'"c1"\n']

    def test_malformed_inject_gets_its_one_answer_through_the_loop(self):
        service = ScheduleService(store=SolutionStore(), workers=1,
                                  chaos_ops=True)
        lines = [json.dumps({"id": "i", "op": "inject", "fault": "slow",
                             "count": "x"}),
                 json.dumps({"id": "p", "op": "ping"})]
        try:
            _, sent = _serve_lines(service, lines)
        finally:
            service.close()
        answers = {a["id"]: a for a in map(json.loads, sent)}
        assert len(sent) == 2
        assert answers["i"]["error_kind"] == "bad_request"
        assert answers["p"]["pong"] is True
