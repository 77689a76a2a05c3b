"""The hardened service edge: client retries/timeouts against a
misbehaving fake server, per-request deadlines, graceful shutdown.

The fake server speaks real TCP so the client's raw-fd deadline reads and
reconnect-per-retry logic are exercised for real; each accepted
connection consumes the next scripted *behavior*:

* ``"ok"`` — answer every request line properly;
* ``"drop"`` — read one request, then close (clean EOF mid-request);
* ``"stall"`` — read one request, answer nothing (client deadline fires);
* ``"partial"`` — read one request, emit half a JSON line and close;
* ``"overloaded"`` — answer every request with a retriable shed error;
* ``"shed_once"`` — shed the first request, then behave like ``"ok"``.
"""

import asyncio
import json
import socket
import socketserver
import threading

import pytest

from repro.platforms.chain import Chain
from repro.service.engine import ScheduleService, ServiceClosingError
from repro.service.protocol import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    handle_request,
)
from repro.service.store import SolutionStore
from repro.solve import Problem


# ---------------------------------------------------------------------------
# The fake server
# ---------------------------------------------------------------------------


class FakeServer:
    """Scripted TCP peer; ``behaviors`` is consumed one per connection
    (the last entry repeats for any further connections)."""

    def __init__(self, behaviors):
        self.behaviors = list(behaviors)
        self.connections = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                with outer._lock:
                    behavior = outer.behaviors[
                        min(outer.connections, len(outer.behaviors) - 1)
                    ]
                    outer.connections += 1
                while True:
                    line = self.rfile.readline()
                    if not line:
                        return
                    request = json.loads(line)
                    if behavior == "drop":
                        return
                    if behavior == "stall":
                        # hold the connection open, never answer
                        self.rfile.readline()
                        return
                    if behavior == "partial":
                        # a truncated response that still ends in a newline:
                        # framing says "complete line", the JSON is cut off
                        self.wfile.write(b'{"id": "c1", "ok": tr\n')
                        self.wfile.flush()
                        return
                    if behavior in ("overloaded", "shed_once"):
                        shed = {"id": request.get("id"), "ok": False,
                                "error_kind": "overloaded",
                                "error": "fleet is saturated",
                                "retriable": True}
                        self.wfile.write((json.dumps(shed) + "\n").encode())
                        self.wfile.flush()
                        if behavior == "shed_once":
                            behavior = "ok"
                        continue
                    response = {"id": request.get("id"), "ok": True,
                                "pong": True, "protocol": 1}
                    self.wfile.write((json.dumps(response) + "\n").encode())
                    self.wfile.flush()

        self.server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), Handler
        )
        self.server.daemon_threads = True
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def connect(server, **kw):
    kw.setdefault("backoff", 0.01)
    return ServiceClient.connect("127.0.0.1", server.port, **kw)


# ---------------------------------------------------------------------------
# Client resilience
# ---------------------------------------------------------------------------


class TestClientResilience:
    def test_clean_ping(self):
        with FakeServer(["ok"]) as srv, connect(srv) as client:
            assert client.ping()

    def test_drop_without_retries_raises_connection(self):
        with FakeServer(["drop"]) as srv, connect(srv) as client:
            with pytest.raises(ServiceError) as err:
                client.ping()
            assert err.value.kind == "connection"

    def test_retry_reconnects_after_drop(self):
        with FakeServer(["drop", "ok"]) as srv:
            with connect(srv, retries=1) as client:
                assert client.ping()
            assert srv.connections == 2

    def test_retry_survives_drop_then_stall_then_ok(self):
        with FakeServer(["drop", "stall", "ok"]) as srv:
            with connect(srv, retries=3, timeout=0.2) as client:
                assert client.ping()
            assert srv.connections == 3

    def test_stall_without_retries_raises_timeout(self):
        with FakeServer(["stall"]) as srv:
            with connect(srv, timeout=0.1) as client:
                with pytest.raises(ServiceTimeout):
                    client.ping()

    def test_partial_line_is_a_connection_error_then_retried(self):
        with FakeServer(["partial", "ok"]) as srv:
            with connect(srv) as client:
                with pytest.raises(ServiceError, match="garbled"):
                    client.ping()
            with connect(srv, retries=1) as client:
                assert client.ping()

    def test_non_idempotent_ops_never_retry(self):
        with FakeServer(["drop", "ok"]) as srv:
            with connect(srv, retries=3) as client:
                with pytest.raises(ServiceError):
                    client.request({"op": "shutdown"})
            assert srv.connections == 1  # no reconnect was attempted

    def test_per_request_overrides_beat_client_defaults(self):
        with FakeServer(["drop", "ok"]) as srv:
            with connect(srv, retries=0) as client:
                assert client.request({"op": "ping"}, retries=1)["pong"]
        with FakeServer(["stall"]) as srv:
            with connect(srv, timeout=None) as client:
                with pytest.raises(ServiceTimeout):
                    client.request({"op": "ping"}, timeout=0.1)

    def test_fresh_request_id_per_attempt(self):
        with FakeServer(["drop", "ok"]) as srv:
            with connect(srv, retries=1) as client:
                response = client.request({"op": "ping"})
                assert response["id"] == "c2"  # attempt 2 got a fresh id

    def test_raw_stream_client_cannot_reconnect(self):
        import io

        client = ServiceClient(io.StringIO(""), io.StringIO())
        with pytest.raises(ServiceError, match="cannot reconnect"):
            # EOF -> connection error; the retry then fails loudly on the
            # missing reconnect recipe instead of re-sending into the void
            client.request({"op": "ping"}, retries=2)


# ---------------------------------------------------------------------------
# Retry policy: jitter, last-error surfacing, shed-response handling
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_shed_response_retried_on_same_connection(self):
        with FakeServer(["shed_once"]) as srv:
            with connect(srv, retries=2) as client:
                assert client.ping()
        # an "overloaded" answer means the *server* is healthy — the retry
        # must re-ask on the same connection, not redial
        assert srv.connections == 1

    def test_shed_exhausted_returns_last_shed_response(self):
        with FakeServer(["overloaded"]) as srv:
            with connect(srv, retries=2) as client:
                response = client.request({"op": "ping"})
        assert response["ok"] is False
        assert response["error_kind"] == "overloaded"
        assert response["retriable"] is True
        assert srv.connections == 1

    def test_last_transport_error_surfaced_not_first(self):
        # attempt 1 hits a clean drop (connection), attempt 2 a stall
        # (timeout): the raised error must be the *last* failure
        with FakeServer(["drop", "stall"]) as srv:
            with connect(srv, retries=1, timeout=0.2) as client:
                with pytest.raises(ServiceError) as err:
                    client.ping()
        assert err.value.kind == "timeout"

    def test_fresh_jitter_drawn_every_attempt(self, monkeypatch):
        import random

        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        backoff = 0.01
        with FakeServer(["drop", "drop", "ok"]) as srv:
            with connect(srv, retries=2, backoff=backoff) as client:
                client._rng = random.Random(99)
                assert client.ping()

        expected_rng = random.Random(99)
        expected = [
            expected_rng.uniform(0.0, backoff * (2 ** 0)),
            expected_rng.uniform(0.0, backoff * (2 ** 1)),
        ]
        assert sleeps == expected, (
            "each retry must draw a fresh full-jitter delay from the "
            "exponential window, not reuse the first draw"
        )
        for attempt, delay in enumerate(sleeps, start=1):
            assert 0.0 <= delay <= backoff * (2 ** (attempt - 1))


# ---------------------------------------------------------------------------
# Server-side deadlines and shutdown
# ---------------------------------------------------------------------------


class SlowService:
    """Stand-in whose submit() takes as long as told."""

    def __init__(self, delay, request_timeout=None):
        self.delay = delay
        self.request_timeout = request_timeout
        self.timeouts = 0

    async def submit(self, problem):
        await asyncio.sleep(self.delay)
        raise AssertionError("submit completed despite the deadline")


def solve_line(deadline=None):
    from repro.io.json_io import problem_to_dict

    problem = Problem(Chain([2], [3]), "makespan", n=2)
    request = {"id": "r1", "op": "solve", "problem": problem_to_dict(problem)}
    if deadline is not None:
        request["deadline"] = deadline
    return json.dumps(request)


class TestRequestDeadlines:
    def test_service_ceiling_times_out_slow_solves(self):
        service = SlowService(5, request_timeout=0.05)
        response = asyncio.run(handle_request(service, solve_line()))
        assert response["ok"] is False
        assert response["error_kind"] == "timeout"
        assert service.timeouts == 1

    def test_request_deadline_tightens_the_ceiling(self):
        service = SlowService(5, request_timeout=30)
        response = asyncio.run(
            handle_request(service, solve_line(deadline=0.05))
        )
        assert response["error_kind"] == "timeout"

    def test_bogus_deadline_field_is_ignored(self, monkeypatch):
        # with no ceiling configured, an ignored field leaves the solve
        # unbounded: no asyncio.wait_for at all (True would read as 1 s)
        timeouts = []
        wait_for = asyncio.wait_for

        async def recording_wait_for(awaitable, timeout):
            timeouts.append(timeout)
            return await wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", recording_wait_for)
        service = ScheduleService(store=SolutionStore(), workers=1)
        try:
            for bogus in ("soon", True, False, 0, -1, float("nan")):
                response = asyncio.run(
                    handle_request(service, solve_line(deadline=bogus))
                )
                assert response["ok"] is True, bogus
                assert timeouts == [], bogus
        finally:
            service.close()

    def test_fast_solve_beats_its_deadline(self):
        service = ScheduleService(store=SolutionStore(), workers=1,
                                  request_timeout=30)
        try:
            response = asyncio.run(handle_request(service, solve_line()))
            assert response["ok"] is True and not response["cached"]
        finally:
            service.close()

    def test_nonpositive_ceiling_rejected(self):
        with pytest.raises(ValueError, match="request_timeout"):
            ScheduleService(store=SolutionStore(), request_timeout=0)


class TestGracefulShutdown:
    def test_submit_after_begin_shutdown_is_refused(self):
        async def run():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                service.begin_shutdown()
                assert service.closing
                with pytest.raises(ServiceClosingError):
                    await service.submit(Problem(Chain([2], [3]),
                                                 "makespan", n=2))
                assert service.stats()["closing"] is True
            finally:
                service.close()

        asyncio.run(run())

    def test_shutdown_maps_to_shutting_down_kind(self):
        async def run():
            service = ScheduleService(store=SolutionStore(), workers=1)
            try:
                service.begin_shutdown()
                return await handle_request(service, solve_line())
            finally:
                service.close()

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error_kind"] == "shutting_down"

    def test_aclose_drains_inflight_solves(self):
        async def run():
            service = ScheduleService(store=SolutionStore(), workers=2)
            problem = Problem(Chain([2, 3], [3, 5]), "makespan", n=30)
            task = asyncio.ensure_future(service.submit(problem))
            await asyncio.sleep(0)  # let the solve enter the executor
            await service.aclose()
            outcome = await task  # the in-flight answer still lands
            assert outcome.solution.makespan > 0
            assert service.closing

        asyncio.run(run())
