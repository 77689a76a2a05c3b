"""JSON-lines wire protocol of the scheduling service, plus its client.

One request per line in, one response per line out; responses carry the
request ``id`` so a pipelined client can match them out of order (the
engine answers concurrently — that concurrency is what request
coalescing feeds on).

Requests::

    {"id": "r1", "op": "solve", "problem": { ...problem_to_dict... }}
    {"id": "r2", "op": "stats"}
    {"id": "r3", "op": "ping"}
    {"id": "r4", "op": "shutdown"}   # drain in-flight answers, ack
                                     # {"ok": true, "shutdown": true} and
                                     # close this connection (over stdio
                                     # that ends the serving process; a TCP
                                     # server keeps listening for others)

Solve responses::

    {"id": "r1", "ok": true, "cached": false, "coalesced": false,
     "fingerprint": "…", "solution": { ...solution_to_dict... }}

:func:`serve_line` renders each response line's text and is what the
serving loop writes; :func:`handle_request` returns the same response
as a dict.  The ``solution`` text comes from
:func:`~repro.io.json_io.solution_to_json`, which writes the bytes of
``json.dumps(solution_to_dict(...))`` straight from the schedule's
columns, for misses and hits alike.

A solve request may carry ``"deadline": seconds``; the server also
enforces its own ``request_timeout`` ceiling (the tighter one wins) and
answers an expired request with ``error_kind:"timeout"`` instead of
holding the connection.  A solve whose answer could hold more than
:data:`MAX_SERVED_TASKS` tasks is refused as ``bad_request`` before any
solver thread sees it.

Errors come back as ``{"ok": false, "error": "…", "error_kind": k}`` with
``k`` ∈ ``no_solver`` / ``infeasible`` / ``validation`` / ``bad_request`` /
``timeout`` / ``shutting_down`` / ``error`` — the same taxonomy the CLI
maps to exit codes.  The sharded fleet adds two *retriable* kinds:
``overloaded`` (the owning shard's queue is full — the fleet sheds load
instead of piling it up) and ``unavailable`` (no live shard right now);
both carry ``"retriable": true`` so callers can tell backpressure from a
permanent refusal.

:class:`ServiceClient` is the synchronous counterpart used by tests and
the CI smoke job: it spawns ``repro serve`` as a subprocess (stdio
transport) or connects to a TCP endpoint, and speaks the protocol
blockingly, one request at a time.
"""

from __future__ import annotations

import asyncio
import json
import math
import numbers
import os
import random
import select
import subprocess
import sys
import time
from typing import Any, Mapping, Optional

from ..core.schedule import adapter_for
from ..core.types import InfeasibleScheduleError, ReproError
from ..io.json_io import (
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_json,
)
from ..obs import metrics as _obs
from ..obs import tracing as _trace
from ..solve import Problem, Solution
from ..solve.problem import NoSolverError, ValidationError
from .frontend import ServiceClosingError

PROTOCOL_VERSION = 1

__all__ = [
    "MAX_SERVED_TASKS",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "error_kind_of",
    "handle_request",
    "serve_line",
    "smoke",
]


class ServiceError(ReproError):
    """An error response from the service, re-raised client-side."""

    def __init__(self, message: str, kind: str = "error"):
        self.kind = kind
        super().__init__(message)


class ServiceTimeout(ServiceError):
    """The client-side deadline fired before a response line arrived."""

    def __init__(self, message: str):
        super().__init__(message, kind="timeout")


#: client-side error kinds worth retrying on an idempotent op: the request
#: may or may not have been served, but re-asking cannot corrupt anything.
_RETRYABLE_KINDS = frozenset({"timeout", "connection"})
#: *response* kinds a healthy server emits when it cannot take the work
#: right now (fleet load-shedding / no live shard) — retried with backoff
#: on the same connection; the transport itself is fine.
_RETRYABLE_RESPONSE_KINDS = frozenset({"overloaded", "unavailable"})
#: ops safe to re-send — asking twice computes (at most) twice but answers
#: identically; ``shutdown`` is excluded (the first one may have landed).
_IDEMPOTENT_OPS = frozenset({"solve", "stats", "ping"})


#: the most tasks a served answer may hold.  A solve request whose answer
#: could hold more is refused as ``bad_request`` before it reaches a
#: solver thread: a deadline answer grows with ``t_lim``, and a solve that
#: outlives its request deadline keeps its thread and its memory.
MAX_SERVED_TASKS = 2 ** 17


def _answer_size_bound(problem: Problem) -> float:
    """An upper bound on the tasks ``problem``'s answer can hold: ``n``,
    and for a deadline problem also Σ_p ⌊t_lim / w_p⌋ — every platform
    has ``w > 0``, so processor ``p`` runs at most ⌊t_lim / w_p⌋ tasks by
    ``t_lim``.  An absent ``n``, or a ``t_lim`` that is not a finite
    number, counts as unbounded (``inf``)."""
    n, t_lim = problem.n, problem.t_lim
    bound = n if isinstance(n, numbers.Real) else math.inf
    if problem.kind == "deadline" and (
        isinstance(t_lim, numbers.Rational)
        or (isinstance(t_lim, float) and math.isfinite(t_lim))
    ):
        adapter = adapter_for(problem.platform)
        bound = min(bound, sum(t_lim // adapter.work(p)
                               for p in adapter.processors()))
    return bound


def error_kind_of(exc: BaseException) -> str:
    """The protocol's error taxonomy (shared with the CLI's exit codes)."""
    if isinstance(exc, NoSolverError):
        return "no_solver"
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, InfeasibleScheduleError):
        return "infeasible"
    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(exc, ServiceClosingError):
        return "shutting_down"
    return "error"


#: the ``op`` values a metric may carry as its label; any other op a
#: client sends is recorded as ``unknown`` (a label per client-chosen
#: string would grow the metrics registry, and ``stats``, without bound).
METRIC_OPS = frozenset({"solve", "stats", "ping", "shutdown", "inject",
                        "malformed"})


def op_label(op: Any) -> str:
    """The metric label of a request's ``op`` (see :data:`METRIC_OPS`)."""
    return op if isinstance(op, str) and op in METRIC_OPS else "unknown"


def _observe_op(service: Any, op: Any, t0: float) -> None:
    """Record one request's latency into the service's per-op histogram
    (``stats`` exposes the percentiles).  Fake services in tests may not
    carry a registry — then only the global counter is bumped."""
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    label = op_label(op)
    registry = getattr(service, "metrics", None)
    if isinstance(registry, _obs.MetricsRegistry):
        registry.histogram("service.op_ms", op=label).observe(elapsed_ms)
    _obs.counter("service.ops", op=label).inc()


async def serve_line(service: Any, raw_line: str) -> str:
    """Decode one request line, serve it, render the response line's text
    (no newline) — what the serving loop writes.

    Every request — including malformed ones — is timed into the
    service's per-op latency histogram (surfaced as percentiles by the
    ``stats`` op) and spanned as ``service.request`` when tracing is on.
    On a chaos-armed service an armed garble truncates the text here; an
    ``inject`` ack is never garbled, so arming a garble cannot eat it."""
    op, text = await _serve_line(service, raw_line)
    chaos = getattr(service, "chaos", None)
    if chaos is not None and op != "inject":
        text = chaos.mangle(text)
    return text


async def handle_request(service: Any, raw_line: str) -> dict[str, Any]:
    """:func:`serve_line`'s response as a dict (before any chaos garble):
    the in-process entry point for tests, scripts and benchmarks."""
    _op, text = await _serve_line(service, raw_line)
    return json.loads(text)


async def _serve_line(service: Any, raw_line: str) -> tuple[str, str]:
    """``(op, response text)`` of one request line."""
    t0 = time.perf_counter()
    try:
        with _trace.span("service.decode"):
            request = json.loads(raw_line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        _observe_op(service, "malformed", t0)
        return "malformed", json.dumps({
            "id": None, "ok": False, "error": f"malformed request: {exc}",
            "error_kind": "bad_request"})
    op = request.get("op", "solve")
    chaos = getattr(service, "chaos", None)
    if chaos is not None and op != "inject":
        # a chaos-armed worker misbehaves *here*: hangs never answer
        # (the supervisor's ping deadline is the way out), slows sleep
        # before serving — health pings included, as a real stall would
        await chaos.gate()
    with _trace.span("service.request", op=op):
        text = await _serve_op(service, request, op)
    _observe_op(service, op, t0)
    return op, text


async def _serve_op(service: Any, request: dict[str, Any], op: str) -> str:
    if op != "solve":
        return json.dumps(_answer_op(service, request, op))
    rid = request.get("id")
    try:
        with _trace.span("service.decode", part="problem"):
            problem = problem_from_dict(request["problem"])
    except Exception as exc:  # noqa: BLE001 - any bad payload is the client's fault
        return json.dumps({
            "id": rid, "ok": False,
            "error": f"bad problem payload: {type(exc).__name__}: {exc}",
            "error_kind": "bad_request"})
    if not _answer_size_bound(problem) <= MAX_SERVED_TASKS:
        return json.dumps({
            "id": rid, "ok": False,
            "error": f"the answer could hold more than {MAX_SERVED_TASKS} "
                     f"tasks; bound n (or t_lim) to ask for fewer",
            "error_kind": "bad_request"})
    # per-request deadline: the service's configured ceiling, tightened
    # (never loosened) by the request's own "deadline" field; a boolean
    # is no number of seconds, though Python counts it as an int
    deadline = getattr(service, "request_timeout", None)
    requested = request.get("deadline")
    if (isinstance(requested, (int, float))
            and not isinstance(requested, bool) and requested > 0):
        deadline = requested if deadline is None else min(deadline, requested)
    try:
        if deadline is not None:
            outcome = await asyncio.wait_for(service.submit(problem), deadline)
        else:
            outcome = await service.submit(problem)
    except asyncio.TimeoutError:
        service.timeouts = getattr(service, "timeouts", 0) + 1
        _obs.counter("service.timeouts").inc()
        return json.dumps({
            "id": rid, "ok": False,
            "error": f"request exceeded its {deadline}s deadline",
            "error_kind": "timeout"})
    except Exception as exc:  # noqa: BLE001 - one bad request must not kill the loop
        return json.dumps({
            "id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}",
            "error_kind": error_kind_of(exc)})
    with _trace.span("service.encode", cached=outcome.cached):
        # the same bytes as json.dumps of the whole response dict, with
        # "solution" last
        head = json.dumps({
            "id": rid, "ok": True, "cached": outcome.cached,
            "coalesced": outcome.coalesced, "fingerprint": outcome.fingerprint,
        })
        return f'{head[:-1]}, "solution": {solution_to_json(outcome.solution)}}}'


def _answer_op(service: Any, request: dict[str, Any], op: str) -> dict[str, Any]:
    """The response to every op but ``solve``."""
    rid = request.get("id")
    if op == "ping":
        return {"id": rid, "ok": True, "pong": True,
                "protocol": PROTOCOL_VERSION}
    if op == "stats":
        response = {"id": rid, "ok": True, "stats": service.stats()}
        registry = getattr(service, "metrics", None)
        if request.get("snapshot") and isinstance(registry, _obs.MetricsRegistry):
            # raw mergeable snapshot (fixed-edge histograms + counters) —
            # the shard router folds these into fleet-wide percentiles
            response["snapshot"] = registry.snapshot()
        return response
    chaos = getattr(service, "chaos", None)
    if op == "inject" and chaos is not None:
        return chaos.inject(request)
    return {"id": rid, "ok": False, "error": f"unknown op {op!r}",
            "error_kind": "bad_request"}


class ServiceClient:
    """Blocking JSON-lines client (tests, smoke checks, scripting).

    Construct via :meth:`spawn` (fresh ``repro serve`` subprocess over
    stdio) or :meth:`connect` (TCP).  Use as a context manager; one
    request in flight at a time.

    **Resilience** (all off by default): ``timeout`` bounds how long one
    request waits for its response line; ``retries`` re-sends *idempotent*
    ops (solve / stats / ping) after a timeout or connection failure, with
    exponential backoff and full jitter starting at ``backoff`` seconds.
    Each retry reconnects first — after a stall the old stream's framing
    cannot be trusted (a late response line would answer the wrong
    request).  Non-idempotent ops (shutdown) never retry."""

    def __init__(self, reader, writer, proc: Optional[subprocess.Popen] = None,
                 sock=None, timeout: Optional[float] = None, retries: int = 0,
                 backoff: float = 0.1):
        self._reader = reader
        self._writer = writer
        self._proc = proc
        self._sock = sock
        self._next_id = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._rng = random.Random()  # per-instance: fresh jitter per attempt
        self._buf = b""
        self._respawn: Optional[tuple] = None  # spawn() args, for reconnects
        self._addr: Optional[tuple] = None  # (host, port), for reconnects
        try:
            self._fd: Optional[int] = (
                sock.fileno() if sock is not None else reader.fileno()
            )
        except (AttributeError, OSError):
            self._fd = None  # exotic reader (tests): fall back to readline()

    # -- transports ----------------------------------------------------------

    @classmethod
    def spawn(
        cls,
        store_path: Optional[str] = None,
        workers: int = 2,
        capacity: int = 256,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.1,
    ) -> "ServiceClient":
        """Launch ``repro serve`` (stdio transport) and connect to it."""
        cmd = [sys.executable, "-m", "repro", "serve",
               "--workers", str(workers), "--capacity", str(capacity)]
        if store_path is not None:
            cmd += ["--store", str(store_path)]
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        client = cls(proc.stdout, proc.stdin, proc,
                     timeout=timeout, retries=retries, backoff=backoff)
        client._respawn = (store_path, workers, capacity)
        return client

    @classmethod
    def connect(cls, host: str, port: int, timeout: Optional[float] = None,
                retries: int = 0, backoff: float = 0.1) -> "ServiceClient":
        """Connect to a ``repro serve --tcp`` endpoint."""
        import socket

        sock = socket.create_connection((host, port))
        client = cls(sock.makefile("r"), sock.makefile("w"), sock=sock,
                     timeout=timeout, retries=retries, backoff=backoff)
        client._addr = (host, port)
        return client

    def _reconnect(self) -> None:
        """Tear down the transport and rebuild it (TCP redial / respawn).
        Raises :class:`ServiceError` when this client has no recipe."""
        if self._addr is not None:
            import socket

            self._teardown()
            sock = socket.create_connection(self._addr)
            self._sock = sock
            self._reader = sock.makefile("r")
            self._writer = sock.makefile("w")
            self._fd = sock.fileno()
            self._buf = b""
            return
        if self._respawn is not None:
            store_path, workers, capacity = self._respawn
            self._teardown()
            fresh = type(self).spawn(store_path, workers, capacity)
            self._reader, self._writer = fresh._reader, fresh._writer
            self._proc, self._fd = fresh._proc, fresh._fd
            self._buf = b""
            return
        raise ServiceError(
            "cannot reconnect: client was built from raw streams", "connection"
        )

    # -- protocol ------------------------------------------------------------

    def _read_line(self, timeout: Optional[float]) -> str:
        """One response line (without the newline), raw-fd based so a
        deadline can interrupt the wait.  Empty string means EOF."""
        if self._fd is None:  # no fileno: plain blocking readline
            line = self._reader.readline()
            return line.decode() if isinstance(line, bytes) else line
        deadline = None if timeout is None else time.monotonic() + timeout
        while b"\n" not in self._buf:
            if deadline is None:
                wait = None
            else:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise ServiceTimeout(
                        f"no response line within {timeout}s"
                    )
            ready, _, _ = select.select([self._fd], [], [], wait)
            if not ready:
                continue  # loop re-checks the deadline
            try:
                chunk = os.read(self._fd, 1 << 16)
            except ConnectionResetError as exc:
                # a torn-down peer may surface as RST instead of a clean
                # EOF, depending on who wins the close/read race — same
                # meaning as the empty-chunk case below
                raise ServiceError(
                    f"connection closed by server ({exc})", "connection"
                ) from exc
            except OSError as exc:
                raise ServiceError(
                    f"connection lost mid-read ({exc})", "connection"
                ) from exc
            if not chunk:
                # EOF with a partial line buffered = the server died
                # mid-response; either way the stream is over
                self._buf = b""
                return ""
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode()

    def _request_once(
        self, message: Mapping[str, Any], timeout: Optional[float]
    ) -> dict[str, Any]:
        try:
            self._writer.write(json.dumps(message) + "\n")
            self._writer.flush()
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            # a torn-down peer may surface as RST instead of a clean EOF,
            # depending on who wins the close/write race — same meaning
            raise ServiceError(
                f"connection closed by server ({exc})", "connection"
            ) from exc
        line = self._read_line(timeout)
        if not line:
            detail = ""
            if self._proc is not None and self._proc.poll() is not None:
                stderr = self._proc.stderr.read() if self._proc.stderr else ""
                detail = f" (server exited {self._proc.returncode}: {stderr.strip()})"
            raise ServiceError(
                f"connection closed by server{detail}", "connection"
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            # a partial/garbled line: framing is gone, treat as a dead
            # connection so a retry reconnects instead of misparsing
            raise ServiceError(
                f"garbled response line ({exc})", "connection"
            ) from exc

    def request(
        self,
        payload: Mapping[str, Any],
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> dict[str, Any]:
        """Send one request dict, block for its response dict.

        ``timeout``/``retries`` override the client-wide defaults for this
        request.  Retries apply only to idempotent ops and only to
        timeout/connection failures (see class docstring); each retry
        reconnects, waits ``backoff * 2^attempt`` scaled by full jitter,
        and re-sends under a fresh request id."""
        timeout = self.timeout if timeout is None else timeout
        retries = self.retries if retries is None else retries
        op = payload.get("op", "solve")
        attempts = 1 + (retries if op in _IDEMPOTENT_OPS else 0)
        failure: Optional[ServiceError] = None
        shed_response: Optional[dict[str, Any]] = None
        reconnect = False
        for attempt in range(attempts):
            if attempt:
                # fresh full jitter every attempt — a herd of retrying
                # clients must decorrelate on *each* round, not share one
                # sleep drawn at the first failure
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(self._rng.uniform(0.0, delay))
                if reconnect:
                    try:
                        self._reconnect()
                    except ServiceError as exc:
                        # no reconnect recipe / redial failed: surface this
                        # *last* failure, with the transport error that
                        # forced the reconnect chained underneath
                        raise exc from failure
            self._next_id += 1
            message = {"id": f"c{self._next_id}", **payload}
            try:
                response = self._request_once(message, timeout)
            except ServiceError as exc:
                if exc.kind not in _RETRYABLE_KINDS:
                    raise
                # after a stall or drop the old stream's framing cannot be
                # trusted; the next attempt starts from a fresh transport
                failure, reconnect = exc, True
                continue
            if (
                response.get("error_kind") in _RETRYABLE_RESPONSE_KINDS
                and op in _IDEMPOTENT_OPS
            ):
                # the server answered "not now" (fleet shedding load /
                # momentarily shard-less): back off and re-ask on the
                # same, perfectly healthy connection
                shed_response, reconnect = response, False
                continue
            return response
        if failure is not None and (reconnect or shed_response is None):
            raise failure  # the *last* transport failure, most recent first
        assert shed_response is not None
        return shed_response

    def solve(self, problem: Problem) -> tuple[Solution, dict[str, Any]]:
        """Solve ``problem`` remotely; returns ``(solution, meta)`` where
        meta holds ``cached`` / ``coalesced`` / ``fingerprint``."""
        response = self.request({"op": "solve",
                                 "problem": problem_to_dict(problem)})
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"),
                               response.get("error_kind", "error"))
        meta = {k: response.get(k) for k in ("cached", "coalesced", "fingerprint")}
        return solution_from_dict(response["solution"]), meta

    def stats(self) -> dict[str, Any]:
        response = self.request({"op": "stats"})
        if not response.get("ok"):
            raise ServiceError(response.get("error", "stats failed"))
        return response["stats"]

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def shutdown(self) -> bool:
        """Ask the server to drain, ack, and close this connection."""
        return bool(self.request({"op": "shutdown"}).get("shutdown"))

    def _teardown(self) -> None:
        for resource in (self._writer, self._reader, self._sock):
            if resource is None:
                continue
            try:
                resource.close()
            except Exception:  # noqa: BLE001 - already-dead transport is fine
                pass
        self._sock = None
        if self._proc is not None:
            # the handle stays (callers inspect returncode after close)
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stderr is not None:
                self._proc.stderr.close()

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def smoke() -> dict[str, Any]:
    """End-to-end liveness check (the CI smoke job): spawn ``repro serve``,
    issue three requests — identical, identical again (must be a cache
    hit), and a leg-relabeled isomorphic platform (must also hit) — and
    assert the answers agree and that only the miss scanned (``replay.scans``
    in ``stats``).  Returns a summary dict."""
    from ..platforms.chain import Chain
    from ..platforms.spider import Spider

    legs = [Chain([2, 3], [3, 5]), Chain([1], [4]), Chain([2, 2], [2, 6])]
    spider = Spider(legs)
    relabeled = Spider([legs[2], legs[0], legs[1]])
    answers, scans = [], []
    with ServiceClient.spawn(workers=2) as client:
        assert client.ping(), "service did not answer ping"
        for platform in (spider, spider, relabeled):
            scans.append(client.stats()["replay"]["scans"])
            answers.append(client.solve(Problem(platform, "makespan", n=16)))
        stats = client.stats()
    (sol1, meta1), (sol2, meta2), (sol3, meta3) = answers
    assert meta1["cached"] is False, "first request cannot be a hit"
    assert meta2["cached"] is True, "second identical request must hit"
    assert meta3["cached"] is True, "relabeled isomorphic request must hit"
    assert sol1.makespan == sol2.makespan == sol3.makespan
    assert meta1["fingerprint"] == meta2["fingerprint"] == meta3["fingerprint"]
    sol3.validate()  # bit-exact replay on the *relabeled* platform
    scans.append(stats["replay"]["scans"])
    added = [b - a for a, b in zip(scans, scans[1:])]
    assert added == [1, 0, 0], f"scans per request: {added}"
    return {
        "requests": 3,
        "hits": stats["store"]["hits"],
        "scans": added,
        "makespan": sol1.makespan,
        "fingerprint": meta1["fingerprint"],
    }
