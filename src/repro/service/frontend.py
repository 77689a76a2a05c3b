"""The JSON-lines serving loop, shared by every service front-end.

:class:`JsonLinesFrontend` is the transport half of a service: it drives
one JSON-lines connection (stdio or TCP), answers requests concurrently,
and owns the **graceful-shutdown contract** — a ``SIGTERM``/``SIGINT``
(or an ``op:"shutdown"`` request) stops the read loop, lets every
in-flight response finish and flush, and returns cleanly so the process
can exit 0 instead of dying mid-response.

Two subclasses serve through it:

* :class:`repro.service.engine.ScheduleService` — one process, one store
  (``repro serve``);
* :class:`repro.service.shard.ShardRouter` — the fleet front-end that
  consistent-hashes requests across supervised worker processes
  (``repro serve --shards N``).

The mixin writes, for each request line, the text the subclass's
``render_line`` returns: :func:`repro.service.protocol.serve_line` for
the single-process service (every answer written straight from its
schedule's columns), the worker's validated answer line with the client's
id spliced in for the router.  Each connection runs one reader, one
stop watcher and one task per request line; a handler that raises still
gets its line exactly one ``error`` answer.

**Chaos hooks** (:class:`ChaosState`): a worker launched with
``--chaos-ops`` accepts ``op:"inject"`` requests that make it misbehave
on purpose — answer slowly, stop answering entirely (hang), or emit a
truncated JSON line (garble).  They model *transport-level* failure:
the chaos harness uses them to prove the fleet never turns a worker's
garbage into a client's answer.  The protocol layer applies them, so an
inject's own ack is never garbled.  Without ``--chaos-ops`` the op does
not exist.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import sys
import traceback
from typing import Any, Optional

__all__ = ["ChaosState", "JsonLinesFrontend", "LINE_LIMIT", "READ_SIZE",
           "ServiceClosingError"]

#: max bytes of one protocol line (asyncio's 64 KiB default chokes on big
#: platforms — a large tree's solve request is one long JSON line).
LINE_LIMIT = 16 * 2**20

#: max bytes one read from a served pipe or socket takes.  asyncio's
#: transports read 256 KiB per call, above glibc's initial 128 KiB mmap
#: threshold, so each read of a short request line maps and unmaps fresh
#: pages: about two minor page faults and ~20 µs of CPU per line (measured
#: on x86-64 Linux).  64 KiB reads come from the heap; a long line just
#: takes more reads.
READ_SIZE = 64 * 2**10


class ServiceClosingError(RuntimeError):
    """The service is draining for shutdown and takes no new work."""


class ChaosState:
    """Injected-fault state of one chaos-enabled worker (``--chaos-ops``).

    Faults arm via ``{"op": "inject", "fault": ..., ...}``:

    * ``slow`` — delay the next ``count`` responses by ``seconds`` each;
    * ``hang`` — stop answering *everything* (health pings included)
      until the supervisor's deadline declares the worker dead;
    * ``garble`` — truncate the next ``count`` response lines mid-JSON
      (framing says "complete line", the payload is cut off); the
      inject's own ack is not one of them.
    """

    __slots__ = ("slow_s", "slow_left", "garble_left", "hung")

    def __init__(self) -> None:
        self.slow_s = 0.0
        self.slow_left = 0
        self.garble_left = 0
        self.hung = False

    def inject(self, request: dict[str, Any]) -> dict[str, Any]:
        """Arm one fault from an ``inject`` request; returns the response
        (``bad_request`` naming the field for an unknown fault, a
        ``count`` that is not a non-negative integer or a ``seconds``
        that is not a finite non-negative number)."""
        rid = request.get("id")
        fault = request.get("fault")
        count = request.get("count", 1)
        seconds = request.get("seconds", 0.25)
        if fault not in ("slow", "hang", "garble"):
            error = f"unknown fault {fault!r}"
        elif type(count) is not int or count < 0:
            error = f"field 'count' must be a non-negative integer, got {count!r}"
        elif (isinstance(seconds, bool) or not isinstance(seconds, (int, float))
              or not 0 <= seconds < math.inf):
            error = (f"field 'seconds' must be a finite non-negative number, "
                     f"got {seconds!r}")
        else:
            error = None
        if error is not None:
            return {"id": rid, "ok": False, "error": error,
                    "error_kind": "bad_request"}
        if fault == "slow":
            self.slow_s = float(seconds)
            self.slow_left = count
        elif fault == "hang":
            self.hung = True
        else:
            self.garble_left = count
        return {"id": rid, "ok": True, "fault": fault, "count": count}

    async def gate(self) -> None:
        """Awaited before serving any non-inject op: a hung worker never
        answers again (its supervisor will kill it); a slowed worker
        sleeps off the armed delay first."""
        if self.hung:
            await asyncio.Event().wait()  # never set: silence, on purpose
        if self.slow_left > 0:
            self.slow_left -= 1
            await asyncio.sleep(self.slow_s)

    def mangle(self, text: str) -> str:
        """Corrupt an outgoing response line while a garble is armed."""
        if self.garble_left > 0:
            self.garble_left -= 1
            return text[: max(1, len(text) // 2)]
        return text


class JsonLinesFrontend:
    """Serving-loop mixin (see module docstring).  Subclasses provide
    :meth:`render_line` and, optionally, ``begin_shutdown()``."""

    # -- shutdown signalling -------------------------------------------------

    def _stop_event(self) -> asyncio.Event:
        ev = getattr(self, "_stop_ev", None)
        if ev is None:
            ev = self._stop_ev = asyncio.Event()
        return ev

    def request_shutdown(self) -> None:
        """Begin a graceful drain: refuse new work, stop the read loops,
        let in-flight responses flush.  Safe to call from a signal
        handler on the event loop."""
        begin = getattr(self, "begin_shutdown", None)
        if begin is not None:
            begin()
        ev = getattr(self, "_stop_ev", None)
        if ev is not None:
            ev.set()

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` into :meth:`request_shutdown` so
        ``repro serve`` drains and exits 0 instead of dying mid-response.
        Must run inside the serving event loop."""
        loop = asyncio.get_running_loop()
        self._stop_event()  # materialise before any signal can fire
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: fall back to KeyboardInterrupt

    async def render_line(self, raw_line: str) -> str:
        """Serve one raw request line; returns the response line's text
        (no newline)."""
        raise NotImplementedError

    # -- serving loops (JSON-lines protocol) --------------------------------

    async def handle_connection(self, readline, send) -> None:
        """Drive one JSON-lines connection: ``readline`` is an async
        zero-arg callable yielding one line (empty at EOF), ``send`` an
        *async* callable taking one response **string** (awaited per
        response, so transport backpressure applies).  Requests are
        answered concurrently (a pipelined client is what coalescing
        exists for); responses carry the request ``id`` so order does
        not matter.

        ``op:"shutdown"`` lets in-flight answers finish, acks, and ends
        the connection (over stdio that ends the serving process); a
        :meth:`request_shutdown` (SIGTERM/SIGINT) does the same for
        every live connection at once.

        One reader task awaits ``readline`` and starts one respond task
        per request line; a watcher task cancels the reader when a
        shutdown is requested while it waits for a line, and only then:
        a reader flushing answers before a shutdown ack finishes the
        ack.  The respond tasks never belong to the reader, so
        cancelling it cancels no answer."""
        loop = asyncio.get_running_loop()
        pending: set[asyncio.Task] = set()
        stop = self._stop_event()
        waiting_for_line = False

        async def deliver(text: str) -> None:
            try:
                await send(text)
            except Exception as exc:  # noqa: BLE001 - client went away mid-send
                print(f"repro serve: dropped response for dead client: {exc}",
                      file=sys.stderr)

        async def respond(raw_line: str) -> None:
            try:
                text = await self.render_line(raw_line)
            except Exception as exc:  # noqa: BLE001 - the loop must keep serving
                traceback.print_exc(file=sys.stderr)
                request = _request_object(raw_line) or {}
                text = json.dumps({"id": request.get("id"), "ok": False,
                                   "error": f"internal error: "
                                            f"{type(exc).__name__}: {exc}",
                                   "error_kind": "error"})
            await deliver(text)

        async def read_lines() -> None:
            nonlocal waiting_for_line
            while not stop.is_set():
                waiting_for_line = True
                try:
                    line = await readline()
                except ValueError as exc:
                    # a request line past the reader's limit: framing is
                    # lost, so answer what we can and drop the connection
                    waiting_for_line = False
                    await deliver(json.dumps({
                        "id": None, "ok": False,
                        "error": f"request line too long: {exc}",
                        "error_kind": "bad_request"}))
                    return
                waiting_for_line = False
                if not line:
                    return
                text = line.decode() if isinstance(line, bytes) else line
                if text.isspace():
                    continue
                request = _request_object(text) if '"shutdown"' in text else None
                if request is not None and request.get("op") == "shutdown":
                    if pending:
                        # asyncio.wait, not gather: were this reader
                        # cancelled here, the answers must still go out
                        await asyncio.wait(pending)
                    await deliver(json.dumps({"id": request.get("id"),
                                              "ok": True, "shutdown": True}))
                    return
                # respond() never raises (render errors become answers,
                # deliver swallows transport errors), so a discarded done
                # task cannot hide an unretrieved exception
                task = loop.create_task(respond(text))
                pending.add(task)
                task.add_done_callback(pending.discard)

        async def watch_stop() -> None:
            await stop.wait()
            if waiting_for_line:
                reader.cancel()

        reader = loop.create_task(read_lines())
        watcher = loop.create_task(watch_stop())
        try:
            await asyncio.wait((reader,))
        finally:
            watcher.cancel()
            reader.cancel()
            if pending:  # flush every in-flight response before returning
                await asyncio.gather(*pending)
        if not reader.cancelled():
            reader.result()  # a transport error other than a long line

    async def serve_stdio(self) -> None:
        """Serve the protocol on stdin/stdout (the ``repro serve`` default)."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=LINE_LIMIT)
        transport, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        transport.max_size = READ_SIZE

        async def send(text: str) -> None:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()

        await self.handle_connection(reader.readline, send)

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0, ready=None
    ) -> None:
        """Serve the protocol over TCP; ``ready(actual_port)`` fires once
        listening (``port=0`` binds an ephemeral port).  ``op:"shutdown"``
        closes its own connection and the server keeps listening; a
        :meth:`request_shutdown` stops listening, drains every live
        connection, and returns."""
        conns: set[asyncio.Task] = set()

        async def client(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            task = asyncio.current_task()
            if task is not None:
                conns.add(task)
            writer.transport.max_size = READ_SIZE

            async def send(text: str) -> None:
                writer.write((text + "\n").encode())
                await writer.drain()  # per-response backpressure
            try:
                await self.handle_connection(reader.readline, send)
            finally:
                if task is not None:
                    conns.discard(task)
                writer.close()

        stop = self._stop_event()  # before ``ready``: a shutdown may follow it
        server = await asyncio.start_server(client, host, port, limit=LINE_LIMIT)
        if ready is not None:
            ready(server.sockets[0].getsockname()[1])
        async with server:
            serve_task = asyncio.ensure_future(server.serve_forever())
            stop_task = asyncio.ensure_future(stop.wait())
            await asyncio.wait({serve_task, stop_task},
                               return_when=asyncio.FIRST_COMPLETED)
            stop_task.cancel()
            serve_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve_task
            if conns:  # every live connection drains its own in-flight work
                await asyncio.gather(*conns, return_exceptions=True)


def _request_object(text: str) -> Optional[dict[str, Any]]:
    """A request line's JSON object, ``None`` if it is not one."""
    try:
        request = json.loads(text)
    except ValueError:
        return None
    return request if isinstance(request, dict) else None
