"""Supervised worker fleet: spawn, health-check, restart, drain.

One :class:`WorkerProcess` wraps a ``repro serve`` subprocess speaking
the JSON-lines protocol over its stdio pipes.  The wrapper multiplexes
concurrent requests onto the pipe (response ids route answers back to
their futures) and turns every way a worker can betray the router into
one exception — :class:`WorkerDied`:

* process exit / stdout EOF — every pending request fails immediately;
* a **garbled frame** (a stdout line that is not a JSON object, or an
  answer whose ``id`` is not its first field) — the pipe's framing can
  no longer be trusted, so the worker is killed on the spot rather than
  risk attributing a late answer to the wrong request; nothing corrupt
  ever crosses the router.

Every answer line is parsed in full before its waiter sees it;
:meth:`WorkerProcess.forward` hands the router the parsed dict *and*
the line's text, so a solve's answer reaches the client as the worker's
bytes with the id spliced in, not re-encoded.

The :class:`Supervisor` owns one slot per shard and runs a lifecycle
loop per slot: spawn → wait ready (ping) → health-check loop (ping with
deadline every ``ping_interval``) → on death, kill + restart with
exponential backoff.  A slot whose workers crash ``restart_budget``
times in a row (a crash loop) is marked *failed* and permanently
removed from the ring instead of burning CPU forever.  ``on_up`` /
``on_down`` callbacks keep the router's live-shard view current, so
requests fail over the instant a worker is declared dead — not at the
next hash-ring rebuild.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.types import ReproError
from .frontend import LINE_LIMIT, READ_SIZE

__all__ = ["Supervisor", "WorkerConfig", "WorkerDied", "WorkerProcess"]


class WorkerDied(ReproError):
    """The worker cannot answer this request (exited, EOF, garbled frame,
    or it was already marked dead).  Always retriable on another shard —
    solve requests are idempotent."""


@dataclass(frozen=True)
class WorkerConfig:
    """How to launch one fleet worker (``repro serve`` over stdio)."""

    #: per-worker solver thread-pool size (the existing ``--workers``).
    threads: int = 2
    capacity: int = 256
    #: base SQLite path; worker ``i`` gets ``<store_path>.shard<i>`` so
    #: every shard owns its own SQLite tier (``None`` = memory-only).
    store_path: Optional[str] = None
    request_timeout: Optional[float] = None
    #: arm the fault-injection op in the workers (chaos harness only).
    chaos_ops: bool = False

    def shard_store(self, shard_id: int) -> Optional[str]:
        """Worker ``shard_id``'s SQLite path (``None``: memory only)."""
        if self.store_path is None:
            return None
        return f"{self.store_path}.shard{shard_id}"

    def argv(self, shard_id: int) -> list[str]:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--workers", str(self.threads),
               "--capacity", str(self.capacity)]
        if self.store_path is not None:
            cmd += ["--store", self.shard_store(shard_id)]
        if self.request_timeout is not None:
            cmd += ["--request-timeout", str(self.request_timeout)]
        if self.chaos_ops:
            cmd += ["--chaos-ops"]
        return cmd

    @staticmethod
    def env() -> dict[str, str]:
        """Child environment with this ``repro`` importable — the fleet
        must work from a source checkout, not only an installed package."""
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        paths = env.get("PYTHONPATH", "")
        if src_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{paths}" if paths else src_root
            )
        return env


class WorkerProcess:
    """One live worker subprocess plus the request multiplexer over its
    stdio pipes (see module docstring)."""

    def __init__(self, shard_id: int, config: WorkerConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.exited = asyncio.Event()
        self.garbled_frames = 0
        self._pending: dict[str, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._next_id = 0
        self._dead = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            *self.config.argv(self.shard_id),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            limit=LINE_LIMIT,
            env=self.config.env(),
        )
        # the worker's stdout pipe: asyncio.subprocess.Process exposes its
        # transport only as ``_transport``
        self.proc._transport.get_pipe_transport(1).max_size = READ_SIZE
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    @property
    def alive(self) -> bool:
        return (not self._dead and self.proc is not None
                and self.proc.returncode is None)

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def kill(self) -> None:
        """SIGKILL the worker (idempotent; pending requests fail via the
        reader's EOF)."""
        self._dead = True
        self._signal(signal.SIGKILL)

    def _signal(self, sig: int) -> None:
        # os.kill, not Process.kill()/send_signal(): Popen.send_signal
        # polls first (bpo-38630) and so can reap a worker that has just
        # exited before asyncio's child watcher does; the watcher then
        # reports returncode 255 instead of the real exit status
        if self.proc is not None and self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.proc.pid, sig)

    async def wait(self) -> None:
        if self.proc is not None:
            await self.proc.wait()
        if self._reader_task is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task

    async def terminate(self, grace: float = 5.0) -> None:
        """Graceful stop: ``op:"shutdown"`` (drains the worker), escalate
        to SIGTERM then SIGKILL if it does not exit within ``grace``."""
        if self.proc is None:
            return
        if self.alive:
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    self.request({"op": "shutdown"}), timeout=grace
                )
                # acked: the worker exits by itself.  A SIGTERM now could
                # land after its loop restored the default handler and
                # kill it mid-exit (returncode -15)
                await asyncio.wait_for(self.proc.wait(), timeout=grace)
        self._dead = True
        if self.proc.returncode is None:
            self._signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), timeout=grace)
            except asyncio.TimeoutError:
                self.kill()
        await self.wait()

    # -- request multiplexing ------------------------------------------------

    async def _read_loop(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        reason = "worker closed its pipe"
        try:
            while True:
                line = await self.proc.stdout.readline()
                if not line:
                    break
                try:
                    text = line.decode().rstrip()
                    response = json.loads(text)
                    if not isinstance(response, dict):
                        raise ValueError("response is not an object")
                    wid = response.get("id")
                    if not isinstance(wid, str) or wid not in self._pending:
                        continue  # a late answer to a reaped request
                    head = f'{{"id": "{wid}"'
                    if not text.startswith(head):
                        # the router splices the client's id over this
                        # head; a line that does not open with it is not
                        # a frame this worker renders
                        raise ValueError("response id is not its first field")
                except ValueError:
                    # one bad frame poisons the whole stream: a later
                    # "valid" line might be the tail of this one.  Kill
                    # the worker; the supervisor restarts it clean.
                    self.garbled_frames += 1
                    reason = "worker emitted a garbled frame"
                    break
                fut = self._pending.pop(wid)
                if not fut.done():
                    fut.set_result((response, text[len(head):]))
        finally:
            self._dead = True
            self.kill()
            self._fail_pending(WorkerDied(
                f"shard {self.shard_id}: {reason}"
            ))
            self.exited.set()

    def _fail_pending(self, exc: WorkerDied) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)
                # a cancelled awaiter never retrieves the exception; the
                # death is deliberate, so silence the destructor warning
                fut.exception()

    async def request(
        self, payload: dict[str, Any], timeout: Optional[float] = None
    ) -> dict[str, Any]:
        """Send one request to the worker, await its response (concurrent
        calls multiplex by id).  Raises :class:`WorkerDied` when the
        worker cannot answer, :class:`asyncio.TimeoutError` on deadline
        (the entry is reaped so a late answer is dropped, not misrouted
        — the id is never reused)."""
        response, _rest = await self.forward(payload, timeout)
        return response

    async def forward(
        self, payload: dict[str, Any], timeout: Optional[float] = None
    ) -> tuple[dict[str, Any], str]:
        """:meth:`request`, plus the text of the answer line after its
        opening ``{"id": <id>`` (no newline): ``'{"id": ' + json.dumps(x)
        + rest`` is the answer with its id replaced by ``x``.  The reader
        has parsed the whole line into the returned dict first, so
        ``rest`` is never a garbled frame's."""
        if not self.alive or self.proc is None or self.proc.stdin is None:
            raise WorkerDied(f"shard {self.shard_id}: worker is down")
        self._next_id += 1
        wid = f"w{self._next_id}"
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending[wid] = fut
        try:
            self.proc.stdin.write(
                (json.dumps({**payload, "id": wid}) + "\n").encode()
            )
            await self.proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._pending.pop(wid, None)
            raise WorkerDied(
                f"shard {self.shard_id}: stdin write failed ({exc})"
            ) from exc
        try:
            if timeout is not None:
                return await asyncio.wait_for(fut, timeout)
            return await fut
        finally:
            self._pending.pop(wid, None)

    async def ping(self, deadline: float) -> bool:
        """One health probe; ``False`` on timeout or death."""
        try:
            response = await self.request({"op": "ping"}, timeout=deadline)
        except (WorkerDied, asyncio.TimeoutError):
            return False
        return bool(response.get("pong"))


@dataclass
class WorkerSlot:
    """Supervision state of one shard."""

    shard_id: int
    worker: Optional[WorkerProcess] = None
    #: ``starting`` → ``up`` → (``backoff`` → ``up``)* → ``failed``
    state: str = "starting"
    restarts: int = 0
    #: consecutive crashes: failed boots and workers that died young
    #: (drives the exponential backoff and the restart budget; a worker
    #: that served healthily for a while resets it).
    crash_streak: int = 0
    #: garbled frames of the workers this slot has already replaced.
    garbled_before: int = 0

    @property
    def garbled_frames(self) -> int:
        """Garbled frames over every worker this slot has run: a restart
        must not forget the frame that killed its predecessor."""
        live = self.worker.garbled_frames if self.worker is not None else 0
        return self.garbled_before + live

    def replace_worker(self, worker: WorkerProcess) -> None:
        if self.worker is not None:
            self.garbled_before += self.worker.garbled_frames
        self.worker = worker


class Supervisor:
    """Keeps ``n`` worker slots alive (see module docstring).

    ``on_up(shard_id)`` / ``on_down(shard_id)`` fire on every liveness
    transition; ``ping_interval``/``ping_deadline`` shape the health
    probe; ``backoff_base``/``backoff_cap`` the restart delay
    (``base * 2^crash_streak``, capped).  A slot is *failed* after
    ``restart_budget`` crashes in a row (boots that never answer their
    ping, or workers dead within 5 ping intervals), however spaced: with
    the defaults, a worker that dies at once fails after 60 boots and
    113.1 s of backoff (0.1 s doubling to the 2 s cap), under three
    minutes with the boots."""

    def __init__(
        self,
        n: int,
        config: WorkerConfig,
        on_up: Callable[[int], None],
        on_down: Callable[[int], None],
        ping_interval: float = 0.25,
        ping_deadline: float = 1.0,
        boot_deadline: float = 15.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        restart_budget: int = 60,
    ) -> None:
        if n < 1:
            raise ValueError(f"fleet needs >= 1 worker, got {n}")
        self.config = config
        self.on_up = on_up
        self.on_down = on_down
        self.ping_interval = ping_interval
        self.ping_deadline = ping_deadline
        self.boot_deadline = boot_deadline
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.restart_budget = restart_budget
        self.slots = [WorkerSlot(i) for i in range(n)]
        self._tasks: list[asyncio.Task] = []
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Boot every slot concurrently; returns once each is up (or has
        already exhausted its budget — at least one must come up)."""
        first_up = [asyncio.get_running_loop().create_future()
                    for _ in self.slots]
        self._tasks = [
            asyncio.ensure_future(self._slot_loop(slot, first_up[i]))
            for i, slot in enumerate(self.slots)
        ]
        await asyncio.gather(*first_up)
        if not any(s.state == "up" for s in self.slots):
            await self.aclose()
            raise ReproError("fleet failed to boot: no worker came up")

    async def aclose(self) -> None:
        """Stop supervising, then drain and stop every worker; a worker
        still booting has served nothing, so it is killed, not drained."""
        self._closing = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await asyncio.gather(*(
            self._stop(slot) for slot in self.slots
            if slot.worker is not None
        ), return_exceptions=True)

    @staticmethod
    async def _stop(slot: WorkerSlot) -> None:
        if slot.state == "starting":
            slot.worker.kill()
            await slot.worker.wait()
        else:
            await slot.worker.terminate()

    # -- supervision ---------------------------------------------------------

    def worker(self, shard_id: int) -> Optional[WorkerProcess]:
        slot = self.slots[shard_id]
        if slot.state == "up" and slot.worker is not None and slot.worker.alive:
            return slot.worker
        return None

    async def _slot_loop(self, slot: WorkerSlot, first: asyncio.Future) -> None:
        try:
            while not self._closing:
                if slot.crash_streak >= self.restart_budget:
                    slot.state = "failed"
                    self.on_down(slot.shard_id)
                    return
                slot.state = "starting"
                worker = WorkerProcess(slot.shard_id, self.config)
                slot.replace_worker(worker)
                try:
                    await worker.start()
                    ok = await self._wait_ready(worker)
                except Exception:  # noqa: BLE001 - spawn failure = boot failure
                    ok = False
                if not ok:
                    worker.kill()
                    await worker.wait()
                    slot.crash_streak += 1
                    await asyncio.sleep(self._backoff(slot))
                    continue
                slot.state = "up"
                born = time.monotonic()
                self.on_up(slot.shard_id)
                if not first.done():
                    first.set_result(None)
                try:
                    await self._watch(worker)
                finally:
                    # declare death *before* the kill/wait so the router
                    # stops routing to this shard immediately
                    slot.state = "backoff"
                    self.on_down(slot.shard_id)
                if self._closing:
                    return
                # a worker that served healthily for a while earns its
                # slot a clean slate — chaos kills must not compound into
                # crash-loop backoff
                if time.monotonic() - born > 5 * self.ping_interval:
                    slot.crash_streak = 0
                else:
                    slot.crash_streak += 1
                worker.kill()
                await worker.wait()
                slot.restarts += 1
                await asyncio.sleep(self._backoff(slot))
        finally:
            if not first.done():
                first.set_result(None)

    def _backoff(self, slot: WorkerSlot) -> float:
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** min(slot.crash_streak, 10)))

    async def _wait_ready(self, worker: WorkerProcess) -> bool:
        """Boot probe: ping until the worker answers (cold interpreter
        start is seconds) or the boot deadline passes."""
        deadline = time.monotonic() + self.boot_deadline
        while time.monotonic() < deadline and worker.alive:
            if await worker.ping(min(2.0, self.ping_deadline * 4)):
                return True
            await asyncio.sleep(0.05)
        return False

    async def _watch(self, worker: WorkerProcess) -> None:
        """Health loop: returns when the worker is declared dead — pipe
        EOF (fast path) or a ping past its deadline (hang path)."""
        while worker.alive and not self._closing:
            interval = asyncio.ensure_future(asyncio.sleep(self.ping_interval))
            death = asyncio.ensure_future(worker.exited.wait())
            await asyncio.wait({interval, death},
                               return_when=asyncio.FIRST_COMPLETED)
            interval.cancel()
            death.cancel()
            if worker.exited.is_set() or self._closing:
                return
            if not await worker.ping(self.ping_deadline):
                return

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "workers": len(self.slots),
            "up": sum(1 for s in self.slots if s.state == "up"),
            "failed": sum(1 for s in self.slots if s.state == "failed"),
            "restarts": sum(s.restarts for s in self.slots),
            "garbled_frames": sum(s.garbled_frames for s in self.slots),
            "slots": {
                str(s.shard_id): {
                    "state": s.state,
                    "restarts": s.restarts,
                    "pid": s.worker.pid if s.worker is not None else None,
                    "inflight": s.worker.inflight if s.worker is not None else 0,
                }
                for s in self.slots
            },
        }
