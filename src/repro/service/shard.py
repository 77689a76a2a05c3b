"""Sharded service front-end: consistent-hash routing over a worker fleet.

``repro serve --shards N`` turns the single-process service into a
self-healing fleet: a :class:`ShardRouter` front-end that owns N
supervised ``repro serve`` worker subprocesses (each running the
existing :class:`~repro.service.engine.ScheduleService` over its own
SQLite tier) and routes every request by **canonical problem
fingerprint** over a consistent-hash ring.

Why the fingerprint: it is relabeling-invariant, so every isomorphic
restatement of one problem lands on the same shard — that shard's store
sees the full repeat traffic for its keys and the fleet-wide hit rate
matches the single-process one.  Requests whose problems are
uncacheable (online runs) spread round-robin.

The robustness contract, end to end:

* **failover** — the ring yields a preference order per key; the router
  forwards to the first *live* shard, so a dead worker's keys move to
  their next-preferred shard the instant the supervisor declares death,
  and move back (bounded rebalancing — only that worker's keys ever
  move) when the restart comes up;
* **in-flight re-dispatch** — a request that dies with its worker
  (:class:`~repro.service.supervisor.WorkerDied`) is re-sent to the next
  surviving shard; solve requests are idempotent, so at-least-once
  dispatch still yields exactly one answer;
* **load shedding** — each worker carries a bounded in-flight queue;
  a request whose chosen shard is saturated is answered ``overloaded``
  (retriable) immediately, never parked on an unbounded pile;
* **never silence, never garbage** — every accepted request gets exactly
  one response; a garbled worker frame kills that worker (the pipe's
  framing is untrustworthy) and the requests it carried are re-dispatched
  or answered ``unavailable``.

The router never re-encodes solutions: workers replay-validate every
answer they serve (store writes and rebinds), and their response JSON is
forwarded verbatim with the request id patched.  Each worker line is
parsed in full and must be a JSON object that opens with its id (any
other line is a garbled frame and kills the worker); the client then
gets the worker's bytes with its own id spliced over the worker's and
``"shard": k`` appended — the front-end adds routing, not another
serialisation of the payload.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import time
from typing import Any, Optional

from ..io.json_io import problem_from_dict
from ..obs import metrics as _obs
from .engine import cache_key, latency_table
from .frontend import JsonLinesFrontend
from .protocol import PROTOCOL_VERSION, op_label
from .supervisor import Supervisor, WorkerConfig, WorkerDied

__all__ = ["HashRing", "ShardRouter"]

#: response error kinds that tell the client "retry me later" — the fleet
#: stays explicit about backpressure instead of going silent.
RETRIABLE_KINDS = frozenset({"overloaded", "unavailable", "timeout",
                             "shutting_down"})


class HashRing:
    """Consistent-hash ring with virtual nodes.

    ``vnodes`` points per shard keep key ownership balanced; on
    join/leave only the keys of the affected shard move (bounded
    rebalancing).  :meth:`preference` returns every shard in ring order
    from a key's position — the router's failover order."""

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._points: list[tuple[int, int]] = []  # (hash, shard_id), sorted
        self._hashes: list[int] = []
        self._shards: set[int] = set()

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha1(text.encode()).digest()[:8], "big"
        )

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add(self, shard_id: int) -> None:
        if shard_id in self._shards:
            return
        self._shards.add(shard_id)
        self._points.extend(
            (self._hash(f"shard{shard_id}:{v}"), shard_id)
            for v in range(self.vnodes)
        )
        self._rebuild()

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            return
        self._shards.discard(shard_id)
        self._points = [(h, s) for h, s in self._points if s != shard_id]
        self._rebuild()

    def __len__(self) -> int:
        return len(self._shards)

    def preference(self, key: str) -> list[int]:
        """Distinct shard ids in ring order from ``key``'s position: the
        first is the owner, the rest the failover order."""
        if not self._points:
            return []
        start = bisect.bisect_left(self._hashes, self._hash(key))
        seen: list[int] = []
        n = len(self._points)
        for i in range(n):
            shard = self._points[(start + i) % n][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == len(self._shards):
                    break
        return seen

    def owner(self, key: str) -> Optional[int]:
        pref = self.preference(key)
        return pref[0] if pref else None


class ShardRouter(JsonLinesFrontend):
    """Fleet front-end (see module docstring).

    ``shards`` worker subprocesses are supervised (health checks,
    restart backoff, restart budget — :class:`Supervisor`); the router
    itself holds no solver state, only the ring, the live-shard set and
    per-request bookkeeping, so it stays pure I/O on the event loop.
    """

    def __init__(
        self,
        shards: int,
        config: Optional[WorkerConfig] = None,
        max_queue: int = 64,
        request_timeout: Optional[float] = None,
        vnodes: int = 64,
        **supervisor_options: Any,
    ) -> None:
        if shards < 1:
            raise ValueError(f"fleet needs >= 1 shard, got {shards}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.config = config if config is not None else WorkerConfig()
        self.max_queue = max_queue
        self.request_timeout = request_timeout
        self.ring = HashRing(vnodes=vnodes)
        for shard_id in range(shards):
            self.ring.add(shard_id)
        self.live: set[int] = set()
        self.supervisor = Supervisor(
            shards, self.config,
            on_up=self._on_up, on_down=self._on_down,
            **supervisor_options,
        )
        self._closing = False
        self._rr = 0  # round-robin counter for unfingerprintable requests
        self._started = time.monotonic()
        self.requests = 0
        self.redispatched = 0
        self.shed = 0
        self.unavailable = 0
        self.timeouts = 0
        self.metrics = _obs.MetricsRegistry()

    # -- fleet lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.supervisor.start()

    def _on_up(self, shard_id: int) -> None:
        self.live.add(shard_id)

    def _on_down(self, shard_id: int) -> None:
        self.live.discard(shard_id)

    @property
    def closing(self) -> bool:
        return self._closing

    def begin_shutdown(self) -> None:
        self._closing = True

    async def drain(self) -> None:
        """Wait for every forwarded request still in flight on a worker."""
        while any(
            w is not None and w.inflight
            for w in (self.supervisor.worker(s) for s in list(self.live))
        ):
            await asyncio.sleep(0.01)

    async def aclose(self) -> None:
        self.begin_shutdown()
        await self.drain()
        await self.supervisor.aclose()

    def close(self) -> None:
        self._closing = True

    # -- request handling ----------------------------------------------------

    async def render_line(self, raw_line: str) -> str:
        """Serve one request line at the fleet level and return the
        response line's text (no newline): route solves, answer
        ping/stats locally, forward chaos injections to their shard."""
        t0 = time.perf_counter()
        try:
            request = json.loads(raw_line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return json.dumps({"id": None, "ok": False,
                               "error": f"malformed request: {exc}",
                               "error_kind": "bad_request"})
        op = request.get("op", "solve")
        if op == "solve" and not self._closing:
            self.requests += 1
            text = await self._route_solve(request)
        else:
            text = json.dumps(await self._answer_op(request, op))
        self.metrics.histogram("service.op_ms", op=op_label(op)).observe(
            (time.perf_counter() - t0) * 1000.0
        )
        return text

    async def handle_line(self, raw_line: str) -> dict[str, Any]:
        """:meth:`render_line`'s response as a dict: the in-process entry
        point for the chaos harness, scripts and tests."""
        return json.loads(await self.render_line(raw_line))

    async def _answer_op(self, request: dict[str, Any], op: Any
                         ) -> dict[str, Any]:
        """The response to every request but a solve the router routes."""
        rid = request.get("id")
        if op == "ping":
            return {"id": rid, "ok": True, "pong": True,
                    "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return {"id": rid, "ok": True, "stats": await self.stats()}
        if op == "inject" and self.config.chaos_ops:
            return await self._forward_inject(request)
        if op == "solve":  # the router is closing
            return {"id": rid, "ok": False,
                    "error": "service is shutting down",
                    "error_kind": "shutting_down", "retriable": True}
        return {"id": rid, "ok": False, "error": f"unknown op {op!r}",
                "error_kind": "bad_request"}

    def _route_key(self, request: dict[str, Any]) -> Optional[str]:
        """The consistent-hash key of a solve request: the canonical
        problem fingerprint when the problem is cacheable, a round-robin
        synthetic key otherwise, ``None`` for unparseable problems."""
        try:
            problem = problem_from_dict(request["problem"])
        except Exception:  # noqa: BLE001 - bad payload → bad_request
            return None
        key = cache_key(problem)
        if key is None:
            self._rr += 1
            return f"rr:{self._rr}"
        return key[0]

    async def _route_solve(self, request: dict[str, Any]) -> str:
        """Route one solve; returns the response line's text.  A worker's
        answer is forwarded as the worker wrote it, with the client's id
        spliced over the worker's and ``"shard": k`` appended when the
        worker set none.  Workers write ``json.dumps`` output, so these
        are the bytes ``json.dumps`` of the parsed answer, patched, would
        give — without re-encoding its solution."""
        rid = request.get("id")
        route_key = self._route_key(request)
        if route_key is None:
            return json.dumps({"id": rid, "ok": False,
                               "error": "bad problem payload",
                               "error_kind": "bad_request"})
        forwarded = {k: v for k, v in request.items() if k != "id"}
        deadline = self.request_timeout
        tried = 0
        for shard_id in self.ring.preference(route_key):
            worker = self.supervisor.worker(shard_id)
            if worker is None:
                continue  # dead or restarting: fail over in ring order
            if worker.inflight >= self.max_queue:
                # the chosen shard is saturated: shed explicitly, now —
                # an unbounded queue would turn overload into silence
                self.shed += 1
                _obs.counter("shard.shed").inc()
                return json.dumps({
                    "id": rid, "ok": False,
                    "error": f"shard {shard_id} is at its queue bound "
                             f"({self.max_queue}); retry with backoff",
                    "error_kind": "overloaded", "retriable": True,
                    "shard": shard_id})
            tried += 1
            try:
                response, rest = await worker.forward(forwarded,
                                                      timeout=deadline)
            except WorkerDied:
                # the worker died with our request on board: re-dispatch
                # to the next surviving shard (solves are idempotent)
                self.redispatched += 1
                _obs.counter("shard.redispatched").inc()
                continue
            except asyncio.TimeoutError:
                self.timeouts += 1
                _obs.counter("shard.timeouts").inc()
                return json.dumps({
                    "id": rid, "ok": False,
                    "error": f"request exceeded its {deadline}s deadline",
                    "error_kind": "timeout", "retriable": True,
                    "shard": shard_id})
            if "shard" not in response:
                rest = f'{rest[:-1]}, "shard": {shard_id}}}'
            return f'{{"id": {json.dumps(rid)}{rest}'
        self.unavailable += 1
        _obs.counter("shard.unavailable").inc()
        detail = ("no live shard" if tried == 0
                  else f"all {tried} reachable shards died mid-request")
        return json.dumps({"id": rid, "ok": False,
                           "error": f"{detail}; retry with backoff",
                           "error_kind": "unavailable", "retriable": True})

    async def _forward_inject(self, request: dict[str, Any]) -> dict[str, Any]:
        """Deliver a chaos injection to one shard (``"shard": i``)."""
        rid = request.get("id")
        shard_id = request.get("shard")
        worker = (
            self.supervisor.worker(shard_id)
            if isinstance(shard_id, int)
            and 0 <= shard_id < len(self.supervisor.slots)
            else None
        )
        if worker is None:
            return {"id": rid, "ok": False,
                    "error": f"no live worker for shard {shard_id!r}",
                    "error_kind": "unavailable", "retriable": True}
        forwarded = {k: v for k, v in request.items() if k not in ("id", "shard")}
        try:
            response = await worker.request(forwarded, timeout=5.0)
        except (WorkerDied, asyncio.TimeoutError) as exc:
            return {"id": rid, "ok": False,
                    "error": f"inject lost to shard {shard_id}: {exc}",
                    "error_kind": "unavailable", "retriable": True}
        response["id"] = rid
        return response

    # -- fleet stats ---------------------------------------------------------

    async def stats(self) -> dict[str, Any]:
        """Fleet-wide stats: per-shard worker stats plus a **merged**
        view — store counters summed, per-op latency histograms folded
        bucket-wise through the PR 8 mergeable-snapshot machinery (the
        fixed edge ladder is what makes cross-process percentiles sound).
        """
        per_shard: dict[str, Any] = {}
        merged_store: dict[str, float] = {}
        merged = _obs.MetricsRegistry()
        merged.merge(self.metrics.snapshot())  # the router's own latencies
        for shard_id in sorted(self.live):
            worker = self.supervisor.worker(shard_id)
            if worker is None:
                continue
            try:
                response = await worker.request(
                    {"op": "stats", "snapshot": True}, timeout=5.0
                )
            except (WorkerDied, asyncio.TimeoutError):
                continue  # it just died; the supervisor will handle it
            stats = response.get("stats", {})
            per_shard[str(shard_id)] = stats
            for key, value in stats.get("store", {}).items():
                if isinstance(value, (int, float)):
                    merged_store[key] = merged_store.get(key, 0) + value
            snap = response.get("snapshot")
            if isinstance(snap, dict):
                merged.merge(snap)
        hits = merged_store.get("hits", 0)
        lookups = hits + merged_store.get("misses", 0)
        merged_store["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
        return {
            "sharded": True,
            "requests": self.requests,
            "redispatched": self.redispatched,
            "shed": self.shed,
            "unavailable": self.unavailable,
            "timeouts": self.timeouts,
            "live_shards": sorted(self.live),
            "closing": self._closing,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "supervisor": self.supervisor.stats(),
            "latency": latency_table(merged),
            "store": merged_store,
            "shards": per_shard,
        }
