"""repro.service — the cached scheduling service layer.

Turns the solver registry into a long-lived, cache-backed service:

* :mod:`repro.service.canon` — relabeling-invariant platform and problem
  fingerprints plus canonical relabel maps;
* :mod:`repro.service.store` — the content-addressed two-tier solution
  store (in-memory LRU over optional SQLite), replay-validated on write;
* :mod:`repro.service.engine` — :func:`cached_solve` (sync, used by the
  batch runner) and :class:`ScheduleService` (asyncio loop with request
  coalescing, behind ``repro serve``);
* :mod:`repro.service.protocol` — the JSON-lines wire protocol and the
  blocking :class:`ServiceClient`;
* :mod:`repro.service.frontend` — the shared JSON-lines serving loop,
  graceful shutdown and chaos fault hooks;
* :mod:`repro.service.supervisor` — the supervised worker-subprocess
  fleet (health checks, restart backoff, restart budget);
* :mod:`repro.service.shard` — the consistent-hash fleet router behind
  ``repro serve --shards N``;
* :mod:`repro.service.chaos` — the fault-injection harness behind
  ``repro chaos``.

Every name loads its submodule on first use (:mod:`repro._lazy`): one
``repro serve`` process runs the engine, never the fleet's router and
supervisor.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "canon": (
        "CanonError",
        "CanonicalForm",
        "canonical_form",
        "platform_fingerprint",
        "problem_fingerprint",
    ),
    "engine": (
        "CachedOutcome",
        "ScheduleService",
        "cache_key",
        "cached_solve",
        "rebind_solution",
    ),
    "protocol": ("PROTOCOL_VERSION", "ServiceClient", "ServiceError"),
    "shard": ("HashRing", "ShardRouter"),
    "store": ("SolutionStore", "StoreStats"),
    "supervisor": ("Supervisor", "WorkerConfig", "WorkerDied"),
})
