"""Scenario and result records for the batch engine (JSON in, JSON out).

A *scenario* is one solve request: a platform (as its versioned JSON dict),
either a task count ``n`` (makespan question), a deadline ``t_lim``
(max-tasks question, optionally still budgeted by ``n``), or an *online*
run (``kind: "online"``: ``n`` tasks through a simulated policy; policy
name, fault specs and event budget ride in ``options``).  A *result* is
the flat, JSON-able answer plus operation counters — deliberately *not*
the full schedule, so a million-scenario batch stays cheap to collect and
archive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from ..core.types import ReproError, Time
from ..io.json_io import PLATFORM_KINDS, check_legacy_allocator

SCENARIO_SCHEMA = 1

#: ``"online"`` answers through the registered online solver (policies /
#: fault injection via ``options``); ``"churn"`` through the repatch
#: solver (``options["churn"]`` holds the event list); the other two
#: through offline solvers.
_KINDS = ("makespan", "deadline", "online", "churn")


class BatchError(ReproError):
    """Malformed scenario input."""


@dataclass(frozen=True)
class Scenario:
    """One solve request.

    ``platform`` is the platform's JSON dict (see :mod:`repro.io.json_io`),
    kept in serialised form so scenarios pickle cheaply to worker processes
    and group by value.
    """

    id: str
    platform: Mapping[str, Any]
    kind: str  # "makespan" | "deadline"
    n: Optional[int] = None
    t_lim: Optional[Time] = None
    #: solver-specific knobs forwarded to ``Problem.options`` — e.g.
    #: ``{"max_rounds": 4}`` for tree scenarios.
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise BatchError(f"scenario {self.id!r}: unknown kind {self.kind!r}")
        if self.kind in ("makespan", "online", "churn") and (
            self.n is None or self.n < 1
        ):
            raise BatchError(f"scenario {self.id!r}: {self.kind} needs n >= 1")
        if self.kind == "deadline" and self.t_lim is None:
            raise BatchError(f"scenario {self.id!r}: deadline needs t_lim")
        if self.kind in ("online", "churn") and self.t_lim is not None:
            raise BatchError(
                f"scenario {self.id!r}: {self.kind} runs take no t_lim — "
                "they run all n tasks to completion"
            )
        if self.kind == "churn" and not self.options.get("churn"):
            raise BatchError(
                f"scenario {self.id!r}: churn scenarios need "
                "options['churn'] with at least one event"
            )
        if not isinstance(self.platform, Mapping):
            raise BatchError(
                f"scenario {self.id!r}: platform must be a JSON dict, "
                f"got {type(self.platform).__name__}"
            )
        platform_kind = self.platform.get("kind")
        if platform_kind not in PLATFORM_KINDS:
            raise BatchError(
                f"scenario {self.id!r}: unknown platform kind "
                f"{platform_kind!r} (loadable kinds: {', '.join(PLATFORM_KINDS)})"
            )

    @property
    def platform_key(self) -> str:
        """Canonical grouping key — scenarios sharing it share precompute."""
        return json.dumps(self.platform, sort_keys=True)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.id,
            "platform": dict(self.platform),
            "kind": self.kind,
        }
        if self.n is not None:
            d["n"] = self.n
        if self.t_lim is not None:
            d["t_lim"] = self.t_lim
        if self.options:
            d["options"] = dict(self.options)
        return d

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "Scenario":
        check_legacy_allocator(d, BatchError)
        try:
            return Scenario(
                id=str(d["id"]),
                platform=d["platform"],
                kind=d.get("kind", "makespan"),
                n=d.get("n"),
                t_lim=d.get("t_lim"),
                options=d.get("options", {}),
            )
        except KeyError as exc:
            raise BatchError(f"scenario missing field {exc}") from None


@dataclass(frozen=True)
class ScenarioResult:
    """Flat outcome of one scenario (schedule-free on purpose)."""

    scenario_id: str
    ok: bool
    kind: str
    makespan: Optional[Time] = None
    n_tasks: Optional[int] = None
    t_lim: Optional[Time] = None
    wall_s: float = 0.0
    error: Optional[str] = None
    stats: Mapping[str, Any] = field(default_factory=dict)
    #: multi-round tree scenarios: covering rounds used ...
    rounds: Optional[int] = None
    #: ... and the fraction of the tree's workers that executed a task.
    coverage: Optional[float] = None
    #: online scenarios: the policy that produced the answer.
    policy: Optional[str] = None
    #: True when the runner replay-validated this answer through the
    #: simulator (``run_batch(validate=True)``); None when not requested.
    validated: Optional[bool] = None
    #: how the row was validated: ``"compiled"`` (the flat-array
    #: linear-scan replay kernel) or ``"trace"`` (trace-only fault runs,
    #: checked by the trace-exclusivity scan); None when validation was
    #: off.
    validated_by: Optional[str] = None
    #: True when the answer came from the solution store, False when the
    #: cache was consulted but missed; None when no cache was configured.
    cached: Optional[bool] = None
    #: fault/churn runs: reissued trace id → original task id, so regret
    #: attributes to the task that actually paid for the reissue.
    reissue_of: Optional[Mapping[int, int]] = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "scenario_id": self.scenario_id,
            "ok": self.ok,
            "kind": self.kind,
            "wall_s": self.wall_s,
        }
        for key in ("makespan", "n_tasks", "t_lim", "error", "rounds",
                    "coverage", "policy", "validated", "validated_by",
                    "cached"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.reissue_of is not None:
            # JSON keys are strings; keep the shape round-trippable
            d["reissue_of"] = {str(k): v for k, v in self.reissue_of.items()}
        if self.stats:
            d["stats"] = dict(self.stats)
        return d

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "ScenarioResult":
        return ScenarioResult(
            scenario_id=d["scenario_id"],
            ok=d["ok"],
            kind=d.get("kind", "makespan"),
            makespan=d.get("makespan"),
            n_tasks=d.get("n_tasks"),
            t_lim=d.get("t_lim"),
            wall_s=d.get("wall_s", 0.0),
            error=d.get("error"),
            stats=d.get("stats", {}),
            rounds=d.get("rounds"),
            coverage=d.get("coverage"),
            policy=d.get("policy"),
            validated=d.get("validated"),
            validated_by=d.get("validated_by"),
            cached=d.get("cached"),
            reissue_of=(
                None if d.get("reissue_of") is None
                else {int(k): v for k, v in d["reissue_of"].items()}
            ),
        )


def scenarios_from_dict(payload: Mapping[str, Any]) -> list[Scenario]:
    """Parse a scenario-file payload ``{"schema": 1, "scenarios": [...]}``."""
    raw = payload.get("scenarios")
    if not isinstance(raw, list):
        raise BatchError("scenario payload needs a 'scenarios' list")
    return [Scenario.from_dict(item) for item in raw]


def load_scenarios(path: Union[str, Path]) -> list[Scenario]:
    with open(path, "r", encoding="utf-8") as fh:
        return scenarios_from_dict(json.load(fh))


def save_results(
    results: Sequence[ScenarioResult], path: Union[str, Path]
) -> Path:
    """Write results as JSON; returns the path written."""
    path = Path(path)
    payload = {
        "schema": SCENARIO_SCHEMA,
        "results": [r.to_dict() for r in results],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
