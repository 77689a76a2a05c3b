"""Client-side answer checks: every ok answer is decoded, replay-validated
on the request's own platform, and compared with an in-process reference.

A wrong answer is a failed request: it counts in ``failed_frac`` and makes
the run report ``"correct": false`` (and exit non-zero).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.io.json_io import platform_to_dict, solution_from_dict

from inputs import Request


@dataclass
class Verdict:
    """Right answers, wrong ones, and counts read off the ok responses.
    Requests attempted minus ``ok`` failed (refused, lost or wrong)."""

    ok: int = 0
    wrong: list[str] = field(default_factory=list)
    hits: int = 0
    #: answers per shard, from each fleet response's ``shard`` field
    shards: dict[int, int] = field(default_factory=dict)


def _check_one(request: Request, response: dict, want) -> str | None:
    """``None`` when the answer is right, else what is wrong with it."""
    solution = solution_from_dict(response["solution"])
    asked, got = request.problem, solution.problem
    if (platform_to_dict(got.platform) != platform_to_dict(asked.platform)
            or (got.kind, got.n, got.t_lim) != (asked.kind, asked.n, asked.t_lim)):
        return "answer is for another problem"
    solution.validate()  # bit-exact replay on the request's own platform
    have = solution.makespan if asked.kind == "makespan" else solution.n_tasks
    if have != want:
        return f"{asked.kind} answer {have} != reference {want}"
    return None


def check_answers(answers, requests: list[Request],
                  want: Callable[[Request], object]) -> Verdict:
    """Check ``(stream index, latency, line)`` answers.  Byte-identical
    answers to the same request are checked once."""
    verdict = Verdict()
    seen: dict[tuple[int, bytes], str | None] = {}
    for index, _latency, line in answers:
        response = json.loads(line)
        if not response.get("ok"):
            continue
        verdict.hits += bool(response.get("cached"))
        shard = response.get("shard")
        if shard is not None:
            verdict.shards[shard] = verdict.shards.get(shard, 0) + 1
        key = (index, line[line.index(b","):])
        if key not in seen:
            request = requests[index]
            try:
                seen[key] = _check_one(request, response, want(request))
            except Exception as exc:  # noqa: BLE001 - any failure is a wrong answer
                seen[key] = f"{type(exc).__name__}: {exc}"
        if seen[key] is None:
            verdict.ok += 1
        else:
            verdict.wrong.append(f"request {index}: {seen[key]}")
    return verdict


def check_batch_rows(rows: list[dict], scenarios: list[dict],
                     reference: dict[str, object]) -> Verdict:
    """Every row must be ok and replay-validated; rows with a reference
    must match it."""
    verdict = Verdict()
    kinds = {s["id"]: s["kind"] for s in scenarios}
    for row in rows:
        sid = row["scenario_id"]
        if not row.get("ok"):
            continue
        if not row.get("validated"):
            verdict.wrong.append(f"{sid}: row not replay-validated")
            continue
        if sid in reference:
            have = row["makespan"] if kinds[sid] == "makespan" else row["n_tasks"]
            if have != reference[sid]:
                verdict.wrong.append(
                    f"{sid}: {kinds[sid]} answer {have} != reference "
                    f"{reference[sid]}")
                continue
        verdict.ok += 1
    return verdict
