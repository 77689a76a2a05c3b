"""Performance-regression gate: fresh kernel runs vs the committed baselines.

Usage (opt-in, not part of the default pytest run)::

    python -m benchmarks.check_regressions            # compare vs baselines
    python -m benchmarks.check_regressions --update   # rewrite the baselines
    python -m benchmarks.check_regressions --skip-legacy   # fast paths only
    python -m benchmarks.check_regressions --family online  # one family only

Eight committed baseline files, one per kernel family:

* ``BENCH_spider.json`` — the paper-literal spider/allocator oracle
  kernels and the batch deadline sweep;
* ``BENCH_tree.json`` — the multi-round tree suite (single-cover vs
  multi-round task counts through the batch engine) plus per-tree detail
  under ``suite``;
* ``BENCH_online.json`` — the online-policy regret suite (policies ×
  platforms vs the offline optimum, replay-validated through the batch
  engine) plus per-platform detail under ``suite``;
* ``BENCH_service.json`` — the cached-service zipf workload (cold vs warm
  throughput, hit rates); its family **claim check** additionally asserts
  the warm pass is >= 5× faster (median) than cold misses, so a cache
  regression fails even when wall clock stays under the threshold.
* ``BENCH_replay.json`` — the compiled replay kernel vs the event-driven
  executor on the zipf workload's solutions; its claim check asserts the
  compiled engine validates >= 10× faster (median) and that both engines
  emit the same number of (bit-identical) trace events.
* ``BENCH_churn.json`` — incremental repatch repair vs cold re-solve on
  the churn episode workload; its claim check asserts the repaired
  schedule *completes* earlier than the clairvoyant cold restart
  (median regret < 1) and stays within the repatch regret tolerance
  (planning latencies are reported, not floored — the compiled solve
  engine made cold planning cheap).
* ``BENCH_solve.json`` — the flat-array chain/star/spider solve kernels
  vs the paper-literal oracles on the batch workload; its claim check
  asserts the kernels answer >= 10× faster (median) with zero kernel
  fallbacks (every answer is asserted bit-identical and replay-validated
  inside the kernel).
* ``BENCH_shard.json`` — the sharded fleet (``repro serve --shards N``):
  a 1→8-worker saturation curve on zipf/uniform/all-miss request mixes
  plus a chaos run (SIGKILLs, hangs, slow responses, garbled frames
  against a live 4-shard fleet).  Its claim check asserts zero chaos
  invariant violations across >= 30 worker kills, and gates the 8-worker
  zipf throughput against a core-count-scaled floor (the full 5× serial
  claim is physical only with >= 10 usable cores; a 1-core container
  instead gates fleet overhead at < 2×).

Every kernel is run fresh; a kernel slower than ``--threshold`` (default
2×) its committed seconds fails the check.  Operation counters (and for
trees: wins/ties/task totals) are compared *exactly* — they are
deterministic, so any drift means an algorithmic change that must be
re-baselined deliberately (run with ``--update``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:  # `python -m benchmarks.…` needs src/
    sys.path.insert(0, str(_REPO / "src"))

_HERE = Path(__file__).resolve().parent
SPIDER_BASELINE_PATH = _HERE / "BENCH_spider.json"
TREE_BASELINE_PATH = _HERE / "BENCH_tree.json"
ONLINE_BASELINE_PATH = _HERE / "BENCH_online.json"
SERVICE_BASELINE_PATH = _HERE / "BENCH_service.json"
REPLAY_BASELINE_PATH = _HERE / "BENCH_replay.json"
CHURN_BASELINE_PATH = _HERE / "BENCH_churn.json"
SOLVE_BASELINE_PATH = _HERE / "BENCH_solve.json"
SHARD_BASELINE_PATH = _HERE / "BENCH_shard.json"

#: fields that legitimately wobble run-to-run (wall clock and everything
#: derived from it) — threshold- or claim-checked, never compared exactly.
_TIMING_FIELDS = {
    "seconds",
    "cold_median_ms",
    "warm_median_ms",
    "median_speedup",
    "min_speedup",
    "throughput_rps",
    "event_median_ms",
    "compiled_median_ms",
    "memo_cold_ms",
    "memo_warm_ms",
    "memo_speedup",
    "repair_median_ms",
    "resolve_median_ms",
    "object_median_ms",
    # shard family: saturation points and chaos tallies are scheduling-
    # dependent (how many kills landed mid-solve, how many requests the
    # clients pushed through) — the *contract* fields (violations,
    # violation_samples, all_ok) stay exact-compared.
    "usable_cores",
    "speedup_floor",
    "serial_zipf_rps",
    "zipf_rps_at_8",
    "speedup_vs_serial",
    "points",
    "kills",
    "chaos_requests",
    "ok_answers",
    "retriable_errors",
    "hangs",
    "slows",
    "garbles",
    "redispatched",
    "shed",
    "unavailable_errors",
    "timeouts_seen",
    "restarts",
    "garbled_frames",
}

#: the service family's acceptance floor: warm (all-hit) median latency
#: must beat cold (miss) median latency by at least this factor.
SERVICE_MIN_SPEEDUP = 5.0

#: the replay family's acceptance floor lives in ``benchmarks.kernels``
#: (``REPLAY_MIN_SPEEDUP``) so the pytest bench and this gate cannot drift.

#: wall-clock floor for the threshold comparison: baselines are recorded on
#: one machine and compared on another (CI), so sub-50ms kernels would flake
#: on scheduler noise alone — their effective baseline is clamped up to this.
_MIN_BASELINE_SECONDS = 0.05


def run_family(kernels: dict, skip_legacy: bool = False) -> dict[str, dict]:
    from benchmarks.kernels import LEGACY_KERNELS

    out: dict[str, dict] = {}
    for name, kernel in kernels.items():
        if skip_legacy and name in LEGACY_KERNELS:
            continue
        print(f"  running {name} ...", flush=True)
        out[name] = kernel()
    return out


def build_spider_payload(kernels: dict[str, dict]) -> dict:
    return {"schema": 1, "kernels": kernels}


def build_tree_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import LAST_TREE_SUITE_ROWS, tree_suite_results

    # the kernel run that produced `kernels` stashed its per-tree rows;
    # fall back to a fresh (deterministic) run only if it never ran.
    suite = list(LAST_TREE_SUITE_ROWS) or tree_suite_results()
    return {
        "schema": 1,
        "kernels": kernels,
        "suite": suite,
    }


def build_online_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import LAST_ONLINE_SUITE_ROWS, online_suite_results

    suite = list(LAST_ONLINE_SUITE_ROWS) or online_suite_results()
    return {
        "schema": 1,
        "kernels": kernels,
        "suite": suite,
    }


def build_service_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import (
        SERVICE_N,
        SERVICE_POOL_SIZE,
        SERVICE_REQUESTS,
        SERVICE_SEED,
    )

    return {
        "schema": 1,
        "kernels": kernels,
        "workload": {
            "pool": SERVICE_POOL_SIZE,
            "requests": SERVICE_REQUESTS,
            "n": SERVICE_N,
            "zipf_seed": SERVICE_SEED,
        },
    }


def check_service_claims(fresh: dict[str, dict]) -> list[str]:
    """Fresh-run acceptance claims of the service family (beyond the
    generic threshold/counter comparison)."""
    kernel = fresh.get("service_zipf_workload")
    if kernel is None:
        return []
    failures = []
    if kernel["median_speedup"] < SERVICE_MIN_SPEEDUP:
        failures.append(
            f"service_zipf_workload: warm/cold median speedup "
            f"{kernel['median_speedup']}x below the {SERVICE_MIN_SPEEDUP}x "
            f"acceptance floor (cold {kernel['cold_median_ms']}ms vs warm "
            f"{kernel['warm_median_ms']}ms)"
        )
    if kernel["warm_hits"] != kernel["requests"] // 2:
        failures.append(
            f"service_zipf_workload: warm pass had "
            f"{kernel['warm_hits']}/{kernel['requests'] // 2} hits — the "
            "primed store must serve every request"
        )
    return failures


def build_replay_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import (
        REPLAY_TIMING_ROUNDS,
        SERVICE_N,
        SERVICE_POOL_SIZE,
        SERVICE_SEED,
    )

    return {
        "schema": 1,
        "kernels": kernels,
        "workload": {
            "pool": SERVICE_POOL_SIZE,
            "n": SERVICE_N,
            "zipf_seed": SERVICE_SEED,
            "timing_rounds": REPLAY_TIMING_ROUNDS,
        },
    }


def check_replay_claims(fresh: dict[str, dict]) -> list[str]:
    """Fresh-run acceptance claims of the replay family."""
    from benchmarks.kernels import REPLAY_MIN_SPEEDUP

    kernel = fresh.get("replay_zipf_validation")
    if kernel is None:
        return []
    failures = []
    if kernel["median_speedup"] < REPLAY_MIN_SPEEDUP:
        failures.append(
            f"replay_zipf_validation: compiled/event median validation "
            f"speedup {kernel['median_speedup']}x below the "
            f"{REPLAY_MIN_SPEEDUP}x acceptance floor (event "
            f"{kernel['event_median_ms']}ms vs compiled "
            f"{kernel['compiled_median_ms']}ms)"
        )
    memo = fresh.get("adapter_route_memo")
    if memo is not None and memo["memo_speedup"] < 1.0:
        failures.append(
            f"adapter_route_memo: memoized sweeps slower than cold "
            f"({memo['memo_speedup']}x)"
        )
    return failures


def build_churn_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import (
        CHURN_EPISODES,
        CHURN_LEG_DEPTH,
        CHURN_LEGS,
        CHURN_N,
        CHURN_TIMING_ROUNDS,
    )

    return {
        "schema": 1,
        "kernels": kernels,
        "workload": {
            "episodes": CHURN_EPISODES,
            "legs": CHURN_LEGS,
            "leg_depth": CHURN_LEG_DEPTH,
            "n": CHURN_N,
            "timing_rounds": CHURN_TIMING_ROUNDS,
        },
    }


def check_churn_claims(fresh: dict[str, dict]) -> list[str]:
    """Fresh-run acceptance claims of the churn family: the repaired
    schedule must complete earlier than the clairvoyant cold restart in
    the median, and never give a worse answer than the regret tolerance
    allows."""
    from benchmarks.kernels import CHURN_MAX_MEDIAN_REGRET

    from repro.solve.repatch import REPATCH_TOLERANCE

    kernel = fresh.get("churn_repair_vs_resolve")
    if kernel is None:
        return []
    failures = []
    if kernel["median_regret"] >= CHURN_MAX_MEDIAN_REGRET:
        failures.append(
            f"churn_repair_vs_resolve: median completion regret "
            f"{kernel['median_regret']} not below "
            f"{CHURN_MAX_MEDIAN_REGRET} — repair must finish earlier "
            "than the clairvoyant cold re-solve"
        )
    if kernel["max_regret"] > REPATCH_TOLERANCE:
        failures.append(
            f"churn_repair_vs_resolve: repaired completion regret "
            f"{kernel['max_regret']} exceeds the {REPATCH_TOLERANCE} "
            f"tolerance"
        )
    return failures


def build_solve_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import (
        SOLVE_CHAIN_DEPTH,
        SOLVE_N,
        SOLVE_PLATFORMS,
        SOLVE_SPIDER_DEPTH,
        SOLVE_SPIDER_LEGS,
        SOLVE_STAR_CHILDREN,
        SOLVE_TIMING_ROUNDS,
    )

    return {
        "schema": 1,
        "kernels": kernels,
        "workload": {
            "platforms_per_shape": SOLVE_PLATFORMS,
            "n": SOLVE_N,
            "chain_depth": SOLVE_CHAIN_DEPTH,
            "star_children": SOLVE_STAR_CHILDREN,
            "spider_legs": SOLVE_SPIDER_LEGS,
            "spider_depth": SOLVE_SPIDER_DEPTH,
            "timing_rounds": SOLVE_TIMING_ROUNDS,
        },
    }


def check_solve_claims(fresh: dict[str, dict]) -> list[str]:
    """Fresh-run acceptance claims of the solve family: the kernels must
    beat the paper-literal oracle by the floor, and never by falling back
    to it (a fallback would time the oracle against itself)."""
    from benchmarks.kernels import SOLVE_MIN_SPEEDUP

    kernel = fresh.get("solve_batch_engines")
    if kernel is None:
        return []
    failures = []
    if kernel["median_speedup"] < SOLVE_MIN_SPEEDUP:
        failures.append(
            f"solve_batch_engines: kernel/oracle median solve speedup "
            f"{kernel['median_speedup']}x below the {SOLVE_MIN_SPEEDUP}x "
            f"acceptance floor (oracle {kernel['object_median_ms']}ms vs "
            f"kernel {kernel['compiled_median_ms']}ms)"
        )
    if kernel["kernel_fallbacks"] != 0:
        failures.append(
            f"solve_batch_engines: {kernel['kernel_fallbacks']} kernel "
            "fallbacks — the workload must run entirely on the kernels"
        )
    return failures


def build_shard_payload(kernels: dict[str, dict]) -> dict:
    from benchmarks.kernels import (
        SERVICE_N,
        SERVICE_POOL_SIZE,
        SHARD_CHAOS_SHARDS,
        SHARD_MIN_KILLS,
        SHARD_MIN_SPEEDUP,
        SHARD_REQUESTS,
        SHARD_SEED,
        SHARD_WORKERS,
    )

    return {
        "schema": 1,
        "kernels": kernels,
        "workload": {
            "workers": list(SHARD_WORKERS),
            "requests_per_workload": SHARD_REQUESTS,
            "pool": SERVICE_POOL_SIZE,
            "n": SERVICE_N,
            "seed": SHARD_SEED,
            "chaos_shards": SHARD_CHAOS_SHARDS,
            "min_kills": SHARD_MIN_KILLS,
            "max_speedup_floor": SHARD_MIN_SPEEDUP,
        },
    }


def check_shard_claims(fresh: dict[str, dict]) -> list[str]:
    """Fresh-run acceptance claims of the shard family.

    The chaos contract is absolute: zero invariant violations over at
    least :data:`~benchmarks.kernels.SHARD_MIN_KILLS` worker kills —
    every request got exactly one replay-valid answer or an explicit
    retriable error.  The throughput claim (>= 5x serial at 8 workers on
    the zipf workload) is physical only when the host has the cores to
    run 8 workers in parallel, so the enforced floor is scaled by the
    usable core count (:func:`~benchmarks.kernels.shard_speedup_floor`);
    the full 5x is asserted on hosts with >= 10 usable cores."""
    from benchmarks.kernels import SHARD_MIN_KILLS, shard_speedup_floor

    failures = []
    sat = fresh.get("shard_saturation")
    if sat is not None:
        floor = shard_speedup_floor(sat["usable_cores"])
        if sat["speedup_vs_serial"] < floor:
            failures.append(
                f"shard_saturation: zipf throughput at 8 workers only "
                f"{sat['speedup_vs_serial']}x serial "
                f"({sat['zipf_rps_at_8']} vs {sat['serial_zipf_rps']} rps) "
                f"— below the {floor}x floor for "
                f"{sat['usable_cores']} usable core(s)"
            )
        if not sat["all_ok"]:
            failures.append(
                "shard_saturation: the saturation run lost requests"
            )
    chaos = fresh.get("shard_chaos")
    if chaos is not None:
        if chaos["violations"] != 0:
            failures.append(
                f"shard_chaos: {chaos['violations']} invariant "
                f"violation(s) — first: {chaos['violation_samples'][:1]}"
            )
        if chaos["kills"] < SHARD_MIN_KILLS:
            failures.append(
                f"shard_chaos: only {chaos['kills']} worker kills landed "
                f"(gate needs >= {SHARD_MIN_KILLS})"
            )
    return failures


def _families() -> list[dict]:
    from benchmarks.kernels import (
        CHURN_KERNELS,
        KERNELS,
        ONLINE_KERNELS,
        REPLAY_KERNELS,
        SERVICE_KERNELS,
        SHARD_KERNELS,
        SOLVE_KERNELS,
        TREE_KERNELS,
    )

    return [
        {
            "name": "spider",
            "path": SPIDER_BASELINE_PATH,
            "kernels": KERNELS,
            "payload": build_spider_payload,
        },
        {
            "name": "tree",
            "path": TREE_BASELINE_PATH,
            "kernels": TREE_KERNELS,
            "payload": build_tree_payload,
        },
        {
            "name": "online",
            "path": ONLINE_BASELINE_PATH,
            "kernels": ONLINE_KERNELS,
            "payload": build_online_payload,
        },
        {
            "name": "service",
            "path": SERVICE_BASELINE_PATH,
            "kernels": SERVICE_KERNELS,
            "payload": build_service_payload,
            "check": check_service_claims,
        },
        {
            "name": "replay",
            "path": REPLAY_BASELINE_PATH,
            "kernels": REPLAY_KERNELS,
            "payload": build_replay_payload,
            "check": check_replay_claims,
        },
        {
            "name": "churn",
            "path": CHURN_BASELINE_PATH,
            "kernels": CHURN_KERNELS,
            "payload": build_churn_payload,
            "check": check_churn_claims,
        },
        {
            "name": "solve",
            "path": SOLVE_BASELINE_PATH,
            "kernels": SOLVE_KERNELS,
            "payload": build_solve_payload,
            "check": check_solve_claims,
        },
        {
            "name": "shard",
            "path": SHARD_BASELINE_PATH,
            "kernels": SHARD_KERNELS,
            "payload": build_shard_payload,
            "check": check_shard_claims,
        },
    ]


def compare(
    fresh: dict[str, dict], baseline: dict[str, dict], threshold: float
) -> list[str]:
    """Returns a list of human-readable failures (empty = pass)."""
    failures: list[str] = []
    for name, measured in fresh.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no committed baseline (run with --update)")
            continue
        ratio = measured["seconds"] / max(base["seconds"], _MIN_BASELINE_SECONDS)
        status = "ok" if ratio <= threshold else "REGRESSION"
        print(
            f"  {name}: {measured['seconds']:.4f}s vs baseline "
            f"{base['seconds']:.4f}s ({ratio:.2f}x) {status}"
        )
        if ratio > threshold:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"({measured['seconds']:.4f}s vs {base['seconds']:.4f}s)"
            )
        for key, base_value in base.items():
            if key in _TIMING_FIELDS:
                continue
            if key not in measured:
                failures.append(
                    f"{name}: counter {key!r} present in baseline but missing "
                    f"from the fresh run (kernel output changed; --update?)"
                )
            elif measured[key] != base_value:
                failures.append(
                    f"{name}: counter {key!r} drifted "
                    f"({measured[key]} vs baseline {base_value})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_regressions", description=__doc__
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baselines"
    )
    parser.add_argument(
        "--skip-legacy",
        action="store_true",
        help="skip the slow reference-path kernels",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="max allowed seconds ratio vs baseline (default 2.0)",
    )
    parser.add_argument(
        "--family",
        choices=[f["name"] for f in _families()],
        default=None,
        help="check/update only this kernel family (default: all)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    missing_count = 0
    families = [
        f for f in _families()
        if args.family is None or f["name"] == args.family
    ]
    for family in families:
        print(f"running {family['name']} kernels:")
        fresh = run_family(family["kernels"], skip_legacy=args.skip_legacy)

        # family claim checks run on the *fresh* numbers in both modes — a
        # baseline that fails its own acceptance claim must not be written
        claim_failures = family.get("check", lambda _fresh: [])(fresh)
        if claim_failures:
            failures.extend(claim_failures)
            if args.update:
                print(f"NOT writing {family['path']}: claim check failed")
                continue

        if args.update:
            payload = family["payload"](fresh)
            with open(family["path"], "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"baseline written: {family['path']}")
            continue

        try:
            with open(family["path"], "r", encoding="utf-8") as fh:
                baseline = json.load(fh)["kernels"]
        except FileNotFoundError:
            # keep checking the other families — their regressions must
            # still be reported, not masked by one missing file.
            missing_count += 1
            failures.append(
                f"{family['name']}: no baseline at {family['path']} "
                f"(run with --update first)"
            )
            continue

        print(f"comparing {family['name']} kernels against baseline:")
        failures.extend(compare(fresh, baseline, args.threshold))

    if args.update:
        if failures:
            print("\nFAILURES:")
            for f in failures:
                print(f"  - {f}")
            return 1
        return 0
    if failures:
        print("\nFAILURES:")
        for f in failures:
            print(f"  - {f}")
        # a real regression outranks a missing baseline: exit 2 ("setup
        # problem, run --update") only when that is the *whole* story.
        return 2 if missing_count == len(failures) else 1
    print("all kernels within threshold; counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
