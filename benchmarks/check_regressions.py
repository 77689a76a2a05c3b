"""Performance-regression gate: every family of ``benchmarks.kernels.FAMILIES``
run fresh and checked against its committed ``BENCH_<name>.json``.

Usage::

    python -m benchmarks.check_regressions                 # every family
    python -m benchmarks.check_regressions --family solve  # one family
    python -m benchmarks.check_regressions --update        # rewrite baselines

Per family: run every kernel, then check the family's claims on the fresh
numbers.  Claims are checked in both modes, and ``--update`` refuses to
write a baseline whose claims fail.  Otherwise the fresh run is compared
with the baseline: ``seconds`` may grow at most ``THRESHOLD``-fold, and
every field that is not one of the family's timing fields must match
exactly.  Counters are deterministic, so any drift is an algorithmic change
to re-baseline deliberately.  A kernel on only one side fails too.

Exit status: 0 all good; 1 a claim, threshold or exact comparison failed;
2 a baseline file is missing and nothing else failed.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:  # `python -m benchmarks.…` needs src/
    sys.path.insert(0, str(_REPO / "src"))

from benchmarks.kernels import FAMILIES, Family  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

#: max ratio of fresh to committed ``seconds``: baselines are recorded on
#: one machine and checked on another (CI's shared runners).
THRESHOLD = 4.0

#: floor on a committed ``seconds`` before taking the ratio: sub-50 ms
#: kernels would otherwise flake on scheduler noise alone.
MIN_BASELINE_SECONDS = 0.05

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def run_kernels(family: Family) -> tuple[dict[str, dict], list | None]:
    """Fresh measurements per kernel, plus the ``suite`` rows a kernel
    returned (they go to the file's top level, not into the kernel's)."""
    fresh: dict[str, dict] = {}
    suite = None
    for name, kernel in family.kernels.items():
        print(f"  running {name} ...", flush=True)
        measured = kernel()
        suite = measured.pop("suite", suite)
        fresh[name] = measured
    return fresh, suite


def check_claims(family: Family, fresh: dict[str, dict]) -> list[str]:
    """One failure line per claim the fresh numbers break."""
    failures = []
    for claim in family.claims:
        measured = fresh[claim.kernel]
        bound = claim.bound(measured) if callable(claim.bound) else claim.bound
        value = measured[claim.field]
        if not _OPS[claim.op](value, bound):
            failures.append(
                f"{claim.kernel}: {claim.field} = {value!r}, needs "
                f"{claim.op} {bound!r} ({claim.reason})"
            )
    return failures


def compare(
    family: Family, fresh: dict[str, dict], baseline: dict[str, dict]
) -> list[str]:
    """One failure line per difference from the committed baseline."""
    failures = [
        f"{name}: in the committed baseline but not run (kernel removed? "
        "re-baseline with --update)"
        for name in sorted(baseline.keys() - fresh.keys())
    ]
    for name, measured in fresh.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no committed baseline (run with --update)")
            continue
        ratio = measured["seconds"] / max(base["seconds"], MIN_BASELINE_SECONDS)
        status = "ok" if ratio <= THRESHOLD else "REGRESSION"
        print(
            f"  {name}: {measured['seconds']:.4f}s vs baseline "
            f"{base['seconds']:.4f}s ({ratio:.2f}x) {status}"
        )
        if ratio > THRESHOLD:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"({measured['seconds']:.4f}s vs {base['seconds']:.4f}s)"
            )
        exact = (base.keys() | measured.keys()) - family.timing - {"seconds"}
        for key in sorted(exact):
            if key not in measured or key not in base or measured[key] != base[key]:
                failures.append(
                    f"{name}: {key!r} drifted ({measured.get(key, '<missing>')!r}"
                    f" vs baseline {base.get(key, '<missing>')!r}; --update?)"
                )
    return failures


def run(families: list[Family], bench_dir: Path, update: bool) -> int:
    """Check (or with ``update``, rewrite) each family's baseline in
    ``bench_dir``; returns the exit status."""
    failures: list[str] = []
    missing = 0
    for family in families:
        path = Path(bench_dir) / f"BENCH_{family.name}.json"
        print(f"running {family.name} kernels:")
        fresh, suite = run_kernels(family)
        claim_failures = check_claims(family, fresh)
        failures += claim_failures

        if update:
            if claim_failures:
                print(f"NOT writing {path}: claim check failed")
                continue
            payload = {"schema": 1, "kernels": fresh, "workload": family.workload}
            if suite is not None:
                payload["suite"] = suite
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"baseline written: {path}")
            continue

        try:
            baseline = json.loads(path.read_text(encoding="utf-8"))["kernels"]
        except FileNotFoundError:
            # keep checking the other families: their regressions must
            # still be reported, not masked by one missing file
            missing += 1
            failures.append(
                f"{family.name}: no baseline at {path} (run with --update first)"
            )
            continue
        print(f"comparing {family.name} kernels against baseline:")
        failures += compare(family, fresh, baseline)

    if not failures:
        print("all claims hold; kernels within threshold; counters exact")
        return 0
    print("\nFAILURES:")
    for failure in failures:
        print(f"  - {failure}")
    # a real regression outranks a missing baseline: exit 2 ("set-up
    # problem, run --update") only when that is the whole story
    return 2 if missing == len(failures) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_regressions",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baselines"
    )
    parser.add_argument(
        "--family",
        choices=[family.name for family in FAMILIES],
        help="check/update only this family (default: all)",
    )
    args = parser.parse_args(argv)
    families = [f for f in FAMILIES if args.family in (None, f.name)]
    return run(families, BENCH_DIR, args.update)


if __name__ == "__main__":
    sys.exit(main())
