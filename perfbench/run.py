"""The repo's benchmark: four workloads through the real entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` makes a second run over the same inputs that times each
layer's public functions in-process (see ``perfbench/README.md``).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}

The exit code is 0 only when every answer was checked and right.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        return _fail("run me from the root of a repro checkout "
                     "(no src/repro here)")
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")
    # src for repro, the root for the benchmarks package's helpers
    sys.path[:0] = [os.path.abspath("src"), os.getcwd(), HERE]

    import endtoend
    import layers
    import speed

    speed.pin()  # before any server or batch is spawned: they inherit it

    table = layers.WORKLOADS if args.trace else endtoend.WORKLOADS
    if args.workload not in table:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(table)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=os.getcwd()) as workdir:
        try:
            out = table[args.workload](args.seed, args.seconds, workdir)
        except Exception:  # noqa: BLE001 - report and exit non-zero, no result
            traceback.print_exc()
            return _fail(f"{args.workload} did not complete")
        finally:
            speed.stop()

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload}  seed {args.seed}  {args.seconds}s  {mode}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:<30}{value:>14.4f}  {unit}")
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_frac':<30}{failed_frac:>14.4f}  ratio"
          f"  ({out.failed} of {out.attempted})")
    for note in out.notes:
        print(f"  {note}")
    for wrong in out.wrong[:20]:
        print(f"  WRONG {wrong}")
    correct = not out.wrong and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if correct and out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
