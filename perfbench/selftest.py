"""Harness self-test: the benchmark, end to end, at a tiny size.

Run from the root of a checkout (about two minutes on 2 cores)::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the metrics the code reports;
* every workload, untraced and traced, exits 0 with a last line carrying
  ``correct``/``attempted``/``failed``/``metrics``, no failed request, and
  every metric of its mode with the declared unit (end-to-end values > 0);
* the counts that must repeat do repeat on a second traced run, with the
  values today's code gives (one replay per hit, two per miss);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
#: traced counts that are functions of the inputs alone.
REPEATING = ("replay.validations_per_req", "store.hit_rate",
             "solve.fallbacks", "trees.rounds_mean", "store.entries")
EXPECTED = {
    "serve_hit": {"store.hit_rate": 1.0, "replay.validations_per_req": 1.0},
    "serve_miss": {"store.hit_rate": 0.0, "replay.validations_per_req": 2.0},
    "fleet_zipf": {"store.hit_rate": 1.0, "replay.validations_per_req": 1.0},
    "batch_tree": {"replay.validations_per_req": 1.0},
}


def run(workload: str, trace: int, cwd: str = ".") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout, proc.stderr


def result_of(workload: str, trace: int, declared: dict[str, str]) -> dict:
    code, output, errors = run(workload, trace)
    assert code == 0, (f"{workload} --trace {trace} exited {code}:\n"
                       f"{output}{errors}")
    # the result is the last line of standard output
    result = json.loads(output.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{workload} --trace {trace}: missing {set(declared) - set(metrics)}, "
        f"undeclared {set(metrics) - set(declared)}")
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), name
        if not trace:
            assert metrics[name]["value"] > 0, (workload, name, metrics[name])
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    sys.path[:0] = [os.path.abspath("src"), os.getcwd(), HERE]
    import endtoend
    import layers

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == endtoend.METRICS, "BENCHMARK.json end_to_end drifted"
    assert per_layer == {n: u for n, u, _ in layers.METRICS}, (
        "BENCHMARK.json per_layer drifted")
    assert {w["name"] for w in bench["workloads"]} == set(endtoend.WORKLOADS)

    for workload in endtoend.WORKLOADS:
        result_of(workload, 0, end_to_end)
        first = result_of(workload, 1, per_layer)
        second = result_of(workload, 1, per_layer)
        for name in REPEATING:
            assert first[name] == second[name], (workload, name, first[name],
                                                 second[name])
        for name, value in EXPECTED[workload].items():
            assert first[name] == value, (workload, name, first[name])
        print(f"ok  {workload}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=os.getcwd()) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, output, _ = run("serve_hit", 0, cwd=bare)
        assert code != 0, "ran without a checkout"
        assert '"metrics"' not in output, "printed a result without a checkout"
    print("ok  fails cleanly outside a checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
