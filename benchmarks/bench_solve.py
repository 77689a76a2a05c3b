"""E17 — the flat-array solve kernels vs the paper-literal oracles.

Regenerates the ``BENCH_solve.json`` kernel and asserts the solve
acceptance claims: answering the chain+star+spider batch workload
through ``solve()`` (the kernels) must be >= 10× faster (median per
problem) than through the oracles, every kernel answer must be
bit-identical to the oracle's and replay-validate (asserted inside the
kernel), and no workload problem may fall back to the oracle.
"""

from benchmarks.common import report
from benchmarks.kernels import SOLVE_MIN_SPEEDUP, kernel_solve_batch


def test_solve_speedup_claims():
    k = kernel_solve_batch()

    assert k["median_speedup"] >= SOLVE_MIN_SPEEDUP, (
        f"solve kernels only {k['median_speedup']}x faster than "
        f"the oracle (oracle {k['object_median_ms']}ms vs "
        f"kernel {k['compiled_median_ms']}ms)"
    )
    assert k["kernel_fallbacks"] == 0, (
        "the workload must run entirely on the kernels"
    )

    report(
        "E17  solve kernels vs oracle: chain+star+spider batch",
        "\n".join(
            f"  {label:<28}{value}"
            for label, value in [
                ("problems", k["problems"]),
                ("tasks scheduled", k["tasks"]),
                ("kernel solves", k["kernel_solves"]),
                ("oracle median", f"{k['object_median_ms']} ms"),
                ("kernel median", f"{k['compiled_median_ms']} ms"),
                ("median speedup", f"{k['median_speedup']}x"),
                ("min speedup", f"{k['min_speedup']}x"),
            ]
        ),
    )
