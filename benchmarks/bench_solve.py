"""E17 — the flat-array solve kernels vs the paper-literal oracles.

Regenerates the ``BENCH_solve.json`` kernel and asserts the solve
acceptance claims: answering the chain+star+spider batch workload
through ``solve()`` (the kernels) with warm caches must be >= 10× faster
(median per problem) than through the oracles, with cold caches (a
service miss) >= 1.4× faster on every problem, every kernel answer must
be bit-identical to the oracle's and replay-validate (asserted inside
the kernel), and no workload problem may fall back to the oracle.
"""

from benchmarks.common import report
from benchmarks.kernels import (
    SOLVE_MIN_COLD_SPEEDUP,
    SOLVE_MIN_SPEEDUP,
    kernel_solve_batch,
)


def test_solve_speedup_claims():
    k = kernel_solve_batch()

    assert k["median_speedup"] >= SOLVE_MIN_SPEEDUP, (
        f"solve kernels only {k['median_speedup']}x faster than "
        f"the oracle (oracle {k['object_median_ms']}ms vs "
        f"kernel {k['compiled_median_ms']}ms)"
    )
    assert k["min_cold_speedup"] >= SOLVE_MIN_COLD_SPEEDUP, (
        f"cold solve kernels only {k['min_cold_speedup']}x faster than "
        f"the oracle on their worst problem (cold median "
        f"{k['cold_median_ms']}ms)"
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
                ("kernel median (warm)", f"{k['compiled_median_ms']} ms"),
                ("median speedup (warm)", f"{k['median_speedup']}x"),
                ("min speedup (warm)", f"{k['min_speedup']}x"),
                ("kernel median (cold)", f"{k['cold_median_ms']} ms"),
                ("min speedup (cold)", f"{k['min_cold_speedup']}x"),
            ]
        ),
    )
