"""The gated benchmark families and their runner.

``kernels.py`` declares every family (its kernels, workload constants,
timing fields and claims) in one table, ``check_regressions.py`` runs it
(``python -m benchmarks.check_regressions``), and ``figures`` renders the
committed ``BENCH_*.json`` files as SVG charts.
"""
