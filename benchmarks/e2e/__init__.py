"""End-to-end service benchmark: query latency and throughput per workload.

Run from the repository root::

    python -m benchmarks.e2e --seed 1 [--workload NAME] [--seconds S]
                             [--trace [0|1]] [--out FILE]

Closed-loop clients drive ulam/edit queries through the public
:class:`repro.service.DistanceService` API; every answer is checked
against an exact reference, and the last line of standard output is one
JSON object with the metrics listed in ``BENCHMARK.json``.  See
``benchmarks/e2e/README.md`` for the workloads, the metrics and which
layer each per-layer metric belongs to.
"""
