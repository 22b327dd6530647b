"""End-to-end benchmark of the DOSA reproduction (see ``perfbench/README.md``).

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; the workloads and
metrics are declared in ``BENCHMARK.json``.
"""
