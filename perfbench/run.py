"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload dosa-resnet50 --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds every ``end_to_end`` metric of
``BENCHMARK.json`` with ``--trace 0`` and every ``per_layer`` metric with
``--trace 1``.  A detailed record of the run (per-search times, set-up and
host probes, failures) and, for traced runs, the spans are written under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.measure import OUT_DIR, ROOT, SOURCE, RunResult  # noqa: E402

WORKLOADS = ("dosa-resnet50", "random-resnet50", "served-mix")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    if workload == "served-mix":
        from perfbench.served import run_served
        return run_served(seed, seconds, trace)
    from perfbench.offline import run_offline
    return run_offline(workload, workload.split("-")[0], seed, seconds, trace)


def summary(result: RunResult, trace: bool) -> dict:
    """The contract's last line: exactly the declared metrics, with units."""
    result.metrics["failed_ratio"] = result.failed / result.attempted
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    trace = bool(args.trace)
    # SIGTERM unwinds like an error, so the served daemon is stopped.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    result = run_workload(args.workload, args.seed, args.seconds, trace)
    line = summary(result, trace)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": trace, **line,
        "failures": result.failures, "record": result.record,
        "host_probe_s": result.metrics.get("host.probe_s"),
    }, indent=1))
    for failure in result.failures:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed {args.seed}: {result.attempted} attempted, "
          f"{result.failed} failed, host probe "
          f"{result.metrics['host.probe_s']:.3f} s; record in {record_path}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
