"""Benchmark of one rejection-sampling attempt of the random mapper.

The random-search, Bayesian and fixed-hardware baselines spend their sampling
time in ``random_mapping`` (draw a mapping) and ``mapping_fits_hardware``
(check it against the hardware).  A draw is now one ``rng.integers`` call over
a cached per-layer draw plan and one ``Mapping`` construction; the fit check
reads one inner-extent table per mapping.  The scalar code they replaced is
the oracle in ``tests/oracles/random_mapper.py``.

Standalone CI smoke::

    PYTHONPATH=src python benchmarks/bench_random_mapper.py --quick

draws 2000 seeded mappings over every resnet50 layer from one shared
generator on each side, fails (non-zero exit) unless every mapping, fit
decision and the generator state after every draw equal the oracle's bitwise,
then times draw and fit per attempt on both sides and fails if an attempt is
less than 3x faster than the oracle's.  ``--record PATH`` saves the
measurements as a JSON baseline (``benchmarks/BENCH_random_mapper.json`` is
the checked-in one; see benchmarks/README.md for methodology).
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import random_mapper as oracle  # noqa: E402
from repro.arch import HardwareConfig  # noqa: E402
from repro.mapping.constraints import mapping_fits_hardware  # noqa: E402
from repro.mapping.random_mapper import random_mapping  # noqa: E402
from repro.workloads import get_network  # noqa: E402

WORKLOAD = "resnet50"
DRAWS = 2000
SEED = 0
# The cap is the hardware's PE side: 1 demotes every spatial prime, 128 is
# the search default, the odd values leave prime products straddling the cap.
CONFIGS = (HardwareConfig(16, 32, 128), HardwareConfig(1, 1, 1),
           HardwareConfig(31, 64, 256), HardwareConfig(128, 256, 1024))
ROUNDS = 5  # alternating timed rounds per side; the median is reported
ATTEMPT_SPEEDUP_BAR = 3.0


def workload() -> list:
    """(layer, config) of every draw: all layers, cycling through the caps."""
    layers = get_network(WORKLOAD).layers
    return [(layers[i % len(layers)], CONFIGS[(i // len(layers)) % len(CONFIGS)])
            for i in range(DRAWS)]


def assert_bit_identical(draws: list) -> None:
    reference_rng = np.random.default_rng(SEED)
    rng = np.random.default_rng(SEED)
    for layer, config in draws:
        expected = oracle.random_mapping(layer, seed=reference_rng,
                                         max_spatial=config.pe_dim)
        actual = random_mapping(layer, seed=rng, max_spatial=config.pe_dim)
        assert actual.temporal.tobytes() == expected.temporal.tobytes(), layer
        assert actual.spatial.tobytes() == expected.spatial.tobytes(), layer
        assert actual.orderings == expected.orderings, layer
        assert rng.bit_generator.state == reference_rng.bit_generator.state, layer
        assert (mapping_fits_hardware(actual, config)
                == oracle.mapping_fits_hardware(expected, config)), layer


def time_side(draw, fits, draws: list) -> tuple[float, float]:
    """Seconds per draw and per fit check over one pass of ``draws``."""
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    mappings = [draw(layer, seed=rng, max_spatial=config.pe_dim)
                for layer, config in draws]
    drawn = time.perf_counter()
    for mapping, (_, config) in zip(mappings, draws):
        fits(mapping, config)
    checked = time.perf_counter()
    return (drawn - start) / len(draws), (checked - drawn) / len(draws)


def run_quick(minimum_speedup: float = ATTEMPT_SPEEDUP_BAR,
              record: str | None = None) -> int:
    draws = workload()
    layer_count = len(get_network(WORKLOAD).layers)
    print(f"[bench] random mapper: {DRAWS} seeded draws over {layer_count} "
          f"{WORKLOAD} layers, caps {[config.pe_dim for config in CONFIGS]}")

    assert_bit_identical(draws)
    print("[bench] mappings, fit decisions and generator state bit-identical "
          "to the scalar oracle after every draw: OK")

    sides = {"oracle": (oracle.random_mapping, oracle.mapping_fits_hardware),
             "current": (random_mapping, mapping_fits_hardware)}
    for draw, fits in sides.values():
        time_side(draw, fits, draws)  # warmup (pays the draw-plan cache)
    samples = {name: [] for name in sides}
    for _ in range(ROUNDS):
        for name, (draw, fits) in sides.items():
            samples[name].append(time_side(draw, fits, draws))
    medians = {name: tuple(statistics.median(values) for values in zip(*runs))
               for name, runs in samples.items()}
    oracle_draw, oracle_fit = medians["oracle"]
    current_draw, current_fit = medians["current"]
    attempt_speedup = (oracle_draw + oracle_fit) / (current_draw + current_fit)

    print(f"[bench] oracle  draw {oracle_draw * 1e6:7.1f} us  fit "
          f"{oracle_fit * 1e6:6.1f} us")
    print(f"[bench] current draw {current_draw * 1e6:7.1f} us  fit "
          f"{current_fit * 1e6:6.1f} us")
    print(f"[bench] draw speedup    : {oracle_draw / current_draw:.2f}x")
    print(f"[bench] fit speedup     : {oracle_fit / current_fit:.2f}x")
    print(f"[bench] attempt speedup : {attempt_speedup:.2f}x "
          f"(bar: >={minimum_speedup}x)")

    if attempt_speedup < minimum_speedup:
        # A failing run must not clobber a checked-in --record baseline.
        print(f"[bench] FAIL: random-mapper attempt below {minimum_speedup}x",
              file=sys.stderr)
        return 1

    if record:
        payload = {
            "benchmark": "random_mapper",
            "workload": WORKLOAD,
            "unique_layers": layer_count,
            "draws": DRAWS,
            "caps": [config.pe_dim for config in CONFIGS],
            "measured_rounds": ROUNDS,
            "oracle_draw_us": round(oracle_draw * 1e6, 2),
            "oracle_fit_us": round(oracle_fit * 1e6, 2),
            "draw_us": round(current_draw * 1e6, 2),
            "fit_us": round(current_fit * 1e6, 2),
            "draw_speedup": round(oracle_draw / current_draw, 2),
            "fit_speedup": round(oracle_fit / current_fit, 2),
            "attempt_speedup": round(attempt_speedup, 2),
            "speedup_bar": minimum_speedup,
            "command": ("PYTHONPATH=src python benchmarks/bench_random_mapper.py "
                        "--quick --record benchmarks/BENCH_random_mapper.json"),
        }
        with open(record, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"recorded baseline -> {record}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run the CI smoke (bitwise parity + speedup bar)")
    parser.add_argument("--min-speedup", type=float, default=ATTEMPT_SPEEDUP_BAR)
    parser.add_argument("--record", metavar="PATH",
                        help="write the measured baseline JSON to PATH")
    args = parser.parse_args()
    if not args.quick:
        parser.error("this benchmark only has a --quick mode")
    return run_quick(minimum_speedup=args.min_speedup, record=args.record)


if __name__ == "__main__":
    raise SystemExit(main())
