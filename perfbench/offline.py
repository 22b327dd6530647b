"""The offline workloads: seeded ``repro.optimize`` searches, one at a time.

``dosa-resnet50`` and ``random-resnet50`` run the paper's method and its main
baseline on resnet50 at a 20000-sample budget with default settings.  After
set-up and an untimed warm-up search, searches run back to back until the
next one would end past ``--seconds`` (but at least ``min_searches``), each
with a seed derived from the workload seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import geometric_mean, median

from perfbench.checks import check_same_bytes
from perfbench.measure import (
    OUT_DIR,
    RunResult,
    host_probe,
    import_probes,
    own_peak_rss_mb,
    search_seed,
)
from perfbench.search import Search, canonical_bytes, run_search
from perfbench.served import SERVICE_METRICS
from perfbench.tracing import Tracer, install_search_shims, search_layer_metrics


@dataclass(frozen=True)
class OfflineScale:
    """How much one run does; the defaults are the benchmark's."""

    network: str = "resnet50"
    budget: int = 20000
    #: The untimed warm-up search's budget: enough to run every code path a
    #: full search runs (imports, first calls) at a tenth of its cost.
    warmup_budget: int = 2000
    #: Fresh-interpreter set-ups whose median is ``setup_s``.
    setups: int = 3
    #: Searches every untraced run makes however long they take.
    min_searches: int = 3
    #: Searches in each half of a traced run (untraced, then traced); the
    #: per-layer counts and the EDP geomean cover exactly these, so they
    #: repeat at one workload seed.
    traced_searches: int = 2


def run_offline(workload: str, strategy: str, workload_seed: int,
                seconds: float, trace: bool,
                scale: OfflineScale = OfflineScale()) -> RunResult:
    """Run one offline workload; see :mod:`perfbench.offline`."""
    import repro

    result = RunResult()
    probes = [host_probe()]
    setups = import_probes(scale.network, scale.setups)
    network = repro.get_network(scale.network)

    def searches(count: int, budget_seconds: float,
                 tracer: Tracer | None = None) -> list[Search]:
        done: list[Search] = []
        started = time.perf_counter()
        while len(done) < count or (
                time.perf_counter() - started
                + median([search.seconds for search in done])
                <= budget_seconds):
            index = len(done)
            done.append(run_search(
                network, strategy, scale.budget,
                search_seed(workload, workload_seed, index), index, tracer))
        return done

    def account(runs: list[Search]) -> None:
        for search in runs:
            result.attempted += 1
            if search.error is not None:
                result.failures.append(
                    f"{strategy} seed {search.seed}: {search.error}")

    account([run_search(network, strategy, scale.warmup_budget,
                        search_seed(workload, workload_seed, "warm-up"),
                        "warm-up")])
    if not trace:
        runs = searches(scale.min_searches, seconds)
        account(runs)
        good = [search for search in runs if search.error is None]
        if not good:
            raise RuntimeError(f"every {strategy} search failed: "
                               f"{result.failures}")
        result.metrics = {
            "setup_s": median([probe["ready_s"] for probe in setups]),
            "latency_s.p50": median([search.seconds for search in good]),
            "samples_per_s": (sum(search.outcome.total_samples
                                  for search in good)
                              / sum(search.seconds for search in good)),
            "peak_rss_mb": own_peak_rss_mb(),
        }
        result.record["searches"] = [
            {"seed": search.seed, "seconds": search.seconds,
             "samples": search.outcome.total_samples,
             "best_edp": search.outcome.best_edp} for search in good]
    else:
        plain = searches(scale.traced_searches, seconds / 2)
        tracer = Tracer()
        install_search_shims(tracer)
        try:
            traced = searches(scale.traced_searches, seconds / 2, tracer)
        finally:
            tracer.restore()
        for untraced, search in zip(plain, traced):
            if search.error is None and untraced.error is None:
                search.error = check_same_bytes(
                    canonical_bytes(untraced.outcome),
                    canonical_bytes(search.outcome),
                    "traced outcome vs untraced outcome")
        account(plain + traced)
        result.metrics = search_layer_metrics(
            tracer, {str(search.index): strategy for search in traced},
            fixed=[str(index) for index in range(scale.traced_searches)])
        paired = min(len(plain), len(traced))
        result.metrics.update({
            "trace.overhead_ratio": (
                sum(search.seconds for search in traced[:paired])
                / sum(search.seconds for search in plain[:paired])),
            "setup.import_s": median([probe["import_s"] for probe in setups]),
            "best_edp.geomean": geometric_mean(
                [search.outcome.best_edp
                 for search in traced[:scale.traced_searches]
                 if search.outcome is not None]),
            # Offline searches never reach the service.
            **dict.fromkeys(SERVICE_METRICS, 0.0),
        })
        tracer.dump(OUT_DIR / f"{workload}-seed{workload_seed}-spans.json")
    probes.append(host_probe())
    result.record.update({"setups": setups, "host_probe_s": probes})
    result.metrics["host.probe_s"] = median(probes)
    return result
