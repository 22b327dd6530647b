"""One timed, checked ``repro.optimize`` search, optionally traced."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from perfbench.checks import check_reevaluated
from perfbench.tracing import Tracer


@dataclass
class Search:
    index: int | str
    strategy: str
    seed: int
    seconds: float = 0.0
    outcome: object = None
    error: str | None = None


def run_search(network, strategy: str, budget: int, seed: int, index,
               tracer: Tracer | None = None) -> Search:
    """One ``repro.optimize`` call, timed; traced as request ``index``.

    A traced search records every RuntimeWarning it raises (the program's
    default filter would show each location once) as ``runtime_warnings``.
    """
    import repro

    search = Search(index, strategy, seed)
    started = time.perf_counter()
    try:
        if tracer is None:
            search.outcome = repro.optimize(network, strategy=strategy,
                                            budget=budget, seed=seed)
        else:
            with warnings.catch_warnings(record=True) as caught, \
                    tracer.span(f"search.{strategy}", request=str(index)):
                warnings.simplefilter("always")
                search.outcome = repro.optimize(network, strategy=strategy,
                                                budget=budget, seed=seed)
            tracer.counts[str(index)]["runtime_warnings"] += sum(
                issubclass(warning.category, RuntimeWarning)
                for warning in caught)
    except Exception as error:  # noqa: BLE001 - a failed search is counted
        search.error = f"raised {error!r}"
    search.seconds = time.perf_counter() - started
    if search.error is None:
        search.error = check_reevaluated(search.outcome)
    return search


def canonical_bytes(outcome) -> bytes:
    from repro.utils.serialization import canonical_outcome_json

    return canonical_outcome_json(outcome).encode()
