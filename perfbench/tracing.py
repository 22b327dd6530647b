"""In-memory spans around the program's public functions.

A :class:`Tracer` replaces named attributes (module-level functions or class
methods) with wrappers that record one span per call: its name, start, end,
the span that was open when it began, and the request it belongs to.  The
program itself is not modified and knows nothing of the tracer;
:meth:`Tracer.restore` puts every original back.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; patches and restores traced functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counters by request, then by name.
        self.counts: defaultdict[str, Counter[str]] = defaultdict(Counter)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        """Time the body as one span, nested under the thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent is not None else ""
        with self._lock:
            span = Span(len(self.spans),
                        parent.span_id if parent is not None else None,
                        request, name, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter of the request whose span is open in this thread."""
        stack = self._stack()
        request = stack[-1].request if stack else ""
        with self._lock:
            self.counts[request][name] += amount

    def _replace(self, owner: Any, attr: str,
                 make: Callable[[Any], Callable]) -> None:
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} is inherited; "
                                 "patch the class that defines it")
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def patch(self, owner: Any, attr: str, name: str,
              before: Callable[..., None] | None = None,
              after: Callable[..., None] | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before(*args, **kwargs)`` runs ahead of the span and
        ``after(result)`` once it has closed, so neither is timed as part of
        the layer.
        """
        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            return traced
        self._replace(owner, attr, make)

    def observe(self, owner: Any, attr: str,
                before: Callable[..., None]) -> None:
        """Call ``before(*args, **kwargs)`` ahead of ``owner.attr``, no span."""
        def make(original: Callable) -> Callable:
            def observed(*args, **kwargs):
                before(*args, **kwargs)
                return original(*args, **kwargs)
            return observed
        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        children: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return {span.span_id: span.duration - children[span.span_id]
                for span in self.spans}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [asdict(span) for span in self.spans],
            "counts": {request: dict(counts)
                       for request, counts in self.counts.items()},
        }))


def install_search_shims(tracer: Tracer) -> None:
    """Span every public boundary a DOSA or random search crosses.

    Besides the spans, this counts ``random_mapping`` draws against accepted
    mappings, non-finite entries of the optimizer parameters' public
    ``.grad`` before every Adam step (in its own span, so the check is not
    billed to Adam), and the evaluation engines' cache statistics.
    """
    import repro.core.optimizer.dosa as dosa_module
    import repro.eval.engine as engine_module
    import repro.mapping.random_mapper as random_mapper_module
    import repro.search.random_search as random_search_module
    from repro.autodiff.optim import Adam
    from repro.autodiff.tape import Tape
    from repro.core.dmodel.factors import MultiStartFactors
    from repro.eval.engine import EvaluationEngine

    def check_grads(optimizer: Adam) -> None:
        with tracer.span("trace.health_check"):
            entries = nonfinite = 0
            for parameter in optimizer.parameters:
                if parameter.grad is None:
                    continue
                grad = np.asarray(parameter.grad)
                entries += grad.size
                nonfinite += grad.size - int(np.count_nonzero(np.isfinite(grad)))
        tracer.count("grad_entries", entries)
        tracer.count("grad_nonfinite", nonfinite)

    def engine_stats(engine: EvaluationEngine, *exc_info) -> None:
        tracer.count("cache_hits", engine.stats.hits)
        tracer.count("cache_misses", engine.stats.misses)

    def accepted(mapping) -> None:
        if mapping is not None:
            tracer.count("mappings_accepted")

    tracer.patch(Tape, "forward", "autodiff.tape_forward")
    tracer.patch(Tape, "backward", "autodiff.tape_backward")
    tracer.patch(Adam, "step", "autodiff.adam_step", before=check_grads)
    tracer.patch(dosa_module, "generate_start_points", "optimizer.start_points")
    tracer.patch(MultiStartFactors, "rounded_mapping_sets",
                 "mapping.rounding_walk")
    tracer.patch(dosa_module, "best_ordering_per_layer", "dmodel.reselect")
    tracer.patch(EvaluationEngine, "evaluate_network_sets", "eval.network_sets")
    tracer.patch(EvaluationEngine, "evaluate_many", "eval.evaluate_many")
    tracer.patch(engine_module, "evaluate_mappings_batched", "eval.batch")
    tracer.observe(EvaluationEngine, "__exit__", engine_stats)
    tracer.patch(random_search_module, "random_mapping_for_hardware",
                 "mapping.random_mapper", after=accepted)
    tracer.observe(random_mapper_module, "random_mapping",
                   lambda *args, **kwargs: tracer.count("mapping_draws"))


def install_client_shims(tracer: Tracer) -> None:
    """Span the service client calls a served job makes."""
    from repro.service import Client

    tracer.patch(Client, "submit_search", "service.submit")
    tracer.patch(Client, "result_bytes", "service.result_fetch")


#: Span names whose self time is reported as ``<name>_s`` per search.
SEARCH_LAYERS = (
    "autodiff.tape_backward",
    "autodiff.tape_forward",
    "autodiff.adam_step",
    "optimizer.start_points",
    "mapping.rounding_walk",
    "dmodel.reselect",
    "eval.network_sets",
    "mapping.random_mapper",
    "eval.evaluate_many",
    "eval.batch",
    "trace.health_check",
)


def search_layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per search request: self time by layer, plus ``other``.

    A search's root span is named ``search.<strategy>``; its self time is
    ``other``, the search's time outside every named layer, so the layers
    and ``other`` add up to the root span's duration.
    """
    self_time = tracer.self_times()
    per_request: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in tracer.spans:
        if span.name.startswith("search."):
            per_request[span.request]["other"] += self_time[span.span_id]
        else:
            per_request[span.request][span.name] += self_time[span.span_id]
    return {request: dict(times) for request, times in per_request.items()}


def search_layer_metrics(tracer: Tracer, strategies: dict[str, str],
                         fixed: list[str]) -> dict[str, float]:
    """Per-layer metrics of the traced searches ``strategies`` names.

    ``strategies`` maps each traced search's request to its strategy.  Times
    are self times per search, averaged over every traced search, so the
    ``_s`` metrics add up to the mean search wall time.  Counts and ratios
    cover only the ``fixed`` requests — the same seeds on every run at one
    workload seed — so they repeat exactly.
    """
    times = search_layer_times(tracer)
    searches = len(strategies)
    metrics = {f"{layer}_s": sum(times[request].get(layer, 0.0)
                                 for request in strategies) / searches
               for layer in SEARCH_LAYERS}
    for strategy, name in (("dosa", "optimizer.other_s"),
                           ("random", "search.other_s")):
        metrics[name] = sum(times[request]["other"]
                            for request, used in strategies.items()
                            if used == strategy) / searches

    spans_per_name: defaultdict[str, int] = defaultdict(int)
    wanted = set(fixed)
    for span in tracer.spans:
        if span.request in wanted:
            spans_per_name[span.name] += 1
    counts: Counter[str] = Counter()
    for request in fixed:
        counts.update(tracer.counts[request])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics.update({
        "autodiff.steps": spans_per_name["autodiff.tape_forward"] / len(fixed),
        "autodiff.overflow_warnings": counts["runtime_warnings"] / len(fixed),
        "autodiff.nonfinite_grad_ratio": ratio(counts["grad_nonfinite"],
                                               counts["grad_entries"]),
        "optimizer.rounding_points":
            spans_per_name["mapping.rounding_walk"] / len(fixed),
        "mapping.fit_ratio": ratio(counts["mappings_accepted"],
                                   counts["mapping_draws"]),
        "eval.cache_hit_ratio": ratio(counts["cache_hits"],
                                      counts["cache_hits"]
                                      + counts["cache_misses"]),
    })
    return metrics
