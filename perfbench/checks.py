"""Correctness checks on search outcomes and served results.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; the workloads count every reason as a failed operation.
"""

from __future__ import annotations

import math


def check_reevaluated(outcome) -> str | None:
    """The reported best design must re-evaluate to exactly its EDP.

    The design is scored again through the reference model's public
    ``evaluate_network_mappings``, outside any cache the search used.
    """
    from repro.timeloop.model import evaluate_network_mappings

    best_edp = outcome.best_edp
    if not (math.isfinite(best_edp) and best_edp > 0):
        return f"best_edp {best_edp!r} is not a finite positive EDP"
    again = evaluate_network_mappings(outcome.best_mappings,
                                      outcome.best_hardware).edp
    if again != best_edp:
        return f"best_edp {best_edp!r} re-evaluates to {again!r}"
    return None


def check_same_bytes(expected: bytes, actual: bytes, what: str) -> str | None:
    """Two canonical outcome documents must be byte-identical."""
    if expected != actual:
        for index, (left, right) in enumerate(zip(expected, actual)):
            if left != right:
                break
        else:
            index = min(len(expected), len(actual))
        return (f"{what}: differs at byte {index} "
                f"({len(expected)} vs {len(actual)} bytes)")
    return None
