"""Compiled-tape replay of a traced autodiff graph.

Re-tracing the DOSA loss every gradient step rebuilds the same Python graph —
the same ops, the same wiring — hundreds of times with fresh ``Tensor``
allocations and a fresh topological sort.  Between rounding points the graph
*structure* is static (loop orderings only change when a mapping is
re-snapped), so all of that work can be paid once: :class:`Tape` traces the
loss closure a single time, lowers it into a slot-indexed
:class:`~repro.autodiff.tensor.Program`, and thereafter **replays** that
program — forward by recomputing every node from its parents' current
``.data``, backward by the same reverse accumulation
:meth:`~repro.autodiff.tensor.Tensor.backward` runs.

Replay is exact, not approximate: every node is recomputed from its parents'
data at call time, and value-dependent masks (``ops.relu``, ``ops.maximum``
subgradients, ``ops.reload_product`` inclusion masks, the
``ops.log_sum_exp`` shift) are re-derived on every pass, so a replayed
forward/backward is bit-identical to re-tracing the same closure — the
regression tests assert ``==``, not a tolerance.  What must stay fixed is the
*wiring*: the traced closure may not branch on parameter values or bake them
into constants.  When the structure does change — DOSA re-selects loop
orderings at a rounding point — call :meth:`Tape.invalidate` and the next
:meth:`Tape.forward` re-traces.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autodiff.tensor import CLOSURE, Program, Tensor


class TapeError(RuntimeError):
    """Raised when a traced graph cannot be replayed."""


class Tape:
    """Trace a loss closure once, then replay its forward/backward cheaply.

    ``build`` is a zero-argument closure returning a scalar loss ``Tensor``
    over a fixed set of leaf parameters.  Typical use, mirroring the usual
    re-tracing loop::

        tape = Tape(lambda: model_loss(factors))
        for _ in range(steps):
            optimizer.zero_grad()
            loss = tape.forward()     # first call traces, later calls replay
            tape.backward()           # == loss.backward() on a fresh trace
            optimizer.step()

    The tape holds the traced output tensor and its lowered program;
    parameters keep their identity across steps, so optimizer state attached
    to them stays valid.
    """

    def __init__(self, build: Callable[[], Tensor]) -> None:
        self._build = build
        self._output: Tensor | None = None
        self._program: Program | None = None

    # ------------------------------------------------------------------ #
    @property
    def recorded(self) -> bool:
        """Whether a traced graph is currently cached."""
        return self._output is not None

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes in the cached topological order."""
        return len(self._program.nodes) if self._program is not None else 0

    def invalidate(self) -> None:
        """Drop the cached graph; the next :meth:`forward` re-traces.

        Call this whenever the graph *structure* may have changed — for DOSA,
        after a rounding point re-selects loop orderings (the walk-order
        gather indices are baked into the wiring).  The lowered program is
        dropped with the graph, so two graphs are never alive at once.
        """
        self._output = None
        self._program = None

    # ------------------------------------------------------------------ #
    def forward(self) -> Tensor:
        """Return the loss tensor: trace on first use, replay afterwards."""
        if self._output is None:
            return self._trace()
        self._program.forward()
        return self._output

    def backward(self) -> None:
        """Reverse accumulation over the lowered program (grads into leaves)."""
        if self._output is None:
            raise TapeError("backward() before forward(): nothing is recorded")
        self._program.backward(np.ones_like(self._output.data))

    # ------------------------------------------------------------------ #
    def _trace(self) -> Tensor:
        output = self._build()
        if not isinstance(output, Tensor):
            raise TapeError(f"traced closure must return a Tensor, got {type(output).__name__}")
        if not output.requires_grad:
            raise TapeError("traced closure returned a tensor that does not require grad "
                            "(no differentiable parameters reached the output)")
        if output.data.size != 1:
            raise TapeError(f"traced loss must be a scalar, got shape {output.shape}")
        program = Program(output)
        for node in program.nodes:
            if node._parents and node._op == CLOSURE and node._recompute is None:
                raise TapeError(
                    "traced graph contains an op without a forward-recompute "
                    "closure and cannot be replayed"
                    + (f" (node {node.name!r})" if node.name else ""))
        self._output = output
        self._program = program
        return output
