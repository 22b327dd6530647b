"""Closure-based autodiff oracle: the engine :class:`repro.autodiff.tensor.Program` replaced.

Before the slot-indexed engine, every op carried a forward-recompute and a
backward closure, and backward accumulated gradients in a dict keyed by
``id(node)``.  This module keeps that engine as the reference the fast one is
tested against, bit for bit:

* :func:`reference_forward` / :func:`reference_backward` are the original
  closures of the six ops the engine now runs inline by opcode; every other
  op still carries its closures in ``src/`` and runs them here too;
* :func:`backpropagate` is the original ``id()``-keyed reverse accumulation;
* :func:`oracle_tensor_backward`, :func:`oracle_tape_forward` and
  :func:`oracle_tape_backward` are drop-in replacements for
  ``Tensor.backward``, ``Tape.forward`` and ``Tape.backward`` built on them,
  for patching the oracle under a whole search.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import (
    ADD,
    CLOSURE,
    DIV,
    GETITEM,
    MUL,
    RELU,
    SUB,
    Tensor,
    _unbroadcast,
    topological_order,
)


def reference_forward(node: Tensor) -> np.ndarray:
    """Recompute ``node`` from its parents' current data."""
    op = node._op
    if op == CLOSURE:
        return node._recompute()
    x = node._parents[0]
    if op == RELU:
        return np.maximum(x.data, 0.0)
    if op == GETITEM:
        return x.data[node._arg[0]]
    y = node._parents[1]
    if op == MUL:
        return x.data * y.data
    if op == ADD:
        return x.data + y.data
    if op == SUB:
        return x.data - y.data
    if op == DIV:
        return x.data / y.data
    raise AssertionError(f"unknown opcode {op}")


def reference_backward(node: Tensor, grad: np.ndarray):
    """``(parent, contribution)`` pairs, as the op's backward closure returned."""
    op = node._op
    if op == CLOSURE:
        return node._backward(grad)
    x = node._parents[0]
    if op == RELU:
        return ((x, grad * (x.data > 0)),)
    if op == GETITEM:
        full = np.zeros(x.data.shape, dtype=np.float64)
        np.add.at(full, node._arg[0], grad)
        return ((x, full),)
    y = node._parents[1]
    if op == MUL:
        return ((x, grad * y.data), (y, grad * x.data))
    if op == ADD:
        return ((x, grad), (y, grad))
    if op == SUB:
        return ((x, grad), (y, -grad))
    if op == DIV:
        return ((x, grad / y.data), (y, -grad * x.data / (y.data**2)))
    raise AssertionError(f"unknown opcode {op}")


def backpropagate(root: Tensor, topo_order: list[Tensor], grad: np.ndarray) -> None:
    """Reverse-mode accumulation along ``topo_order`` in an ``id()``-keyed dict."""
    grads: dict[int, np.ndarray] = {id(root): grad}
    for node in reversed(topo_order):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node._parents:
            for parent, contribution in reference_backward(node, node_grad):
                if not parent.requires_grad or contribution is None:
                    continue
                contribution = _unbroadcast(
                    np.asarray(contribution, dtype=np.float64), parent.data.shape)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution
        else:
            node._accumulate(node_grad)


def oracle_tensor_backward(self: Tensor, grad=None) -> None:
    """``Tensor.backward`` on the oracle engine."""
    if not self.requires_grad:
        raise RuntimeError("backward() called on a tensor that does not require grad")
    if grad is None:
        grad = np.ones_like(self.data)
    grad = np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape).copy()
    backpropagate(self, topological_order(self), grad)


def oracle_tape_forward(self) -> Tensor:
    """``Tape.forward`` replaying every node through :func:`reference_forward`."""
    if not self.recorded:
        return self._trace()
    for node in self._program.nodes:
        if node._parents:
            node.data = reference_forward(node)
    return self._output


def oracle_tape_backward(self) -> None:
    """``Tape.backward`` through the oracle's :func:`backpropagate`."""
    backpropagate(self._output, self._program.nodes, np.ones_like(self._output.data))
