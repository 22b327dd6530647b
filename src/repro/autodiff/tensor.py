"""The :class:`Tensor` type and the slot-indexed engine that differentiates it.

Every differentiable quantity in the DOSA model — tiling factors, capacities,
access counts, latencies, energies, and the final EDP loss — is represented as
a ``Tensor``.  Each op result records its parents and how to recompute and
differentiate itself.  The six elementwise/indexing ops that make up nearly
all of the DOSA loss graph — ``*``, ``+``, ``-``, ``/``, ``relu`` and
indexing — record only an opcode (plus, for indexing, a precomputed scatter
plan); every other op records a forward-recompute closure and a backward
closure returning one ``(parent, contribution)`` pair per parent, in
``_parents`` order.  Closures read ``.data`` at call time, never capturing
arrays at trace time, so a graph stays valid when its leaves change.

:class:`Program` is the one engine that runs a recorded graph.  It lowers the
topological order into flat instruction lists over slots — slot ``i`` is the
``i``-th node of the order — holding each node's parent slots, whether each
parent needs a gradient, and the shape a broadcast edge's contribution sums
back to.  Its backward pass accumulates gradients in a list indexed by slot;
its forward pass recomputes every node from its parents' current ``.data``.
:meth:`Tensor.backward` lowers and runs a program once;
:class:`repro.autodiff.tape.Tape` keeps one per trace and replays it every
optimizer step.  Both perform the same arithmetic, and the same
accumulations into each slot in the same order, so a replay is bit-identical
to a re-trace.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

ArrayLike = "Tensor | np.ndarray | float | int | list | tuple"

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Return whether operations currently record the computation graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


#: Opcodes of the ops :class:`Program` runs inline.  ``CLOSURE`` marks every
#: other op (and leaves, which have no parents): it runs through the node's
#: own ``_recompute`` / ``_backward`` closures.
CLOSURE, MUL, ADD, SUB, DIV, RELU, GETITEM = range(7)
_LEAF = -1  # lowering only: leaves accumulate into ``.grad``


def topological_order(root: "Tensor") -> list["Tensor"]:
    """Ancestors of ``root`` that require grad, parents before children.

    ``root`` comes last; :class:`Program` numbers its slots in this order.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _getitem_plan(index, shape: tuple[int, ...]) -> tuple:
    """How ``GETITEM`` scatters a gradient back: ``(index, target, unique)``.

    A basic index (ints, slices, ``None``, ``...``) selects each element at
    most once; its ``target`` is the same index with a trailing ``...``, so
    that it selects a writable view even when it picks a single element.
    Any other index gets as ``target`` the flat positions of the elements it
    gathers, read off an ``arange`` of the source; ``unique`` tells whether
    any position repeats.
    """
    parts = index if isinstance(index, tuple) else (index,)
    if all(part is None or part is Ellipsis or isinstance(part, (int, np.integer, slice))
           for part in parts):
        return index, parts if Ellipsis in parts else parts + (Ellipsis,), True
    flat = np.arange(int(np.prod(shape)), dtype=np.intp).reshape(shape)[index]
    return index, flat, np.unique(flat).size == flat.size


def _scatter(grad: np.ndarray, shape: tuple[int, ...], plan: tuple) -> np.ndarray:
    """The gradient of a gather: ``grad`` placed into zeros of ``shape``.

    Each entry is ``0.0 + grad``, exactly as ``np.add.at`` onto zeros gives
    (which turns ``-0.0`` into ``+0.0``); only repeated positions, whose
    contributions must add up in order, still go through ``np.add.at``.
    """
    index, target, unique = plan
    full = np.zeros(shape, dtype=np.float64)
    if not unique:
        np.add.at(full, index, grad)
    elif isinstance(target, np.ndarray):
        full.reshape(-1)[target] = grad + 0.0
    else:
        view = full[target]
        view += grad
    return full


class Program:
    """A recorded graph lowered to flat, slot-indexed instruction lists.

    Lowering walks ``topological_order(root)`` once.  A forward instruction
    is ``(op, node, x, y)``: the parents (``y`` is the gather plan for
    ``GETITEM``), or the node's recompute closure as ``x`` for ``CLOSURE``.
    A backward instruction is ``(op, slot, x, y, slot_x, slot_y, shape_x,
    shape_y)``: a parent's slot is ``-1`` when it needs no gradient, so its
    contribution is never computed, and ``shape_*`` is the shape a broadcast
    edge's contribution is summed back to (``None`` when no sum is needed).
    ``CLOSURE`` instructions carry the backward closure and per-parent tuples
    of slots and shapes instead.

    The graph's wiring and shapes must stay fixed while a program is used;
    values may change freely (value-dependent masks are re-derived on every
    pass).
    """

    __slots__ = ("nodes", "_forward_code", "_backward_code")

    def __init__(self, root: "Tensor") -> None:
        nodes = topological_order(root)
        slot_of = {id(node): slot for slot, node in enumerate(nodes)}
        forward_code: list[tuple] = []
        backward_code: list[tuple] = []
        for slot, node in enumerate(nodes):
            parents = node._parents
            if not parents:
                backward_code.append((_LEAF, slot, node, None, -1, -1, None, None))
                continue
            slots = [slot_of[id(parent)] if parent.requires_grad else -1
                     for parent in parents]
            op = node._op
            if op == CLOSURE:
                forward_code.append((CLOSURE, node, node._recompute, None))
                backward_code.append((CLOSURE, slot, node._backward, None, tuple(slots),
                                      -1, tuple(p.data.shape for p in parents), None))
                continue
            x = parents[0]
            if len(parents) == 2:
                # Binary ops: each contribution has the node's (broadcast) shape.
                y = parents[1]
                shape = node.data.shape
                shape_x = x.data.shape if x.data.shape != shape else None
                shape_y = y.data.shape if y.data.shape != shape else None
                backward_code.append((op, slot, x, y, slots[0], slots[1], shape_x, shape_y))
            else:
                y = node._arg
                backward_code.append((op, slot, x, y, slots[0], -1, None, None))
            forward_code.append((op, node, x, y))
        backward_code.reverse()
        self.nodes = nodes
        self._forward_code = forward_code
        self._backward_code = backward_code

    def forward(self) -> None:
        """Recompute every non-leaf node from its parents' current ``.data``."""
        for op, node, x, y in self._forward_code:
            if op == MUL:
                node.data = x.data * y.data
            elif op == ADD:
                node.data = x.data + y.data
            elif op == SUB:
                node.data = x.data - y.data
            elif op == DIV:
                node.data = x.data / y.data
            elif op == RELU:
                node.data = np.maximum(x.data, 0.0)
            elif op == GETITEM:
                index, target, _ = y
                if target.__class__ is tuple:
                    node.data = x.data[index]
                else:
                    node.data = x.data.reshape(-1)[target]
            else:
                node.data = x()

    def backward(self, grad: np.ndarray) -> None:
        """Reverse accumulation from the root; leaves get ``.grad``."""
        grads: list = [None] * len(self.nodes)
        grads[-1] = grad
        for op, slot, x, y, slot_x, slot_y, shape_x, shape_y in self._backward_code:
            g = grads[slot]
            if g is None:
                continue
            grads[slot] = None
            if op == MUL:
                cx = g * y.data if slot_x >= 0 else None
                cy = g * x.data if slot_y >= 0 else None
            elif op == ADD:
                cx = cy = g
            elif op == SUB:
                cx = g
                cy = -g if slot_y >= 0 else None
            elif op == DIV:
                cx = g / y.data if slot_x >= 0 else None
                cy = -g * x.data / (y.data**2) if slot_y >= 0 else None
            elif op == RELU:
                cx, cy = g * (x.data > 0), None
            elif op == GETITEM:
                cx, cy = _scatter(g, x.data.shape, y), None
            elif op == CLOSURE:
                for (_, contribution), parent_slot, shape in zip(x(g), slot_x, shape_x):
                    if parent_slot < 0 or contribution is None:
                        continue
                    contribution = _unbroadcast(
                        np.asarray(contribution, dtype=np.float64), shape)
                    previous = grads[parent_slot]
                    grads[parent_slot] = (contribution if previous is None
                                          else previous + contribution)
                continue
            else:
                x._accumulate(g)
                continue
            if slot_x >= 0:
                if shape_x is not None:
                    cx = _unbroadcast(cx, shape_x)
                previous = grads[slot_x]
                grads[slot_x] = cx if previous is None else previous + cx
            if slot_y >= 0:
                if shape_y is not None:
                    cy = _unbroadcast(cy, shape_y)
                previous = grads[slot_y]
                grads[slot_y] = cy if previous is None else previous + cy


class Tensor:
    """A NumPy-backed tensor participating in a dynamic autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_op", "_arg",
                 "_backward", "_recompute", "name")

    # Make numpy defer to Tensor for mixed operations such as ``2.0 * tensor``.
    __array_priority__ = 200

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._op = CLOSURE
        self._arg = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._recompute: Callable[[], np.ndarray] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape: Sequence[int] | int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int] | int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int] | int, value: float, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=requires_grad)

    @staticmethod
    def as_tensor(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a NumPy array."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _make_child(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None] | None,
        forward: Callable[[], np.ndarray] | None = None,
    ) -> "Tensor":
        """Create a closure op's result, wired into the graph when grad is enabled.

        ``backward`` propagates an incoming gradient to the parents;
        ``forward`` recomputes this node's value from the parents' current
        ``.data`` (used by tape replay).  Ops whose backward needs the output
        value pass ``backward=None`` here and attach it with
        :meth:`_set_backward` once the child exists.
        """
        child = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            child.requires_grad = True
            child._parents = parents
            child._backward = backward
            child._recompute = forward
        return child

    def _make_op(self, op: int, data: np.ndarray, parents: tuple["Tensor", ...],
                 arg=None) -> "Tensor":
        """Create the result of an op :class:`Program` runs inline by opcode."""
        child = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            child.requires_grad = True
            child._parents = parents
            child._op = op
            child._arg = arg
        return child

    def _set_backward(self, backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Attach a late-bound backward closure (only if this node is wired)."""
        if self._parents:
            self._backward = backward
        return self

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # Gradients are initialized on first accumulation (``zero_grad``
            # drops them to ``None``), so no per-step zero buffers are
            # allocated.  The copy keeps ``.grad`` an owned, writable array:
            # the incoming contribution may be a read-only broadcast view or
            # an array also delivered to a sibling leaf.
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient of this tensor (drops it to None)."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0 and must match this tensor's shape otherwise.
        Gradients accumulate into ``.grad`` of every reachable tensor that was
        created with ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape).copy()
        Program(self).backward(grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)
        return self._make_op(ADD, self.data + other.data, (self, other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) + self

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)
        return self._make_op(SUB, self.data - other.data, (self, other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) - self

    def __neg__(self) -> "Tensor":
        def forward():
            return -self.data

        def backward(grad: np.ndarray):
            return ((self, -grad),)

        return self._make_child(forward(), (self,), backward, forward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)
        return self._make_op(MUL, self.data * other.data, (self, other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) * self

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)
        return self._make_op(DIV, self.data / other.data, (self, other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            return self._tensor_pow(exponent)

        def forward():
            return self.data**exponent

        def backward(grad: np.ndarray):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        return self._make_child(forward(), (self,), backward, forward)

    def _tensor_pow(self, exponent: "Tensor") -> "Tensor":
        def forward():
            return self.data**exponent.data

        out = self._make_child(forward(), (self, exponent), None, forward)

        def backward(grad: np.ndarray):
            base_data, exp_data = self.data, exponent.data
            grad_base = grad * exp_data * base_data ** (exp_data - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_base = np.where(base_data > 0, np.log(np.maximum(base_data, 1e-300)), 0.0)
            grad_exp = grad * out.data * log_base
            return ((self, grad_base), (exponent, grad_exp))

        return out._set_backward(backward)

    # ------------------------------------------------------------------ #
    # Matrix multiply, reshaping, indexing
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data @ other.data

        def backward(grad: np.ndarray):
            self_data, other_data = self.data, other.data
            if self_data.ndim == 1 and other_data.ndim == 1:
                # inner product: grad is scalar
                return ((self, grad * other_data), (other, grad * self_data))
            if self_data.ndim == 1:
                grad_self = grad @ other_data.T
                grad_other = np.outer(self_data, grad)
                return ((self, grad_self), (other, grad_other))
            if other_data.ndim == 1:
                grad_self = np.outer(grad, other_data)
                grad_other = self_data.T @ grad
                return ((self, grad_self), (other, grad_other))
            grad_self = grad @ np.swapaxes(other_data, -1, -2)
            grad_other = np.swapaxes(self_data, -1, -2) @ grad
            return ((self, grad_self), (other, grad_other))

        return self._make_child(forward(), (self, other), backward, forward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape

        def forward():
            return self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return ((self, grad.reshape(original_shape)),)

        return self._make_child(forward(), (self,), backward, forward)

    def transpose(self) -> "Tensor":
        def forward():
            return self.data.T

        def backward(grad: np.ndarray):
            return ((self, grad.T),)

        return self._make_child(forward(), (self,), backward, forward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        if not (_GRAD_ENABLED and self.requires_grad):
            return Tensor(data)
        return self._make_op(GETITEM, data, (self,),
                             _getitem_plan(index, self.data.shape))

    # ------------------------------------------------------------------ #
    # Reductions and elementwise functions (method forms)
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def forward():
            return self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                expanded = np.broadcast_to(grad, shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                if not keepdims:
                    for ax in sorted(a % len(shape) for a in axes):
                        grad = np.expand_dims(grad, ax)
                expanded = np.broadcast_to(grad, shape)
            return ((self, expanded),)

        return self._make_child(forward(), (self,), backward, forward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def prod(self) -> "Tensor":
        """Product over all elements (differentiable, tolerant of zeros)."""

        def forward():
            return np.asarray(float(np.prod(self.data)))

        def backward(grad: np.ndarray):
            grad_value = float(np.asarray(grad).reshape(-1)[0])
            flat = self.data.reshape(-1)
            n = flat.size
            # Gradient of the product w.r.t. each element is the product of
            # all the others; computed with exclusive prefix/suffix products
            # so that a single zero element does not wipe out every gradient.
            prefix = np.ones(n)
            suffix = np.ones(n)
            if n > 1:
                np.multiply.accumulate(flat[:-1], out=prefix[1:])
                np.multiply.accumulate(flat[:0:-1], out=suffix[-2::-1])
            partials = prefix * suffix
            return ((self, (grad_value * partials).reshape(self.data.shape)),)

        return self._make_child(forward(), (self,), backward, forward)

    def max(self) -> "Tensor":
        def forward():
            return np.asarray(self.data.max())

        out = self._make_child(forward(), (self,), None, forward)

        def backward(grad: np.ndarray):
            grad_value = float(np.asarray(grad).reshape(-1)[0])
            mask = (self.data == out.data).astype(np.float64)
            mask /= mask.sum()
            return ((self, grad_value * mask),)

        return out._set_backward(backward)

    def min(self) -> "Tensor":
        return -((-self).max())

    def exp(self) -> "Tensor":
        def forward():
            return np.exp(self.data)

        out = self._make_child(forward(), (self,), None, forward)

        def backward(grad: np.ndarray):
            return ((self, grad * out.data),)

        return out._set_backward(backward)

    def log(self) -> "Tensor":
        def forward():
            return np.log(self.data)

        def backward(grad: np.ndarray):
            return ((self, grad / self.data),)

        return self._make_child(forward(), (self,), backward, forward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        def forward():
            return np.abs(self.data)

        def backward(grad: np.ndarray):
            return ((self, grad * np.sign(self.data)),)

        return self._make_child(forward(), (self,), backward, forward)

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return plain numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __lt__(self, other: ArrayLike):
        return self.data < Tensor.as_tensor(other).data

    def __le__(self, other: ArrayLike):
        return self.data <= Tensor.as_tensor(other).data

    def __gt__(self, other: ArrayLike):
        return self.data > Tensor.as_tensor(other).data

    def __ge__(self, other: ArrayLike):
        return self.data >= Tensor.as_tensor(other).data


def parameters_size(tensors: Iterable[Tensor]) -> int:
    """Total number of scalar parameters across ``tensors``."""
    return sum(t.size for t in tensors)
