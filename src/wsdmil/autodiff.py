"""Reverse-mode automatic differentiation over small dense matrices.

Every value is a rank-2 float64 array (scalars are 1x1, vectors are rows).
Each primitive is one module-level op (``matmul``, ``linear``, ``relu``,
...) that computes its value with numpy, checks its operand shapes and
gives the vjp of each operand.  Operands are Tensors or plain 2-D float64
arrays.  With no Tensor operand an op returns the value as an ndarray and
builds no graph, which is how inference runs; there an operand may also be
a (k, m, n) stack, whose k matrices get the bits each would get alone.
Otherwise it returns a node whose parents are its Tensor operands; plain
operands are constants.

Calling ``backward()`` on a scalar node sweeps the graph in reverse
topological order and accumulates adjoints into ``.grad`` of every
reachable node.  ``grad_check`` provides the central-difference oracle
used to validate all analytic gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

class ShapeError(ValueError):
    """Raised when a primitive receives incompatible operand shapes."""

    def __init__(self, op: str, *shapes: tuple[int, ...]):
        pretty = " and ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class GradCheckError(RuntimeError):
    """Raised when the loss is non-finite at a finite-difference probe point."""


class Tensor:
    """A differentiable node: its 2-D float64 value, grad, parents and a leaf's name.

    Leaves are created directly from data, which is held without a copy.
    The ops below build the other nodes, whose parents are ``(parent, vjp)``
    pairs in operand order: ``vjp`` maps the node's adjoint to that
    parent's share of it.  A vjp holds arrays and parents but never its own
    node, so a graph has no reference cycles and is freed as soon as its
    output goes out of scope.

    A leaf holds a zero ``grad`` from the start, and gradients accumulate,
    so callers zero parameter grads between backward passes.  An interior
    node's ``grad`` stays None until ``backward`` gives it its first share.
    ``+``, ``*`` and ``@`` are the ops ``add``, ``mul`` and ``matmul``.
    """

    __slots__ = ("data", "grad", "name", "_parents")

    def __init__(self, data, parents: tuple = (), name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError("tensor", self.data.shape)
        self.grad = None if parents else np.zeros_like(self.data)
        self.name = name
        self._parents = parents

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor({self.name}, shape={self.data.shape})"

    def backward(self) -> None:
        """Reverse-sweep from this node; requires a scalar (1x1) value.

        This is the one place that adds into ``.grad``: each node's parents,
        in operand order, receive ``vjp(node.grad)``.  An interior parent's
        first share becomes a fresh grad of its shape, ``share + 0.0``, the
        bits of adding it to zeros.
        """
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        order: list[Tensor] = []
        _topo_sort(self, set(), order)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            for parent, vjp in node._parents:
                if parent.grad is not None:
                    parent.grad += vjp(node.grad)
                else:
                    parent.grad = np.add(vjp(node.grad), 0.0,
                                         out=np.empty_like(parent.data))


def _topo_sort(node: Tensor, seen: set[int], order: list[Tensor]) -> None:
    """Append ``node`` and the nodes below it, parents first."""
    if id(node) in seen:
        return
    seen.add(id(node))
    for parent, _ in node._parents:
        _topo_sort(parent, seen, order)
    order.append(node)


def _node(y: np.ndarray, *pairs) -> Tensor:
    """``y`` as a node whose parents are the Tensor operands among the
    ``(operand, vjp)`` pairs; a plain operand is a constant and gets no share."""
    return Tensor(y, tuple(p for p in pairs if isinstance(p[0], Tensor)))


def _scatter(shape: tuple[int, int], cells, values: np.ndarray) -> np.ndarray:
    """A zero adjoint of ``shape`` with ``values`` added at ``cells``.

    Adding this share to a grad is bit identical to adding ``values``
    straight into it whenever no cell is hit twice: always for ``max_rows``,
    and for ``take_rows`` with distinct indices.  Repeated indices, as when
    two of DSMIL's classes share a critical instance, sum their rows first,
    which can round differently in the last bit.
    """
    share = np.zeros(shape)
    np.add.at(share, cells, values)
    return share


# ---- ops -----------------------------------------------------------------------
#
# With a Tensor operand an op calls itself on the operands' arrays and wraps
# that value in a node; otherwise, after one isinstance test per operand, it
# checks the shapes and returns the plain value.


def value(x: Tensor | np.ndarray) -> np.ndarray:
    """The array a Tensor holds, or a plain array itself."""
    return x.data if isinstance(x, Tensor) else x


def add(a, b):
    """Elementwise sum of equal shapes."""
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        return _node(add(value(a), value(b)), (a, lambda g: g), (b, lambda g: g))
    if a.shape[-2:] != b.shape[-2:]:
        raise ShapeError("add", a.shape, b.shape)
    return a + b


def mul(a, b):
    """Elementwise product of equal shapes."""
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        x, y = value(a), value(b)
        return _node(mul(x, y), (a, lambda g: g * y), (b, lambda g: g * x))
    if a.shape[-2:] != b.shape[-2:]:
        raise ShapeError("mul", a.shape, b.shape)
    return a * b


def scale(x, c: float):
    """x times the constant c."""
    c = float(c)
    if isinstance(x, Tensor):
        return Tensor(scale(x.data, c), ((x, lambda g: g * c),))
    return x * c


def matmul(a, b):
    if isinstance(a, Tensor) or isinstance(b, Tensor):
        x, y = value(a), value(b)
        return _node(matmul(x, y), (a, lambda g: g @ y.T), (b, lambda g: x.T @ g))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    return a @ b


def linear(x, w, b):
    """x @ w + b, with the (1, k) bias row added to every row; one node."""
    if isinstance(x, Tensor) or isinstance(w, Tensor) or isinstance(b, Tensor):
        xa, wa = value(x), value(w)
        return _node(linear(xa, wa, value(b)),
                     (x, lambda g: g @ wa.T), (w, lambda g: xa.T @ g),
                     (b, lambda g: g.sum(axis=0, keepdims=True)))
    if x.shape[-1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    y = x @ w
    y += b
    return y


def relu(x):
    if isinstance(x, Tensor):
        a = x.data
        return Tensor(relu(a), ((x, lambda g: g * (a > 0.0)),))
    return np.maximum(x, 0.0)


def tanh(x):
    if isinstance(x, Tensor):
        y = tanh(x.data)
        return Tensor(y, ((x, lambda g: g * (1.0 - y * y)),))
    return np.tanh(x)


def sigmoid(x):
    if isinstance(x, Tensor):
        s = sigmoid(x.data)
        return Tensor(s, ((x, lambda g: g * s * (1.0 - s)),))
    e = np.exp(-np.abs(x))          # split by sign to avoid overflow in exp
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def transpose(x):
    if isinstance(x, Tensor):
        return Tensor(transpose(x.data), ((x, lambda g: g.T),))
    return np.swapaxes(x, -1, -2).copy()


def softmax_rows(x):
    if isinstance(x, Tensor):
        s = softmax_rows(x.data)
        return Tensor(s,
                      ((x, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True))),))
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def max_rows(x):
    """Columnwise max across rows as a (1, k) row; ties resolve to the
    lowest row index, which alone receives the adjoint.  The value is read
    at the argmax cells, which the vjp needs, so both paths compute it."""
    a = value(x)
    rows = np.argmax(a, axis=-2)[..., None, :]
    y = np.take_along_axis(a, rows, axis=-2)
    if not isinstance(x, Tensor):
        return y
    cells = (rows[0], np.arange(a.shape[1]))
    return Tensor(y, ((x, lambda g: _scatter(a.shape, cells, g[0])),))


def mean_rows(x):
    if isinstance(x, Tensor):
        a = x.data
        return Tensor(mean_rows(a),
                      ((x, lambda g: np.broadcast_to(g / a.shape[0], a.shape)),))
    return x.mean(axis=-2, keepdims=True)


def take_rows(x, indices: Sequence[int]):
    """Gather rows of x by index (duplicates allowed); scatter-adds on backward.
    A (k, m, n) stack takes (k, j) indices, j rows from each matrix."""
    idx = np.asarray(indices, dtype=np.intp)
    if isinstance(x, Tensor):
        a = x.data
        return Tensor(take_rows(a, idx), ((x, lambda g: _scatter(a.shape, idx, g)),))
    if (idx.ndim != x.ndim - 1 or idx.size == 0 or idx.min() < 0
            or idx.max() >= x.shape[-2]):
        raise ShapeError("take_rows", x.shape, idx.shape)
    return np.take_along_axis(x, idx[..., None], axis=-2)


Tensor.__add__, Tensor.__mul__, Tensor.__matmul__ = add, mul, matmul


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of ``label`` under row-softmax of a (1,k) logit row."""
    if logits.shape[0] != 1:
        raise ShapeError("cross_entropy", logits.shape)
    k = logits.shape[1]
    if not 0 <= label < k:
        raise ValueError(f"cross_entropy: label {label} outside 0..{k - 1}")
    row = logits.data[0]
    m = row.max()
    logz = m + np.log(np.exp(row - m).sum())
    p = np.exp(row - logz)
    p[label] -= 1.0
    return Tensor(np.array([[logz - row[label]]]), ((logits, lambda g: g[0, 0] * p),))


def squared_error(pred: Tensor, target: float) -> Tensor:
    """(pred - target)^2 for a scalar prediction node."""
    if pred.data.size != 1:
        raise ShapeError("squared_error", pred.shape)
    diff = pred.data[0, 0] - float(target)
    return Tensor(np.array([[diff * diff]]), ((pred, lambda g: g * (2.0 * diff)),))


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
               epsilon: float = 1e-5) -> float:
    """The largest relative error of the analytic gradients of ``loss_fn``
    against central differences, over every entry of ``params``.

    ``loss_fn`` must rebuild its graph from the current ``params`` values on
    every call and return a scalar.  Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    for p in params:
        p.grad[...] = 0.0
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise GradCheckError("non-finite loss at unperturbed point")
    loss.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for k, (p, a) in enumerate(zip(params, analytic)):
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            orig = p.data[ij]
            p.data[ij] = orig + epsilon
            hi = float(loss_fn().data[0, 0])
            p.data[ij] = orig - epsilon
            lo = float(loss_fn().data[0, 0])
            p.data[ij] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradCheckError(
                    f"non-finite loss probing parameter {p.name or k} at {ij}")
            numeric = (hi - lo) / (2.0 * epsilon)
            denom = max(abs(a[ij]), abs(numeric), 1e-8)
            worst = max(worst, abs(a[ij] - numeric) / denom)
    return worst
