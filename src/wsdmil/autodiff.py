"""Reverse-mode automatic differentiation over small dense matrices.

Every value is a rank-2 float64 array (scalars are 1x1, vectors are rows).
Operations build a fresh define-by-run graph; calling ``backward()`` on a
scalar node sweeps it in reverse topological order and accumulates adjoints
into ``.grad`` of every reachable node that requires a gradient; the others
(input features, constants, and everything computed from them alone) have
``grad`` None and get no adjoint computed.  ``grad_check`` provides the
central-difference oracle used to validate all analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradCheckError",
    "GradCheckReport",
    "concat_rows",
    "take_rows",
    "cross_entropy",
    "squared_error",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when a primitive receives incompatible operand shapes."""

    def __init__(self, op: str, *shapes: tuple[int, ...]):
        self.op = op
        self.shapes = shapes
        pretty = " and ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class GradCheckError(RuntimeError):
    """Raised when the loss is non-finite at a finite-difference probe point."""


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 2:
        raise ShapeError("tensor", arr.shape)
    return arr


class Tensor:
    """A node in the differentiation graph holding a 2-D float64 value.

    Leaves are created directly from data.  Every primitive below returns a
    node whose parents are ``(parent, vjp)`` pairs, in operand order: ``vjp``
    maps the node's adjoint to that parent's share of it.  A vjp holds
    arrays and parents but never its own node, so a graph has no reference
    cycles and is freed as soon as its output goes out of scope.  Gradients
    accumulate, so callers zero parameter grads between backward passes.

    ``requires_grad`` applies to leaves only; a node with parents requires
    a gradient when any parent does.
    """

    __slots__ = ("data", "grad", "op", "name", "_parents")

    def __init__(self, data, op: str = "leaf", parents: tuple = (),
                 name: str | None = None, requires_grad: bool = True):
        self.data = _as_matrix(data)
        if parents:
            requires_grad = any(p.grad is not None for p, _ in parents)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.op = op
        self.name = name
        self._parents = parents

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.grad is not None

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Tensor({label}, shape={self.data.shape})"

    # ---- elementwise arithmetic -------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        # equal shapes, or broadcast of a single row across matrix rows
        if self.shape == other.shape:
            return Tensor(self.data + other.data, "add",
                          ((self, _identity), (other, _identity)))
        if other.shape == (1, self.shape[1]):
            return Tensor(self.data + other.data, "add_row",
                          ((self, _identity),
                           (other, lambda g: g.sum(axis=0, keepdims=True))))
        if self.shape == (1, other.shape[1]):
            return other + self
        raise ShapeError("add", self.shape, other.shape)

    def __mul__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ShapeError("mul", self.shape, other.shape)
        a, b = self.data, other.data
        return Tensor(a * b, "mul", ((self, lambda g: g * b), (other, lambda g: g * a)))

    def scale(self, c: float) -> "Tensor":
        c = float(c)
        return Tensor(self.data * c, "scale", ((self, lambda g: g * c),))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.shape[1] != other.shape[0]:
            raise ShapeError("matmul", self.shape, other.shape)
        a, b = self.data, other.data
        return Tensor(a @ b, "matmul",
                      ((self, lambda g: g @ b.T), (other, lambda g: a.T @ g)))

    # ---- elementwise nonlinearities ---------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        return Tensor(y, "tanh", ((self, lambda g: g * (1.0 - y * y)),))

    def sigmoid(self) -> "Tensor":
        # split by sign to avoid overflow in exp
        x = self.data
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return Tensor(s, "sigmoid", ((self, lambda g: g * s * (1.0 - s)),))

    def relu(self) -> "Tensor":
        x = self.data
        return Tensor(np.maximum(x, 0.0), "relu", ((self, lambda g: g * (x > 0.0)),))

    # ---- structural ops ----------------------------------------------------------

    def transpose(self) -> "Tensor":
        return Tensor(self.data.T.copy(), "transpose", ((self, lambda g: g.T),))

    # ---- reductions ----------------------------------------------------------------

    def softmax_rows(self) -> "Tensor":
        shifted = self.data - self.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=1, keepdims=True)
        return Tensor(s, "softmax_rows",
                      ((self, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True))),))

    def max_rows(self) -> "Tensor":
        # columnwise max across rows; ties resolve to the lowest row index
        cells = (np.argmax(self.data, axis=0), np.arange(self.shape[1]))
        return Tensor(self.data[cells].reshape(1, -1), "max_rows",
                      ((self, lambda g: _scatter(self.shape, cells, g[0])),))

    def mean_rows(self) -> "Tensor":
        n, shape = self.shape[0], self.shape
        return Tensor(self.data.mean(axis=0, keepdims=True), "mean_rows",
                      ((self, lambda g: np.broadcast_to(g / n, shape)),))

    def sum(self) -> "Tensor":
        return Tensor(np.array([[self.data.sum()]]), "sum",
                      ((self, lambda g: g[0, 0]),))

    # ---- backward sweep --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-sweep from this node; requires a scalar (1x1) value.

        This is the one place that adds into ``.grad``: each node's parents,
        in operand order, receive ``vjp(node.grad)`` when they require a
        gradient.  Nodes that require none are left out of the sweep.
        """
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        if self.grad is None:
            raise ValueError("backward: the value requires no gradient")
        order: list[Tensor] = []
        _topo_sort(self, set(), order)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            for parent, vjp in node._parents:
                if parent.grad is not None:
                    parent.grad += vjp(node.grad)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _topo_sort(node: Tensor, seen: set[int], order: list[Tensor]) -> None:
    """Append the nodes below ``node`` that require a gradient, parents first."""
    if id(node) in seen or node.grad is None:
        return
    seen.add(id(node))
    for parent, _ in node._parents:
        _topo_sort(parent, seen, order)
    order.append(node)


def _scatter(shape: tuple[int, int], cells, values: np.ndarray) -> np.ndarray:
    """A zero adjoint of ``shape`` with ``values`` added at ``cells``.

    ``backward`` then adds this share to the parent's grad.  That is bit
    identical to adding ``values`` straight into the grad whenever no cell
    is hit twice in one call: always for ``max_rows``, and for ``take_rows``
    with distinct indices, as in every model head (DSMIL takes one row per
    call).  Repeated indices sum their rows first, which can round
    differently in the last bit.
    """
    share = np.zeros(shape)
    np.add.at(share, cells, values)
    return share


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack tensors vertically; all operands must share a column count."""
    if not tensors:
        raise ShapeError("concat_rows")
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError("concat_rows", tensors[0].shape, t.shape)
    bounds = np.cumsum([0] + [t.shape[0] for t in tensors])
    return Tensor(np.vstack([t.data for t in tensors]), "concat_rows",
                  tuple((t, lambda g, lo=lo, hi=hi: g[lo:hi])
                        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:])))


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of x by index (duplicates allowed); scatter-adds on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError("take_rows", x.shape, (idx.size,))
    return Tensor(x.data[idx].copy(), "take_rows",
                  ((x, lambda g: _scatter(x.shape, idx, g)),))


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
    return Tensor(np.array([[logz - row[label]]]), "cross_entropy",
                  ((logits, lambda g: g[0, 0] * p),))


def squared_error(pred: Tensor, target: float) -> Tensor:
    """(pred - target)^2 for a scalar prediction node."""
    if pred.data.size != 1:
        raise ShapeError("squared_error", pred.shape)
    diff = pred.data[0, 0] - float(target)
    return Tensor(np.array([[diff * diff]]), "squared_error",
                  ((pred, lambda g: g * (2.0 * diff)),))


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    per_param: list[tuple[str, float]] = field(default_factory=list)
    max_rel_error: float = 0.0
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
               epsilon: float = 1e-5, tolerance: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

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

    report = GradCheckReport(tolerance=tolerance)
    for k, (p, a) in enumerate(zip(params, analytic)):
        worst = 0.0
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
        report.per_param.append((p.name or f"param{k}", worst))
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
