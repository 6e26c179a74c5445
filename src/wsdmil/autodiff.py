"""Reverse-mode automatic differentiation over small dense matrices.

Every value is a rank-2 float64 array (scalars are 1x1, vectors are rows).
Operations build a fresh define-by-run graph; calling ``backward()`` on a
scalar node sweeps it in reverse topological order and accumulates adjoints
into ``.grad`` of every reachable node.  ``grad_check`` provides the
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

    Leaves are created directly from data; every primitive below returns a
    new node whose ``_backward`` closure knows how to push its adjoint to
    its parents.  Gradients accumulate, so callers zero parameter grads
    between backward passes.
    """

    __slots__ = ("data", "grad", "op", "name", "_parents", "_backward")

    def __init__(self, data, op: str = "leaf", parents: tuple = (), name: str | None = None):
        self.data = _as_matrix(data)
        self.grad = np.zeros_like(self.data)
        self.op = op
        self.name = name
        self._parents = parents
        self._backward: Callable[[], None] = lambda: None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Tensor({label}, shape={self.data.shape})"

    # ---- elementwise arithmetic -------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        # equal shapes, or broadcast of a single row across matrix rows
        if self.shape == other.shape:
            out = Tensor(self.data + other.data, "add", (self, other))

            def bwd():
                self.grad += out.grad
                other.grad += out.grad

        elif other.shape == (1, self.shape[1]):
            out = Tensor(self.data + other.data, "add_row", (self, other))

            def bwd():
                self.grad += out.grad
                other.grad += out.grad.sum(axis=0, keepdims=True)

        elif self.shape == (1, other.shape[1]):
            return other + self
        else:
            raise ShapeError("add", self.shape, other.shape)
        out._backward = bwd
        return out

    def __mul__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ShapeError("mul", self.shape, other.shape)
        out = Tensor(self.data * other.data, "mul", (self, other))

        def bwd():
            self.grad += out.grad * other.data
            other.grad += out.grad * self.data

        out._backward = bwd
        return out

    def scale(self, c: float) -> "Tensor":
        c = float(c)
        out = Tensor(self.data * c, "scale", (self,))

        def bwd():
            self.grad += out.grad * c

        out._backward = bwd
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.shape[1] != other.shape[0]:
            raise ShapeError("matmul", self.shape, other.shape)
        out = Tensor(self.data @ other.data, "matmul", (self, other))

        def bwd():
            self.grad += out.grad @ other.data.T
            other.grad += self.data.T @ out.grad

        out._backward = bwd
        return out

    # ---- elementwise nonlinearities ---------------------------------------------

    def tanh(self) -> "Tensor":
        out = Tensor(np.tanh(self.data), "tanh", (self,))

        def bwd():
            self.grad += out.grad * (1.0 - out.data * out.data)

        out._backward = bwd
        return out

    def sigmoid(self) -> "Tensor":
        # split by sign to avoid overflow in exp
        x = self.data
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = Tensor(s, "sigmoid", (self,))

        def bwd():
            self.grad += out.grad * out.data * (1.0 - out.data)

        out._backward = bwd
        return out

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), "relu", (self,))

        def bwd():
            self.grad += out.grad * (self.data > 0.0)

        out._backward = bwd
        return out

    # ---- structural ops ----------------------------------------------------------

    def transpose(self) -> "Tensor":
        out = Tensor(self.data.T.copy(), "transpose", (self,))

        def bwd():
            self.grad += out.grad.T

        out._backward = bwd
        return out

    # ---- reductions ----------------------------------------------------------------

    def softmax_rows(self) -> "Tensor":
        shifted = self.data - self.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=1, keepdims=True)
        out = Tensor(s, "softmax_rows", (self,))

        def bwd():
            g = out.grad
            dot = (g * out.data).sum(axis=1, keepdims=True)
            self.grad += out.data * (g - dot)

        out._backward = bwd
        return out

    def max_rows(self) -> "Tensor":
        # columnwise max across rows; ties resolve to the lowest row index
        idx = np.argmax(self.data, axis=0)
        out = Tensor(self.data[idx, np.arange(self.shape[1])].reshape(1, -1),
                     "max_rows", (self,))

        def bwd():
            cols = np.arange(self.shape[1])
            np.add.at(self.grad, (idx, cols), out.grad[0])

        out._backward = bwd
        return out

    def mean_rows(self) -> "Tensor":
        n = self.shape[0]
        out = Tensor(self.data.mean(axis=0, keepdims=True), "mean_rows", (self,))

        def bwd():
            self.grad += np.broadcast_to(out.grad / n, self.shape)

        out._backward = bwd
        return out

    def sum(self) -> "Tensor":
        out = Tensor(np.array([[self.data.sum()]]), "sum", (self,))

        def bwd():
            self.grad += out.grad[0, 0]

        out._backward = bwd
        return out

    # ---- backward sweep --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-sweep from this node; requires a scalar (1x1) value."""
        if self.data.size != 1:
            raise ShapeError("backward", self.shape)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def build(t: Tensor) -> None:
            if id(t) in seen:
                return
            seen.add(id(t))
            for p in t._parents:
                build(p)
            topo.append(t)

        build(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            node._backward()


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack tensors vertically; all operands must share a column count."""
    if not tensors:
        raise ShapeError("concat_rows")
    cols = tensors[0].shape[1]
    for t in tensors:
        if t.shape[1] != cols:
            raise ShapeError("concat_rows", tensors[0].shape, t.shape)
    out = Tensor(np.vstack([t.data for t in tensors]), "concat_rows", tuple(tensors))

    def bwd():
        row = 0
        for t in tensors:
            n = t.shape[0]
            t.grad += out.grad[row:row + n]
            row += n

    out._backward = bwd
    return out


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of x by index (duplicates allowed); scatter-adds on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError("take_rows", x.shape, (idx.size,))
    out = Tensor(x.data[idx].copy(), "take_rows", (x,))

    def bwd():
        np.add.at(x.grad, idx, out.grad)

    out._backward = bwd
    return out


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
    out = Tensor(np.array([[logz - row[label]]]), "cross_entropy", (logits,))

    def bwd():
        g = out.grad[0, 0]
        p = np.exp(row - logz)
        p[label] -= 1.0
        logits.grad[0] += g * p

    out._backward = bwd
    return out


def squared_error(pred: Tensor, target: float) -> Tensor:
    """(pred - target)^2 for a scalar prediction node."""
    if pred.data.size != 1:
        raise ShapeError("squared_error", pred.shape)
    diff = pred.data[0, 0] - float(target)
    out = Tensor(np.array([[diff * diff]]), "squared_error", (pred,))

    def bwd():
        pred.grad += out.grad * (2.0 * diff)

    out._backward = bwd
    return out


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
