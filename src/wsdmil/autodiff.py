"""Reverse-mode automatic differentiation over small dense matrices.

Every value is a rank-2 float64 array (scalars are 1x1, vectors are rows).
Operations build a fresh define-by-run graph; calling ``backward()`` on a
scalar node sweeps it in reverse topological order and accumulates adjoints
into ``.grad`` of every reachable node that requires a gradient; the others
(input features, constants, and everything computed from them alone) have
``grad`` None and get no adjoint computed.  ``grad_check`` provides the
central-difference oracle used to validate all analytic gradients.

The module-level ops (``matmul``, ``add``, ``relu``, ...) take Tensors or
plain arrays.  On plain arrays alone they return the forward value as an
ndarray and build no graph, which is how inference runs; with any Tensor
operand they build the node the Tensor method builds.  Both paths compute
the value with one array kernel per primitive, so they give the same bits.
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
    "value",
    "add",
    "mul",
    "matmul",
    "scale",
    "relu",
    "tanh",
    "sigmoid",
    "transpose",
    "softmax_rows",
    "max_rows",
    "mean_rows",
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
    a gradient when any parent does.  Each primitive's forward value comes
    from the same array kernel that the module-level op of that name runs
    on plain arrays.
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
        y = _add(self.data, other.data)
        return Tensor(y, "add", tuple((t, _identity if t.shape == y.shape else _sum_rows)
                                      for t in (self, other)))

    def __mul__(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        return Tensor(_mul(a, b), "mul",
                      ((self, lambda g: g * b), (other, lambda g: g * a)))

    def scale(self, c: float) -> "Tensor":
        c = float(c)
        return Tensor(_scale(self.data, c), "scale", ((self, lambda g: g * c),))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        return Tensor(_matmul(a, b), "matmul",
                      ((self, lambda g: g @ b.T), (other, lambda g: a.T @ g)))

    # ---- elementwise nonlinearities ---------------------------------------------

    def tanh(self) -> "Tensor":
        y = _tanh(self.data)
        return Tensor(y, "tanh", ((self, lambda g: g * (1.0 - y * y)),))

    def sigmoid(self) -> "Tensor":
        s = _sigmoid(self.data)
        return Tensor(s, "sigmoid", ((self, lambda g: g * s * (1.0 - s)),))

    def relu(self) -> "Tensor":
        x = self.data
        return Tensor(_relu(x), "relu", ((self, lambda g: g * (x > 0.0)),))

    # ---- structural ops ----------------------------------------------------------

    def transpose(self) -> "Tensor":
        return Tensor(_transpose(self.data), "transpose", ((self, lambda g: g.T),))

    # ---- reductions ----------------------------------------------------------------

    def softmax_rows(self) -> "Tensor":
        s = _softmax_rows(self.data)
        return Tensor(s, "softmax_rows",
                      ((self, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True))),))

    def max_rows(self) -> "Tensor":
        y, cells = _max_rows(self.data)
        shape = self.shape
        return Tensor(y, "max_rows", ((self, lambda g: _scatter(shape, cells, g[0])),))

    def mean_rows(self) -> "Tensor":
        n, shape = self.shape[0], self.shape
        return Tensor(_mean_rows(self.data), "mean_rows",
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


def _sum_rows(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=0, keepdims=True)


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


# ---- array kernels: each primitive's forward value, written once ----------------


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape and (1, a.shape[1]) != b.shape and a.shape != (1, b.shape[1]):
        raise ShapeError("add", a.shape, b.shape)
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError("mul", a.shape, b.shape)
    return a * b


def _scale(x: np.ndarray, c: float) -> np.ndarray:
    return x * c


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    return a @ b


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to avoid overflow in exp
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _transpose(x: np.ndarray) -> np.ndarray:
    return x.T.copy()


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _max_rows(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Columnwise max across rows, and the cells it came from; ties resolve
    to the lowest row index."""
    cells = (np.argmax(x, axis=0), np.arange(x.shape[1]))
    return x[cells].reshape(1, -1), cells


def _mean_rows(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=0, keepdims=True)


def _take_rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError("take_rows", x.shape, (idx.size,))
    return x[idx].copy()


def _concat_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    if not arrays:
        raise ShapeError("concat_rows")
    for a in arrays:
        if a.shape[1] != arrays[0].shape[1]:
            raise ShapeError("concat_rows", arrays[0].shape, a.shape)
    return np.vstack(arrays)


# ---- ops on Tensors or plain arrays ---------------------------------------------
#
# With no Tensor operand an op returns its kernel's ndarray and builds no
# node; otherwise plain operands become gradient-free leaves and the op
# builds the same node as the Tensor method.  Plain operands are 2-D
# float64 arrays.


def value(x: Tensor | np.ndarray) -> np.ndarray:
    """The array a Tensor holds, or a plain array itself."""
    return x.data if isinstance(x, Tensor) else x


def _node(x: Tensor | np.ndarray) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def add(a, b):
    """a + b, for equal shapes or a (1, k) row broadcast across the other."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return _add(a, b)
    return _node(a) + _node(b)


def mul(a, b):
    """Elementwise product of equal shapes."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return _mul(a, b)
    return _node(a) * _node(b)


def matmul(a, b):
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return _matmul(a, b)
    return _node(a) @ _node(b)


def scale(x, c: float):
    return x.scale(c) if isinstance(x, Tensor) else _scale(x, float(c))


def relu(x):
    return x.relu() if isinstance(x, Tensor) else _relu(x)


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else _tanh(x)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else _sigmoid(x)


def transpose(x):
    return x.transpose() if isinstance(x, Tensor) else _transpose(x)


def softmax_rows(x):
    return x.softmax_rows() if isinstance(x, Tensor) else _softmax_rows(x)


def max_rows(x):
    """Columnwise max across rows as a (1, k) row."""
    return x.max_rows() if isinstance(x, Tensor) else _max_rows(x)[0]


def mean_rows(x):
    return x.mean_rows() if isinstance(x, Tensor) else _mean_rows(x)


def concat_rows(tensors: Sequence):
    """Stack tensors vertically; all operands must share a column count."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return _concat_rows(tensors)
    tensors = [_node(t) for t in tensors]
    bounds = np.cumsum([0] + [t.shape[0] for t in tensors])
    return Tensor(_concat_rows([t.data for t in tensors]), "concat_rows",
                  tuple((t, lambda g, lo=lo, hi=hi: g[lo:hi])
                        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:])))


def take_rows(x, indices: Sequence[int]):
    """Gather rows of x by index (duplicates allowed); scatter-adds on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    if not isinstance(x, Tensor):
        return _take_rows(x, idx)
    return Tensor(_take_rows(x.data, idx), "take_rows",
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
