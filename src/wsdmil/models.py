"""MIL heads over feature bags.

Four pooling strategies share one parameter convention (name-keyed Glorot
init, biases zero) and one output shape: 4 class logits, an instance
attention vector, a bag embedding, and optionally a sigmoid difficulty
prediction used by the multi-task objective.

  maxmil       per-instance MLP, per-class max pooling over instance logits
  abmil        attention pooling, tanh scorer
  gated_abmil  attention pooling, tanh scorer gated by a sigmoid branch
  dsmil        dual stream: instance max stream + critical-instance
               attention stream, averaged
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, concat_rows, linear, matmul, max_rows,
                       mean_rows, mul, relu, scale, sigmoid, softmax_rows,
                       take_rows, tanh, transpose, value)
from .bags import Bag

HEAD_KINDS = ("maxmil", "abmil", "gated_abmil", "dsmil")

N_CLASSES = 4


@dataclass(frozen=True)
class ModelConfig:
    head_kind: str
    input_dim: int
    hidden_dim: int = 256
    attention_dim: int = 128
    with_regression_head: bool = False
    init_seed: int = 0

    def __post_init__(self):
        if self.head_kind not in HEAD_KINDS:
            raise ValueError(f"unknown head {self.head_kind!r}, "
                             f"expected one of {HEAD_KINDS}")
        if min(self.input_dim, self.hidden_dim, self.attention_dim) < 1:
            raise ValueError("input_dim, hidden_dim and attention_dim must be >= 1")


@dataclass
class BagOutput:
    """Forward-pass result for one bag.

    On Tensor parameters, class_logits (1, 4) and wsd_prediction (1, 1) are
    graph nodes for loss backprop; on plain-array parameters they are
    ndarrays and no graph is built.  attention is always a detached ndarray.
    A (k, n, d) stack of k bags, which forward_bag makes of a list, gives
    (k, 1, 4), (k, n) and (k, 1, 1) ndarrays.
    """

    class_logits: Tensor | np.ndarray
    attention: np.ndarray
    wsd_prediction: Tensor | np.ndarray | None = None

    def predicted_class(self) -> int:
        return int(np.argmax(value(self.class_logits)[0]))


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter init_model builds for ``config``."""
    d, h, l = config.input_dim, config.hidden_dim, config.attention_dim
    if config.head_kind == "maxmil":
        shapes = {"embed.w": (d, h), "embed.b": (1, h),
                  "cls.w": (h, N_CLASSES), "cls.b": (1, N_CLASSES)}
    elif config.head_kind in ("abmil", "gated_abmil"):
        shapes = {"embed.w": (d, h), "embed.b": (1, h),
                  "attn_v.w": (h, l), "attn_w.w": (l, 1),
                  "cls.w": (h, N_CLASSES), "cls.b": (1, N_CLASSES)}
        if config.head_kind == "gated_abmil":
            shapes["attn_u.w"] = (h, l)
    else:
        shapes = {"inst.w": (d, N_CLASSES), "inst.b": (1, N_CLASSES),
                  "query.w": (d, l), "query.b": (1, l),
                  "value.w": (d, h), "value.b": (1, h),
                  "bag_cls.w": (N_CLASSES, h), "bag_cls.b": (1, N_CLASSES)}
    if config.with_regression_head:
        shapes["reg.w"] = (h, 1)
        shapes["reg.b"] = (1, 1)
    return shapes


def init_model(config: ModelConfig) -> dict[str, Tensor]:
    """Deterministic Glorot-uniform weights and zero biases.

    Each parameter draws from its own stream keyed by (init_seed, name),
    so enabling the regression head never shifts the other weights.
    """
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        else:
            rng = np.random.default_rng([config.init_seed, zlib.crc32(name.encode())])
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, name=name)
    return params


def _features(config: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Check an (n, d) bag or (k, n, d) stack's d against ``config.input_dim``
    and return it as float64: float32 widens exactly, float64 comes uncopied."""
    if x.shape[-1] != config.input_dim:
        raise ValueError(f"bag feature dim {x.shape[-1]} does not match "
                         f"model input dim {config.input_dim}")
    return np.asarray(x, dtype=np.float64)


def _linear(params: dict, layer: str, x):
    return linear(x, params[layer + ".w"], params[layer + ".b"])


def _regress(params: dict, pooled):
    if "reg.w" not in params:
        return None
    return sigmoid(_linear(params, "reg", pooled))


def _minmax(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1] along the last axis; constant input maps
    to 0.5, except a single value which is a trivially dominant instance and
    maps to 1.0."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] == 1:
        return np.ones(values.shape)
    lo = values.min(axis=-1, keepdims=True)
    span = values.max(axis=-1, keepdims=True) - lo
    return np.where(span == 0.0, 0.5, (values - lo) / np.where(span == 0.0, 1.0, span))


# Each head takes a name -> parameter dict of Tensors (training) or of plain
# arrays (inference) and a float64 (n, d) bag x, and runs the same ops on
# either.  On plain arrays x may also be a (k, n, d) stack of k equal-size
# bags, and each bag gets the bits of its own forward.


def forward_maxmil(params: dict, x: np.ndarray) -> BagOutput:
    """Instance-level MLP with per-class max pooling of instance logits."""
    hidden = relu(_linear(params, "embed", x))                   # (n, H)
    inst_logits = _linear(params, "cls", hidden)                  # (n, 4)
    logits = max_rows(inst_logits)                                # (1, 4)
    pooled = mean_rows(hidden)                                    # (1, H)
    scores = value(inst_logits).max(axis=-1)
    return BagOutput(class_logits=logits,
                     attention=_minmax(scores),
                     wsd_prediction=_regress(params, pooled))


def forward_abmil(params: dict, x: np.ndarray, gated: bool = False) -> BagOutput:
    """Attention pooling over embedded instances, optionally gated."""
    hidden = relu(_linear(params, "embed", x))                   # (n, H)
    branch = tanh(matmul(hidden, params["attn_v.w"]))             # (n, L)
    if gated:
        branch = mul(branch, sigmoid(matmul(hidden, params["attn_u.w"])))
    scores = matmul(branch, params["attn_w.w"])                   # (n, 1)
    attn = softmax_rows(transpose(scores))                        # (1, n)
    z = matmul(attn, hidden)                                      # (1, H)
    logits = _linear(params, "cls", z)                            # (1, 4)
    return BagOutput(class_logits=logits,
                     attention=value(attn)[..., 0, :].copy(),
                     wsd_prediction=_regress(params, z))


def forward_dsmil(params: dict, x: np.ndarray) -> BagOutput:
    """Dual-stream head.

    Stream 1 scores instances with a linear classifier and max-pools.
    Stream 2 finds each class's critical (top-scoring) instance, attends
    all instances against its query, and classifies the attention-pooled
    value vectors per class.  Final logits average the two streams.
    """
    inst_logits = _linear(params, "inst", x)                      # (n, 4)
    queries = _linear(params, "query", x)                         # (n, L)
    values = _linear(params, "value", x)                          # (n, H)

    crit = np.argmax(value(inst_logits), axis=-2)                 # per class
    attn_rows = []
    bag_rows = []
    for c in range(N_CLASSES):
        q_crit = take_rows(queries, crit[..., c:c + 1])           # (1, L)
        scores = transpose(matmul(queries, transpose(q_crit)))    # (1, n)
        attn_c = softmax_rows(scores)
        attn_rows.append(attn_c)
        bag_rows.append(matmul(attn_c, values))                   # (1, H)
    bag_embed = concat_rows(bag_rows)                             # (4, H)
    ones = np.ones((params["value.w"].shape[1], 1))
    bag_logits = add(transpose(matmul(mul(bag_embed, params["bag_cls.w"]), ones)),
                     params["bag_cls.b"])                         # (1, 4)
    logits = scale(add(max_rows(inst_logits), bag_logits), 0.5)

    predicted = np.argmax(value(logits), axis=-1)                 # (1,)
    attn = np.concatenate([value(a) for a in attn_rows], axis=-2)  # (4, n)
    pooled = mean_rows(bag_embed)                                 # (1, H)
    return BagOutput(class_logits=logits,
                     attention=take_rows(attn, predicted)[..., 0, :],
                     wsd_prediction=_regress(params, pooled))


_HEADS = {
    "maxmil": forward_maxmil,
    "abmil": forward_abmil,
    "gated_abmil": functools.partial(forward_abmil, gated=True),
    "dsmil": forward_dsmil,
}


def forward_bag(params: dict, config: ModelConfig, bag: Bag | list[Bag]) -> BagOutput:
    """Run a bag, or a list of equal-size bags stacked to one float64 (k, n, d)
    array (plain-array parameters only), through ``_features`` and the head."""
    x = (bag.features if isinstance(bag, Bag)
         else np.stack([b.features for b in bag], dtype=np.float64))
    return _HEADS[config.head_kind](params, _features(config, x))


def extract_attention(output: BagOutput, bag: Bag) -> np.ndarray:
    """Min-max normalized attention weights, one per row of ``bag.coords``."""
    if output.attention.shape[0] != bag.n:
        raise ValueError(f"attention length {output.attention.shape[0]} does not "
                         f"match bag of {bag.n} instances")
    return _minmax(output.attention)
