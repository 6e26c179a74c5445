"""Training objectives and the optimization loop.

Three objectives share one cross-entropy core: the plain baseline, a
multi-task sum of classification and difficulty-regression terms, and a
difficulty-weighted cross entropy.  Optimization is bias-corrected Adam,
one full bag per step, with epoch-seeded shuffles and model selection by
best validation balanced accuracy.  Reductions are bit-exact: the weighted
loss at (1, 1, 1) and the multi-task loss at beta = 0 reproduce baseline
training trajectories to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, add, cross_entropy, scale, squared_error, value
from .bags import Bag, ManifestEntry, read_bag
from .gleason import (ConsensusLevel, WeightTriple, consensus_level, wsd_score,
                      wsd_weight)
from .metrics import balanced_accuracy, confusion, weighted_f1
from .models import BagOutput, ModelConfig, forward_bag, init_model

METHODS = ("baseline", "multitask", "weighted")

DEFAULT_SEEDS = (13, 37)

DEFAULT_ALPHA_BETA_GRID = ((1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
                           (1.0, 3.0), (1.0, 10.0), (1.0, 50.0))

DEFAULT_WEIGHT_GRID = ((1.0, 1.0, 1.0), (1.0, 1.7, 2.0), (2.0, 1.3, 1.0),
                       (4.0, 2.0, 1.0), (4.0, 3.0, 1.0), (4.0, 4.0, 1.0))


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    method: str = "baseline"
    alpha: float = 1.0
    beta: float = 1.0
    weights: WeightTriple | None = None
    learning_rate: float = 1e-3
    epochs: int = 30
    seed: int = 13

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, "
                             f"expected one of {METHODS}")
        for name in ("alpha", "beta", "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.method != "multitask" and (self.alpha, self.beta) != (1.0, 1.0):
            raise ValueError(f"{self.method} method takes no alpha or beta")
        if self.method == "weighted" and self.weights is None:
            raise ValueError("weighted method needs a weight triple")
        if self.method != "weighted" and self.weights is not None:
            raise ValueError(f"{self.method} method takes no weight triple")
        if self.learning_rate <= 0 or self.epochs < 1:
            raise ValueError("learning_rate must be > 0 and epochs >= 1")


# Feature bytes one call of samples_from_entries keeps in memory, and the
# largest bag it keeps: reading and validating a bag again costs 50-86% of an
# abmil forward on a 62 x 32 bag, but 4-12% of a DSMIL forward on a d=1024 bag
# (38 us at 272 KiB, 0.7 ms at 4.7 MiB), so every other bag is read at use.
# predict_classes stacks equal-size bags, resident or not, to RESIDENT_BAG_BYTES.
RESIDENT_BYTES = 16 * 2**20
RESIDENT_BAG_BYTES = 256 * 2**10


@dataclass(frozen=True)
class BagOnDisk:
    """A validated bag that is not kept in memory: its file, slide id and
    the shape its load saw."""

    path: Path
    slide_id: str
    n: int
    d: int


@dataclass
class Sample:
    """One slide ready for training or evaluation.

    ``bag`` is the slide's ``Bag`` while it is resident, or a ``BagOnDisk``
    that holds no features.  Either way it gives the slide id and shape;
    ``load`` gives the features, and only it tells the two apart.  ``level``
    is the slide's consensus level, or None without a non-expert score.
    """

    bag: Bag | BagOnDisk
    label: int
    level: ConsensusLevel | None = None

    def load(self) -> Bag:
        """The resident bag, or a fresh read of a streamed one, which must
        still pass validation and have the shape its load saw."""
        ref = self.bag
        if isinstance(ref, Bag):
            return ref
        try:
            bag = read_bag(ref.path, ref.slide_id)
            if (bag.n, bag.d) != (ref.n, ref.d):
                raise ValueError(f"it holds {bag.n} x {bag.d} features, its "
                                 f"load saw {ref.n} x {ref.d}")
        except (OSError, ValueError) as exc:
            raise ValueError(f"bag file {ref.path} changed on disk during "
                             f"the run: {exc}") from exc
        return bag


def consensus_record(entry: ManifestEntry) -> ConsensusLevel | None:
    """A manifest row's consensus level; None without a non-expert score."""
    if entry.nonexpert is None:
        return None
    return consensus_level(entry.expert, entry.nonexpert)


def samples_from_entries(entries: list[ManifestEntry]) -> list[Sample]:
    """Load and validate every bag, and attach labels and consensus levels.

    In entry order, a bag of at most ``RESIDENT_BAG_BYTES`` stays resident
    while the features kept total at most ``RESIDENT_BYTES``; every other
    sample keeps a ``BagOnDisk`` and reads its bag again at use.
    """
    samples = []
    resident = 0
    for e in entries:
        bag = read_bag(e.bag_path, e.slide_id)
        if bag.features.nbytes <= min(RESIDENT_BAG_BYTES, RESIDENT_BYTES - resident):
            resident += bag.features.nbytes
        else:
            bag = BagOnDisk(e.bag_path, bag.slide_id, bag.n, bag.d)
        samples.append(Sample(bag, e.label(), consensus_record(e)))
    return samples


# ---- objectives -------------------------------------------------------------------


def loss_baseline(output: BagOutput, label: int) -> Tensor:
    """Plain cross entropy on the bag's class logits."""
    return cross_entropy(output.class_logits, label)


def loss_multitask(output: BagOutput, label: int, wsd_target: float,
                   alpha: float, beta: float) -> Tensor:
    """alpha * CE + beta * squared error of the difficulty prediction against
    a WSD score; ``train`` checks that the model has the regression head."""
    ce = cross_entropy(output.class_logits, label)
    reg = squared_error(output.wsd_prediction, wsd_target)
    return add(scale(ce, alpha), scale(reg, beta))


def loss_weighted(output: BagOutput, label: int, weight: float) -> Tensor:
    """Cross entropy scaled by the slide's consensus-derived weight."""
    return scale(cross_entropy(output.class_logits, label), weight)


def bag_loss(output: BagOutput, sample: Sample, config: TrainConfig) -> Tensor:
    """One bag's loss; a WSD method looks up the level ``train`` checks for."""
    if config.method == "baseline":
        return loss_baseline(output, sample.label)
    if config.method == "multitask":
        return loss_multitask(output, sample.label, wsd_score(sample.level),
                              config.alpha, config.beta)
    return loss_weighted(output, sample.label,
                         wsd_weight(sample.level, config.weights))


# ---- optimizer --------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Elements of the flat state that one pass of adam_step updates; its two
# scratch arrays hold min(state size, ADAM_CHUNK) elements.
ADAM_CHUNK = 65_536


@dataclass
class AdamState:
    """Flat parameter state.

    ``params`` and ``grads`` are the contiguous float64 buffers that every
    parameter's ``data`` and ``grad`` are views into, laid out in dict
    order; Adam's moments ``m`` and ``v`` share that layout.
    """

    params: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(params: dict[str, Tensor]) -> AdamState:
    """Copy every parameter's data and grad into two flat buffers and rebind
    them as views into those buffers, in dict order; values are unchanged."""
    size = sum(p.data.size for p in params.values())
    flat = {"data": np.empty(size), "grad": np.empty(size)}
    start = 0
    for p in params.values():
        block = slice(start, start + p.data.size)
        for attr, buffer in flat.items():
            view = buffer[block].reshape(p.data.shape)
            view[...] = getattr(p, attr)
            setattr(p, attr, view)
        start = block.stop
    return AdamState(params=flat["data"], grads=flat["grad"],
                     m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: dict[str, Tensor], lr: float) -> None:
    """In-place bias-corrected Adam update of the flat state from its grads.

    A non-finite gradient raises ``NumericError`` naming the first such
    parameter of ``params`` (the dict ``init_adam`` flattened) before any
    parameter, moment or ``t`` changes.
    """
    if not np.isfinite(state.grads).all():
        name = next(k for k, p in params.items() if not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient in parameter {name}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    size = state.params.size
    work = np.empty((2, min(size, ADAM_CHUNK)))
    for start in range(0, size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        p, g = state.params[chunk], state.grads[chunk]
        m, v = state.m[chunk], state.v[chunk]
        a, b = work[:, :p.size]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g^2
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=a), out=a)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
        np.multiply(lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
        p -= np.divide(a, b, out=a)


# ---- training loop ----------------------------------------------------------------


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_balanced_accuracy: float


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    history: list[EpochStats]
    best_epoch: int
    best_val_confusion: np.ndarray


def predict_classes(params: dict[str, Tensor | np.ndarray],
                    model_config: ModelConfig, samples: list[Sample]) -> np.ndarray:
    """Argmax class per sample.

    The forward passes run on plain arrays (a Tensor's own, no copy), so
    they build no graph and leave every parameter's ``.grad`` as it was.
    Samples with the same instance count, resident or streamed, run in
    stacks of at most ``RESIDENT_BAG_BYTES`` of float32 features (a larger
    bag runs alone), and a stack gives each bag the logits of its own
    forward to the bit.  A streamed bag is read when its stack runs.
    """
    arrays = {k: value(p) for k, p in params.items()}
    classes = np.empty(len(samples), dtype=np.int64)
    stacks: dict[int, list[int]] = {}   # sample indices by instance count
    for i, s in enumerate(samples):
        stacks.setdefault(s.bag.n, []).append(i)
    for members in stacks.values():
        bag = samples[members[0]].bag
        size = max(1, RESIDENT_BAG_BYTES // (4 * bag.n * bag.d))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            output = forward_bag(arrays, model_config,
                                 [samples[i].load() for i in chunk])
            classes[chunk] = np.argmax(output.class_logits[:, 0], axis=-1)
    return classes


def train(model_config: ModelConfig, config: TrainConfig,
          train_samples: list[Sample], val_samples: list[Sample]) -> TrainResult:
    """Run the full loop and return the best-validation-epoch parameters.

    First it checks the method's needs: multitask a regression head, and
    multitask and weighted a consensus level on each training sample.  Each
    epoch visits every training slide once in an epoch-seeded order, one Adam
    step per bag; ties on validation balanced accuracy keep the earlier epoch.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation splits must both be non-empty")
    if config.method == "multitask" and not model_config.with_regression_head:
        raise ValueError("multitask training needs with_regression_head=True")
    if config.method != "baseline":
        missing = [s.bag.slide_id for s in train_samples if s.level is None]
        if missing:
            raise ValueError(f"{config.method} training needs consensus records; "
                             f"missing for {', '.join(missing[:5])}")

    params = init_model(model_config)
    state = init_adam(params)
    y_val = np.array([s.label for s in val_samples], dtype=np.int64)
    history: list[EpochStats] = []
    best_score = -1.0
    best_epoch = -1

    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(
            len(train_samples))
        total = 0.0
        for i in order:
            sample = train_samples[i]
            output = forward_bag(params, model_config, sample.load())
            loss = bag_loss(output, sample, config)
            value = float(loss.data[0, 0])
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, "
                                   f"slide {sample.bag.slide_id}")
            state.grads.fill(0.0)
            loss.backward()
            del output, loss    # free this graph before Adam and the next bag
            try:
                adam_step(state, params, config.learning_rate)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, slide "
                                   f"{sample.bag.slide_id}: {exc}") from exc
            total += value
        val_confusion = confusion(
            y_val, predict_classes(params, model_config, val_samples))
        val_score = balanced_accuracy(val_confusion)
        history.append(EpochStats(epoch, total / len(train_samples), val_score))
        if val_score > best_score:
            best_score = val_score
            best_epoch = epoch
            best_confusion = val_confusion
            best_snapshot = state.params.copy()

    state.params[...] = best_snapshot
    state.grads.fill(0.0)           # the best epoch's values, grads as fresh leaves
    return TrainResult(params=params, history=history,
                       best_epoch=best_epoch, best_val_confusion=best_confusion)


# ---- grid search ------------------------------------------------------------------


def grid_search(model_config: ModelConfig, configs: list[TrainConfig],
                train_samples: list[Sample], val_samples: list[Sample],
                seeds: tuple[int, ...] = DEFAULT_SEEDS
                ) -> tuple[list[tuple[float, float]], int]:
    """Train every config per seed on ``model_config`` as given, and score it.

    Returns each config's seed-mean validation (balanced accuracy, weighted
    F1), and the index of the config with the highest balanced accuracy;
    ties go to the earlier grid point.
    """
    if not configs:
        raise ValueError("grid is empty")
    means = []
    for tc in configs:
        per_seed = []
        for seed in seeds:
            try:
                result = train(replace(model_config, init_seed=seed),
                               replace(tc, seed=seed),
                               train_samples, val_samples)
            except NumericError as exc:
                raise NumericError(f"grid point {tc}: {exc}") from exc
            m = result.best_val_confusion  # train scored these params on val
            per_seed.append((balanced_accuracy(m), weighted_f1(m)))
        means.append((float(np.mean([b for b, _ in per_seed])),
                      float(np.mean([f for _, f in per_seed]))))
    return means, int(np.argmax([b for b, _ in means]))
