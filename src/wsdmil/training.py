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

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add, cross_entropy, scale, squared_error
from .bags import Bag, ManifestEntry, read_bag
from .gleason import ConsensusRecord, WeightTriple, consensus_record, wsd_weight
from .metrics import balanced_accuracy, confusion, weighted_f1
from .models import BagOutput, ModelConfig, forward_bag, init_model

__all__ = [
    "METHODS",
    "DEFAULT_SEEDS",
    "DEFAULT_ALPHA_BETA_GRID",
    "DEFAULT_WEIGHT_GRID",
    "NumericError",
    "TrainConfig",
    "RESIDENT_BYTES",
    "BagOnDisk",
    "Sample",
    "EpochStats",
    "TrainResult",
    "AdamState",
    "GridRow",
    "GridSearchResult",
    "loss_baseline",
    "loss_multitask",
    "loss_weighted",
    "bag_loss",
    "init_adam",
    "adam_step",
    "samples_from_entries",
    "predict_classes",
    "train",
    "grid_search",
]

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


# Feature bytes one call of samples_from_entries keeps in memory; every
# other bag is read again where it is used.
RESIDENT_BYTES = 16 * 2**20


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
    that holds no features.  Either way it gives the slide id and the
    feature dim; ``load`` gives the features.
    """

    bag: Bag | BagOnDisk
    label: int
    record: ConsensusRecord | None = None

    def load(self) -> Bag:
        """The resident bag, or a fresh read of a streamed one, which must
        still pass validation and have the shape its load saw."""
        ref = self.bag
        if isinstance(ref, Bag):
            return ref
        try:
            bag = read_bag(ref.path, ref.slide_id)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bag file {ref.path} changed on disk during "
                             f"the run: {exc}") from exc
        if (bag.n, bag.d) != (ref.n, ref.d):
            raise ValueError(f"bag file {ref.path} changed on disk during the "
                             f"run: it holds {bag.n} x {bag.d} features, its "
                             f"load saw {ref.n} x {ref.d}")
        return bag


def samples_from_entries(entries: list[ManifestEntry]) -> list[Sample]:
    """Load and validate every bag, and attach labels and consensus records.

    In entry order, a bag stays resident while the features kept so far
    total at most ``RESIDENT_BYTES``; every other sample keeps a
    ``BagOnDisk`` and reads its bag again at use.
    """
    samples = []
    resident = 0
    for e in entries:
        record = None
        if e.nonexpert is not None:
            record = consensus_record(e.slide_id, e.expert, e.nonexpert)
        bag = read_bag(e.bag_path, e.slide_id)
        if resident + bag.features.nbytes <= RESIDENT_BYTES:
            resident += bag.features.nbytes
        else:
            bag = BagOnDisk(e.bag_path, bag.slide_id, bag.n, bag.d)
        samples.append(Sample(bag, e.label(), record))
    return samples


# ---- objectives -------------------------------------------------------------------


def loss_baseline(output: BagOutput, label: int) -> Tensor:
    """Plain cross entropy on the bag's class logits."""
    return cross_entropy(output.class_logits, label)


def loss_multitask(output: BagOutput, label: int, wsd_target: float,
                   alpha: float, beta: float) -> Tensor:
    """alpha * CE + beta * squared error of the difficulty prediction."""
    if output.wsd_prediction is None:
        raise ValueError("multi-task loss needs a model with a regression head")
    if not 0.0 <= wsd_target <= 1.0:
        raise ValueError(f"difficulty target {wsd_target} outside [0, 1]")
    ce = cross_entropy(output.class_logits, label)
    reg = squared_error(output.wsd_prediction, wsd_target)
    return add(scale(ce, alpha), scale(reg, beta))


def loss_weighted(output: BagOutput, label: int, weight: float) -> Tensor:
    """Cross entropy scaled by the slide's consensus-derived weight."""
    return scale(cross_entropy(output.class_logits, label), weight)


def bag_loss(output: BagOutput, sample: Sample, config: TrainConfig) -> Tensor:
    if config.method == "baseline":
        return loss_baseline(output, sample.label)
    if sample.record is None:
        raise ValueError(f"slide {sample.bag.slide_id}: {config.method} training "
                         f"needs a consensus record")
    if config.method == "multitask":
        return loss_multitask(output, sample.label, sample.record.wsd,
                              config.alpha, config.beta)
    return loss_weighted(output, sample.label,
                         wsd_weight(sample.record.level, config.weights))


# ---- optimizer --------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    work: dict[str, tuple[np.ndarray, np.ndarray]]  # scratch for the update
    t: int = 0


def init_adam(params: dict[str, Tensor]) -> AdamState:
    return AdamState(m={k: np.zeros_like(p.data) for k, p in params.items()},
                     v={k: np.zeros_like(p.data) for k, p in params.items()},
                     work={k: (np.empty_like(p.data), np.empty_like(p.data))
                           for k, p in params.items()})


def adam_step(state: AdamState, params: dict[str, Tensor], lr: float) -> None:
    """In-place bias-corrected Adam update from each parameter's .grad."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name}")
        m, v, (a, b) = state.m[name], state.v[name], state.work[name]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g^2
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=a), out=a)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
        np.multiply(lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
        p.data -= np.divide(a, b, out=a)


# ---- training loop ----------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_balanced_accuracy: float


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    history: list[EpochStats]
    best_epoch: int
    best_val_confusion: np.ndarray

    @property
    def best_val_balanced_accuracy(self) -> float:
        return balanced_accuracy(self.best_val_confusion)


def predict_classes(params: dict[str, Tensor], model_config: ModelConfig,
                    samples: list[Sample]) -> np.ndarray:
    """Argmax class per sample.

    The forward passes run on the parameters' plain arrays (no copy), so
    they build no graph and leave every parameter's ``.grad`` as it was.
    A streamed sample's bag is read for its forward pass only.
    """
    arrays = {k: p.data for k, p in params.items()}
    return np.array([forward_bag(arrays, model_config, s.load()).predicted_class()
                     for s in samples], dtype=np.int64)


def train(model_config: ModelConfig, config: TrainConfig,
          train_samples: list[Sample], val_samples: list[Sample]) -> TrainResult:
    """Run the full loop and return the best-validation-epoch parameters.

    Each epoch visits every training slide once in an epoch-seeded order,
    taking one Adam step per bag. Ties on validation balanced accuracy keep
    the earlier epoch.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation splits must both be non-empty")
    if config.method == "multitask" and not model_config.with_regression_head:
        raise ValueError("multitask training needs with_regression_head=True")
    if config.method != "baseline":
        missing = [s.bag.slide_id for s in train_samples if s.record is None]
        if missing:
            raise ValueError(f"{config.method} training needs consensus records; "
                             f"missing for {', '.join(missing[:5])}")

    params = init_model(model_config)
    state = init_adam(params)
    y_val = np.array([s.label for s in val_samples], dtype=np.int64)
    history: list[EpochStats] = []
    best_score = -1.0
    best_epoch = -1
    best_snapshot: dict[str, np.ndarray] = {}

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
            for p in params.values():
                p.grad[...] = 0.0
            loss.backward()
            try:
                adam_step(state, params, config.learning_rate)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, slide "
                                   f"{sample.bag.slide_id}: {exc}") from exc
            total += value
            del output, loss    # free this graph before the next bag is read
        val_confusion = confusion(
            y_val, predict_classes(params, model_config, val_samples))
        val_score = balanced_accuracy(val_confusion)
        history.append(EpochStats(epoch, total / len(train_samples), val_score))
        if val_score > best_score:
            best_score = val_score
            best_epoch = epoch
            best_confusion = val_confusion
            best_snapshot = {k: p.data.copy() for k, p in params.items()}

    best_params = {k: Tensor(v, name=k) for k, v in best_snapshot.items()}
    return TrainResult(params=best_params, history=history,
                       best_epoch=best_epoch, best_val_confusion=best_confusion)


# ---- grid search ------------------------------------------------------------------


@dataclass
class GridRow:
    per_seed: list[tuple[float, float]] = field(default_factory=list)
    mean_balanced_accuracy: float = 0.0
    mean_weighted_f1: float = 0.0


@dataclass
class GridSearchResult:
    rows: list[GridRow]
    best_index: int

    @property
    def best(self) -> GridRow:
        return self.rows[self.best_index]


def grid_search(model_config: ModelConfig, configs: list[TrainConfig],
                train_samples: list[Sample], val_samples: list[Sample],
                seeds: tuple[int, ...] = DEFAULT_SEEDS) -> GridSearchResult:
    """Train every config per seed, score on validation, pick the best row.

    The winner maximizes seed-mean validation balanced accuracy; ties go to
    the earlier grid point.
    """
    if not configs:
        raise ValueError("grid is empty")
    rows = []
    for tc in configs:
        per_seed = []
        for seed in seeds:
            mc = replace(model_config, init_seed=seed,
                         with_regression_head=(model_config.with_regression_head
                                               or tc.method == "multitask"))
            try:
                result = train(mc, replace(tc, seed=seed),
                               train_samples, val_samples)
            except NumericError as exc:
                raise NumericError(f"grid point {tc}: {exc}") from exc
            m = result.best_val_confusion  # train scored these params on val
            per_seed.append((balanced_accuracy(m), weighted_f1(m)))
        rows.append(GridRow(
            per_seed=per_seed,
            mean_balanced_accuracy=float(np.mean([b for b, _ in per_seed])),
            mean_weighted_f1=float(np.mean([f for _, f in per_seed]))))
    best_index = int(np.argmax([r.mean_balanced_accuracy for r in rows]))
    return GridSearchResult(rows=rows, best_index=best_index)
