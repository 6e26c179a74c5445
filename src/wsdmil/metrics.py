"""Evaluation metrics and significance machinery.

Confusion-matrix metrics follow the standard definitions: balanced accuracy
is macro-averaged recall, weighted F1 is support-weighted per-class F1, and
per-class accuracy is per-class recall.  Classes with zero support are left
out of macro averages.  Balanced accuracy and weighted F1 take one (4, 4)
matrix, giving a float, or a (..., 4, 4) stack, giving an array of the same
floats: an absent class adds +0.0, and class terms add in class order.
Significance between two systems comes from a paired sign-flip permutation
test, and uncertainty from a percentile bootstrap over slides.

The permutation test counts instead of building permuted outcome matrices.
Outcomes are 0/1, so every per-class sum of correct slides is an integer,
and float64 holds integers below 2**53 exactly whatever the order of
summation, BLAS matmul included.  A permutation's count for A in class c is
sum_c(a) + flips @ ((b - a) * 1[class c]), B's is sum_c(a + b) minus that,
and count / k_c is the same float64 as the mean of the k_c permuted
outcomes, so every statistic matches the per-slide definition bit for bit.
The coin flips are drawn in chunks of rows to bound memory; PCG64 yields
the same float64 stream however a draw of m * n values is split into rows,
so the p-value does not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

N_CLASSES = 4

PERMUTATION_STATISTICS = ("balanced_accuracy_diff", "accuracy_diff")

# coin flips drawn per chunk of the permutation test (512 KB of float64)
PERMUTATION_CHUNK = 1 << 16

# slide indices drawn per chunk of bootstrap resamples (512 KB of int64)
BOOTSTRAP_CHUNK = 1 << 16


def confusion(y_true, y_pred) -> np.ndarray:
    """Count matrix M[i, j] = slides of true class i predicted as class j."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise ValueError(f"labels must be equal-length 1-D and non-empty, "
                         f"got {t.shape} and {p.shape}")
    if t.min() < 0 or t.max() >= N_CLASSES or p.min() < 0 or p.max() >= N_CLASSES:
        raise ValueError(f"labels outside 0..{N_CLASSES - 1}")
    cells = np.bincount(t * N_CLASSES + p, minlength=N_CLASSES * N_CLASSES)
    return cells.reshape(N_CLASSES, N_CLASSES)


def balanced_accuracy(m: np.ndarray) -> float | np.ndarray:
    """Mean per-class recall over classes that appear in the truth."""
    m = np.asarray(m)
    support = m.sum(axis=-1)
    present = support > 0
    if not present.any(axis=-1).all():
        raise ValueError("confusion matrix has no samples")
    # an absent class has a zero diagonal, so its recall is 0 / 1 = +0.0
    recall = np.diagonal(m, axis1=-2, axis2=-1) / np.maximum(support, 1)
    return _scalar(recall.sum(axis=-1) / present.sum(axis=-1))


def weighted_f1(m: np.ndarray) -> float | np.ndarray:
    """Support-weighted mean of per-class F1 (F1 = 0 where P + R = 0)."""
    m = np.asarray(m)
    support = m.sum(axis=-1)
    total = support.sum(axis=-1)
    if (total == 0).any():
        raise ValueError("confusion matrix has no samples")
    predicted = m.sum(axis=-2)
    tp = np.diagonal(m, axis1=-2, axis2=-1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return _scalar((support * f1).sum(axis=-1) / total)


def _scalar(values: np.ndarray) -> float | np.ndarray:
    """A float for one matrix's metric, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


def per_class_accuracy(m: np.ndarray) -> list[float | None]:
    """Per-class recall; None marks classes absent from the truth."""
    m = np.asarray(m)
    support = m.sum(axis=1)
    return [float(m[i, i] / support[i]) if support[i] > 0 else None
            for i in range(m.shape[0])]


def _statistic(sum_a: np.ndarray, sum_ab: np.ndarray, sizes: np.ndarray,
               balanced: bool) -> np.ndarray:
    """Statistic per row from A's correct counts per slide group.

    ``sum_a`` is (rows, groups); B's counts are ``sum_ab - sum_a``.  Balanced
    groups are the classes present and give the macro recall difference;
    otherwise one group holds every slide and gives the accuracy difference.
    """
    sum_b = sum_ab - sum_a
    if not balanced:
        return (sum_a[:, 0] - sum_b[:, 0]) / sizes[0]
    acc = np.zeros(sum_a.shape[0])
    for c, k in enumerate(sizes):
        acc += sum_a[:, c] / k - sum_b[:, c] / k
    return acc / len(sizes)


def paired_permutation_test(correct_a, correct_b, y_true=None,
                            statistic: str = "balanced_accuracy_diff",
                            n_permutations: int = 10_000,
                            seed: int = 0) -> float:
    """Two-sided paired permutation p-value for system A vs system B.

    Inputs are per-slide 0/1 correctness vectors aligned on the same slides.
    Each permutation swaps A and B outcomes per slide with a fair coin; the
    p-value is (1 + #{|T_perm| >= |T_obs|}) / (1 + n_permutations).
    """
    a = np.asarray(correct_a, dtype=np.float64)
    b = np.asarray(correct_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"correctness vectors must be equal-length 1-D, "
                         f"got {a.shape} and {b.shape}")
    if not (np.isin(a, (0.0, 1.0)).all() and np.isin(b, (0.0, 1.0)).all()):
        raise ValueError("correctness vectors must hold only 0 and 1")
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if statistic not in PERMUTATION_STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, "
                         f"expected one of {PERMUTATION_STATISTICS}")
    balanced = statistic == "balanced_accuracy_diff"
    if balanced:
        if y_true is None:
            raise ValueError("balanced_accuracy_diff needs y_true to group slides")
        t = np.asarray(y_true, dtype=np.int64)
        if t.shape != a.shape:
            raise ValueError(f"y_true shape {t.shape} does not match {a.shape}")
        groups = t[:, None] == np.unique(t)
    else:
        groups = np.ones((a.size, 1), dtype=bool)
    sizes = groups.sum(axis=0)
    sum_a = a @ groups
    sum_ab = (a + b) @ groups
    # flipping slide i moves b_i - a_i into A's count for the slide's group
    swing = (b - a)[:, None] * groups

    t_obs = abs(float(_statistic(sum_a[None, :], sum_ab, sizes, balanced)[0]))
    rng = np.random.default_rng(seed)
    n = a.size
    rows = max(1, PERMUTATION_CHUNK // n)
    exceed = 0
    done = 0
    while done < n_permutations:
        m = min(rows, n_permutations - done)
        flips = rng.random((m, n)) < 0.5
        t_perm = _statistic(sum_a + flips @ swing, sum_ab, sizes, balanced)
        # tiny slack so ties of equal magnitude count despite rounding
        exceed += int((np.abs(t_perm) >= t_obs - 1e-12).sum())
        done += m
    return (1 + exceed) / (1 + n_permutations)


@dataclass
class BootstrapResult:
    """Percentile bootstrap interval around a point estimate."""

    point: float
    low: float
    high: float

    def offsets(self) -> tuple[float, float]:
        """Signed distances from the point estimate, (negative, positive)."""
        return (self.low - self.point, self.high - self.point)


def bootstrap_ci(records: Sequence | np.ndarray, metric: Callable,
                 n_resamples: int = 1000, level: float = 0.95,
                 seed: int = 0) -> BootstrapResult | list[BootstrapResult]:
    """Resample slides with replacement and take percentile bounds of the
    metric.  The records are converted once with ``np.asarray`` and
    resampled along the first axis.  The metric takes a ``(rows, n, ...)``
    stack of resamples and returns its ``(rows,)`` statistics; the point
    estimate is its statistic of the one-resample stack ``records[None]``.
    The metric must be defined on every resample: whatever it raises
    propagates.  It may return ``(rows, k)`` statistics of k metrics of one
    resample each; the result is then a list of k results, each the one its
    column alone would give.  Indices are drawn a chunk of resamples at a
    time; PCG64 gives the same indices as one draw of ``n`` per resample.
    """
    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError("bootstrap needs at least one record")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    point = metric(records[None])[0]
    rng = np.random.default_rng(seed)
    n = len(records)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    stats = []
    for done in range(0, n_resamples, rows):
        drawn = rng.integers(0, n, size=(min(rows, n_resamples - done), n))
        chunk = np.take(records, drawn, axis=0)   # records[drawn], ~10x faster on 2-D
        stats.extend(metric(chunk))
    tail = 100.0 * (1.0 - level) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail], axis=0)
    if np.ndim(point):
        return [BootstrapResult(float(p), float(lo), float(hi))
                for p, lo, hi in zip(point, low, high)]
    return BootstrapResult(float(point), float(low), float(high))
