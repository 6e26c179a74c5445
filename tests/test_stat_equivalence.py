"""The counting permutation test and the array bootstrap against reference
copies of the straightforward implementations they replaced.

The references build every permuted outcome matrix and every resampled
record list explicitly.  The fast versions must return the same floats,
compared with ``==``.
"""

import numpy as np
import pytest

from wsdmil.cli import _seed_mean_ci
from wsdmil.metrics import (PERMUTATION_CHUNK, balanced_accuracy,
                            paired_permutation_test, weighted_f1)


# ---- reference implementations ----------------------------------------------------


def reference_permutation_test(correct_a, correct_b, y_true=None,
                               statistic="balanced_accuracy_diff",
                               n_permutations=10_000, seed=0):
    a = np.asarray(correct_a, dtype=np.float64)
    b = np.asarray(correct_b, dtype=np.float64)
    masks = None
    if statistic == "balanced_accuracy_diff":
        t = np.asarray(y_true, dtype=np.int64)
        masks = [np.flatnonzero(t == c) for c in np.unique(t)]

    def stat_rows(a_rows, b_rows):
        if masks is None:
            return (a_rows - b_rows).mean(axis=1)
        acc = np.zeros(a_rows.shape[0])
        for mask in masks:
            acc += a_rows[:, mask].mean(axis=1) - b_rows[:, mask].mean(axis=1)
        return acc / len(masks)

    t_obs = abs(float(stat_rows(a[None, :], b[None, :])[0]))
    rng = np.random.default_rng(seed)
    n = a.size
    exceed = 0
    done = 0
    while done < n_permutations:
        m = min(20_000, n_permutations - done)
        flips = rng.random((m, n)) < 0.5
        t_perm = stat_rows(np.where(flips, b, a), np.where(flips, a, b))
        exceed += int((np.abs(t_perm) >= t_obs - 1e-12).sum())
        done += m
    return (1 + exceed) / (1 + n_permutations)


def reference_confusion(y_true, y_pred, n_classes=4):
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (np.asarray(y_true), np.asarray(y_pred)), 1)
    return m


def reference_seed_mean_ci(y_true, preds_per_seed, metric_fn, n_resamples, seed,
                           level=0.95):
    records = list(zip(y_true, zip(*preds_per_seed)))

    def metric(records_):
        y = np.array([r[0] for r in records_], dtype=np.int64)
        per_seed = []
        for si in range(len(preds_per_seed)):
            p = np.array([r[1][si] for r in records_], dtype=np.int64)
            per_seed.append(metric_fn(reference_confusion(y, p)))
        return float(np.mean(per_seed))

    point = float(metric(records))
    rng = np.random.default_rng(seed)
    n = len(records)
    stats = [float(metric([records[j] for j in rng.integers(0, n, size=n)]))
             for _ in range(n_resamples)]
    tail = 100.0 * (1.0 - level) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail])
    return point, float(low), float(high)


# ---- cases ------------------------------------------------------------------------


def outcomes(n, seed, classes=(0, 1, 2, 3)):
    """Labels over ``classes`` and two systems' 0/1 correctness."""
    rng = np.random.default_rng(seed)
    y = rng.choice(classes, size=n)
    a = (rng.random(n) < 0.6).astype(float)
    b = (rng.random(n) < 0.45).astype(float)
    return y, a, b


@pytest.mark.parametrize("n", [1, 5, 20, 600])
@pytest.mark.parametrize("statistic", ["balanced_accuracy_diff", "accuracy_diff"])
def test_permutation_test_equals_reference(n, statistic):
    y, a, b = outcomes(n, seed=n)
    for perm_seed in (0, 3):
        kwargs = dict(statistic=statistic, n_permutations=2_000, seed=perm_seed)
        assert paired_permutation_test(a, b, y, **kwargs) == \
            reference_permutation_test(a, b, y, **kwargs)


@pytest.mark.parametrize("statistic", ["balanced_accuracy_diff", "accuracy_diff"])
def test_permutation_test_equals_reference_with_absent_classes(statistic):
    y, a, b = outcomes(40, seed=11, classes=(0, 2))
    kwargs = dict(statistic=statistic, n_permutations=3_000, seed=5)
    assert paired_permutation_test(a, b, y, **kwargs) == \
        reference_permutation_test(a, b, y, **kwargs)


@pytest.mark.parametrize("n", [1, 20, 600])
@pytest.mark.parametrize("statistic", ["balanced_accuracy_diff", "accuracy_diff"])
def test_permutation_test_identical_systems_get_p_one(n, statistic):
    y, a, _ = outcomes(n, seed=2)
    kwargs = dict(statistic=statistic, n_permutations=500, seed=1)
    p = paired_permutation_test(a, a.copy(), y, **kwargs)
    assert p == reference_permutation_test(a, a.copy(), y, **kwargs) == 1.0


@pytest.mark.parametrize("n", [5, 600])
def test_permutation_test_equals_reference_across_chunk_boundaries(n):
    # past several of the counting chunks and past one 20000-row reference chunk
    rows = max(1, PERMUTATION_CHUNK // n)
    n_permutations = max(20_000, 2 * rows) + 7
    y, a, b = outcomes(n, seed=4)
    kwargs = dict(n_permutations=n_permutations, seed=9)
    assert paired_permutation_test(a, b, y, **kwargs) == \
        reference_permutation_test(a, b, y, **kwargs)


def test_permutation_test_rejects_non_binary_outcomes():
    with pytest.raises(ValueError, match="only 0 and 1"):
        paired_permutation_test([0.0, 0.5], [1.0, 0.0], statistic="accuracy_diff")


# slide count and label set per case; the last two leave classes absent
SEED_MEAN_CASES = {"1": (1, (0, 1, 2, 3)), "5": (5, (0, 1, 2, 3)),
                   "20": (20, (0, 1, 2, 3)), "600": (600, (0, 1, 2, 3)),
                   "40-labels-1-3": (40, (1, 3)),
                   "600-labels-0-2-3": (600, (0, 2, 3))}


@pytest.mark.parametrize("n, labels", list(SEED_MEAN_CASES.values()),
                         ids=list(SEED_MEAN_CASES))
@pytest.mark.parametrize("n_seeds", [1, 2, 3, 5])
@pytest.mark.parametrize("metric_fn", [balanced_accuracy, weighted_f1])
def test_seed_mean_ci_equals_reference(n, labels, n_seeds, metric_fn):
    rng = np.random.default_rng(100 * n + n_seeds)
    y = np.array(labels)[rng.integers(0, len(labels), size=n)]
    preds = [np.where(rng.random(n) < 0.5, y, rng.integers(0, 4, size=n))
             for _ in range(n_seeds)]
    n_resamples = 300 if n == 600 else 1000
    got = _seed_mean_ci(y, preds, metric_fn, n_resamples, seed=7)
    assert (got.point, got.low, got.high) == \
        reference_seed_mean_ci(y, preds, metric_fn, n_resamples, seed=7)
