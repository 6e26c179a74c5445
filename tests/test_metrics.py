"""Confusion metrics, the paired permutation test, and the bootstrap."""

import itertools

import numpy as np
import pytest

from wsdmil.metrics import (
    BOOTSTRAP_CHUNK,
    BootstrapResult,
    balanced_accuracy,
    bootstrap_ci,
    confusion,
    paired_permutation_test,
    per_class_accuracy,
    weighted_f1,
)

# one worked example used throughout: recalls (2/3, 1, 1/3, 1) and
# support-weighted F1 (3*(2/3) + 2*(4/5) + 3*(1/2) + 2*(4/5)) / 10
Y_TRUE = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
Y_PRED = [0, 0, 1, 1, 1, 2, 0, 3, 3, 3]


def test_confusion_counts_every_pair():
    m = confusion(Y_TRUE, Y_PRED)
    expected = np.array([[2, 1, 0, 0],
                         [0, 2, 0, 0],
                         [1, 0, 1, 1],
                         [0, 0, 0, 2]])
    np.testing.assert_array_equal(m, expected)
    assert m.sum() == len(Y_TRUE)


def test_balanced_accuracy_on_worked_example():
    assert abs(balanced_accuracy(confusion(Y_TRUE, Y_PRED)) - 0.75) < 1e-12


def test_weighted_f1_on_worked_example():
    assert abs(weighted_f1(confusion(Y_TRUE, Y_PRED)) - 0.67) < 1e-12


def test_per_class_accuracy_on_worked_example():
    got = per_class_accuracy(confusion(Y_TRUE, Y_PRED))
    np.testing.assert_allclose(got, [2 / 3, 1.0, 1 / 3, 1.0], atol=1e-12)


def test_absent_classes_do_not_dilute_macro_average():
    m = confusion([0, 0, 1, 1], [0, 1, 1, 1])
    assert abs(balanced_accuracy(m) - 0.75) < 1e-12
    assert per_class_accuracy(m)[2:] == [None, None]


def test_perfect_and_inverted_predictions():
    y = [0, 1, 2, 3, 0, 1, 2, 3]
    assert balanced_accuracy(confusion(y, y)) == 1.0
    assert weighted_f1(confusion(y, y)) == 1.0
    wrong = [(c + 1) % 4 for c in y]
    assert balanced_accuracy(confusion(y, wrong)) == 0.0
    assert weighted_f1(confusion(y, wrong)) == 0.0


def test_confusion_rejects_bad_labels():
    with pytest.raises(ValueError, match="equal-length"):
        confusion([0, 1], [0])
    with pytest.raises(ValueError, match="non-empty|equal-length"):
        confusion([], [])
    with pytest.raises(ValueError, match="outside"):
        confusion([0, 4], [0, 0])
    with pytest.raises(ValueError, match="outside"):
        confusion([0, 0], [-1, 0])


def stack_with_absent_classes():
    """Confusion matrices of random labels over 4, 3, 2 and 1 present classes."""
    rng = np.random.default_rng(12)
    stack = []
    for classes in [(0, 1, 2, 3), (0, 1, 3), (1, 2, 3), (0, 2), (1, 3), (2,), (3,)]:
        for n in (1, 7, 40, 150, 600) * 60:
            y = rng.choice(classes, size=n)
            p = np.where(rng.random(n) < 0.6, y, rng.integers(0, 4, size=n))
            stack.append(confusion(y, p))
    return np.array(stack)


def reference_balanced_accuracy(m):
    """The one-matrix formula: mean recall over the present classes only."""
    support = m.sum(axis=1)
    present = support > 0
    return float((np.diag(m)[present] / support[present]).mean())


def reference_weighted_f1(m):
    """The one-matrix formula, one class at a time."""
    total = 0.0
    for c in range(4):
        tp, support, predicted = m[c, c], m[c].sum(), m[:, c].sum()
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        if precision + recall > 0:
            total += support * (2.0 * precision * recall / (precision + recall))
    return float(total / m.sum())


@pytest.mark.parametrize("metric, reference",
                         [(balanced_accuracy, reference_balanced_accuracy),
                          (weighted_f1, reference_weighted_f1)])
def test_metric_of_a_stack_equals_per_matrix_calls(metric, reference):
    stack = stack_with_absent_classes()
    expected = [metric(m) for m in stack]
    assert all(type(v) is float for v in expected)
    assert expected == [reference(m) for m in stack]
    got = metric(stack)
    assert got.shape == (len(stack),)
    assert got.tolist() == expected
    assert metric(stack.reshape(3, -1, 4, 4)).ravel().tolist() == expected


@pytest.mark.parametrize("metric", [balanced_accuracy, weighted_f1])
def test_metric_of_a_stack_with_an_empty_matrix_raises(metric):
    stack = stack_with_absent_classes()
    stack[5] = 0
    with pytest.raises(ValueError, match="no samples"):
        metric(stack)
    with pytest.raises(ValueError, match="no samples"):
        metric(stack[5])


def test_random_predictor_sits_near_chance():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, size=10_000)
    p = rng.integers(0, 4, size=10_000)
    assert abs(balanced_accuracy(confusion(y, p)) - 0.25) < 0.02


# ---- paired permutation test ------------------------------------------------------


def exact_p(a, b, y=None):
    """Full 2**n enumeration of the sign-flip null."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)

    def stat(av, bv):
        if y is None:
            return (av - bv).mean()
        return np.mean([av[np.asarray(y) == c].mean() - bv[np.asarray(y) == c].mean()
                        for c in np.unique(y)])

    t_obs = abs(stat(a, b))
    hits = 0
    for pattern in itertools.product((False, True), repeat=len(a)):
        f = np.array(pattern)
        if abs(stat(np.where(f, b, a), np.where(f, a, b))) >= t_obs - 1e-12:
            hits += 1
    return hits / 2 ** len(a)


def test_permutation_matches_exact_enumeration_accuracy():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, size=10).astype(float)
    b = rng.integers(0, 2, size=10).astype(float)
    mc = paired_permutation_test(a, b, statistic="accuracy_diff",
                                 n_permutations=20_000, seed=1)
    assert abs(mc - exact_p(a, b)) < 0.02


def test_permutation_matches_exact_enumeration_balanced():
    rng = np.random.default_rng(7)
    y = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    a = rng.integers(0, 2, size=10).astype(float)
    b = rng.integers(0, 2, size=10).astype(float)
    mc = paired_permutation_test(a, b, y_true=y, n_permutations=20_000, seed=1)
    assert abs(mc - exact_p(a, b, y)) < 0.02


def test_identical_systems_get_p_one():
    a = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    assert paired_permutation_test(a, a.copy(), statistic="accuracy_diff",
                                   n_permutations=500, seed=0) == 1.0


def test_dominant_system_gets_tiny_p():
    a = np.ones(40)
    b = np.zeros(40)
    p = paired_permutation_test(a, b, statistic="accuracy_diff",
                                n_permutations=10_000, seed=0)
    assert p < 0.01


def test_permutation_test_is_deterministic():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, size=50).astype(float)
    b = rng.integers(0, 2, size=50).astype(float)
    kwargs = dict(statistic="accuracy_diff", n_permutations=2_000, seed=9)
    assert paired_permutation_test(a, b, **kwargs) == \
        paired_permutation_test(a, b, **kwargs)


def test_permutation_validation():
    a = np.ones(4)
    with pytest.raises(ValueError, match="equal-length"):
        paired_permutation_test(a, np.ones(3))
    with pytest.raises(ValueError, match="unknown statistic"):
        paired_permutation_test(a, a, statistic="auc_diff")
    with pytest.raises(ValueError, match="needs y_true"):
        paired_permutation_test(a, a)
    with pytest.raises(ValueError, match="does not match"):
        paired_permutation_test(a, a, y_true=[0, 1])
    with pytest.raises(ValueError, match="n_permutations"):
        paired_permutation_test(a, a, y_true=[0, 0, 1, 1], n_permutations=0)


# ---- bootstrap --------------------------------------------------------------------


def mean_metric(chunk):
    return chunk.mean(axis=1)


def test_bootstrap_constant_metric_has_zero_width():
    res = bootstrap_ci([1, 2, 3], lambda chunk: np.full(len(chunk), 0.42),
                       n_resamples=200, seed=0)
    assert res.point == res.low == res.high == 0.42
    assert res.offsets() == (0.0, 0.0)


def test_bootstrap_brackets_the_point_estimate():
    rng = np.random.default_rng(5)
    records = rng.normal(size=200).tolist()
    res = bootstrap_ci(records, mean_metric, n_resamples=500, seed=3)
    assert res.low <= res.point <= res.high
    assert res.low < res.high


def test_bootstrap_wider_level_nests_narrower():
    rng = np.random.default_rng(6)
    records = rng.normal(size=100).tolist()
    narrow = bootstrap_ci(records, mean_metric, n_resamples=400, level=0.5, seed=1)
    wide = bootstrap_ci(records, mean_metric, n_resamples=400, level=0.99, seed=1)
    assert wide.low <= narrow.low and narrow.high <= wide.high


def test_bootstrap_is_deterministic():
    records = list(range(30))
    a = bootstrap_ci(records, mean_metric, n_resamples=300, seed=8)
    b = bootstrap_ci(records, mean_metric, n_resamples=300, seed=8)
    assert (a.low, a.high) == (b.low, b.high)


def test_bootstrap_propagates_a_metric_undefined_on_some_resamples():
    records = list(range(10))

    def fussy(chunk):
        # defined on the records themselves, not on a resample that lacks 0
        if not (chunk == 0).any(axis=-1).all():
            raise ValueError("missing sentinel")
        return chunk.mean(axis=-1)

    with pytest.raises(ValueError, match="missing sentinel"):
        bootstrap_ci(records, fussy, n_resamples=400, seed=2)


def test_bootstrap_fails_when_metric_never_defined_on_resamples():
    records = np.arange(30)

    def needs_all_distinct(chunk):
        if any(len(np.unique(sample)) != len(records) for sample in chunk):
            raise ValueError("tie")
        return np.ones(len(chunk))

    with pytest.raises(ValueError, match="tie"):
        bootstrap_ci(records, needs_all_distinct, n_resamples=50, seed=0)


def test_bootstrap_validation():
    with pytest.raises(ValueError, match="at least one"):
        bootstrap_ci([], mean_metric)
    with pytest.raises(ValueError, match="n_resamples"):
        bootstrap_ci([1.0], mean_metric, n_resamples=0)
    with pytest.raises(ValueError, match="level"):
        bootstrap_ci([1.0], mean_metric, level=1.0)


@pytest.mark.parametrize("n", [5, 600, 601, BOOTSTRAP_CHUNK + 1])
def test_bootstrap_draws_the_same_resamples_as_one_draw_per_resample(n):
    # two chunks of resamples and three more
    n_resamples = 2 * max(1, BOOTSTRAP_CHUNK // n) + 3
    seen = []

    def record(chunk):
        seen.extend(chunk.copy())
        return np.zeros(len(chunk))

    bootstrap_ci(np.arange(n), record, n_resamples=n_resamples, seed=4)
    rng = np.random.default_rng(4)
    assert len(seen) == 1 + n_resamples
    assert seen[0].tolist() == list(range(n))
    for sample in seen[1:]:
        assert sample.tolist() == rng.integers(0, n, size=n).tolist()


@pytest.mark.parametrize("n", [5, 601, BOOTSTRAP_CHUNK + 1])
def test_stacked_bootstrap_chunks_hold_the_per_resample_draws(n):
    # two full chunks and a partial third, of (n, 2) records
    n_resamples = 2 * max(1, BOOTSTRAP_CHUNK // n) + 3
    records = np.arange(2 * n).reshape(n, 2)
    chunks = []

    def record_stack(chunk):
        chunks.append(chunk.copy())
        return chunk.sum(axis=(1, 2)).astype(np.float64)

    bootstrap_ci(records, record_stack, n_resamples=n_resamples, seed=4)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    # the point's one-resample stack, then one call per chunk
    assert [len(c) for c in chunks] == [1] + [
        min(rows, n_resamples - done) for done in range(0, n_resamples, rows)]
    rng = np.random.default_rng(4)
    drawn = [records] + [records[rng.integers(0, n, size=n)]
                         for _ in range(n_resamples)]
    assert np.concatenate(chunks).tobytes() == np.stack(drawn).tobytes()


def test_stacked_bootstrap_of_k_metrics_equals_k_single_runs():
    records = np.random.default_rng(6).integers(0, 50, size=(40, 3))

    def total(chunk):
        return chunk.sum(axis=(1, 2)).astype(np.float64)

    def spread(chunk):
        return (chunk.max(axis=(1, 2)) - chunk.min(axis=(1, 2))).astype(np.float64)

    both = bootstrap_ci(records, lambda c: np.stack([total(c), spread(c)], axis=1),
                        n_resamples=300, seed=2)
    single = [bootstrap_ci(records, fn, n_resamples=300, seed=2)
              for fn in (total, spread)]
    assert both == single


def test_stacked_bootstrap_propagates_an_undefined_metric():
    def undefined(chunk):
        raise ValueError("no samples")

    with pytest.raises(ValueError, match="no samples"):
        bootstrap_ci([1.0, 2.0], undefined, n_resamples=10)


def test_bootstrap_result_offsets_are_signed():
    res = BootstrapResult(point=0.75, low=0.70, high=0.82)
    lo, hi = res.offsets()
    assert abs(lo - (-0.05)) < 1e-12
    assert abs(hi - 0.07) < 1e-12
