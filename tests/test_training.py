"""Objectives, Adam, the training loop, and grid search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wsdmil.autodiff import Tensor
from wsdmil.bags import SynthConfig, generate_synthetic, read_manifest, split_bags
from wsdmil.gleason import WeightTriple, consensus_record, parse_score, wsd_weight
from wsdmil.metrics import balanced_accuracy, confusion, weighted_f1
from wsdmil.models import BagOutput, ModelConfig, init_model
from wsdmil.training import (
    DEFAULT_ALPHA_BETA_GRID,
    DEFAULT_WEIGHT_GRID,
    NumericError,
    TrainConfig,
    adam_step,
    bag_loss,
    grid_search,
    init_adam,
    loss_baseline,
    loss_multitask,
    loss_weighted,
    predict_classes,
    samples_from_entries,
    train,
)

pytestmark = pytest.mark.filterwarnings("ignore:consensus mix off calibration")

UNIT = WeightTriple(1.0, 1.0, 1.0, allow_out_of_range=True)
HEAVY = WeightTriple(4.0, 3.0, 1.0)


def output_with(logits, wsd=None):
    return BagOutput(class_logits=Tensor(np.array([logits], dtype=np.float64)),
                     attention=np.ones(1),
                     bag_embedding=np.zeros(3),
                     wsd_prediction=None if wsd is None
                     else Tensor(np.array([[wsd]], dtype=np.float64)))


def hetero_record():
    return consensus_record("s0", parse_score("4+4"), parse_score("3+4"))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    cfg = SynthConfig(n_train=16, n_val=8, n_test=8, feature_dim=8,
                      size_factor=0.02, seed=5)
    res = generate_synthetic(cfg, tmp_path_factory.mktemp("ds"))
    entries = read_manifest(res.manifest_path)
    return {
        "train": samples_from_entries(split_bags(entries, "train")),
        "val": samples_from_entries(split_bags(entries, "val")),
        "dim": cfg.feature_dim,
    }


# ---- objective values -------------------------------------------------------------


def test_baseline_on_uniform_logits_is_log4():
    loss = loss_baseline(output_with([0.0, 0.0, 0.0, 0.0]), 2)
    assert abs(loss.data[0, 0] - math.log(4.0)) < 1e-12


def test_multitask_combines_terms_to_known_value():
    # CE = 0.5 exactly when the true-class logit is ln(3 / (e^0.5 - 1)),
    # and the squared difficulty error is 0.02; with beta = 10 that sums
    # to 1 * 0.5 + 10 * 0.02 = 0.7
    a = math.log(3.0 / (math.exp(0.5) - 1.0))
    pred = 0.6
    target = pred - math.sqrt(0.02)
    out = output_with([a, 0.0, 0.0, 0.0], wsd=pred)
    loss = loss_multitask(out, 0, target, alpha=1.0, beta=10.0)
    assert abs(loss.data[0, 0] - 0.7) < 1e-12


def test_weighted_scales_cross_entropy():
    rec = hetero_record()
    assert wsd_weight(rec.level, HEAVY) == 3.0
    loss = loss_weighted(output_with([0.0] * 4), 1, wsd_weight(rec.level, HEAVY))
    assert abs(loss.data[0, 0] - 3.0 * math.log(4.0)) < 1e-12


def test_multitask_requires_regression_output():
    with pytest.raises(ValueError, match="regression head"):
        loss_multitask(output_with([0.0] * 4), 0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        loss_multitask(output_with([0.0] * 4, wsd=0.5), 0, 1.5, 1.0, 1.0)


def test_bag_loss_requires_record_for_wsd_methods(dataset):
    from wsdmil.training import Sample
    bare = Sample(bag=dataset["val"][0].bag, label=1, record=None)
    cfg = TrainConfig(method="weighted", weights=HEAVY)
    with pytest.raises(ValueError, match="consensus record"):
        bag_loss(output_with([0.0] * 4), bare, cfg)


# ---- exact reduction identities ---------------------------------------------------


def test_unit_weight_equals_baseline_bitwise():
    logits = [0.3, -1.2, 0.8, 0.05]
    rec = hetero_record()
    weighted = loss_weighted(output_with(logits), 2, wsd_weight(rec.level, UNIT))
    baseline = loss_baseline(output_with(logits), 2)
    assert weighted.data[0, 0] == baseline.data[0, 0]


def test_beta_zero_multitask_equals_baseline_bitwise():
    logits = [0.9, 0.1, -0.4, 2.0]
    multi = loss_multitask(output_with(logits, wsd=0.73), 3, 0.5,
                           alpha=1.0, beta=0.0)
    baseline = loss_baseline(output_with(logits), 3)
    assert multi.data[0, 0] == baseline.data[0, 0]


def test_multitask_gradient_is_sum_of_term_gradients():
    logits = np.array([[0.2, -0.7, 1.1, 0.4]])
    alpha, beta = 1.0, 2.5

    out_ce = output_with(logits[0].tolist())
    loss_baseline(out_ce, 1).backward()
    ce_grad = out_ce.class_logits.grad.copy()

    out_both = output_with(logits[0].tolist(), wsd=0.8)
    loss_multitask(out_both, 1, 0.25, alpha, beta).backward()
    reg_only = output_with(logits[0].tolist(), wsd=0.8)
    from wsdmil.autodiff import squared_error
    squared_error(reg_only.wsd_prediction, 0.25).backward()

    np.testing.assert_allclose(out_both.class_logits.grad, alpha * ce_grad,
                               atol=1e-12)
    np.testing.assert_allclose(out_both.wsd_prediction.grad,
                               beta * reg_only.wsd_prediction.grad, atol=1e-12)


# ---- optimizer --------------------------------------------------------------------


def small_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": Tensor(rng.standard_normal((2, 3)), name="w"),
            "b": Tensor(np.zeros((1, 3)), name="b")}


def test_adam_zero_gradient_keeps_parameters():
    params = small_params()
    before = {k: p.data.copy() for k, p in params.items()}
    state = init_adam(params)
    for p in params.values():
        p.grad[...] = 0.0
    adam_step(state, params, lr=0.1)
    assert state.t == 1
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_adam_first_step_is_signed_learning_rate():
    params = small_params(seed=1)
    before = params["w"].data.copy()
    state = init_adam(params)
    g = np.array([[0.5, -2.0, 1e3], [-1e-2, 3.0, -0.7]])
    params["w"].grad[...] = g
    params["b"].grad[...] = 0.0
    adam_step(state, params, lr=1e-3)
    delta = params["w"].data - before
    np.testing.assert_allclose(delta, -1e-3 * np.sign(g), rtol=1e-5)


def test_adam_is_deterministic():
    runs = []
    for _ in range(2):
        params = small_params(seed=2)
        state = init_adam(params)
        for step in range(5):
            for p in params.values():
                p.grad[...] = 0.1 * (step + 1)
            adam_step(state, params, lr=1e-2)
        runs.append({k: p.data.tobytes() for k, p in params.items()})
    assert runs[0] == runs[1]


def test_adam_rejects_non_finite_gradient():
    params = small_params()
    state = init_adam(params)
    params["w"].grad[...] = np.nan
    params["b"].grad[...] = 0.0
    with pytest.raises(NumericError, match="w"):
        adam_step(state, params, lr=1e-3)


# ---- config and sample plumbing ---------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        TrainConfig(method="focal")
    with pytest.raises(ValueError, match="weight triple"):
        TrainConfig(method="weighted")
    with pytest.raises(ValueError, match=">= 0"):
        TrainConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


def test_samples_carry_labels_and_records(dataset):
    for sample in dataset["train"]:
        assert sample.record is not None
        assert wsd_weight(sample.record.level, HEAVY) in (1.0, 3.0, 4.0)
        assert sample.label in (0, 1, 2, 3)
        assert sample.bag.d == dataset["dim"]
    for sample in dataset["val"]:
        assert sample.record is not None
        assert sample.record.wsd in (0.0, 0.5, 1.0)


# ---- training loop ----------------------------------------------------------------


def tiny_model(dim, head="maxmil", seed=7, reg=False):
    return ModelConfig(head, dim, hidden_dim=8, attention_dim=4,
                       with_regression_head=reg, init_seed=seed)


def test_training_trajectory_is_deterministic(dataset):
    results = []
    for _ in range(2):
        r = train(tiny_model(dataset["dim"]),
                  TrainConfig(epochs=3, seed=11),
                  dataset["train"], dataset["val"])
        results.append(r)
    a, b = results
    assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
    assert a.best_epoch == b.best_epoch
    for k in a.params:
        assert a.params[k].data.tobytes() == b.params[k].data.tobytes()


def test_unit_weighted_trajectory_matches_baseline_bitwise(dataset):
    base = train(tiny_model(dataset["dim"]), TrainConfig(epochs=5, seed=3),
                 dataset["train"], dataset["val"])
    wtd = train(tiny_model(dataset["dim"]),
                TrainConfig(method="weighted", weights=UNIT, epochs=5, seed=3),
                dataset["train"], dataset["val"])
    assert [(h.train_loss, h.val_balanced_accuracy) for h in base.history] == \
           [(h.train_loss, h.val_balanced_accuracy) for h in wtd.history]
    for k in base.params:
        assert base.params[k].data.tobytes() == wtd.params[k].data.tobytes()


def test_beta_zero_multitask_trajectory_matches_baseline_bitwise(dataset):
    base = train(tiny_model(dataset["dim"]), TrainConfig(epochs=5, seed=3),
                 dataset["train"], dataset["val"])
    multi = train(tiny_model(dataset["dim"], reg=True),
                  TrainConfig(method="multitask", beta=0.0, epochs=5, seed=3),
                  dataset["train"], dataset["val"])
    assert [h.train_loss for h in base.history] == [h.train_loss for h in multi.history]
    for k in base.params:
        assert base.params[k].data.tobytes() == multi.params[k].data.tobytes()
    assert set(multi.params) - set(base.params) == {"reg.w", "reg.b"}


def test_baseline_learns_separable_toy(tmp_path):
    cfg = SynthConfig(n_train=40, n_val=16, n_test=0, feature_dim=12,
                      evidence_max=1.0, evidence_min=1.0, noise_sigma=0.05,
                      size_factor=0.02, seed=2)
    entries = read_manifest(generate_synthetic(cfg, tmp_path).manifest_path)
    result = train(ModelConfig("abmil", 12, hidden_dim=16, attention_dim=8,
                               init_seed=1),
                   TrainConfig(epochs=20, learning_rate=3e-3, seed=1),
                   samples_from_entries(split_bags(entries, "train")),
                   samples_from_entries(split_bags(entries, "val")))
    assert result.best_val_balanced_accuracy >= 0.95


def test_best_epoch_is_earliest_among_ties(dataset):
    r = train(tiny_model(dataset["dim"]), TrainConfig(epochs=6, seed=2),
              dataset["train"], dataset["val"])
    scores = [h.val_balanced_accuracy for h in r.history]
    assert len(scores) == 6
    assert r.best_epoch == scores.index(max(scores))
    assert r.best_val_balanced_accuracy == max(scores)


def test_history_records_every_epoch(dataset):
    r = train(tiny_model(dataset["dim"]), TrainConfig(epochs=4, seed=9),
              dataset["train"], dataset["val"])
    assert [h.epoch for h in r.history] == [0, 1, 2, 3]
    assert all(np.isfinite(h.train_loss) for h in r.history)


def test_train_validates_inputs(dataset):
    with pytest.raises(ValueError, match="non-empty"):
        train(tiny_model(dataset["dim"]), TrainConfig(epochs=1),
              [], dataset["val"])
    with pytest.raises(ValueError, match="regression"):
        train(tiny_model(dataset["dim"]),
              TrainConfig(method="multitask", epochs=1),
              dataset["train"], dataset["val"])
    from wsdmil.training import Sample
    bare = [Sample(bag=s.bag, label=s.label, record=None)
            for s in dataset["train"]]
    with pytest.raises(ValueError, match="consensus record"):
        train(tiny_model(dataset["dim"]),
              TrainConfig(method="weighted", weights=HEAVY, epochs=1),
              bare, dataset["val"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_learning_rate_raises_numeric_error(dataset):
    with pytest.raises(NumericError):
        train(tiny_model(dataset["dim"]),
              TrainConfig(epochs=3, learning_rate=1e200, seed=1),
              dataset["train"], dataset["val"])


def test_predictions_have_sample_shape(dataset):
    mc = tiny_model(dataset["dim"])
    pred = predict_classes(init_model(mc), mc, dataset["val"])
    assert pred.shape == (len(dataset["val"]),)
    assert pred.dtype == np.int64
    assert set(pred) <= {0, 1, 2, 3}


# ---- grid search ------------------------------------------------------------------


def test_grid_search_scores_every_row(dataset):
    configs = [TrainConfig(epochs=2, seed=0),
               TrainConfig(method="weighted", weights=HEAVY, epochs=2, seed=0)]
    res = grid_search(tiny_model(dataset["dim"]), configs,
                      dataset["train"], dataset["val"], seeds=(1, 2))
    assert len(res.rows) == 2
    for row in res.rows:
        assert len(row.per_seed) == 2
    best = res.best
    assert best.mean_balanced_accuracy == max(r.mean_balanced_accuracy
                                              for r in res.rows)


def test_weighted_grid_applies_each_triple(dataset):
    # one sample list serves every triple: the weight comes from TrainConfig
    mc = tiny_model(dataset["dim"])

    def fit(method="baseline", weights=None, seed=3, model=mc):
        return train(model, TrainConfig(method=method, weights=weights,
                                        epochs=2, seed=seed),
                     dataset["train"], dataset["val"])

    base, unit, heavy = fit(), fit("weighted", UNIT), fit("weighted", HEAVY)
    for k in base.params:
        assert unit.params[k].data.tobytes() == base.params[k].data.tobytes()
    assert any(heavy.params[k].data.tobytes() != unit.params[k].data.tobytes()
               for k in unit.params)

    configs = [TrainConfig(method="weighted", weights=w, epochs=2)
               for w in (UNIT, HEAVY)]
    res = grid_search(mc, configs, dataset["train"], dataset["val"], seeds=(1, 2))
    y_val = np.array([s.label for s in dataset["val"]], dtype=np.int64)
    direct = []
    for seed in (1, 2):
        mc_seed = replace(mc, init_seed=seed)
        params = fit("weighted", HEAVY, seed, mc_seed).params
        m = confusion(y_val, predict_classes(params, mc_seed, dataset["val"]))
        direct.append((balanced_accuracy(m), weighted_f1(m)))
    assert res.rows[1].per_seed == direct


def test_grid_search_tie_prefers_earlier_row(dataset):
    same = TrainConfig(epochs=2, seed=0)
    res = grid_search(tiny_model(dataset["dim"]), [same, same],
                      dataset["train"], dataset["val"], seeds=(1,))
    assert res.best_index == 0


def test_grid_search_adds_regression_head_for_multitask(dataset):
    configs = [TrainConfig(method="multitask", beta=1.0, epochs=2, seed=0)]
    res = grid_search(tiny_model(dataset["dim"]), configs,
                      dataset["train"], dataset["val"], seeds=(1,))
    assert res.best_index == 0


def test_grid_search_rejects_empty_grid(dataset):
    with pytest.raises(ValueError, match="empty"):
        grid_search(tiny_model(dataset["dim"]), [],
                    dataset["train"], dataset["val"])


def test_default_grids_match_published_shapes():
    assert len(DEFAULT_ALPHA_BETA_GRID) == 6
    assert DEFAULT_ALPHA_BETA_GRID[0] == (1.0, 0.0)
    assert len(DEFAULT_WEIGHT_GRID) == 6
    assert (1.0, 1.0, 1.0) in DEFAULT_WEIGHT_GRID
    assert (4.0, 3.0, 1.0) in DEFAULT_WEIGHT_GRID
