"""Objectives, Adam, the training loop, and grid search."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from wsdmil import training
from wsdmil.autodiff import Tensor, grad_check
from wsdmil.bags import (Bag, ManifestEntry, SynthConfig, generate_synthetic,
                         read_bag, read_manifest, split_bags, write_bag)
from wsdmil.gleason import (ConsensusLevel, WeightTriple, consensus_level,
                            parse_score, wsd_score, wsd_weight)
from wsdmil.metrics import balanced_accuracy, confusion, weighted_f1
from wsdmil.models import HEAD_KINDS, BagOutput, ModelConfig, forward_bag, init_model
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


UNIT = WeightTriple(1.0, 1.0, 1.0, allow_out_of_range=True)
HEAVY = WeightTriple(4.0, 3.0, 1.0)


def output_with(logits, wsd=None):
    return BagOutput(class_logits=Tensor(np.array([logits], dtype=np.float64)),
                     attention=np.ones(1),
                     wsd_prediction=None if wsd is None
                     else Tensor(np.array([[wsd]], dtype=np.float64)))


def hetero_level():
    return consensus_level(parse_score("4+4"), parse_score("3+4"))


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
    level = hetero_level()
    assert wsd_weight(level, HEAVY) == 3.0
    loss = loss_weighted(output_with([0.0] * 4), 1, wsd_weight(level, HEAVY))
    assert abs(loss.data[0, 0] - 3.0 * math.log(4.0)) < 1e-12


# ---- exact reduction identities ---------------------------------------------------


def test_unit_weight_equals_baseline_bitwise():
    logits = [0.3, -1.2, 0.8, 0.05]
    level = hetero_level()
    weighted = loss_weighted(output_with(logits), 2, wsd_weight(level, UNIT))
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


def test_adam_non_finite_gradient_leaves_state_untouched():
    params = small_params()
    state = init_adam(params)
    for p in params.values():
        p.grad[...] = 0.5
    adam_step(state, params, lr=1e-3)
    before = {k: p.data.copy() for k, p in params.items()}
    moments = state.m.copy(), state.v.copy()
    params["w"].grad[...] = 1.0
    params["b"].grad[0, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite gradient in parameter b$"):
        adam_step(state, params, lr=1e-3)
    assert state.t == 1
    for k, p in params.items():
        assert p.data.tobytes() == before[k].tobytes()
    assert state.m.tobytes() == moments[0].tobytes()
    assert state.v.tobytes() == moments[1].tobytes()


def flat_offsets(params):
    """Start and stop of each parameter's block in the flat state, in dict order."""
    stops = np.cumsum([p.data.size for p in params.values()])
    return list(zip(np.concatenate([[0], stops[:-1]]), stops))


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_init_adam_rebinds_parameters_as_views_of_flat_buffers(head):
    params = init_model(tiny_model(5, head=head, reg=True))
    rng = np.random.default_rng(3)
    for p in params.values():
        p.grad[...] = rng.standard_normal(p.grad.shape)
    before = {k: (p.data.copy(), p.grad.copy()) for k, p in params.items()}
    state = init_adam(params)
    size = sum(p.data.size for p in params.values())
    for buffer in (state.params, state.grads, state.m, state.v):
        assert buffer.shape == (size,) and buffer.dtype == np.float64
        assert buffer.flags.c_contiguous
    assert not state.m.any() and not state.v.any() and state.t == 0
    for (k, p), (start, _) in zip(params.items(), flat_offsets(params)):
        for i, (view, buffer) in enumerate(((p.data, state.params),
                                            (p.grad, state.grads))):
            assert view.dtype == np.float64 and view.flags.c_contiguous
            assert view.base is buffer
            assert (view.__array_interface__["data"][0]
                    - buffer.__array_interface__["data"][0]) == 8 * start
            assert view.tobytes() == before[k][i].tobytes()


def reference_adam(params, moments, t, lr):
    """Per-parameter Adam with its own m and v arrays, in the operation order
    the flat state keeps."""
    c1 = 1.0 - training.ADAM_BETA1 ** t
    c2 = 1.0 - training.ADAM_BETA2 ** t
    for name, p in params.items():
        g, (m, v) = p.grad, moments[name]
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * g
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + training.ADAM_EPS)


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("reg", [False, True])
def test_flat_adam_matches_per_parameter_adam_bitwise(monkeypatch, head, reg):
    chunk = 7
    monkeypatch.setattr(training, "ADAM_CHUNK", chunk)
    mc = tiny_model(5, head=head, reg=reg)
    flat, ref = init_model(mc), init_model(mc)
    state = init_adam(flat)
    assert any(start // chunk != (stop - 1) // chunk
               for start, stop in flat_offsets(flat))   # a block straddles chunks
    moments = {k: (np.zeros_like(p.data), np.zeros_like(p.data)) for k, p in ref.items()}
    rng = np.random.default_rng(11)
    for t in range(1, 6):
        for k, p in flat.items():
            g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
            p.grad[...] = g
            ref[k].grad[...] = g
        adam_step(state, flat, lr=1e-2)
        reference_adam(ref, moments, t, lr=1e-2)
    assert state.t == 5
    for k, p in flat.items():
        assert p.data.tobytes() == ref[k].data.tobytes()
    assert state.m.tobytes() == b"".join(m.tobytes() for m, _ in moments.values())
    assert state.v.tobytes() == b"".join(v.tobytes() for _, v in moments.values())


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_grad_check_passes_on_flat_parameters(head):
    mc = ModelConfig(head, 6, hidden_dim=5, attention_dim=3,
                     with_regression_head=True, init_seed=2)
    params = init_model(mc)
    state = init_adam(params)
    bag = Bag("s", np.random.default_rng(4).standard_normal((5, 6)),
              np.stack([np.arange(5)] * 2, axis=1))

    def loss_fn():
        return loss_multitask(forward_bag(params, mc, bag), 1, 0.5, alpha=1.0, beta=1.0)

    assert grad_check(loss_fn, list(params.values()), epsilon=5e-5) < 1e-6
    assert all(p.data.base is state.params and p.grad.base is state.grads
               for p in params.values())


def test_adam_state_and_step_cost_two_parameter_copies():
    """init_adam keeps m and v, and replaces the parameters' own data and
    grad arrays by the flat buffers; one step adds two scratch chunks."""
    tracemalloc.start()
    try:
        params = init_model(ModelConfig("dsmil", 1024, hidden_dim=256))
        param_bytes = sum(p.data.nbytes for p in params.values())
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state = init_adam(params)
        adam_step(state, params, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert param_bytes > 4 * training.ADAM_CHUNK * 8        # several chunks
    # + 16 KiB for the Python objects of views and of the state
    assert peak - start <= 2 * param_bytes + 2 * training.ADAM_CHUNK * 8 + 16 * 2**10


# ---- config and sample plumbing ---------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        TrainConfig(method="focal")
    with pytest.raises(ValueError, match="weight triple"):
        TrainConfig(method="weighted")
    for method in ("baseline", "multitask"):
        with pytest.raises(ValueError, match=f"{method} method takes no weight"):
            TrainConfig(method=method, weights=HEAVY)
    with pytest.raises(ValueError, match=">= 0"):
        TrainConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="baseline method takes no alpha or beta"):
        TrainConfig(beta=7.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


def test_samples_carry_labels_and_records(dataset):
    for sample in dataset["train"]:
        assert sample.level is not None
        assert wsd_weight(sample.level, HEAVY) in (1.0, 3.0, 4.0)
        assert sample.label in (0, 1, 2, 3)
        assert sample.bag.d == dataset["dim"]
    for sample in dataset["val"]:
        assert sample.level is not None
        assert wsd_score(sample.level) in (0.0, 0.5, 1.0)


def test_sample_level_is_none_without_a_nonexpert_score(tmp_path):
    path = tmp_path / "s0.bag"
    write_bag(Bag("s0", np.zeros((2, 3), dtype=np.float32),
                  np.array([[0, 0], [0, 1]])), path)
    rows = [ManifestEntry(f"s{i}", path, parse_score("4+4"), nonexpert, "test")
            for i, nonexpert in enumerate((None, parse_score("3+4")))]
    assert ([s.level for s in samples_from_entries(rows)]
            == [None, ConsensusLevel.HETEROGENEOUS])


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


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_float32_bags_train_to_the_same_bits_as_float64_copies(dataset, head,
                                                               tmp_path):
    # a bag built from float64 features trains to the bits of its own file
    def from_float64(samples):
        return [replace(s, bag=Bag(s.bag.slide_id, s.bag.features.astype(np.float64) / 3,
                                   s.bag.coords)) for s in samples]

    def written_and_read(samples):
        for s in samples:
            write_bag(s.bag, tmp_path / f"{s.bag.slide_id}.bag")
        return [replace(s, bag=read_bag(tmp_path / f"{s.bag.slide_id}.bag"))
                for s in samples]

    def digest(train_samples, val_samples):
        r = train(tiny_model(dataset["dim"], head=head, reg=True),
                  TrainConfig(method="multitask", beta=2.0, epochs=2, seed=5),
                  train_samples, val_samples)
        return ([(name, p.data.tobytes()) for name, p in sorted(r.params.items())],
                [(h.train_loss, h.val_balanced_accuracy) for h in r.history],
                r.best_epoch)

    train64, val64 = from_float64(dataset["train"]), from_float64(dataset["val"])
    assert digest(train64, val64) == \
        digest(written_and_read(train64), written_and_read(val64))


def test_baseline_learns_separable_toy(tmp_path):
    cfg = SynthConfig(n_train=40, n_val=16, n_test=0, feature_dim=12,
                      noise_sigma=0.05, size_factor=0.02, seed=2)
    entries = read_manifest(generate_synthetic(cfg, tmp_path).manifest_path)
    result = train(ModelConfig("abmil", 12, hidden_dim=16, attention_dim=8,
                               init_seed=1),
                   TrainConfig(epochs=20, learning_rate=3e-3, seed=1),
                   samples_from_entries(split_bags(entries, "train")),
                   samples_from_entries(split_bags(entries, "val")))
    assert balanced_accuracy(result.best_val_confusion) >= 0.95


def test_best_epoch_is_earliest_among_ties(dataset):
    r = train(tiny_model(dataset["dim"]), TrainConfig(epochs=6, seed=2),
              dataset["train"], dataset["val"])
    scores = [h.val_balanced_accuracy for h in r.history]
    assert len(scores) == 6
    assert r.best_epoch == scores.index(max(scores))
    assert balanced_accuracy(r.best_val_confusion) == max(scores)


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
    bare = [Sample(bag=s.bag, label=s.label, level=None)
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


def test_adam_numeric_error_names_epoch_slide_and_grid_point(dataset, monkeypatch):
    mc = tiny_model(dataset["dim"])
    name = next(iter(init_model(mc)))

    def failing_adam(state, params, lr):
        raise NumericError(f"non-finite gradient in parameter {name}")

    monkeypatch.setattr(training, "adam_step", failing_adam)
    order = np.random.default_rng([1, 0]).permutation(len(dataset["train"]))
    slide = dataset["train"][order[0]].bag.slide_id   # seed 1's first step
    expected = f"epoch 0, slide {slide}: non-finite gradient in parameter {name}"
    config = TrainConfig(epochs=1, seed=1)
    with pytest.raises(NumericError) as exc:
        train(mc, config, dataset["train"], dataset["val"])
    assert str(exc.value) == expected
    with pytest.raises(NumericError) as exc:
        grid_search(mc, [config], dataset["train"], dataset["val"], seeds=(1,))
    assert str(exc.value) == f"grid point {config}: {expected}"


def test_predictions_have_sample_shape(dataset):
    mc = tiny_model(dataset["dim"])
    pred = predict_classes(init_model(mc), mc, dataset["val"])
    assert pred.shape == (len(dataset["val"]),)
    assert pred.dtype == np.int64
    assert set(pred) <= {0, 1, 2, 3}


def test_predict_classes_builds_no_gradients(dataset, monkeypatch):
    mc = tiny_model(dataset["dim"], head="dsmil", reg=True)
    params = init_model(mc)
    rng = np.random.default_rng(0)
    for p in params.values():
        p.grad[...] = rng.normal(size=p.shape)
    before = {k: (p.grad, p.grad.tobytes()) for k, p in params.items()}
    outputs = []

    def recording_forward(*args):
        outputs.append(forward_bag(*args))
        return outputs[-1]

    monkeypatch.setattr(training, "forward_bag", recording_forward)
    made = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda self, *a, **kw: made.append(init(self, *a, **kw)))
    predict_classes(params, mc, dataset["val"])
    # one output per stack of equal-size bags, one logit row per bag
    assert sum(len(o.class_logits) for o in outputs) == len(dataset["val"])
    assert made == []
    assert all(type(o.class_logits) is np.ndarray
               and type(o.wsd_prediction) is np.ndarray for o in outputs)
    for k, p in params.items():
        assert p.grad is before[k][0]
        assert p.grad.tobytes() == before[k][1]


# Graph nodes one training step makes, per head and objective: one node per
# primitive applied to a parameter or to a value computed from one.  Bag
# features and DSMIL's ones column are constants, and each x @ W + b is a
# single linear node.
NODES_PER_STEP = {
    ("maxmil", "baseline"): 6, ("maxmil", "multitask"): 12,
    ("abmil", "baseline"): 10, ("abmil", "multitask"): 16,
    ("gated_abmil", "baseline"): 13, ("gated_abmil", "multitask"): 19,
    ("dsmil", "baseline"): 18, ("dsmil", "multitask"): 24,
}


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("method", ["baseline", "multitask"])
def test_tensor_constructions_per_training_step(dataset, monkeypatch, head, method):
    mc = tiny_model(dataset["dim"], head=head, reg=method == "multitask")
    params = init_model(mc)
    state = init_adam(params)
    sample = dataset["train"][0]
    made = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda self, *a, **kw: made.append(init(self, *a, **kw)))
    loss = bag_loss(forward_bag(params, mc, sample.bag), sample,
                    TrainConfig(method=method))
    for p in params.values():
        p.grad[...] = 0.0
    loss.backward()
    adam_step(state, params, 1e-3)
    assert len(made) == NODES_PER_STEP[head, method]


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_predict_classes_matches_forward_on_live_parameters(dataset, head):
    mc = tiny_model(dataset["dim"], head=head, reg=True)
    params = train(mc, TrainConfig(epochs=1, seed=1),
                   dataset["train"], dataset["val"]).params
    live = [forward_bag(params, mc, s.bag).predicted_class()
            for s in dataset["val"]]
    assert predict_classes(params, mc, dataset["val"]).tolist() == live


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_predict_classes_handles_one_and_two_instance_bags(head):
    mc = tiny_model(5, head=head, reg=True)
    params = init_model(mc)
    rng = np.random.default_rng(8)
    samples = [training.Sample(Bag(f"b{n}", rng.standard_normal((n, 5)),
                                   np.stack([np.arange(n)] * 2, axis=1)), 0)
               for n in (1, 2, 7, 1)]
    live = [forward_bag(params, mc, s.bag).predicted_class() for s in samples]
    assert predict_classes(params, mc, samples).tolist() == live


def _mixed_samples(tmp_path, dtype):
    """Bags of 5, 1, 5, 3, 5, 5, 1, 5, 5, 5, 3 and 1 instances, in that
    order; the third, tenth and last are on disk, the others resident."""
    rng = np.random.default_rng(21)
    samples = []
    for i, n in enumerate((5, 1, 5, 3, 5, 5, 1, 5, 5, 5, 3, 1)):
        bag = Bag(f"s{i:02d}", rng.standard_normal((n, 6)).astype(dtype),
                  np.stack([np.arange(n)] * 2, axis=1))
        if i in (2, 9, 11):
            path = tmp_path / f"{bag.slide_id}.bag"
            write_bag(bag, path)
            bag = training.BagOnDisk(path, bag.slide_id, n, 6)
        samples.append(training.Sample(bag, i % 4))
    return samples


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reg", [False, True])
@pytest.mark.parametrize("head", HEAD_KINDS)
def test_stacked_predictions_equal_per_bag_forwards(tmp_path, monkeypatch,
                                                    head, reg, dtype):
    # a stack holds three 5-instance bags' float32 features, whatever dtype
    # the bags are built from, so the seven 5-instance bags, resident or
    # streamed, run as 3 + 3 + 1
    monkeypatch.setattr(training, "RESIDENT_BAG_BYTES", 3 * 4 * 5 * 6)
    mc = ModelConfig(head, 6, hidden_dim=7, attention_dim=3,
                     with_regression_head=reg, init_seed=4)
    params = init_model(mc)
    samples = _mixed_samples(tmp_path, dtype)
    stacks = []

    def recording_forward(params, config, bags):
        out = forward_bag(params, config, bags)
        stacks.append(([b.slide_id for b in bags], out))
        return out

    monkeypatch.setattr(training, "forward_bag", recording_forward)
    classes = predict_classes(params, mc, samples)
    # stacks in order of each size's first bag, streamed bags among the others
    assert [ids for ids, _ in stacks] == [
        ["s00", "s02", "s04"], ["s05", "s07", "s08"], ["s09"],
        ["s01", "s06", "s11"], ["s03", "s10"]]
    rows = {sid: (out, j) for ids, out in stacks for j, sid in enumerate(ids)}
    arrays = {k: p.data for k, p in params.items()}
    expected = []
    for s in samples:
        single = forward_bag(arrays, mc, s.load())
        out, j = rows[s.bag.slide_id]
        assert out.class_logits[j].tobytes() == single.class_logits.tobytes()
        if reg:
            assert out.wsd_prediction[j].tobytes() == single.wsd_prediction.tobytes()
        expected.append(single.predicted_class())
    assert classes.tolist() == expected


def test_float64_stacks_hold_at_most_the_resident_bag_budget(monkeypatch):
    # twenty resident bags built from float64 hold 16 KiB of float32 each:
    # sixteen fill a 256 KiB stack
    rng = np.random.default_rng(3)
    samples = [training.Sample(Bag(f"s{i:02d}", rng.standard_normal((64, 64)),
                                   np.stack([np.arange(64)] * 2, axis=1)), 0)
               for i in range(20)]
    stack_bytes = []

    def recording_forward(params, config, bags):
        stack_bytes.append(sum(b.features.nbytes for b in bags))
        return forward_bag(params, config, bags)

    monkeypatch.setattr(training, "forward_bag", recording_forward)
    mc = tiny_model(64)
    predict_classes(init_model(mc), mc, samples)
    assert training.RESIDENT_BAG_BYTES == 256 * 2**10
    assert stack_bytes == [16 * 16 * 2**10, 4 * 16 * 2**10]


def test_streamed_prediction_forwards_each_bag_before_the_next_read(tmp_path,
                                                                    monkeypatch):
    monkeypatch.setattr(training, "RESIDENT_BYTES", 0)
    cfg = SynthConfig(n_train=1, n_val=12, n_test=1, feature_dim=4,
                      size_factor=0.02, seed=2)
    entries = read_manifest(generate_synthetic(cfg, tmp_path).manifest_path)
    samples = samples_from_entries(split_bags(entries, "val"))
    assert len({s.bag.n for s in samples}) < len(samples)   # sizes repeat
    events, stack, earlier = [], [], []
    real_read = training.read_bag

    def logged_read(*args, **kwargs):
        assert all(ref() is None for ref in earlier)   # no earlier stack is held
        bag = real_read(*args, **kwargs)
        stack.append(weakref.ref(bag.features))
        events.append(("read", bag.slide_id))
        return bag

    def logged_forward(params, config, bags):
        events.append(("forward", [b.slide_id for b in bags]))
        earlier.extend(stack)
        stack.clear()
        return forward_bag(params, config, bags)

    monkeypatch.setattr(training, "read_bag", logged_read)
    monkeypatch.setattr(training, "forward_bag", logged_forward)
    mc = tiny_model(4, head="dsmil")
    predict_classes(init_model(mc), mc, samples)
    stacks = [ids for kind, ids in events if kind == "forward"]
    assert max(map(len, stacks)) > 1
    # each stack's bags are read, once each, right before its forward
    assert events == [event for ids in stacks for event in
                      [("read", sid) for sid in ids] + [("forward", ids)]]
    assert sorted(sid for ids in stacks for sid in ids) == sorted(
        s.bag.slide_id for s in samples)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_training_step_and_prediction_leave_no_cyclic_garbage(dataset, head):
    mc = tiny_model(dataset["dim"], head=head, reg=True)
    params = init_model(mc)
    state = init_adam(params)
    sample = dataset["train"][0]
    gc.collect()
    gc.disable()
    try:
        bag_loss(forward_bag(params, mc, sample.bag), sample,
                 TrainConfig(method="multitask")).backward()
        adam_step(state, params, 1e-3)
        predict_classes(params, mc, dataset["val"])
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# ---- grid search ------------------------------------------------------------------


def test_grid_search_scores_every_row(dataset):
    configs = [TrainConfig(epochs=2, seed=0),
               TrainConfig(method="weighted", weights=HEAVY, epochs=2, seed=0)]
    means, best = grid_search(tiny_model(dataset["dim"]), configs,
                              dataset["train"], dataset["val"], seeds=(1, 2))
    assert len(means) == 2
    assert means[best][0] == max(ba for ba, _ in means)


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
    means, _ = grid_search(mc, configs, dataset["train"], dataset["val"],
                           seeds=(1, 2))
    y_val = np.array([s.label for s in dataset["val"]], dtype=np.int64)
    direct = []
    for seed in (1, 2):
        mc_seed = replace(mc, init_seed=seed)
        params = fit("weighted", HEAVY, seed, mc_seed).params
        m = confusion(y_val, predict_classes(params, mc_seed, dataset["val"]))
        direct.append((balanced_accuracy(m), weighted_f1(m)))
    assert means[1] == (float(np.mean([b for b, _ in direct])),
                        float(np.mean([f for _, f in direct])))


def test_grid_search_predicts_validation_once_per_epoch(dataset, monkeypatch):
    calls = []

    def counting_predict(*args):
        calls.append(args)
        return predict_classes(*args)

    monkeypatch.setattr(training, "predict_classes", counting_predict)
    configs = [TrainConfig(epochs=3), TrainConfig(method="weighted",
                                                  weights=HEAVY, epochs=3)]
    grid_search(tiny_model(dataset["dim"]), configs, dataset["train"],
                dataset["val"], seeds=(1, 2))
    assert len(calls) == 3 * 2 * 2
    assert all(samples is dataset["val"] for _, _, samples in calls)


def test_best_val_confusion_is_the_best_epochs_scores(dataset):
    mc = tiny_model(dataset["dim"])
    r = train(mc, TrainConfig(epochs=3, seed=2), dataset["train"], dataset["val"])
    y_val = np.array([s.label for s in dataset["val"]], dtype=np.int64)
    m = confusion(y_val, predict_classes(r.params, mc, dataset["val"]))
    assert np.array_equal(r.best_val_confusion, m)
    assert (balanced_accuracy(r.best_val_confusion)
            == r.history[r.best_epoch].val_balanced_accuracy)


def test_grid_search_tie_prefers_earlier_row(dataset):
    same = TrainConfig(epochs=2, seed=0)
    _, best = grid_search(tiny_model(dataset["dim"]), [same, same],
                          dataset["train"], dataset["val"], seeds=(1,))
    assert best == 0


def test_grid_search_uses_the_model_config_as_given(dataset):
    # a multitask point on a model without a regression head meets train's check
    configs = [TrainConfig(method="multitask", beta=1.0, epochs=2, seed=0)]
    with pytest.raises(ValueError, match="regression"):
        grid_search(tiny_model(dataset["dim"]), configs,
                    dataset["train"], dataset["val"], seeds=(1,))


def test_grid_search_rejects_empty_grid(dataset):
    with pytest.raises(ValueError, match="^grid is empty$"):
        grid_search(tiny_model(dataset["dim"]), [],
                    dataset["train"], dataset["val"])


def test_default_grids_match_published_shapes():
    assert len(DEFAULT_ALPHA_BETA_GRID) == 6
    assert DEFAULT_ALPHA_BETA_GRID[0] == (1.0, 0.0)
    assert len(DEFAULT_WEIGHT_GRID) == 6
    assert (1.0, 1.0, 1.0) in DEFAULT_WEIGHT_GRID
    assert (4.0, 3.0, 1.0) in DEFAULT_WEIGHT_GRID
