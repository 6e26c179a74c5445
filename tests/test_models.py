"""MIL heads: init conventions, forward passes against numpy oracles,
attention invariants."""

import numpy as np
import pytest

from wsdmil import models
from wsdmil.bags import Bag
from wsdmil.models import (
    HEAD_KINDS,
    ModelConfig,
    extract_attention,
    forward_abmil,
    forward_bag,
    forward_dsmil,
    forward_maxmil,
    init_model,
)

D, H, L = 6, 10, 5


def config(head, **kw):
    base = dict(hidden_dim=H, attention_dim=L, init_seed=3)
    base.update(kw)
    return ModelConfig(head, D, **base)


def numpy_params(head, **kw):
    return {name: t.data for name, t in init_model(config(head, **kw)).items()}


def random_bag(n=7, seed=0, d=D):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    coords = np.stack([np.arange(n), np.arange(n)[::-1]], axis=1).astype(np.int32)
    return Bag(f"bag{seed}", features, coords)


def softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


# ---- initialization ---------------------------------------------------------------


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_init_is_deterministic(head):
    a = init_model(config(head))
    b = init_model(config(head))
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_regression_head_does_not_shift_shared_weights(head):
    plain = init_model(config(head))
    with_reg = init_model(config(head, with_regression_head=True))
    assert set(with_reg) - set(plain) == {"reg.w", "reg.b"}
    for name in plain:
        np.testing.assert_array_equal(plain[name].data, with_reg[name].data)


def test_biases_start_at_zero_and_weights_bounded():
    params = init_model(config("abmil"))
    for name, t in params.items():
        if name.endswith(".b"):
            assert (t.data == 0.0).all()
        else:
            rows, cols = t.shape
            bound = np.sqrt(6.0 / (rows + cols))
            assert (np.abs(t.data) < bound).all()
            assert t.data.std() > 0


def test_different_seeds_differ():
    a = init_model(config("maxmil", init_seed=1))
    b = init_model(config("maxmil", init_seed=2))
    assert not np.array_equal(a["embed.w"].data, b["embed.w"].data)


def test_model_config_validation():
    with pytest.raises(ValueError, match="unknown head"):
        ModelConfig("meanmil", D)
    with pytest.raises(ValueError, match=">= 1"):
        ModelConfig("abmil", 0)


# ---- maxmil -----------------------------------------------------------------------


def maxmil_oracle(p, x):
    hidden = np.maximum(x @ p["embed.w"] + p["embed.b"], 0.0)
    inst = hidden @ p["cls.w"] + p["cls.b"]
    return inst.max(axis=0)


def test_maxmil_matches_instance_oracle():
    p = numpy_params("maxmil")
    bag = random_bag(n=9, seed=1)
    out = forward_maxmil(init_model(config("maxmil")), bag.features)
    np.testing.assert_allclose(out.class_logits.data[0],
                               maxmil_oracle(p, bag.features), atol=1e-12)


def test_maxmil_singleton_attention_is_one():
    out = forward_maxmil(init_model(config("maxmil")), random_bag(n=1).features)
    np.testing.assert_array_equal(out.attention, [1.0])


def test_maxmil_ignores_duplicated_instances():
    params = init_model(config("maxmil"))
    x = random_bag(n=4, seed=2).features
    once = forward_maxmil(params, x)
    doubled = forward_maxmil(params, np.vstack([x, x]))
    np.testing.assert_array_equal(once.class_logits.data, doubled.class_logits.data)


# ---- abmil ------------------------------------------------------------------------


def abmil_oracle(p, x, gated):
    hidden = np.maximum(x @ p["embed.w"] + p["embed.b"], 0.0)
    branch = np.tanh(hidden @ p["attn_v.w"])
    if gated:
        branch = branch / (1.0 + np.exp(-(hidden @ p["attn_u.w"])))
    attn = softmax((branch @ p["attn_w.w"])[:, 0])
    z = attn @ hidden
    return z @ p["cls.w"] + p["cls.b"][0], attn


@pytest.mark.parametrize("gated", [False, True])
def test_abmil_matches_numpy_oracle(gated):
    head = "gated_abmil" if gated else "abmil"
    p = numpy_params(head)
    bag = random_bag(n=8, seed=3)
    out = forward_abmil(init_model(config(head)), bag.features, gated=gated)
    logits, attn = abmil_oracle(p, bag.features, gated)
    np.testing.assert_allclose(out.class_logits.data[0], logits, atol=1e-12)
    np.testing.assert_allclose(out.attention, attn, atol=1e-12)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_attention_sums_to_one_or_stays_normalized(head):
    params = init_model(config(head))
    out = forward_bag(params, config(head), random_bag(n=11, seed=4))
    assert out.attention.shape == (11,)
    assert (out.attention >= 0).all()
    if head in ("abmil", "gated_abmil", "dsmil"):
        assert abs(out.attention.sum() - 1.0) < 1e-9
    else:
        assert out.attention.max() <= 1.0


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_permutation_moves_attention_and_keeps_logits(head):
    params = init_model(config(head))
    bag = random_bag(n=10, seed=5)
    perm = np.random.default_rng(6).permutation(10)
    out = forward_bag(params, config(head), bag)
    shuffled = Bag("shuffled", bag.features[perm], bag.coords[perm])
    out_p = forward_bag(params, config(head), shuffled)
    np.testing.assert_allclose(out_p.class_logits.data, out.class_logits.data,
                               atol=1e-9)
    np.testing.assert_allclose(out_p.attention, out.attention[perm], atol=1e-9)


@pytest.mark.parametrize("head", ["abmil", "gated_abmil", "dsmil"])
def test_uniform_bag_gets_uniform_attention(head):
    params = init_model(config(head))
    row = np.random.default_rng(7).standard_normal((1, D))
    bag = Bag("uniform", np.repeat(row, 6, axis=0),
              np.stack([np.arange(6), np.arange(6)], axis=1).astype(np.int32))
    out = forward_bag(params, config(head), bag)
    np.testing.assert_allclose(out.attention, np.full(6, 1 / 6), atol=1e-12)


# ---- dsmil ------------------------------------------------------------------------


def dsmil_oracle(p, x):
    inst = x @ p["inst.w"] + p["inst.b"]
    queries = x @ p["query.w"] + p["query.b"]
    values = x @ p["value.w"] + p["value.b"]
    crit = inst.argmax(axis=0)
    bag_logits = np.zeros(4)
    for c in range(4):
        attn = softmax(queries @ queries[crit[c]])
        bag_logits[c] = (attn @ values) @ p["bag_cls.w"][c] + p["bag_cls.b"][0, c]
    return 0.5 * (inst.max(axis=0) + bag_logits)


def test_dsmil_matches_numpy_oracle():
    p = numpy_params("dsmil")
    bag = random_bag(n=9, seed=8)
    out = forward_dsmil(init_model(config("dsmil")), bag.features)
    np.testing.assert_allclose(out.class_logits.data[0], dsmil_oracle(p, bag.features),
                               atol=1e-12)


def test_dsmil_duplicated_bag_matches_singleton():
    params = init_model(config("dsmil"))
    x = random_bag(n=1, seed=9).features
    single = forward_dsmil(params, x)
    repeated = forward_dsmil(params, np.repeat(x, 5, axis=0))
    np.testing.assert_allclose(repeated.class_logits.data, single.class_logits.data,
                               atol=1e-9)


# ---- shared output contract -------------------------------------------------------


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_regression_prediction_is_a_probability(head):
    cfg = config(head, with_regression_head=True)
    out = forward_bag(init_model(cfg), cfg, random_bag(n=5, seed=10))
    assert out.wsd_prediction is not None
    assert out.wsd_prediction.shape == (1, 1)
    assert 0.0 < out.wsd_prediction.data[0, 0] < 1.0


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_no_regression_head_means_no_prediction(head):
    out = forward_bag(init_model(config(head)), config(head), random_bag(n=5, seed=11))
    assert out.wsd_prediction is None
    assert out.class_logits.shape == (1, 4)


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_float32_bag_forward_equals_its_float64_copy_bitwise(head):
    # forward_bag widens the bag's float32 features exactly
    mc = config(head, with_regression_head=True)
    params = init_model(mc)
    bag = random_bag(n=9, seed=4)
    assert bag.features.dtype == np.float32
    a = forward_bag(params, mc, bag)
    b = models._HEADS[head](params, bag.features.astype(np.float64))
    assert a.class_logits.data.tobytes() == b.class_logits.data.tobytes()
    assert a.attention.tobytes() == b.attention.tobytes()
    assert a.wsd_prediction.data.tobytes() == b.wsd_prediction.data.tobytes()


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("n, dtype", [(1, np.float64), (2, np.float64),
                                      (9, np.float64), (1, np.float32),
                                      (9, np.float32)])
def test_plain_array_forward_equals_tensor_forward_bitwise(head, n, dtype):
    mc = config(head, with_regression_head=True)
    params = init_model(mc)
    bag = random_bag(n=n, seed=16)
    bag = Bag("b", bag.features.astype(dtype), bag.coords)
    graph = forward_bag(params, mc, bag)
    plain = forward_bag({k: p.data for k, p in params.items()}, mc, bag)
    assert type(plain.class_logits) is np.ndarray
    assert type(plain.wsd_prediction) is np.ndarray
    assert plain.class_logits.tobytes() == graph.class_logits.data.tobytes()
    assert plain.attention.tobytes() == graph.attention.tobytes()
    assert plain.wsd_prediction.tobytes() == graph.wsd_prediction.data.tobytes()
    assert plain.predicted_class() == graph.predicted_class()


def test_plain_array_forward_rejects_wrong_feature_dim():
    with pytest.raises(ValueError, match="input dim"):
        forward_bag(numpy_params("dsmil"), config("dsmil"), random_bag(n=3, d=D + 2))


@pytest.mark.parametrize("head", HEAD_KINDS)
def test_bag_list_reaches_the_head_as_one_float64_stack(head, monkeypatch):
    # forward_bag widens a list of float32 bags into one stack, so its
    # _features call sees one float64 (k, n, d) array and returns that object
    seen = []
    real = models._features

    def tracked(config, features):
        x = real(config, features)
        seen.append((features, x))
        return x

    monkeypatch.setattr(models, "_features", tracked)
    bags = [random_bag(n=4, seed=i) for i in range(3)]
    forward_bag(numpy_params(head), config(head), bags)
    [(features, x)] = seen
    assert x is features
    assert (x.dtype, x.shape) == (np.float64, (3, 4, D))


def test_predicted_class_is_argmax():
    params = init_model(config("abmil"))
    out = forward_bag(params, config("abmil"), random_bag(n=5, seed=12))
    assert out.predicted_class() == int(np.argmax(out.class_logits.data[0]))


def test_forward_rejects_wrong_feature_dim():
    with pytest.raises(ValueError, match="input dim"):
        forward_bag(init_model(config("abmil")), config("abmil"), random_bag(d=D + 1))
    with pytest.raises(ValueError, match="input dim"):
        forward_bag(init_model(config("dsmil")), config("dsmil"), random_bag(d=D + 2))


def test_extract_attention_pairs_coords_with_unit_range_weights():
    params = init_model(config("abmil"))
    bag = random_bag(n=6, seed=13)
    out = forward_bag(params, config("abmil"), bag)
    weights = extract_attention(out, bag)
    assert weights.shape == (len(bag.coords),) == (6,)  # one per coordinate
    assert weights.min() == 0.0 and weights.max() == 1.0


def test_extract_attention_rejects_mismatched_bag():
    params = init_model(config("abmil"))
    bag = random_bag(n=6, seed=14)
    out = forward_bag(params, config("abmil"), bag)
    with pytest.raises(ValueError, match="does not"):
        extract_attention(out, random_bag(n=4, seed=15))
