"""Acceptance gate: eleven checks, one printed PASS/FAIL line each.

Each test writes its verdict straight to the real stdout so the lines
survive pytest's capture and show up in plain `pytest -v` output.
"""

import itertools
import struct
import sys
import time

import numpy as np
import pytest

from wsdmil.autodiff import Tensor, grad_check
from wsdmil.bags import (Bag, BagFormatError, SynthConfig, generate_synthetic,
                         read_bag, read_manifest, split_bags, write_bag,
                         CALIBRATION_TARGETS)
from wsdmil.cli import main
from wsdmil.gleason import (ConsensusLevel, GleasonScore, WeightTriple,
                            consensus_level, consensus_record, parse_score,
                            wsd_score, wsd_weight)
from wsdmil.metrics import (balanced_accuracy, bootstrap_ci, confusion,
                            paired_permutation_test, weighted_f1)
from wsdmil.models import (HEAD_KINDS, ModelConfig, forward_bag, init_model)
from wsdmil.reports import load_params, read_report
from wsdmil.training import (TrainConfig, loss_baseline, loss_multitask,
                             loss_weighted, predict_classes,
                             samples_from_entries, train)

pytestmark = pytest.mark.filterwarnings("ignore:consensus mix off calibration")

UNIT = WeightTriple(1.0, 1.0, 1.0, allow_out_of_range=True)
HEAVY = WeightTriple(4.0, 3.0, 1.0)


@pytest.fixture()
def verdict(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}\n"
        with capfd.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
        assert ok, line.strip()
    return emit


def random_bag(rng, n=5, d=8):
    coords = np.array([(i, 0) for i in range(n)], dtype=np.int64)
    return Bag("accept", rng.standard_normal((n, d)), coords)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cfg = SynthConfig(n_train=16, n_val=8, n_test=8, feature_dim=8,
                      size_factor=0.02, seed=5)
    res = generate_synthetic(cfg, tmp_path_factory.mktemp("accept_tiny"))
    return read_manifest(res.manifest_path)


# 1 ------------------------------------------------------------------------------


def test_criterion_01_consensus_matches_brute_force_oracle(verdict):
    def normalized(score: GleasonScore):
        grades = sorted((score.primary, score.secondary))
        return tuple(0 if g <= 2 else g for g in grades)

    def oracle(a, b):
        na, nb = normalized(a), normalized(b)
        if na == nb:
            return ConsensusLevel.HOMOGENEOUS
        if max(na) == max(nb):
            return ConsensusLevel.HETEROGENEOUS
        return ConsensusLevel.NO_CONSENSUS

    scores = [GleasonScore(0, 0)] + [GleasonScore(p, s)
                                     for p in range(1, 6) for s in range(1, 6)]
    start = time.perf_counter()
    mismatches = sum(consensus_level(a, b) is not oracle(a, b)
                     for a, b in itertools.product(scores, scores))
    wsd_ok = all(wsd_score(consensus_level(a, b)) in (0.0, 0.5, 1.0)
                 for a, b in itertools.product(scores, scores))
    elapsed = time.perf_counter() - start
    verdict(1, len(scores) == 26 and mismatches == 0 and wsd_ok
            and elapsed < 1.0,
            f"26x26 ordered pairs, {mismatches} oracle mismatches, "
            f"{elapsed:.2f}s (< 1s)")


# 2 ------------------------------------------------------------------------------


def test_criterion_02_gradients_match_central_differences(verdict):
    weight = wsd_weight(consensus_record("accept", parse_score("4+3"),
                                         parse_score("3+4")).level, HEAVY)
    start = time.perf_counter()
    worst = 0.0
    for head in HEAD_KINDS:
        for method in ("baseline", "multitask", "weighted"):
            mc = ModelConfig(head, 8, hidden_dim=6, attention_dim=4,
                             with_regression_head=(method == "multitask"),
                             init_seed=3)
            params = init_model(mc)
            bag = random_bag(np.random.default_rng(9))

            def loss_fn():
                out = forward_bag(params, mc, bag)
                if method == "baseline":
                    return loss_baseline(out, 2)
                if method == "multitask":
                    return loss_multitask(out, 2, 0.5, alpha=1.0, beta=1.0)
                return loss_weighted(out, 2, weight)

            report = grad_check(loss_fn, list(params.values()),
                                epsilon=5e-5, tolerance=1e-6)
            worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - start
    verdict(2, worst < 1e-6 and elapsed < 10.0,
            f"4 heads x 3 objectives, max rel grad error {worst:.2e} (< 1e-6), "
            f"{elapsed:.1f}s (< 10s)")


# 3 ------------------------------------------------------------------------------


def test_criterion_03_unit_weight_and_beta_zero_reduce_to_baseline(tiny, verdict):
    mc = ModelConfig("maxmil", 8, hidden_dim=8, attention_dim=4, init_seed=7)
    tc = TrainConfig(epochs=5, seed=3)
    train_unit = samples_from_entries(split_bags(tiny, "train"))
    val = samples_from_entries(split_bags(tiny, "val"))

    base = train(mc, tc, train_unit, val)
    wtd = train(mc, TrainConfig(method="weighted", weights=UNIT,
                                epochs=5, seed=3), train_unit, val)
    multi = train(ModelConfig("maxmil", 8, hidden_dim=8, attention_dim=4,
                              with_regression_head=True, init_seed=7),
                  TrainConfig(method="multitask", beta=0.0, epochs=5, seed=3),
                  train_unit, val)

    weighted_same = all(base.params[k].data.tobytes() == wtd.params[k].data.tobytes()
                        for k in base.params)
    multi_same = all(base.params[k].data.tobytes() == multi.params[k].data.tobytes()
                     for k in base.params)
    loss_same = ([h.train_loss for h in base.history]
                 == [h.train_loss for h in wtd.history]
                 == [h.train_loss for h in multi.history])
    verdict(3, weighted_same and multi_same and loss_same,
            "weighted(1,1,1) and multitask(beta=0) bit-identical to the "
            "baseline over 5 epochs")


# 4 ------------------------------------------------------------------------------


def test_criterion_04_attention_invariants(verdict):
    rng = np.random.default_rng(11)
    bag = random_bag(rng, n=7)
    perm = rng.permutation(7)
    permuted = Bag("accept", bag.features[perm], bag.coords[perm])
    uniform = Bag("accept", np.tile(bag.features[:1], (6, 1)),
                  np.array([(i, 1) for i in range(6)], dtype=np.int64))

    sums_ok = perm_ok = uniform_ok = True
    for head in HEAD_KINDS:
        mc = ModelConfig(head, 8, hidden_dim=6, attention_dim=4, init_seed=2)
        params = init_model(mc)
        out = forward_bag(params, mc, bag)
        out_perm = forward_bag(params, mc, permuted)
        perm_ok &= np.allclose(out.class_logits.data,
                               out_perm.class_logits.data, atol=1e-9)
        perm_ok &= np.allclose(out.attention[perm], out_perm.attention,
                               atol=1e-9)
        if head != "maxmil":  # maxmil reports normalized scores, not a simplex
            sums_ok &= abs(out.attention.sum() - 1.0) < 1e-9
            out_uni = forward_bag(params, mc, uniform)
            uniform_ok &= np.allclose(out_uni.attention, 1.0 / 6.0, atol=1e-9)
    verdict(4, sums_ok and perm_ok and uniform_ok,
            "attention sums to 1 within 1e-9, permutation equivariant with "
            "logits preserved, uniform bags get uniform attention")


# 5 ------------------------------------------------------------------------------


def test_criterion_05_metric_oracles(verdict):
    y_true = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
    y_pred = [0, 0, 1, 1, 1, 2, 0, 3, 3, 3]
    m = confusion(y_true, y_pred)
    fixture_ok = (abs(balanced_accuracy(m) - 0.75) < 1e-12
                  and abs(weighted_f1(m) - 0.67) < 1e-12)
    rng = np.random.default_rng(0)
    chance = balanced_accuracy(confusion(rng.integers(0, 4, 10_000),
                                         rng.integers(0, 4, 10_000)))
    verdict(5, fixture_ok and abs(chance - 0.25) < 0.02,
            f"10-sample fixture gives 0.75 / 0.67 exactly; random predictor "
            f"at {chance:.4f} (0.25 +/- 0.02)")


# 6 ------------------------------------------------------------------------------


def test_criterion_06_permutation_test_matches_enumeration(verdict):
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, size=10).astype(float)
    b = rng.integers(0, 2, size=10).astype(float)
    y = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def exact(stat_uses_y):
        def stat(av, bv):
            if not stat_uses_y:
                return (av - bv).mean()
            return np.mean([av[y == c].mean() - bv[y == c].mean()
                            for c in np.unique(y)])
        t_obs = abs(stat(a, b))
        hits = 0
        for pattern in itertools.product((False, True), repeat=10):
            f = np.array(pattern)
            if abs(stat(np.where(f, b, a), np.where(f, a, b))) >= t_obs - 1e-12:
                hits += 1
        return hits / 1024.0

    mc_acc = paired_permutation_test(a, b, statistic="accuracy_diff",
                                     n_permutations=100_000, seed=1)
    mc_bal = paired_permutation_test(a, b, y_true=y,
                                     n_permutations=100_000, seed=1)
    gap = max(abs(mc_acc - exact(False)), abs(mc_bal - exact(True)))
    same = paired_permutation_test(a, a.copy(), statistic="accuracy_diff",
                                   n_permutations=1_000, seed=0)
    verdict(6, gap < 0.02 and same == 1.0,
            f"100k-permutation p within {gap:.4f} of exact enumeration "
            f"(< 0.02); identical systems p = {same}")


# 7 ------------------------------------------------------------------------------


def test_criterion_07_bootstrap_width_and_coverage(verdict):
    flat = bootstrap_ci([1, 2, 3, 4], lambda recs: 0.5, n_resamples=200, seed=0)
    zero_width = flat.low == flat.point == flat.high

    truth = 0.75
    covered = 0
    rng = np.random.default_rng(12)
    for trial in range(200):
        draws = (rng.random(100) < truth).astype(float).tolist()
        ci = bootstrap_ci(draws, lambda recs: float(np.mean(recs)),
                          n_resamples=200, level=0.95, seed=trial)
        covered += ci.low <= truth <= ci.high
    coverage = covered / 200.0
    verdict(7, zero_width and coverage >= 0.90,
            f"constant metric gives zero-width CI; 95% CI covered a known "
            f"proportion in {coverage:.1%} of 200 trials (>= 90%)")


# 8 ------------------------------------------------------------------------------


def test_criterion_08_generator_calibration(tmp_path, verdict):
    config = SynthConfig(n_train=3400, n_val=850, n_test=850, feature_dim=8,
                         size_factor=0.01, seed=1)
    result = generate_synthetic(config, tmp_path / "calib")
    gaps = {level.value: abs(result.fractions[level] - target)
            for level, target in CALIBRATION_TARGETS.items()}
    worst = max(gaps.values())
    verdict(8, worst < 0.03,
            f"5100 slides; consensus mix within {worst * 100:.2f} points of "
            f"(67.7, 14.0, 18.3) (< 3)")


# 9 ------------------------------------------------------------------------------


def test_criterion_09_weighted_loss_beats_baseline_on_default_data(tmp_path, verdict):
    start = time.perf_counter()
    result = generate_synthetic(SynthConfig(), tmp_path / "default")
    entries = read_manifest(result.manifest_path)
    train_s = samples_from_entries(split_bags(entries, "train"))
    val_s = samples_from_entries(split_bags(entries, "val"))
    test_s = samples_from_entries(split_bags(entries, "test"))
    y_true = np.array([s.label for s in test_s], dtype=np.int64)

    means = {}
    for method in ("baseline", "weighted"):
        accs = []
        for seed in (5, 6, 7, 8):
            mc = ModelConfig("abmil", 32, hidden_dim=64, attention_dim=32,
                             init_seed=seed)
            tc = TrainConfig(method=method,
                             weights=HEAVY if method == "weighted" else None,
                             epochs=12, seed=seed)
            fit = train(mc, tc, train_s, val_s)
            pred = predict_classes(fit.params, mc, test_s)
            accs.append(balanced_accuracy(confusion(y_true, pred)))
        means[method] = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    gap = (means["weighted"] - means["baseline"]) * 100
    verdict(9, means["weighted"] >= means["baseline"] and elapsed < 600.0,
            f"abmil on 600/150/150 d=32: weighted(4,3,1) "
            f"{means['weighted']:.4f} vs baseline {means['baseline']:.4f} "
            f"({gap:+.2f} pts over 4 seeds), {elapsed:.0f}s (< 600s)")


# 10 -----------------------------------------------------------------------------


def test_criterion_10_commands_are_bit_reproducible(tmp_path, verdict):
    gen = ["--splits", "16,8,8", "--dim", "8", "--size-factor", "0.02",
           "--seed", "4"]
    for sub in ("d1", "d2"):
        assert main(["gen-synthetic", "--out", str(tmp_path / sub)] + gen) == 0
    manifests_same = ((tmp_path / "d1" / "manifest.tsv").read_bytes()
                      == (tmp_path / "d2" / "manifest.tsv").read_bytes())

    reports = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub / "run.report"
        code = main(["train", "--data", str(tmp_path / "d1"),
                     "--model", "maxmil", "--hidden-dim", "8",
                     "--attention-dim", "4", "--epochs", "2",
                     "--seeds", "1,2", "--bootstrap", "100",
                     "--out", str(out)])
        assert code == 0
        reports.append(read_report(out))
    r1, r2 = reports
    metrics_same = (
        [(s.seed, s.balanced_accuracy, s.weighted_f1, s.per_class, s.history)
         for s in r1.seeds]
        == [(s.seed, s.balanced_accuracy, s.weighted_f1, s.per_class, s.history)
            for s in r2.seeds]
        and r1.mean_balanced_accuracy == r2.mean_balanced_accuracy
        and r1.ci_balanced_accuracy == r2.ci_balanced_accuracy)
    params_same = all(
        (tmp_path / "r1" / s.params_path).read_bytes()
        == (tmp_path / "r2" / s.params_path).read_bytes()
        for s in r1.seeds)
    verdict(10, manifests_same and metrics_same and params_same,
            "gen-synthetic and train reruns reproduce manifests, metrics, "
            "and parameter archives bit-for-bit")


# 11 -----------------------------------------------------------------------------


def test_criterion_11_bag_round_trip_and_error_taxonomy(tmp_path, verdict):
    rng = np.random.default_rng(6)
    bag = Bag("rt", rng.standard_normal((9, 5)).astype(np.float32),
              np.array([(i, i + 1) for i in range(9)], dtype=np.int64))
    path = tmp_path / "rt.bag"
    write_bag(bag, path)
    good = path.read_bytes()
    back = read_bag(path)
    write_bag(back, tmp_path / "rt2.bag")
    round_trip = (tmp_path / "rt2.bag").read_bytes() == good

    corrupted = {
        "bad_magic": b"XXXX" + good[4:],
        "bad_version": good[:4] + struct.pack("<I", 99) + good[8:],
        "empty_dims": good[:8] + struct.pack("<II", 0, 5) + good[16:],
        "truncated": good[:-4],
        "trailing_data": good + b"\x00",
    }
    reasons = set()
    for blob in corrupted.values():
        bad = tmp_path / "bad.bag"
        bad.write_bytes(blob)
        try:
            read_bag(bad)
        except BagFormatError as exc:
            reasons.add(exc.reason)
    verdict(11, round_trip and reasons == set(corrupted),
            f"write/read/write is byte-identical; corrupt headers rejected "
            f"with reasons {sorted(reasons)}")
