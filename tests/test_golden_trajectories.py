"""Golden trajectory gate: short trainings must keep their exact bits.

Every head is trained for 2 epochs under each of the three objectives on a
tiny synthetic cohort, and the sha256 of the final parameters and the
per-epoch history is compared with a digest recorded before any refactor
of the training stack.  A change that moves a single bit of any trajectory
fails here, naming the head and objective.
"""

import hashlib

import numpy as np
import pytest

from wsdmil.bags import SynthConfig, generate_synthetic, read_manifest, split_bags
from wsdmil.gleason import WeightTriple
from wsdmil.models import HEAD_KINDS, ModelConfig
from wsdmil.training import TrainConfig, samples_from_entries, train

pytestmark = pytest.mark.filterwarnings("ignore:consensus mix off calibration")

HEAVY = WeightTriple(4.0, 3.0, 1.0)

TRAIN_CONFIGS = {
    "baseline": TrainConfig(epochs=2, seed=11),
    "multitask": TrainConfig(method="multitask", alpha=1.0, beta=2.0,
                             epochs=2, seed=11),
    "weighted": TrainConfig(method="weighted", weights=HEAVY, epochs=2, seed=11),
}

GOLDEN = {
    ('maxmil', 'baseline'):
        "77c162ec0e60558764512074b9cb05a4e4fee5aeae775c9548a6839f08afc415",
    ('maxmil', 'multitask'):
        "56f43ff1085a9b38dd3d0e6898779fd5d545a7ecebbd51bde359e31ff6942eb8",
    ('maxmil', 'weighted'):
        "b273bf2c364509baae751b4e7f2a2e25b79c2e43fef460a26f575042ab3271aa",
    ('abmil', 'baseline'):
        "b1bd3fd441621fdc7d286379c0ce9f1155fa205e4d4cb6450b0f3553ecf8acbc",
    ('abmil', 'multitask'):
        "d475fde9396778ec2d7280c27d616317a777a70df373d2db16863a7ea011625b",
    ('abmil', 'weighted'):
        "43b4e00f0e0b7b0ce713148433b4282ebc207616720c29f14b5da44bcbafd82c",
    ('gated_abmil', 'baseline'):
        "ac5aa17a631c109f2ceaf323700bd80bb59c737a901d67c3459856c320606468",
    ('gated_abmil', 'multitask'):
        "66094810ba288310e159104bb01e32fcdc3fa54dab608ba6335cad4f389b863d",
    ('gated_abmil', 'weighted'):
        "f3f9ecae60dff42eb2e1881bbc08b0b13d1c9a244fa739bea7e478bf3b18d1f9",
    ('dsmil', 'baseline'):
        "b574a2031f11c915e291975b139cd4869892292485020039edab407ae8b3e9f5",
    ('dsmil', 'multitask'):
        "7dda79813b58d838c7548f0b8a9ca61944c4f210e7cbf50c14c77fa177956248",
    ('dsmil', 'weighted'):
        "47616d4ad54cfe935eef1e3204f8d1239a5f6402db5b9a28df14567ce6aa2636",
}


def trajectory_digest(head: str, method: str, train_samples, val_samples) -> str:
    """sha256 over the final params (sorted by name) and the epoch history."""
    mc = ModelConfig(head, train_samples[0].bag.d, hidden_dim=8, attention_dim=4,
                     with_regression_head=(method == "multitask"), init_seed=7)
    result = train(mc, TRAIN_CONFIGS[method], train_samples, val_samples)
    h = hashlib.sha256()
    for name in sorted(result.params):
        h.update(name.encode())
        h.update(result.params[name].data.tobytes())
    for stats in result.history:
        h.update(np.array([stats.epoch, stats.train_loss,
                           stats.val_balanced_accuracy]).tobytes())
    h.update(str(result.best_epoch).encode())
    return h.hexdigest()


def tiny_entries(root):
    cfg = SynthConfig(n_train=16, n_val=8, n_test=0, feature_dim=8,
                      size_factor=0.02, seed=5)
    return read_manifest(generate_synthetic(cfg, root).manifest_path)


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    entries = tiny_entries(tmp_path_factory.mktemp("golden"))
    return (samples_from_entries(split_bags(entries, "train")),
            samples_from_entries(split_bags(entries, "val")))


@pytest.mark.parametrize("method", list(TRAIN_CONFIGS))
@pytest.mark.parametrize("head", HEAD_KINDS)
def test_trajectory_matches_golden_digest(samples, head, method):
    assert trajectory_digest(head, method, *samples) == GOLDEN[head, method]
