"""Streamed bags: full-size bags and samples past the resident budget keep
no features and read their bag again where it is used, with the same bits as
a resident run.
"""

import weakref
import zipfile

import numpy as np
import pytest
from test_golden_trajectories import (GOLDEN, TRAIN_CONFIGS, tiny_entries,
                                      trajectory_digest)

from wsdmil import cli, models, training
from wsdmil.bags import Bag, SynthConfig, generate_synthetic, split_bags, write_bag
from wsdmil.cli import main
from wsdmil.models import HEAD_KINDS, ModelConfig
from wsdmil.training import BagOnDisk, TrainConfig, samples_from_entries, train


GEN_ARGS = ["--splits", "24,8,8", "--dim", "8", "--size-factor", "0.02",
            "--seed", "5"]
FAST_TRAIN = ["--model", "abmil", "--hidden-dim", "8", "--attention-dim", "4",
              "--epochs", "3", "--seeds", "1,2", "--bootstrap", "50"]


@pytest.fixture
def streamed(monkeypatch):
    monkeypatch.setattr(training, "RESIDENT_BYTES", 0)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream_ds")
    assert main(["gen-synthetic", "--out", str(root)] + GEN_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def golden_entries(tmp_path_factory):
    return tiny_entries(tmp_path_factory.mktemp("stream_golden"))


@pytest.mark.parametrize("method", list(TRAIN_CONFIGS))
@pytest.mark.parametrize("head", HEAD_KINDS)
def test_streamed_trajectory_matches_golden_digest(golden_entries, streamed,
                                                   head, method):
    train_samples, val_samples = (samples_from_entries(split_bags(golden_entries, s))
                                  for s in ("train", "val"))
    assert all(isinstance(s.bag, BagOnDisk)
               for s in train_samples + val_samples)
    assert trajectory_digest(head, method, train_samples,
                             val_samples) == GOLDEN[head, method]


def test_load_samples_holds_no_features_at_zero_budget(dataset, streamed):
    samples = cli._load_samples(dataset / "manifest.tsv", "train", "val", "test")
    assert [len(samples[s]) for s in ("train", "val", "test")] == [24, 8, 8]
    for split in samples.values():
        for s in split:
            assert isinstance(s.bag, BagOnDisk)
            bag = s.load()
            assert (bag.slide_id, bag.n, bag.d) == (s.bag.slide_id, s.bag.n, s.bag.d)


def _counting_reads(monkeypatch):
    reads = []
    real = training.read_bag

    def counted(path, *args, **kwargs):
        reads.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(training, "read_bag", counted)
    return reads


def test_no_earlier_bag_is_alive_when_a_bag_is_read(dataset, streamed,
                                                   monkeypatch):
    widened = []      # the float64 features of every forward pass so far
    real_features, real_read = models._features, training.read_bag

    def tracked_features(*args):
        x = real_features(*args)
        widened.append(weakref.ref(x))
        return x

    def checked_read(*args, **kwargs):
        assert all(ref() is None for ref in widened)
        return real_read(*args, **kwargs)

    monkeypatch.setattr(models, "_features", tracked_features)
    monkeypatch.setattr(training, "read_bag", checked_read)
    samples = cli._load_samples(dataset / "manifest.tsv", "train", "val")
    mc = ModelConfig("abmil", 8, hidden_dim=8, attention_dim=4)
    train(mc, TrainConfig(epochs=2), samples["train"], samples["val"])
    # per epoch, 24 steps and the 8 validation bags in stacks of equal size
    assert len(widened) == 2 * (24 + 6)


def _train(dataset, out_dir):
    """train into ``out_dir``: its report lines but ``created:``, and each
    params archive's members."""
    out_dir.mkdir()
    report = out_dir / "r.report"
    assert main(["train", "--data", str(dataset), "--out", str(report),
                 "--method", "weighted", "--weights", "4,3,1"] + FAST_TRAIN) == 0
    archives = {}
    for path in sorted(out_dir.glob("*.npz")):
        # np.savez stamps each zip member with the time, so compare members
        with zipfile.ZipFile(path) as z:
            archives[path.name] = {name: z.read(name) for name in z.namelist()}
    lines = [line for line in report.read_text().splitlines()
             if not line.startswith("created:")]
    return lines, archives


def test_streamed_commands_write_the_bytes_of_resident_ones(dataset, tmp_path,
                                                            monkeypatch, capsys):
    reads = _counting_reads(monkeypatch)
    outputs = {}
    for budget in (training.RESIDENT_BYTES, 0):
        monkeypatch.setattr(training, "RESIDENT_BYTES", budget)
        reads.clear()
        report = tmp_path / str(budget) / "r.report"
        lines, archives = _train(dataset, report.parent)
        train_reads = len(reads)
        reads.clear()
        capsys.readouterr()
        assert main(["eval", str(report), "--compare", str(report),
                     "--bootstrap", "50", "--permutations", "200"]) == 0
        out = capsys.readouterr().out.replace(str(report), "R")
        outputs[budget] = (lines, archives, out)
        # resident, each command reads each bag it loads once.  Streamed,
        # train reads the 40 bags at load, then per seed 3 epochs of 24
        # steps and 8 validation bags, then 8 test bags per seed; eval
        # loads the 8 test bags and predicts them with 2 + 2 models
        assert (train_reads, len(reads)) == ((40, 8) if budget else
                                             (40 + 2 * 3 * 32 + 2 * 8, 8 + 4 * 8))
    resident, streamed = outputs.values()
    assert resident == streamed
    assert "report metrics reproduced" in streamed[2]


def test_resident_features_stay_within_the_budget(tmp_path, monkeypatch):
    # 1024-d bags of 7 to 119 instances: those of at most 64 instances hold
    # at most 256 KiB of features, the others are full-size
    cfg = SynthConfig(n_train=24, n_val=4, n_test=4, feature_dim=1024,
                      size_factor=0.1, seed=3)
    manifest = generate_synthetic(cfg, tmp_path).manifest_path
    # at 1 MiB the budget, not only the bag size, streams some small bags
    for budget in (training.RESIDENT_BYTES, 2**20):
        monkeypatch.setattr(training, "RESIDENT_BYTES", budget)
        samples = cli._load_samples(manifest, "train", "val", "test")
        resident = 0
        kinds = set()
        for split in ("train", "val", "test"):
            for s in samples[split]:
                size = 4 * s.bag.n * s.bag.d
                small = size <= training.RESIDENT_BAG_BYTES
                if isinstance(s.bag, Bag):
                    assert small
                    resident += size
                elif small:     # a small bag streams only past the budget
                    assert resident + size > budget
                assert resident <= budget
                kinds.add((small, type(s.bag)))
        assert kinds >= {(True, Bag), (False, BagOnDisk)}
        assert ((True, BagOnDisk) in kinds) == (budget == 2**20)


def test_step_graph_is_freed_before_adam(dataset, monkeypatch):
    # each step's loss (by its data: a Tensor takes no weakref) and float64
    # features, which the rest of its graph holds, once per bag: a
    # validation stack holds as many bags as it has rows
    alive = []
    real_loss, real_features, real_step = (training.bag_loss, models._features,
                                           training.adam_step)

    def tracked_loss(*args):
        loss = real_loss(*args)
        alive.append(weakref.ref(loss.data))
        return loss

    def tracked_features(*args):
        x = real_features(*args)
        alive.extend([weakref.ref(x)] * (len(x) if x.ndim == 3 else 1))
        return x

    def checked_step(*args):
        assert all(ref() is None for ref in alive)
        return real_step(*args)

    monkeypatch.setattr(training, "bag_loss", tracked_loss)
    monkeypatch.setattr(models, "_features", tracked_features)
    monkeypatch.setattr(training, "adam_step", checked_step)
    samples = cli._load_samples(dataset / "manifest.tsv", "train", "val")
    mc = ModelConfig("dsmil", 8, hidden_dim=8, attention_dim=4)
    train(mc, TrainConfig(epochs=1), samples["train"], samples["val"])
    assert len(alive) == 2 * 24 + 8


def _fewer_instances(path):
    bag = training.read_bag(path)
    write_bag(Bag(bag.slide_id, bag.features[:-1], bag.coords[:-1]), path)


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-4])


def _non_finite(path):
    raw = bytearray(path.read_bytes())
    raw[16:20] = np.float32(np.nan).tobytes()    # first feature value
    path.write_bytes(bytes(raw))


def _deleted(path):
    path.unlink()


@pytest.mark.parametrize("change", [_fewer_instances, _truncated, _non_finite,
                                    _deleted])
@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_bag_changed_on_disk_mid_run_is_data_error(tmp_path, streamed, monkeypatch,
                                                   capsys, change, split):
    data = tmp_path / "ds"
    assert main(["gen-synthetic", "--out", str(data)] + GEN_ARGS) == 0
    load = cli._load_samples
    changed = []

    def load_then_change(*args):
        samples = load(*args)
        changed.append(samples[split][0].bag.path)
        change(changed[0])
        return samples

    monkeypatch.setattr(cli, "_load_samples", load_then_change)
    out = tmp_path / "r.report"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(out)]
                + FAST_TRAIN) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: bag file {changed[0]} changed on disk "
                          f"during the run: ")
    assert "Traceback" not in err
    assert not out.exists()
