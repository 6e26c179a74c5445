"""End-to-end command-line tests: every subcommand plus the exit-code map."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsdmil import cli, training
from wsdmil.bags import Bag, write_bag
from wsdmil.cli import DATA_ROOT_ENV, main
from wsdmil.reports import load_params, read_report
from wsdmil.training import NumericError


GEN_ARGS = ["--splits", "24,8,8", "--dim", "8", "--size-factor", "0.02",
            "--seed", "5"]
FAST_TRAIN = ["--model", "maxmil", "--hidden-dim", "8", "--attention-dim", "4",
              "--epochs", "3", "--seeds", "1,2", "--bootstrap", "50"]


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    assert main(["gen-synthetic", "--out", str(root)] + GEN_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def baseline_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_runs") / "base.report"
    code = main(["train", "--data", str(dataset), "--method", "baseline",
                 "--out", str(out)] + FAST_TRAIN)
    assert code == 0
    return out


# ---- gen-synthetic ----------------------------------------------------------------


def test_gen_synthetic_writes_dataset(dataset, capsys):
    assert (dataset / "manifest.tsv").is_file()
    bags = sorted((dataset / "bags").glob("*.bag"))
    assert len(bags) == 40
    assert main(["consensus-stats", "--data", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "slides: 40" in out
    assert "no_consensus" in out


def test_consensus_stats_counts_only_slides_with_both_scores(dataset, tmp_path,
                                                             capsys):
    lines = (dataset / "manifest.tsv").read_text().splitlines(keepends=True)
    test_row = next(i for i, line in enumerate(lines) if line.endswith("\ttest\n"))
    fields = lines[test_row].split("\t")
    unscored = "\t".join(fields[:3] + ["-"] + fields[4:])
    outputs = []
    for name, rows in (("dash", lines[:test_row] + [unscored] + lines[test_row + 1:]),
                       ("cut", lines[:test_row] + lines[test_row + 1:]),
                       ("none", [lines[0], unscored]), ("empty", [lines[0]])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.tsv").write_text("".join(rows))
        capsys.readouterr()
        code = main(["consensus-stats", "--data", str(tmp_path / name)])
        outputs.append((code, capsys.readouterr()))
    (dash, out), (cut, cut_out), *unscorable = outputs
    assert dash == cut == 0
    assert out.out.splitlines()[:2] == [
        "slides: 40", "slides without a non-expert score, not counted: 1"]
    # the mix is the one of the manifest without that slide
    assert out.out.splitlines()[2:] == cut_out.out.splitlines()[1:]
    for (code, err), name in zip(unscorable, ("none", "empty")):
        assert code == 3
        assert err.err.startswith(
            f"data error: {tmp_path / name / 'manifest.tsv'}: no slide ")


def test_gen_synthetic_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["gen-synthetic", "--out", str(tmp_path / sub)] + GEN_ARGS) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
    name = sorted(p.name for p in (a / "bags").glob("*.bag"))[0]
    assert (a / "bags" / name).read_bytes() == (b / "bags" / name).read_bytes()


def test_gen_synthetic_seed_changes_bytes(tmp_path, dataset):
    args = GEN_ARGS[:-1] + ["6"]
    assert main(["gen-synthetic", "--out", str(tmp_path / "c")] + args) == 0
    assert (tmp_path / "c" / "manifest.tsv").read_bytes() != \
        (dataset / "manifest.tsv").read_bytes()


# One small cohort's bytes and stdout, recorded from the generator that
# formatted each label as text and parsed it back; they must not move.
PINNED_GEN = ["--splits", "8,2,2", "--dim", "4", "--size-factor", "0.02",
              "--seed", "5"]
PINNED_MANIFEST = "72f3dc7190b280ab2cb53cf11e5ae35267f9c18462092deac4741697e798ce02"
PINNED_BAGS = {
    "s00000": "6479ae3825866a8cf872476101b3b6453a9577ae839890db5bff8b1ef687a3bf",
    "s00001": "376c8f12b8c4e8b016f74dc4452e8cacfa452c3670bf3b1595e932063eb3cd61",
    "s00002": "fcbbb0dba951f7dca027e468b4b123be76cd91b6f77f6dc3d1f59cd07b54c131",
    "s00003": "17f0c2a2732843491d8d883594f0f62c9bb7d12cf4a5a97a6f2d99e744d092dc",
    "s00004": "088f5156385968abd7a9c6dbf5a4d02181d531a8e4b3d82932e9a40156fd1533",
    "s00005": "dbd4b1b22c0cda34bc4da316efeddbc7030b7cdb3ee6cf21f778c2f3820b98f9",
    "s00006": "a2bc4292c653e77c87e4ad7d385fc6f52b6b3152f8f6cb73d4201bdd57739526",
    "s00007": "3caff3b74fc30d638494e1964a649a307c51abcfc271d3f7aaf5c0ac261210ba",
    "s00008": "778be5c07b943977470e5f231ad64b64ce15dee7013a37c10ad9cb0d2d67c3c1",
    "s00009": "34b749996a6380b9f774e8efda9bc11237d58b918da0cc1d83f6f8bd46c5dd8a",
    "s00010": "d4888d2240938a1e0d3d5f1cb06f73bddba21b689c4bfae5642ca67a3bd35cea",
    "s00011": "6cf0564f8086f9a691683c1098ec0c89f69e7da8dc411df542b9495825a4c5ab",
}
PINNED_GEN_STDOUT = """\
wrote 12 bags under ds/bags
manifest: ds/manifest.tsv
consensus mix vs calibration targets:
  homogeneous     58.3%  (target 67.7%)
  heterogeneous   33.3%  (target 14.0%)
  no_consensus     8.3%  (target 18.3%)
"""
PINNED_STATS_STDOUT = """\
slides: 12
overall consensus mix:
  homogeneous     58.3%
  heterogeneous   33.3%
  no_consensus     8.3%
per expert class (homogeneous / heterogeneous / no consensus):
  Benign      66.7% /   0.0% /  33.3%   (n=3)
  Gleason 3   60.0% /  40.0% /   0.0%   (n=5)
  Gleason 4   50.0% /  50.0% /   0.0%   (n=4)
  Gleason 5  (no slides)
"""


def test_gen_synthetic_and_consensus_stats_match_pinned_output(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["gen-synthetic", "--out", "ds"] + PINNED_GEN) == 0
    assert capsys.readouterr().out == PINNED_GEN_STDOUT
    assert main(["consensus-stats", "--data", "ds"]) == 0
    assert capsys.readouterr().out == PINNED_STATS_STDOUT
    assert sha256(tmp_path / "ds" / "manifest.tsv") == PINNED_MANIFEST
    assert {p.stem: sha256(p)
            for p in (tmp_path / "ds" / "bags").iterdir()} == PINNED_BAGS


def test_gen_synthetic_usage_errors(tmp_path, capsys):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"),
                 "--splits", "1,2"]) == 2
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"),
                 "--splits", "4,1,1", "--dim", "1"]) == 2
    capsys.readouterr()
    for splits in ("0,0,0", "4,-1,1"):
        assert main(["gen-synthetic", "--out", str(tmp_path / "x"),
                     "--splits", splits]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: at least one slide required",
        "error: split sizes must be non-negative"]
    # a bag header holds n and d as u32; each size is rejected before any draw
    for flag, size in (("--size-factor", "1e308"), ("--size-factor", "4e6"),
                       ("--dim", "4294967296")):
        assert main(["gen-synthetic", "--out", str(tmp_path / "x"),
                     "--splits", "1,0,0", flag, size]) == 2
        assert "is too large: a bag holds at most" in capsys.readouterr().err
    # argparse rejects an unknown flag
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--slides",
                 "12"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_gen_synthetic_out_naming_a_file_is_usage_error_before_any_write(
        tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept")
    assert main(["gen-synthetic", "--out", str(afile), "--splits", "4,2,2",
                 "--dim", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {str(afile)!r} must name a directory, not a file"]
    assert afile.read_bytes() == b"kept"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


# ---- train ------------------------------------------------------------------------


def test_train_writes_report_and_params(baseline_run):
    report = read_report(baseline_run)
    assert report.config["method"] == "baseline"
    assert [s.seed for s in report.seeds] == [1, 2]
    assert 0.0 <= report.mean_balanced_accuracy <= 1.0
    assert report.ci_balanced_accuracy is not None
    for s in report.seeds:
        archive = baseline_run.parent / s.params_path
        assert archive.is_file()
        params, config = load_params(archive)
        assert config.head_kind == "maxmil"
        assert len(s.history) == 3


def test_unit_weighted_run_matches_baseline(dataset, baseline_run, tmp_path):
    out = tmp_path / "unit.report"
    code = main(["train", "--data", str(dataset), "--method", "weighted",
                 "--weights", "1,1,1", "--allow-any-weights",
                 "--out", str(out)] + FAST_TRAIN)
    assert code == 0
    base, unit = read_report(baseline_run), read_report(out)
    for sb, su in zip(base.seeds, unit.seeds):
        assert sb.balanced_accuracy == su.balanced_accuracy
        assert sb.history == su.history
    assert base.mean_balanced_accuracy == unit.mean_balanced_accuracy


def test_train_usage_errors(dataset, tmp_path):
    out = str(tmp_path / "r.report")
    base = ["train", "--data", str(dataset), "--out", out]
    assert main(base + ["--method", "weighted"]) == 2  # weights missing
    assert main(base + ["--method", "baseline", "--weights", "4,3,1"]) == 2
    assert main(base + ["--method", "multitask", "--weights", "4,3,1"]) == 2
    assert main(base + ["--method", "baseline", "--beta", "7"]) == 2
    assert main(base + ["--method", "weighted", "--weights", "1,1,1"]) == 2
    assert main(base + ["--method", "weighted", "--weights", "4,3"]) == 2
    assert main(base + ["--seeds", ""]) == 2
    assert main(base + ["--epochs", "0"]) == 2
    assert main(["train", "--out", out]) == 2  # no --data and no env


def test_resample_counts_below_one_are_usage_errors(baseline_run, dataset,
                                                    tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "train", None)          # any training call would fail
    monkeypatch.setattr(cli, "read_manifest", None)  # and so would a manifest read
    out = tmp_path / "r.report"
    capsys.readouterr()
    assert main(["train", "--data", str(dataset), "--out", str(out)]
                + FAST_TRAIN + ["--bootstrap", "0"]) == 2
    assert main(["eval", str(baseline_run), "--compare", str(baseline_run),
                 "--permutations", "0"]) == 2
    assert main(["eval", str(baseline_run), "--bootstrap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --bootstrap must be >= 1, got 0",
                                         "error: --permutations must be >= 1, got 0",
                                         "error: --bootstrap must be >= 1, got -1"]
    assert captured.out == ""
    assert not out.exists()


def test_train_mixed_feature_dims_fail_before_training(tmp_path, capsys):
    root = tmp_path / "mixed"
    assert main(["gen-synthetic", "--out", str(root), "--splits", "4,2,2",
                 "--dim", "8", "--size-factor", "0.02", "--seed", "5"]) == 0
    manifest = root / "manifest.tsv"
    rows = [line.split("\t") for line in manifest.read_text().splitlines()
            if not line.startswith("#")]
    slide, bag_file = next((r[0], r[1]) for r in rows if r[4] == "val")
    wide = Bag(slide_id=slide, features=np.ones((3, 9)),
               coords=np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int64))
    write_bag(wide, root / bag_file)
    capsys.readouterr()
    out = tmp_path / "r.report"
    assert main(["train", "--data", str(root), "--out", str(out)]
                + FAST_TRAIN) == 3
    captured = capsys.readouterr()
    assert f"slide {slide} has feature dim 9" in captured.err
    assert str(manifest) in captured.err
    assert "seed" not in captured.out  # no seed began training
    assert not out.exists()


def test_train_duplicate_coordinates_fail_before_training(tmp_path, capsys,
                                                         monkeypatch):
    root = tmp_path / "dup"
    assert main(["gen-synthetic", "--out", str(root), "--splits", "4,2,2",
                 "--dim", "8", "--size-factor", "0.05", "--seed", "5"]) == 0
    rows = [line.split("\t") for line in
            (root / "manifest.tsv").read_text().splitlines()
            if not line.startswith("#")]
    slide, path = next((r[0], root / r[1]) for r in rows if r[4] == "test")
    raw = bytearray(path.read_bytes())
    n, d = struct.unpack_from("<II", raw, 8)
    coords_at = 16 + 4 * n * d
    raw[coords_at + 8 * (n - 1):] = raw[coords_at:coords_at + 8]  # last = first
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(cli, "train", None)    # any training call would fail
    out = tmp_path / "r.report"
    capsys.readouterr()
    assert main(["train", "--data", str(root), "--out", str(out)]
                + FAST_TRAIN) == 3
    err = capsys.readouterr().err
    assert f"bag {slide}: duplicate patch coordinate" in err
    assert f"at instance {n - 1}" in err
    assert not out.exists()


def test_loaded_bags_hold_float32_features_only(tmp_path):
    root = tmp_path / "wide"
    assert main(["gen-synthetic", "--out", str(root), "--splits", "6,3,3",
                 "--dim", "256", "--size-factor", "0.05", "--seed", "2"]) == 0
    samples = cli._load_samples(root / "manifest.tsv", "train", "val", "test")
    bags = [s.bag for split in samples.values() for s in split]
    assert len(bags) == 12
    assert {bag.features.dtype for bag in bags} == {np.dtype(np.float32)}
    assert sum(bag.features.nbytes for bag in bags) == \
        4 * sum(bag.n * bag.d for bag in bags)


def test_train_env_var_supplies_data_root(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_ROOT_ENV, str(dataset))
    out = tmp_path / "env.report"
    assert main(["train", "--method", "baseline", "--out", str(out),
                 "--model", "maxmil", "--hidden-dim", "8", "--attention-dim", "4",
                 "--epochs", "1", "--seeds", "1", "--bootstrap", "20"]) == 0
    assert out.is_file()


@pytest.mark.parametrize("args,field", [
    (["train", "--lr", "nan"], "learning_rate"),
    (["train", "--lr", "inf"], "learning_rate"),
    (["train", "--method", "multitask", "--alpha", "nan"], "alpha"),
    (["train", "--method", "multitask", "--beta", "inf"], "beta"),
    (["train", "--method", "weighted", "--weights", "inf,1,1",
      "--allow-any-weights"], "no_consensus"),
    (["grid", "--method", "multitask", "--points", "(nan,1)"], "alpha"),
    (["gen-synthetic", "--noise-sigma", "nan"], "noise_sigma"),
    (["gen-synthetic", "--size-factor", "inf"], "size_factor"),
], ids=["lr-nan", "lr-inf", "alpha-nan", "beta-inf", "weights-inf", "grid-ab-nan",
        "noise-sigma-nan", "size-factor-inf"])
def test_non_finite_values_are_usage_errors_before_any_io(args, field, tmp_path,
                                                          capsys):
    if args[0] == "gen-synthetic":
        args = args + ["--out", str(tmp_path)]
    else:  # reading the missing data root would be a data error, exit 3
        args = args + ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    assert list(tmp_path.iterdir()) == []


def _no_read(path, *args):
    raise AssertionError(f"read {path}")


@pytest.mark.parametrize("args", [
    ["train", "--hidden-dim", "0"],
    ["grid", "--method", "multitask", "--attention-dim", "0"],
], ids=["train-hidden-dim", "grid-attention-dim"])
def test_model_flags_are_usage_errors_before_any_read(args, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(cli, "read_manifest", _no_read)
    assert main(args + ["--data", str(tmp_path / "data"),
                        "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "must be >= 1" in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["train"], ["grid", "--method", "multitask"]],
                         ids=["train", "grid"])
def test_repeated_seed_is_usage_error_before_any_read(args, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(cli, "read_manifest", _no_read)
    assert main(args + ["--seeds", "1,2,1", "--data", str(tmp_path / "data"),
                        "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad seed list '1,2,1': a seed is repeated"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,message", [
    (["train", "--seeds", "-1"], "--seeds must be >= 0, got -1"),
    (["grid", "--method", "multitask", "--seeds", "3,-2"],
     "--seeds must be >= 0, got -2"),
    (["train", "--stats-seed", "-1"], "--stats-seed must be >= 0, got -1"),
    (["eval", "r.report", "--stats-seed", "-1"], "--stats-seed must be >= 0, got -1"),
    (["gen-synthetic", "--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["train-seeds", "grid-seeds", "train-stats-seed", "eval-stats-seed",
        "gen-synthetic-seed"])
def test_negative_seed_is_usage_error_before_any_io(args, message, tmp_path,
                                                    monkeypatch, capsys):
    for name in ("read_manifest", "read_report", "load_params", "generate_synthetic"):
        monkeypatch.setattr(cli, name, _no_read)
    if args[0] == "eval":
        args = [args[0], str(tmp_path / args[1])] + args[2:]
    elif args[0] == "gen-synthetic":
        args = args + ["--out", str(tmp_path / "out")]
    else:
        args = args + ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_non_integer_seed_is_usage_error_before_any_read(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(cli, "read_manifest", _no_read)
    assert main(["train", "--seeds", "1,x", "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: bad seed list '1,x'"]
    assert list(tmp_path.iterdir()) == []


def test_train_missing_data_dir_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "r.report")]) == 3


def test_undecodable_manifest_is_data_error_naming_it(dataset, tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"# \xff" + (dataset / "manifest.tsv").read_bytes())
    capsys.readouterr()
    assert main(["consensus-stats", "--data", str(tmp_path)]) == 3
    assert main(["train", "--data", str(tmp_path),
                 "--out", str(tmp_path / "r.report")] + FAST_TRAIN) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {manifest}: 'utf-8' codec can't decode byte "
                   f"0xff in position 2: invalid start byte"] * 2


def test_manifest_with_byte_order_mark_reads_as_without(dataset, tmp_path,
                                                        capsys):
    bom = tmp_path / "bom"
    bom.mkdir()
    (bom / "bags").symlink_to(dataset / "bags")
    raw = (dataset / "manifest.tsv").read_bytes()
    (bom / "manifest.tsv").write_bytes(b"\xef\xbb\xbf" + raw)
    outputs = []
    for root in (dataset, bom):
        capsys.readouterr()
        assert main(["consensus-stats", "--data", str(root)]) == 0
        assert main(["train", "--data", str(root), "--out",
                     str(tmp_path / root.name / "r.report")] + FAST_TRAIN) == 0
        out = capsys.readouterr().out.replace(str(tmp_path / root.name), "OUT")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # the fingerprint still hashes the bytes, mark included
    report = read_report(tmp_path / "bom" / "r.report")
    assert report.fingerprint == hashlib.sha256(b"\xef\xbb\xbf" + raw).hexdigest()


@pytest.mark.parametrize("args", [["train"], ["grid", "--method", "multitask"]],
                         ids=["train", "grid"])
@pytest.mark.parametrize("out", ["existing", "slash"])
def test_out_naming_a_directory_is_usage_error_before_any_read(
        args, out, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "read_manifest", _no_read)
    target = tmp_path / "runs"
    target.mkdir()
    path = str(target) if out == "existing" else str(tmp_path / "new") + os.sep
    assert main(args + ["--data", str(tmp_path / "data"), "--out", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {path!r} must name a file, not a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["runs"]
    assert list(target.iterdir()) == []


def test_train_runaway_lr_is_numeric_error(dataset, tmp_path):
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(dataset), "--lr", "1e200",
                     "--out", str(tmp_path / "r.report")] + FAST_TRAIN)
    assert code == 4


def test_non_finite_adam_gradient_is_numeric_error_naming_where(
        dataset, tmp_path, monkeypatch, capsys):
    def failing_adam(state, params, lr):
        raise NumericError("non-finite gradient in parameter cls.w")

    monkeypatch.setattr(training, "adam_step", failing_adam)
    capsys.readouterr()
    assert main(["train", "--data", str(dataset),
                 "--out", str(tmp_path / "r.report")] + FAST_TRAIN) == 4
    assert main(["grid", "--data", str(dataset), "--method", "multitask",
                 "--points", "(1,0)", "--epochs", "1", "--seeds", "1",
                 "--out", str(tmp_path / "grid.txt")]) == 4
    train_err, grid_err = capsys.readouterr().err.splitlines()
    where = r"epoch 0, slide s\d+: non-finite gradient in parameter cls\.w"
    assert re.fullmatch(f"numeric failure: {where}", train_err)
    assert re.fullmatch(rf"numeric failure: grid point TrainConfig\(.*\): {where}",
                        grid_err)
    assert list(tmp_path.iterdir()) == []


def test_failed_train_creates_no_out_directory(dataset, tmp_path):
    # a directory is made only when a file is written into it
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(dataset), "--lr", "1e200", "--out",
                     str(tmp_path / "fail" / "sub" / "r.report")] + FAST_TRAIN)
    assert code == 4
    assert list(tmp_path.iterdir()) == []


# ---- grid -------------------------------------------------------------------------


def test_grid_weighted_prints_table(dataset, capsys):
    code = main(["grid", "--data", str(dataset), "--method", "weighted",
                 "--points", "(1,1,1);(4,3,1)", "--model", "maxmil",
                 "--hidden-dim", "8", "--attention-dim", "4",
                 "--epochs", "2", "--seeds", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(1,1,1)" in out and "(4,3,1)" in out
    assert "best:" in out


def test_grid_multitask_writes_table_file(dataset, tmp_path, capsys):
    table = tmp_path / "grid.txt"
    code = main(["grid", "--data", str(dataset), "--method", "multitask",
                 "--points", "(1,0);(1,1)", "--model", "maxmil",
                 "--hidden-dim", "8", "--attention-dim", "4",
                 "--epochs", "2", "--seeds", "1", "--out", str(table)])
    assert code == 0
    text = table.read_text()
    assert "bal_acc" in text and "w_f1" in text
    assert "*" in text.splitlines()[1]


def test_grid_failed_table_write_keeps_the_old_table(dataset, tmp_path,
                                                    disk_full, capsys):
    table = tmp_path / "grid.txt"
    table.write_text("old table\n")
    assert main(["grid", "--data", str(dataset), "--method", "multitask",
                 "--points", "(1,0)", "--model", "maxmil", "--hidden-dim", "8",
                 "--attention-dim", "4", "--epochs", "1", "--seeds", "1",
                 "--out", str(table)]) == 3
    assert "disk full" in capsys.readouterr().err
    assert table.read_text() == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["grid.txt"]


def test_grid_out_creates_its_directory(dataset, tmp_path, capsys):
    table = tmp_path / "new" / "dir" / "grid.txt"
    assert main(["grid", "--data", str(dataset), "--method", "multitask",
                 "--points", "(1,0)", "--model", "maxmil", "--hidden-dim", "8",
                 "--attention-dim", "4", "--epochs", "1", "--seeds", "1",
                 "--out", str(table)]) == 0
    assert capsys.readouterr().out.endswith(f"table: {table}\n")
    assert "bal_acc" in table.read_text()


def test_grid_rejects_bad_points(dataset, tmp_path, capsys):
    common = ["grid", "--data", str(dataset), "--epochs", "1", "--seeds", "1",
              "--out", str(tmp_path / "grid.txt")]
    capsys.readouterr()
    assert main(common + ["--method", "multitask", "--points", "(1)"]) == 2
    assert main(common + ["--method", "weighted", "--points", "(1,2)"]) == 2
    assert main(common + ["--method", "multitask", "--points", "(1,x)"]) == 2
    assert main(common + ["--method", "weighted", "--points", ";"]) == 2
    assert main(common + ["--method", "weighted", "--points", ""]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad point '(1)': expected 2 comma-separated numbers",
        "error: bad point '(1,2)': expected 3 comma-separated numbers",
        "error: bad point '(1,x)': expected 2 comma-separated numbers",
        "error: empty grid ';'", "error: empty grid ''"]
    # argparse rejects an unknown flag
    assert main(common + ["--method", "multitask", "--grid-ab", "(1,0)"]) == 2
    assert list(tmp_path.iterdir()) == []


# ---- eval -------------------------------------------------------------------------


def test_eval_reproduces_report(baseline_run, capsys):
    assert main(["eval", str(baseline_run), "--bootstrap", "50"]) == 0
    out = capsys.readouterr().out
    assert "report metrics reproduced for seeds 1,2" in out
    assert "slides: 8 (test); seeds: 2" in out
    assert "balanced accuracy:" in out


def test_eval_self_compare_p_is_one(baseline_run, capsys):
    code = main(["eval", str(baseline_run), "--compare", str(baseline_run),
                 "--bootstrap", "50", "--permutations", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "p-value" in out
    assert "1.0000" in out


def test_eval_params_archive_needs_manifest(baseline_run, dataset, monkeypatch,
                                            capsys):
    archive = baseline_run.parent / "base_params_seed1.npz"
    with monkeypatch.context() as patch:  # refused before the archive is read
        patch.setattr(cli, "load_params", _no_read)
        assert main(["eval", str(archive)]) == 2
    assert capsys.readouterr().err == ("error: no data directory: pass --data "
                                       f"or set {DATA_ROOT_ENV}\n")
    assert main(["eval", str(archive), "--data", str(dataset),
                 "--bootstrap", "50"]) == 0
    out = capsys.readouterr().out
    assert "seeds: 1" in out


def test_parser_exits_are_returned_not_raised(baseline_run, dataset, capsys):
    # eval and consensus-stats read --data's manifest; --manifest is unknown
    assert main(["eval", str(baseline_run), "--manifest",
                 str(dataset / "manifest.tsv")]) == 2
    assert main(["consensus-stats", "--manifest",
                 str(dataset / "manifest.tsv")]) == 2
    assert "unrecognized arguments: --manifest" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wsdmil")


def test_module_entry_point_runs_main():
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "wsdmil.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: wsdmil")


def test_eval_env_data_root_stands_in_for_data_on_an_archive_only(
        baseline_run, tmp_path, monkeypatch, capsys):
    other = tmp_path / "other"
    assert main(["gen-synthetic", "--out", str(other)] + GEN_ARGS[:-1] + ["6"]) == 0
    monkeypatch.setenv(DATA_ROOT_ENV, str(other))
    capsys.readouterr()
    assert main(["eval", str(baseline_run), "--bootstrap", "20"]) == 0
    assert "report metrics reproduced for seeds 1,2" in capsys.readouterr().out
    assert main(["eval", str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bootstrap", "20"]) == 0
    assert "slides: 8 (test); seeds: 1" in capsys.readouterr().out


def test_eval_split_selector(baseline_run, capsys):
    assert main(["eval", str(baseline_run), "--split", "val",
                 "--bootstrap", "50"]) == 0
    assert "slides: 8 (val)" in capsys.readouterr().out


def test_eval_split_with_no_slides_is_data_error(baseline_run, tmp_path, capsys):
    data = tmp_path / "noval"
    assert main(["gen-synthetic", "--out", str(data), "--splits", "4,0,2",
                 "--dim", "8", "--size-factor", "0.02"]) == 0
    capsys.readouterr()
    assert main(["eval", str(baseline_run.parent / "base_params_seed1.npz"),
                 "--data", str(data), "--split", "val"]) == 3
    assert capsys.readouterr().err == (f"data error: no val slides in "
                                       f"{data / 'manifest.tsv'}\n")


def test_train_with_no_val_slides_fails_before_reading_a_bag(tmp_path, capsys,
                                                            monkeypatch):
    data = tmp_path / "noval"
    assert main(["gen-synthetic", "--out", str(data), "--splits", "10,0,10",
                 "--dim", "8", "--size-factor", "0.02"]) == 0
    reads = []
    real_read = training.read_bag
    monkeypatch.setattr(training, "read_bag",
                        lambda *args: reads.append(args) or real_read(*args))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out",
                 str(tmp_path / "r.report")] + FAST_TRAIN) == 3
    assert capsys.readouterr().err == (f"data error: no val slides in "
                                       f"{data / 'manifest.tsv'}\n")
    assert reads == []


def test_eval_detects_manifest_drift(baseline_run, dataset, tmp_path, capsys):
    edited = tmp_path / "manifest.tsv"
    edited.write_bytes((dataset / "manifest.tsv").read_bytes() + b"# note\n")
    assert main(["eval", str(baseline_run), "--data", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {baseline_run}: [data] fingerprint ")


def _copy_run(baseline_run, target):
    """The baseline report's lines, with its params archives copied to
    ``target``'s directory."""
    for seed in (1, 2):
        archive = f"base_params_seed{seed}.npz"
        (target.parent / archive).write_bytes(
            (baseline_run.parent / archive).read_bytes())
    return baseline_run.read_text().splitlines(keepends=True)


def test_eval_report_missing_key_is_data_error(baseline_run, tmp_path, capsys):
    report = tmp_path / "base.report"
    report.write_text("".join(line for line in _copy_run(baseline_run, report)
                              if not line.startswith("weighted_f1:")))
    assert main(["eval", str(report)]) == 3
    err = capsys.readouterr().err
    assert f"{report}: [seed 1] has no 'weighted_f1'" in err


def test_eval_report_with_missing_archive_is_data_error_naming_it(
        baseline_run, tmp_path, capsys):
    report = tmp_path / "base.report"
    report.write_text("".join(_copy_run(baseline_run, report)))
    (tmp_path / "base_params_seed1.npz").unlink()
    capsys.readouterr()
    assert main(["eval", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(tmp_path / "base_params_seed1.npz") in err


def test_undecodable_report_is_data_error_naming_it(baseline_run, tmp_path,
                                                    capsys):
    report = tmp_path / "base.report"
    report.write_bytes(b"\xff" + "".join(_copy_run(baseline_run, report)).encode())
    assert main(["eval", str(report)]) == 3
    assert capsys.readouterr().err == (f"data error: {report}: 'utf-8' codec can't "
                                       f"decode byte 0xff in position 0: invalid "
                                       f"start byte\n")


@pytest.mark.parametrize("section, key, value", [
    ("seed 1", "balanced_accuracy", "0.99"),
    ("seed 2", "weighted_f1", "0.99"),
    ("seed 1", "per_class", "0.5,0.5,0.5,0.5"),
    ("mean", "balanced_accuracy", "0.99"),
    ("mean", "weighted_f1", "0.99"),
])
def test_eval_edited_report_number_is_data_error(baseline_run, tmp_path, capsys,
                                                 section, key, value):
    report = tmp_path / "base.report"
    lines = _copy_run(baseline_run, report)
    start = lines.index(f"[{section}]\n")
    at = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key}:"))
    lines[at] = f"{key}: {value}\n"
    report.write_text("".join(lines))
    capsys.readouterr()
    assert main(["eval", str(report), "--bootstrap", "20"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {report}: [{section}] {key} ")
    assert " should be " in err


@pytest.fixture(scope="module")
def multitask_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_mt") / "mt.report"
    assert main(["train", "--data", str(dataset), "--model", "abmil",
                 "--hidden-dim", "8", "--attention-dim", "4", "--method",
                 "multitask", "--seeds", "1,2", "--epochs", "2",
                 "--bootstrap", "20", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("pattern, replacement, where", [
    (r"hidden_dim: 8\n", "hidden_dim: 64\n", "[config] hidden_dim"),
    (r"model: abmil\n", "model: dsmil\n", "[config] model"),
    (r"seeds: 1,2\n", "seeds: 7\n", "[config] seeds"),
    (r"method: multitask\n", "method: baseline\n", "[config] method"),
    (r"epochs: 2\n", "epochs: 9\n", "[config] epochs"),
    (r"input_dim: 8\n", "", "[config] has no 'input_dim'"),
    (r"(\[history 1\]\n.*\n).*\n", r"\1", "[config] epochs"),
    (r"(\[history 1\]\n)(.*\n)", r"\1\2\2", "[history 1] epochs"),
    (r"best_epoch: \d+", "best_epoch: 2", "[seed 1] best_epoch"),
], ids=["hidden-dim", "model", "seeds", "method", "epochs", "no-input-dim",
        "history-row-deleted", "history-row-repeated", "best-epoch-past-history"])
def test_eval_report_disagreeing_with_its_archives_is_data_error(
        multitask_run, tmp_path, capsys, pattern, replacement, where):
    for seed in (1, 2):
        archive = f"mt_params_seed{seed}.npz"
        (tmp_path / archive).write_bytes((multitask_run.parent / archive).read_bytes())
    report = tmp_path / "mt.report"
    edited, count = re.subn(pattern, replacement, multitask_run.read_text(), count=1)
    assert count == 1
    report.write_text(edited)
    capsys.readouterr()
    assert main(["eval", str(report), "--bootstrap", "20"]) == 3
    captured = capsys.readouterr()
    assert "reproduced" not in captured.out
    assert captured.err.startswith(f"data error: {report}: {where}")


def test_eval_names_the_archive_a_report_disagrees_with(multitask_run, dataset,
                                                        tmp_path, capsys):
    # seed 2's archive is swapped for the archive of a hidden_dim 6 run
    other = tmp_path / "other" / "mt.report"
    assert main(["train", "--data", str(dataset), "--model", "abmil",
                 "--hidden-dim", "6", "--attention-dim", "4", "--method",
                 "multitask", "--seeds", "2", "--epochs", "2",
                 "--bootstrap", "20", "--out", str(other)]) == 0
    for seed, run in ((1, multitask_run), (2, other)):
        archive = f"mt_params_seed{seed}.npz"
        (tmp_path / archive).write_bytes((run.parent / archive).read_bytes())
    report = tmp_path / "mt.report"
    report.write_text(multitask_run.read_text())
    capsys.readouterr()
    assert main(["eval", str(report), "--bootstrap", "20"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {report}: [config] hidden_dim '8' should be '6' "
        f"(archive {tmp_path / 'mt_params_seed2.npz'})\n")


def test_eval_names_the_history_a_report_epochs_disagrees_with(multitask_run,
                                                              tmp_path, capsys):
    # seed 2's history gains a third epoch row in a 2-epoch report
    for seed in (1, 2):
        archive = f"mt_params_seed{seed}.npz"
        (tmp_path / archive).write_bytes((multitask_run.parent / archive).read_bytes())
    report = tmp_path / "mt.report"
    edited, count = re.subn(r"(\[history 2\]\n(?:.*\n){2})", r"\g<1>2 1.35 0.2\n",
                            multitask_run.read_text(), count=1)
    assert count == 1
    report.write_text(edited)
    capsys.readouterr()
    assert main(["eval", str(report), "--bootstrap", "20"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {report}: [config] epochs '2' should be '3' ([history 2])\n")


def test_eval_reproduces_report_at_other_bootstrap_settings(baseline_run, capsys):
    # the CI offsets depend on these flags, so eval does not compare them
    assert main(["eval", str(baseline_run), "--bootstrap", "30",
                 "--stats-seed", "4"]) == 0
    assert "report metrics reproduced for seeds 1,2" in capsys.readouterr().out


def _rewrite(source, archive, **changes):
    """Copy a params archive with some arrays replaced; None drops one."""
    with np.load(source) as data:
        arrays = {name: data[name] for name in data.files}
    arrays.update(changes)
    np.savez(archive, **{k: v for k, v in arrays.items() if v is not None})


def _truncated(source, archive):
    archive.write_bytes(source.read_bytes()[:source.stat().st_size // 2])


def _config_with_unknown_key(source, archive):
    with np.load(source) as data:
        config = json.loads(str(data["__model_config__"]))
    _rewrite(source, archive, __model_config__=np.array(json.dumps(
        {**config, "depth": 3})))


def _without_cls_bias(source, archive):
    _rewrite(source, archive, **{"cls.b": None})


def _cls_bias_of_wrong_shape(source, archive):
    _rewrite(source, archive, **{"cls.b": np.zeros((1, 8))})


@pytest.mark.parametrize("corrupt", [_truncated, _config_with_unknown_key,
                                     _without_cls_bias, _cls_bias_of_wrong_shape])
def test_malformed_params_archive_is_data_error(corrupt, baseline_run, dataset,
                                                tmp_path, capsys):
    archive = tmp_path / "bad.npz"
    corrupt(baseline_run.parent / "base_params_seed1.npz", archive)
    bag = sorted((dataset / "bags").glob("*.bag"))[0]
    capsys.readouterr()
    assert main(["eval", str(archive), "--data", str(dataset)]) == 3
    assert main(["attn-map", "--params", str(archive), "--bag", str(bag),
                 "--out-prefix", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith(f"data error: {archive} ") for line in err)


def test_eval_rejects_model_of_other_input_dim_before_predicting(tmp_path,
                                                                  monkeypatch,
                                                                  capsys):
    archives, manifests = {}, {}
    for dim in (8, 6):
        data = tmp_path / f"d{dim}"
        assert main(["gen-synthetic", "--out", str(data), "--splits", "8,4,4",
                     "--dim", str(dim), "--size-factor", "0.02",
                     "--seed", "5"]) == 0
        assert main(["train", "--data", str(data),
                     "--out", str(tmp_path / f"r{dim}.report")]
                    + FAST_TRAIN + ["--epochs", "1", "--seeds", "1"]) == 0
        archives[dim] = tmp_path / f"r{dim}_params_seed1.npz"
        manifests[dim] = data / "manifest.tsv"
    monkeypatch.setattr(cli, "predict_classes", None)  # a prediction would fail
    capsys.readouterr()
    assert main(["eval", str(archives[8]), "--data", str(tmp_path / "d6")]) == 3
    err = capsys.readouterr().err
    assert f"{archives[8]} has model input dim 8, but slide " in err
    assert f"in {manifests[6]} has feature dim 6" in err
    assert main(["eval", str(archives[8]), "--data", str(tmp_path / "d8"),
                 "--compare", str(archives[6])]) == 3
    err = capsys.readouterr().err
    assert f"{archives[6]} has model input dim 6, but slide " in err
    assert f"in {manifests[8]} has feature dim 8" in err


# Statistics recorded before the permutation test and the bootstrap were
# rewritten to count and to resample arrays; they must not move by one bit.
GOLDEN_GEN = ["--splits", "24,8,48", "--dim", "8", "--size-factor", "0.02",
              "--seed", "5"]
GOLDEN_TRAIN = ["--hidden-dim", "8", "--attention-dim", "4", "--epochs", "3",
                "--seeds", "1,2", "--bootstrap", "200"]
GOLDEN_CI = {
    "base": ((-0.08054933271385467, 0.05504278753045205),
             (-0.051422275237567594, 0.05618962594635868)),
    "wsd": ((-0.05027819300797243, 0.054353439911803914),
            (-0.08284641143818211, 0.09233027043584707)),
}
# 9999 permutations make p = k / 10000, so four printed decimals are exact
GOLDEN_P = {"balanced_accuracy_diff": "0.0079 *", "accuracy_diff": "0.0552"}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen-synthetic", "--out", str(root / "ds")] + GOLDEN_GEN) == 0
    data = ["--data", str(root / "ds")]
    assert main(["train", *data, "--model", "maxmil",
                 "--out", str(root / "base.report")] + GOLDEN_TRAIN) == 0
    assert main(["train", *data, "--model", "abmil", "--lr", "0.01",
                 "--method", "weighted", "--weights", "4,3,1",
                 "--out", str(root / "wsd.report")] + GOLDEN_TRAIN) == 0
    return root


def test_report_bootstrap_cis_match_golden_values(golden_runs):
    for name, (ci_ba, ci_f1) in GOLDEN_CI.items():
        report = read_report(golden_runs / f"{name}.report")
        assert report.ci_balanced_accuracy == ci_ba
        assert report.ci_weighted_f1 == ci_f1


@pytest.mark.parametrize("statistic", sorted(GOLDEN_P))
def test_eval_compare_matches_golden_values(golden_runs, statistic, capsys):
    capsys.readouterr()
    base = golden_runs / "base.report"
    assert main(["eval", str(golden_runs / "wsd.report"), "--compare", str(base),
                 "--bootstrap", "200", "--permutations", "9999",
                 "--statistic", statistic]) == 0
    out = capsys.readouterr().out
    assert "slides: 48 (test); seeds: 2" in out
    assert "weighted F1:       29.1 (-8.3, +9.2)" in out
    assert out.rstrip().endswith(
        f"paired permutation p-value vs {base}: {GOLDEN_P[statistic]}")


def test_eval_compare_checks_fingerprint_of_second_report(golden_runs,
                                                          baseline_run, capsys):
    assert main(["eval", str(golden_runs / "wsd.report"),
                 "--compare", str(baseline_run), "--bootstrap", "20"]) == 3
    assert "fingerprint" in capsys.readouterr().err


def test_eval_compare_rejects_different_seed_counts(golden_runs, capsys):
    one_seed = golden_runs / "one_seed.report"
    assert main(["train", "--data", str(golden_runs / "ds"), "--model", "maxmil",
                 "--out", str(one_seed)] + GOLDEN_TRAIN + ["--seeds", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", str(golden_runs / "wsd.report"), "--compare",
                 str(one_seed), "--bootstrap", "20"]) == 3
    assert "different seed counts (2 vs 1)" in capsys.readouterr().err


# ---- attn-map ---------------------------------------------------------------------


def test_attn_map_exports_table_and_pgm(baseline_run, dataset, tmp_path, capsys):
    bag = sorted((dataset / "bags").glob("*.bag"))[0]
    prefix = tmp_path / "viz" / "slide"
    code = main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(bag), "--out-prefix", str(prefix)])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted" in out
    table = prefix.with_suffix(".txt").read_text().splitlines()
    assert table[0] == "# x\ty\tweight"
    assert prefix.with_suffix(".pgm").read_bytes().startswith(b"P5\n")


def test_attn_map_keeps_a_dotted_prefix_whole(baseline_run, dataset, tmp_path,
                                              capsys):
    archive = baseline_run.parent / "base_params_seed1.npz"
    bags = sorted((dataset / "bags").glob("*.bag"))[:2]
    for bag in bags:
        assert main(["attn-map", "--params", str(archive), "--bag", str(bag),
                     "--out-prefix", str(tmp_path / "viz" / f"abmil.{bag.stem}")]) == 0
    assert sorted(p.name for p in (tmp_path / "viz").iterdir()) == sorted(
        f"abmil.{bag.stem}{ext}" for bag in bags for ext in (".pgm", ".txt"))
    out = capsys.readouterr().out
    assert f"attention table: {tmp_path / 'viz' / 'abmil.'}{bags[1].stem}.txt" in out


@pytest.mark.parametrize("prefix", ["slash", "existing"])
def test_attn_map_prefix_naming_a_directory_is_usage_error(baseline_run, dataset,
                                                          tmp_path, capsys, prefix):
    viz = tmp_path / "viz"
    viz.mkdir()
    text = str(viz) + os.sep if prefix == "slash" else str(viz)
    bag = sorted((dataset / "bags").glob("*.bag"))[0]
    assert main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(bag), "--out-prefix", text]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out-prefix {text!r} must name a file, not a directory"]
    assert list(tmp_path.iterdir()) == [viz]
    assert list(viz.iterdir()) == []


def test_attn_map_single_instance_is_full_brightness(baseline_run, tmp_path):
    bag = Bag(slide_id="one",
              features=np.zeros((1, 8)),
              coords=np.array([[3, 4]], dtype=np.int64))
    path = tmp_path / "one.bag"
    write_bag(bag, path)
    prefix = tmp_path / "one"
    assert main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(path), "--out-prefix", str(prefix)]) == 0
    data = prefix.with_suffix(".pgm").read_bytes()
    assert data == b"P5\n1 1\n255\n\xff"


def test_attn_map_uniform_bag_is_mid_gray(baseline_run, tmp_path):
    features = np.tile(np.linspace(-1, 1, 8), (2, 1))
    bag = Bag(slide_id="twin", features=features,
              coords=np.array([[0, 0], [0, 1]], dtype=np.int64))
    path = tmp_path / "twin.bag"
    write_bag(bag, path)
    prefix = tmp_path / "twin"
    assert main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(path), "--out-prefix", str(prefix)]) == 0
    grid = prefix.with_suffix(".pgm").read_bytes()[len(b"P5\n2 1\n255\n"):]
    assert grid == b"\x80\x80"


def test_attn_map_rejects_bag_of_other_dim_naming_both_files(baseline_run, tmp_path,
                                                            monkeypatch, capsys):
    path = tmp_path / "narrow.bag"
    write_bag(Bag(slide_id="narrow", features=np.zeros((3, 6)),
                  coords=np.array([[0, 0], [0, 1], [1, 0]])), path)
    archive = baseline_run.parent / "base_params_seed1.npz"
    monkeypatch.setattr(cli, "forward_bag", None)  # a forward pass would fail
    capsys.readouterr()
    assert main(["attn-map", "--params", str(archive), "--bag", str(path),
                 "--out-prefix", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == (f"data error: {archive} has model input dim "
                                       f"8, but bag {path} has feature dim 6\n")
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("coords", [[[0, 0], [2**31 - 1, 2**31 - 1]],
                                    [[-2**31, 0], [2**31 - 1, 0]]],
                         ids=["2**31-square", "2**32-row"])
def test_attn_map_rejects_an_oversized_grid_naming_the_bag(baseline_run, tmp_path,
                                                           capsys, coords):
    path = tmp_path / "wide.bag"
    write_bag(Bag(slide_id="wide", features=np.zeros((2, 8)), coords=coords), path)
    capsys.readouterr()
    assert main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(path), "--out-prefix", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: bag {path}: patch coordinates span ")
    assert err.endswith(f"cells, more than the {2**24} of a heatmap\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.bag"]


def test_attn_map_missing_bag_is_data_error(baseline_run, tmp_path):
    assert main(["attn-map", "--params",
                 str(baseline_run.parent / "base_params_seed1.npz"),
                 "--bag", str(tmp_path / "missing.bag"),
                 "--out-prefix", str(tmp_path / "x")]) == 3


# ---- pinned attention and grid bytes ----------------------------------------------


# attn-map's table and heatmap for each head on one bag, and both methods' grid
# tables, on one tiny cohort; these files must not move by a byte.
PINNED_VIEW_GEN = ["--splits", "24,12,4", "--dim", "6", "--size-factor", "0.05",
                   "--seed", "9"]
PINNED_VIEW_FIT = ["--hidden-dim", "6", "--attention-dim", "3", "--epochs", "3",
                   "--lr", "0.02"]
PINNED_VIEW_FILES = {
    "maxmil.txt": "d5c8ff65c217d5c2fbcf58de7518f0de73f126d1a3638895d00d17c60a2441ee",
    "maxmil.pgm": "aa36d9bd243f5b47285f094920ee161a5f1ab6701f33e74f7b3808ab84693ed0",
    "abmil.txt": "c1b8a08b62c949cb558450a88d4a039ad3938fecc57261c10cc386d99847a138",
    "abmil.pgm": "35316d8b2dcbfaefe5f8ac6208fb5720137ee88d83762dcd21eb65825361af3e",
    "gated_abmil.txt": "ccde3e2d0cc49664903fdc9c7d7eb286483fbdac8b1eb89bae77abb60c2432e5",
    "gated_abmil.pgm": "c91ad3084232b3e5c52a0e35eb8290a8b75602a2e9366eddb64deeeb1eabd4ef",
    "dsmil.txt": "fa69e238989c50d1bcd07903c9cc86b082a38bfdcc940171fcfd2ac40bf538cb",
    "dsmil.pgm": "5bc4805a1a918c3114c9b5ab7bc3f4f3bd8fbbfbeeb987a8365f77c73817fc82",
    "multitask.grid": "be84d8687dee38b07457653db95dd15b7c7580be77d10d5321c769d547535e93",
    "weighted.grid": "79399da2c63a7caf31b6f45282274e3da655ba01d36ea463683342ac4f485748",
}


def test_attn_map_and_grid_files_match_pinned_bytes(tmp_path):
    data = tmp_path / "ds"
    assert main(["gen-synthetic", "--out", str(data)] + PINNED_VIEW_GEN) == 0
    bag = max(sorted((data / "bags").glob("*.bag")), key=lambda p: p.stat().st_size)
    for head in cli.HEAD_KINDS:
        assert main(["train", "--data", str(data), "--model", head,
                     "--seeds", "1", "--bootstrap", "20",
                     "--out", str(tmp_path / f"{head}.report")]
                    + PINNED_VIEW_FIT) == 0
        assert main(["attn-map", "--params", str(tmp_path / f"{head}_params_seed1.npz"),
                     "--bag", str(bag), "--out-prefix", str(tmp_path / head)]) == 0
    for method, points in (("multitask", ["--points", "(1,2);(1,0)"]),
                           ("weighted", ["--points", "(1,1,1);(4,3,1)"])):
        assert main(["grid", "--data", str(data), "--method", method, *points,
                     "--seeds", "1,2", "--out", str(tmp_path / f"{method}.grid")]
                    + PINNED_VIEW_FIT) == 0
    names = [f"{head}{ext}" for head in cli.HEAD_KINDS for ext in (".txt", ".pgm")]
    names += ["multitask.grid", "weighted.grid"]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in names} == PINNED_VIEW_FILES
