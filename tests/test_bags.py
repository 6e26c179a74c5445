"""Bag binary format, manifest parsing, and the synthetic generator."""

import struct

import numpy as np
import pytest

from wsdmil.bags import (
    CALIBRATION_TARGETS,
    Bag,
    BagFormatError,
    ManifestEntry,
    SynthConfig,
    generate_synthetic,
    read_bag,
    read_manifest,
    split_bags,
    write_bag,
    write_manifest,
)
from wsdmil.gleason import ConsensusLevel, parse_score

# tiny cohorts drift from the calibration targets; that warning is expected here
pytestmark = pytest.mark.filterwarnings("ignore:consensus mix off calibration")


def sample_bag(n=7, d=5, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
    coords = np.stack([np.arange(n), np.arange(n) * 2], axis=1).astype(np.int32)
    return Bag("sample", features, coords)


# ---- binary round trip ------------------------------------------------------------


def test_bag_round_trip_preserves_content(tmp_path):
    bag = sample_bag()
    path = tmp_path / "sample.bag"
    write_bag(bag, path)
    back = read_bag(path)
    assert back.slide_id == "sample"
    assert back.features.dtype == np.float64
    assert back.coords.dtype == np.int32
    np.testing.assert_array_equal(back.features, bag.features)
    np.testing.assert_array_equal(back.coords, bag.coords)


def test_bag_round_trip_is_byte_identical(tmp_path):
    bag = sample_bag(n=11, d=3, seed=4)
    first = tmp_path / "a.bag"
    second = tmp_path / "b.bag"
    write_bag(bag, first)
    write_bag(read_bag(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_read_bag_uses_filename_for_default_slide_id(tmp_path):
    path = tmp_path / "s00042.bag"
    write_bag(sample_bag(), path)
    assert read_bag(path).slide_id == "s00042"
    assert read_bag(path, slide_id="override").slide_id == "override"


def test_write_bag_layout_matches_documented_header(tmp_path):
    bag = sample_bag(n=2, d=3)
    path = tmp_path / "x.bag"
    write_bag(bag, path)
    raw = path.read_bytes()
    magic, version, n, d = struct.unpack_from("<4sIII", raw)
    assert magic == b"WSDB"
    assert (version, n, d) == (1, 2, 3)
    assert len(raw) == 16 + 4 * n * d + 8 * n


# ---- error taxonomy ---------------------------------------------------------------


def write_raw(tmp_path, raw):
    path = tmp_path / "broken.bag"
    path.write_bytes(raw)
    return path


def valid_raw(tmp_path):
    path = tmp_path / "good.bag"
    write_bag(sample_bag(n=3, d=2), path)
    return path.read_bytes()


def test_rejects_bad_magic(tmp_path):
    raw = valid_raw(tmp_path)
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, b"NOPE" + raw[4:]))
    assert exc.value.reason == "bad_magic"


def test_rejects_bad_version(tmp_path):
    raw = bytearray(valid_raw(tmp_path))
    struct.pack_into("<I", raw, 4, 9)
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, bytes(raw)))
    assert exc.value.reason == "bad_version"


def test_rejects_zero_dims(tmp_path):
    raw = bytearray(valid_raw(tmp_path))
    struct.pack_into("<I", raw, 8, 0)
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, bytes(raw[:16])))
    assert exc.value.reason == "empty_dims"


def test_rejects_short_header(tmp_path):
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, b"WSDB\x01"))
    assert exc.value.reason == "truncated"


def test_rejects_truncated_payload(tmp_path):
    raw = valid_raw(tmp_path)
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, raw[:-5]))
    assert exc.value.reason == "truncated"


def test_rejects_trailing_bytes(tmp_path):
    raw = valid_raw(tmp_path)
    with pytest.raises(BagFormatError) as exc:
        read_bag(write_raw(tmp_path, raw + b"\x00\x00"))
    assert exc.value.reason == "trailing_data"


def test_bag_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="features"):
        Bag("s", np.zeros((0, 4)), np.zeros((0, 2), dtype=np.int32))
    with pytest.raises(ValueError, match="coords"):
        Bag("s", np.zeros((3, 4)), np.zeros((3, 3), dtype=np.int32))
    with pytest.raises(ValueError, match="non-finite"):
        Bag("s", np.array([[np.nan, 1.0]]), np.zeros((1, 2), dtype=np.int32))


# ---- manifest ---------------------------------------------------------------------


def manifest_entries(tmp_path, n=4):
    entries = []
    scores = ["3+4", "benign", "4+5", "5+4"]
    nonexpert = ["4+4", "benign", None, None]
    splits = ["train", "train", "val", "test"]
    for i in range(n):
        path = tmp_path / "bags" / f"s{i}.bag"
        path.parent.mkdir(exist_ok=True)
        write_bag(sample_bag(seed=i), path)
        non = parse_score(nonexpert[i]) if nonexpert[i] else None
        entries.append(ManifestEntry(f"s{i}", path, parse_score(scores[i]),
                                     non, splits[i]))
    return entries


def test_manifest_round_trip(tmp_path):
    entries = manifest_entries(tmp_path)
    path = tmp_path / "manifest.tsv"
    write_manifest(entries, path)
    back = read_manifest(path)
    assert [e.slide_id for e in back] == [e.slide_id for e in entries]
    assert [e.split for e in back] == [e.split for e in entries]
    assert [str(e.expert) for e in back] == [str(e.expert) for e in entries]
    assert back[2].nonexpert is None
    assert back[0].bag_path == entries[0].bag_path.resolve()
    # paths in the file itself are relative to the manifest
    assert "bags/s0.bag" in path.read_text()


def test_manifest_skips_comments_and_blank_lines(tmp_path):
    entries = manifest_entries(tmp_path, n=1)
    path = tmp_path / "manifest.tsv"
    write_manifest(entries, path)
    text = path.read_text()
    path.write_text("# a comment\n\n" + text + "\n# trailing\n")
    assert len(read_manifest(path)) == 1


def test_manifest_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s0\tbags/s0.bag\t3+4\ttrain\n")
    with pytest.raises(ValueError, match="m.tsv:1.*5 tab-separated"):
        read_manifest(path)


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "m.tsv"
    row = "s0\tbags/s0.bag\t3+4\t3+4\ttrain\n"
    path.write_text(row + row)
    with pytest.raises(ValueError, match=":2.*duplicate"):
        read_manifest(path)


def test_manifest_rejects_unknown_split(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s0\tbags/s0.bag\t3+4\t3+4\tholdout\n")
    with pytest.raises(ValueError, match="unknown split"):
        read_manifest(path)


def test_manifest_rejects_train_without_nonexpert(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s0\tbags/s0.bag\t3+4\t-\ttrain\n")
    with pytest.raises(ValueError, match="non-expert"):
        read_manifest(path)


def test_manifest_reports_bad_score_with_line_number(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("s0\tbags/s0.bag\t3+9\t-\tval\n")
    with pytest.raises(ValueError, match=":1:"):
        read_manifest(path)


def test_empty_manifest_warns(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("# nothing here\n")
    with pytest.warns(UserWarning, match="no entries"):
        assert read_manifest(path) == []


def test_split_bags_filters_and_sorts(tmp_path):
    entries = manifest_entries(tmp_path)
    train = split_bags(reversed(entries), "train")
    assert [e.slide_id for e in train] == ["s0", "s1"]
    assert split_bags(entries, "val")[0].slide_id == "s2"
    with pytest.raises(ValueError, match="unknown split"):
        split_bags(entries, "validation")


# ---- synthetic generator ----------------------------------------------------------


def tiny_config(**kw):
    base = dict(n_train=24, n_val=6, n_test=6, feature_dim=16,
                size_factor=0.02, seed=11)
    base.update(kw)
    return SynthConfig(**base)


def test_generator_is_deterministic(tmp_path):
    cfg = tiny_config()
    res_a = generate_synthetic(cfg, tmp_path / "a")
    res_b = generate_synthetic(cfg, tmp_path / "b")
    text_a = res_a.manifest_path.read_text()
    text_b = res_b.manifest_path.read_text()
    assert text_a == text_b
    for entry in res_a.entries:
        other = tmp_path / "b" / "bags" / entry.bag_path.name
        assert entry.bag_path.read_bytes() == other.read_bytes()


def test_generator_seed_changes_output(tmp_path):
    res_a = generate_synthetic(tiny_config(seed=1), tmp_path / "a")
    res_b = generate_synthetic(tiny_config(seed=2), tmp_path / "b")
    assert (res_a.manifest_path.read_text() != res_b.manifest_path.read_text()
            or res_a.entries[0].bag_path.read_bytes()
            != (tmp_path / "b" / "bags" / res_a.entries[0].bag_path.name).read_bytes())


def test_generator_split_sizes_and_bag_scaling(tmp_path):
    cfg = tiny_config()
    res = generate_synthetic(cfg, tmp_path)
    assert len(split_bags(res.entries, "train")) == 24
    assert len(split_bags(res.entries, "val")) == 6
    assert len(split_bags(res.entries, "test")) == 6
    hi = round(1187 * cfg.size_factor)
    for entry in res.entries:
        bag = read_bag(entry.bag_path)
        assert 1 <= bag.n <= hi
        assert bag.d == cfg.feature_dim


def test_generator_coords_unique_within_bag(tmp_path):
    res = generate_synthetic(tiny_config(size_factor=0.05), tmp_path)
    for entry in res.entries[:10]:
        bag = read_bag(entry.bag_path)
        assert len({(int(x), int(y)) for x, y in bag.coords}) == bag.n


def test_zero_error_curves_give_full_consensus(tmp_path):
    cfg = tiny_config(error_base=0.0, error_slope=0.0,
                      secondary_base=0.0, secondary_slope=0.0)
    with pytest.warns(UserWarning, match="calibration"):
        res = generate_synthetic(cfg, tmp_path)
    assert res.fractions[ConsensusLevel.HOMOGENEOUS] == 1.0
    for entry in res.entries:
        assert entry.nonexpert is not None
        assert entry.expert.grade_multiset() == entry.nonexpert.grade_multiset()


def test_default_curves_land_near_calibration_targets(tmp_path):
    cfg = tiny_config(n_train=1000, n_val=0, n_test=0, feature_dim=12,
                      size_factor=0.01, seed=3)
    res = generate_synthetic(cfg, tmp_path)
    for level, target in CALIBRATION_TARGETS.items():
        assert abs(res.fractions[level] - target) < 0.05


def test_full_evidence_low_noise_is_linearly_separable(tmp_path):
    cfg = tiny_config(n_train=120, n_val=0, n_test=0, feature_dim=16,
                      evidence_max=1.0, evidence_min=1.0, noise_sigma=0.01,
                      size_factor=0.05, seed=7)
    res = generate_synthetic(cfg, tmp_path)
    means = []
    labels = []
    for entry in res.entries:
        bag = read_bag(entry.bag_path)
        means.append(bag.features.mean(axis=0))
        labels.append(entry.label())
    x = np.stack(means)
    x = np.hstack([x, np.ones((len(x), 1))])
    y = np.eye(4)[labels]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = np.argmax(x @ w, axis=1)
    assert (pred == np.array(labels)).all()


def test_difficulty_curves_are_monotone():
    cfg = tiny_config()
    grid = np.linspace(0.0, 1.0, 21)
    worst = [cfg.worst_error(t) for t in grid]
    secondary = [cfg.secondary_error(t) for t in grid]
    evidence = [cfg.evidence_fraction(t) for t in grid]
    assert worst == sorted(worst)
    assert secondary == sorted(secondary)
    assert evidence == sorted(evidence, reverse=True)
    assert cfg.worst_error(0.0) == cfg.error_base
    assert cfg.evidence_fraction(0.0) == cfg.evidence_max
    assert cfg.evidence_fraction(1.0) == pytest.approx(cfg.evidence_min)


def test_evidence_curve_only_affects_features(tmp_path):
    # same seed with a flat vs decreasing evidence curve: labels and bag
    # shapes must match, only instance content may move
    flat = generate_synthetic(tiny_config(evidence_max=0.75, evidence_min=0.75),
                              tmp_path / "flat")
    sloped = generate_synthetic(tiny_config(evidence_max=0.75, evidence_min=0.15),
                                tmp_path / "sloped")
    assert flat.manifest_path.read_text() == sloped.manifest_path.read_text()
    for ef, es in zip(flat.entries, sloped.entries):
        a = read_bag(ef.bag_path)
        b = read_bag(es.bag_path)
        assert a.features.shape == b.features.shape
        np.testing.assert_array_equal(a.coords, b.coords)


def test_synth_config_validation():
    with pytest.raises(ValueError, match="class_prior"):
        tiny_config(class_prior=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError, match="curve"):
        tiny_config(error_base=0.9, error_slope=0.3)
    with pytest.raises(ValueError, match="feature_dim"):
        tiny_config(feature_dim=1)
    with pytest.raises(ValueError, match="size_factor"):
        tiny_config(size_factor=0.0)
    with pytest.raises(ValueError, match="lower_fraction"):
        tiny_config(lower_fraction=1.5)
