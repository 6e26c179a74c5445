"""Bag binary format, manifest parsing, and the synthetic generator."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from wsdmil.bags import (
    CALIBRATION_TARGETS,
    Bag,
    BagFormatError,
    ManifestEntry,
    SynthConfig,
    evidence_fraction,
    generate_synthetic,
    open_atomic,
    read_bag,
    read_manifest,
    secondary_error,
    split_bags,
    worst_error,
    write_bag,
    write_manifest,
)
from wsdmil.gleason import ConsensusLevel, class_of, consensus_level, parse_score


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
    assert back.features.dtype == np.float32
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


def test_read_bag_features_are_a_read_only_float32_view(tmp_path):
    path = tmp_path / "sample.bag"
    write_bag(sample_bag(n=9, d=4), path)
    features = read_bag(path).features
    assert features.dtype == np.float32
    assert features.shape == (9, 4)
    assert features.nbytes == 4 * 9 * 4
    assert not features.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        features[0, 0] = 1.0


def test_bag_holds_float32_features_whatever_the_input_dtype():
    coords = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int32)
    narrow = np.ones((3, 2), dtype=np.float32)
    assert Bag("a", narrow, coords).features is narrow
    for other in (np.ones((3, 2)), np.ones((3, 2), dtype=np.float16),
                  np.ones((3, 2), dtype=">f4"), [[1, 2], [3, 4], [5, 6]]):
        assert Bag("c", other, coords).features.dtype == np.float32


def test_bag_rejects_float64_beyond_float32_range_without_a_cast_warning():
    # 1e300 rounds to float32 inf, the value its bag file would hold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite features"):
            Bag("s", np.array([[1e300, 1.0]]), np.zeros((1, 2), dtype=np.int32))


def test_bag_rejects_duplicate_coordinates_naming_the_first():
    coords = np.array([[0, 0], [5, 2], [3, 3], [3, 3], [5, 2]])
    with pytest.raises(ValueError, match=r"bag s07: duplicate patch coordinate "
                                         r"\(3, 3\) at instance 3"):
        Bag("s07", np.zeros((5, 2)), coords)
    Bag("s08", np.zeros((3, 2)), [[1, 2], [2, 1], [-1, 2]])  # all distinct


def test_read_bag_rejects_duplicate_coordinates(tmp_path):
    path = tmp_path / "s00001.bag"
    write_bag(sample_bag(n=4, d=2), path)
    raw = bytearray(path.read_bytes())
    coords_at = 16 + 4 * 4 * 2
    raw[coords_at + 16:coords_at + 24] = raw[coords_at:coords_at + 8]
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"bag s00001: duplicate patch "
                                         r"coordinate \(0, 0\) at instance 2"):
        read_bag(path)


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


# ---- atomic writes ----------------------------------------------------------------


def test_open_atomic_replaces_the_file_whole(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    with open_atomic(path) as fh:
        fh.write(b"new")
        assert path.read_bytes() == b"old contents"   # not visible until done
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_open_atomic_keeps_the_old_file_when_the_block_raises(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    with pytest.raises(RuntimeError):
        with open_atomic(path) as fh:
            fh.write(b"half")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("writer", ["bag", "manifest"])
def test_failed_write_leaves_old_file_and_no_temp_file(tmp_path, disk_full, writer):
    path = tmp_path / f"target.{writer}"
    path.write_bytes(b"old contents")
    with pytest.raises(OSError, match="disk full"):
        if writer == "bag":
            write_bag(sample_bag(), path)
        else:
            write_manifest([ManifestEntry("s1", tmp_path / "s1.bag",
                                          parse_score("3+4"), None, "test")], path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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


def test_manifest_bag_paths_match_a_full_resolve(tmp_path):
    (tmp_path / "store" / "inner").mkdir(parents=True)
    (tmp_path / "data" / "sub").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "store" / "inner",
                                   target_is_directory=True)
    rels = ["../link/s0.bag", "../link/s1.bag", "sub/../../store/inner/s2.bag",
            "../link/../s3.bag", "sub/s4.bag", "s5.bag"]
    base = tmp_path / "data"
    manifest = base / "manifest.tsv"
    manifest.write_text("".join(f"s{i}\t{rel}\t3+4\t3+4\ttrain\n"
                                for i, rel in enumerate(rels)))
    got = [e.bag_path for e in read_manifest(manifest)]
    assert got == [(base / rel).resolve() for rel in rels]
    # the symlinked directory is followed: "link/.." is store, not tmp_path
    assert got[3] == tmp_path.resolve() / "store" / "s3.bag"


def test_manifest_bag_paths_of_dotted_nested_and_absolute_rows(tmp_path):
    base = tmp_path / "data"
    (base / "sub" / "deeper").mkdir(parents=True)
    (tmp_path / "elsewhere").mkdir()
    (base / "alias").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    rels = ["s0.bag", "./s1.bag", "sub/s2.bag", "./sub/s3.bag", "sub/deeper/s4.bag",
            "sub//s5.bag", "sub/./deeper/s6.bag", "sub/../s7.bag", "alias/s8.bag",
            str(tmp_path / "elsewhere" / "s9.bag"), str(base / "alias" / "s10.bag"),
            "./sub/s11.bag"]
    manifest = base / "manifest.tsv"
    manifest.write_text("".join(f"s{i}\t{rel}\t3+4\t3+4\ttrain\n"
                                for i, rel in enumerate(rels)))
    got = [e.bag_path for e in read_manifest(manifest)]
    # each directory resolved, each file name joined as written
    assert got == [(base / rel).parent.resolve() / (base / rel).name for rel in rels]
    assert got[9] == got[10].parent / "s9.bag"


def test_write_manifest_follows_symlinked_bag_directories(tmp_path):
    base = tmp_path / "data"
    (base / "real").mkdir(parents=True)
    (tmp_path / "store").mkdir()
    (base / "inside").symlink_to(base / "real", target_is_directory=True)
    (base / "outside").symlink_to(tmp_path / "store", target_is_directory=True)
    (tmp_path / "alias").symlink_to(base / "real", target_is_directory=True)
    paths = [base / "inside" / "s0.bag", base / "outside" / "s1.bag",
             tmp_path / "alias" / "s2.bag", base / "inside" / "s3.bag",
             base / "outside" / ".." / "s4.bag"]
    entries = []
    for i, path in enumerate(paths):
        write_bag(sample_bag(seed=i), path)
        entries.append(ManifestEntry(f"s{i}", path, parse_score("3+4"),
                                     parse_score("3+4"), "train"))
    manifest = base / "manifest.tsv"
    write_manifest(entries, manifest)
    written = [line.split("\t")[1] for line in manifest.read_text().splitlines()[1:]]
    # the bag directory is followed: "outside/.." is tmp_path, not data, so
    # s4 lies outside the manifest's directory and keeps its path as given
    assert written == ["real/s0.bag", paths[1].as_posix(), "real/s2.bag",
                       "real/s3.bag", paths[4].as_posix()]
    back = read_manifest(manifest)
    assert [e.bag_path for e in back] == [p.resolve() for p in paths]
    assert read_bag(back[2].bag_path).features.tobytes() == \
        sample_bag(seed=2).features.astype(np.float32).tobytes()


def test_write_manifest_keeps_a_relative_bag_outside_its_directory(tmp_path,
                                                                   monkeypatch):
    # "s0.bag" names a file in the working directory, not in data/
    (tmp_path / "work").mkdir()
    (tmp_path / "data").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    write_bag(sample_bag(seed=0), "s0.bag")
    manifest = "../data/manifest.tsv"
    write_manifest([ManifestEntry("s0", "s0.bag", parse_score("3+4"),
                                  parse_score("3+4"), "train")], manifest)
    [back] = read_manifest(manifest)
    assert back.bag_path == (tmp_path / "work" / "s0.bag").resolve()
    assert read_bag(back.bag_path).features.tobytes() == \
        sample_bag(seed=0).features.astype(np.float32).tobytes()


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_generator_holds_about_one_bag_of_features_at_a_time(tmp_path):
    # row blocks keep each bag's float64 noise from being held whole, and a
    # bag's features are freed before the next bag's are allocated
    cfg = SynthConfig(n_train=3, n_val=1, n_test=1, feature_dim=1024,
                      size_factor=1.0, seed=0)
    tracemalloc.start()
    try:
        res = generate_synthetic(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(read_bag(e.bag_path).features.nbytes for e in res.entries)
    assert largest > 4 * 2**20
    assert peak <= 1.75 * largest


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


def test_default_curves_land_near_calibration_targets(tmp_path):
    cfg = tiny_config(n_train=1000, n_val=0, n_test=0, feature_dim=12,
                      size_factor=0.01, seed=3)
    res = generate_synthetic(cfg, tmp_path)
    for level, target in CALIBRATION_TARGETS.items():
        assert abs(res.fractions[level] - target) < 0.05


def test_full_evidence_low_noise_is_linearly_separable(tmp_path):
    cfg = tiny_config(n_train=120, n_val=0, n_test=0, feature_dim=16,
                      noise_sigma=0.01, size_factor=0.05, seed=7)
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
    grid = np.linspace(0.0, 1.0, 21)
    worst = [worst_error(t) for t in grid]
    secondary = [secondary_error(t) for t in grid]
    evidence = [evidence_fraction(t) for t in grid]
    assert worst == sorted(worst)
    assert secondary == sorted(secondary)
    assert evidence == sorted(evidence, reverse=True)
    assert worst_error(0.0) == 0.01
    assert evidence_fraction(0.0) == 0.75
    assert evidence_fraction(1.0) == pytest.approx(0.40)


def test_no_consensus_misreads_land_on_an_adjacent_class(tmp_path):
    res = generate_synthetic(tiny_config(n_train=1000, n_val=0, n_test=0,
                                         feature_dim=12, size_factor=0.01, seed=3),
                             tmp_path)
    misread = [e for e in res.entries if consensus_level(e.expert, e.nonexpert)
               is ConsensusLevel.NO_CONSENSUS]
    assert len(misread) > 100
    assert all(abs(class_of(e.expert) - class_of(e.nonexpert)) == 1 for e in misread)


def test_synth_config_validation():
    with pytest.raises(ValueError, match="feature_dim"):
        tiny_config(feature_dim=1)
    with pytest.raises(ValueError, match="size_factor"):
        tiny_config(size_factor=0.0)
