"""Report serialization, parameter archives, and heatmap artifacts."""

import hashlib
import struct

import numpy as np
import pytest

from wsdmil.models import ModelConfig, init_model
from wsdmil.reports import (
    REPORT_SCHEMA,
    RunReport,
    SeedResult,
    format_score,
    heatmap_grid,
    load_params,
    manifest_fingerprint,
    read_report,
    save_params,
    write_attention_table,
    write_pgm,
    write_report,
)


def test_format_score_variants():
    assert format_score(0.756) == "75.6"
    assert format_score(0.756, (-0.014, 0.019)) == "75.6 (-1.4, +1.9)"
    assert format_score(0.756, (-0.014, 0.019), starred=True) == \
        "75.6 (-1.4, +1.9) *"
    assert format_score(1.0) == "100.0"
    assert format_score(0.5, starred=True) == "50.0 *"


# ---- parameter archives -----------------------------------------------------------


def test_params_round_trip_preserves_bits(tmp_path):
    config = ModelConfig("abmil", 6, hidden_dim=8, attention_dim=4,
                         with_regression_head=True, init_seed=5)
    params = init_model(config)
    path = tmp_path / "model.npz"
    save_params(params, config, path)
    loaded, loaded_config = load_params(path)
    assert loaded_config == config
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].tobytes() == params[name].data.tobytes()
        assert loaded[name].shape == params[name].data.shape


def test_load_rejects_plain_npz(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, w=np.zeros(3))
    with pytest.raises(ValueError, match="model config"):
        load_params(path)


def test_every_bit_flip_in_archive_headers_loads_or_names_the_archive(tmp_path):
    mc = ModelConfig("maxmil", 4, hidden_dim=4, attention_dim=4)
    good = tmp_path / "good.npz"
    save_params(init_model(mc), mc, good)
    data = good.read_bytes()
    assert data[-22:-18] == b"PK\x05\x06"  # an end record with no comment
    # the first local header (30 bytes, name, extra), the first central
    # directory header (46 bytes, name, extra, comment) and the end record
    local_end = 30 + sum(struct.unpack("<HH", data[26:30]))
    central = struct.unpack("<I", data[-6:-2])[0]
    central_end = central + 46 + sum(struct.unpack("<HHH",
                                                   data[central + 28:central + 34]))
    bad = tmp_path / "bad.npz"
    for i in [*range(local_end), *range(central, central_end),
              *range(len(data) - 22, len(data))]:
        for bit in range(8):
            mutant = bytearray(data)
            mutant[i] ^= 1 << bit
            bad.write_bytes(mutant)
            try:
                load_params(bad)
            except ValueError as exc:
                assert str(exc).startswith(f"{bad} "), (i, bit, exc)


def test_manifest_fingerprint_tracks_bytes(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"slide\t3+4\n")
    assert manifest_fingerprint(path) == hashlib.sha256(b"slide\t3+4\n").hexdigest()
    path.write_bytes(b"slide\t3+5\n")
    assert manifest_fingerprint(path) != hashlib.sha256(b"slide\t3+4\n").hexdigest()


# ---- run reports ------------------------------------------------------------------


def sample_report():
    seeds = [
        SeedResult(seed=13, balanced_accuracy=1 / 3, weighted_f1=0.25,
                   per_class=[1.0, None, 1 / 3, 0.0], best_epoch=4,
                   params_path="params_13.npz",
                   history=[(0, 1.386, 0.25), (1, 1.101, 1 / 3)]),
        SeedResult(seed=37, balanced_accuracy=0.5, weighted_f1=0.45,
                   per_class=[0.5, 0.5, None, None], best_epoch=2,
                   params_path="params_37.npz"),
    ]
    return RunReport(config={"method": "weighted", "model": "abmil"},
                     manifest="data/manifest.tsv",
                     fingerprint="ab" * 32,
                     seeds=seeds,
                     mean_balanced_accuracy=(1 / 3 + 0.5) / 2,
                     mean_weighted_f1=0.35,
                     ci_balanced_accuracy=(0.30, 0.52),
                     ci_weighted_f1=(0.28, 0.44),
                     created="2026-01-01T00:00:00Z")


def test_report_round_trip_is_lossless(tmp_path):
    report = sample_report()
    path = tmp_path / "run.report"
    write_report(report, path)
    back = read_report(path)
    assert back == report


def test_report_with_legacy_p_value_line_still_reads(tmp_path):
    report = sample_report()
    path = tmp_path / "legacy.report"
    write_report(report, path)
    text = path.read_text().replace("[mean]\n", "[mean]\np_value: 0.021\n")
    assert "p_value: 0.021" in text
    path.write_text(text)
    assert read_report(path) == report


def test_report_with_level_section_still_reads(tmp_path):
    report = sample_report()
    path = tmp_path / "levels.report"
    write_report(report, path)
    path.write_text(path.read_text() + "\n[level heterogeneous]\nn: 16\n")
    assert read_report(path) == report


def test_report_optional_fields_default_to_none(tmp_path):
    report = sample_report()
    report.ci_balanced_accuracy = None
    report.ci_weighted_f1 = None
    path = tmp_path / "bare.report"
    write_report(report, path)
    back = read_report(path)
    assert back.ci_balanced_accuracy is None
    assert back.ci_weighted_f1 is None


SAMPLE_REPORT_TEXT = """\
schema: wsdmil-report/1
created: 2026-01-01T00:00:00Z

[config]
method: weighted
model: abmil

[data]
manifest: data/manifest.tsv
fingerprint: abababababababababababababababababababababababababababababababab

[seed 13]
params: params_13.npz
balanced_accuracy: 0.3333333333333333
weighted_f1: 0.25
per_class: 1.0,-,0.3333333333333333,0.0
best_epoch: 4

[history 13]
0 1.386 0.25
1 1.101 0.3333333333333333

[seed 37]
params: params_37.npz
balanced_accuracy: 0.5
weighted_f1: 0.45
per_class: 0.5,0.5,-,-
best_epoch: 2

[mean]
balanced_accuracy: 0.41666666666666663
weighted_f1: 0.35
ci_balanced_accuracy: 0.3,0.52
ci_weighted_f1: 0.28,0.44
display: 41.7 (+30.0, +52.0)
"""


def test_report_bytes_are_pinned(tmp_path):
    path = tmp_path / "run.report"
    write_report(sample_report(), path)
    assert path.read_bytes() == SAMPLE_REPORT_TEXT.encode()


@pytest.mark.parametrize("section, key", [
    ("data", "manifest"), ("data", "fingerprint"),
    ("seed 37", "params"), ("seed 37", "balanced_accuracy"),
    ("seed 37", "weighted_f1"), ("seed 37", "per_class"),
    ("seed 37", "best_epoch"),
    ("mean", "balanced_accuracy"), ("mean", "weighted_f1")])
def test_report_missing_key_names_report_and_section(tmp_path, section, key):
    path = tmp_path / "partial.report"
    write_report(sample_report(), path)
    lines = path.read_text().splitlines(keepends=True)
    start = lines.index(f"[{section}]\n")
    cut = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key}:"))
    path.write_text("".join(lines[:cut] + lines[cut + 1:]))
    with pytest.raises(ValueError) as info:
        read_report(path)
    assert str(info.value) == f"{path}: [{section}] has no {key!r}"


@pytest.mark.parametrize("old, new, section", [
    ("1 1.101 0.3333333333333333\n", "1 1.101\n", "history 13"),
    ("1 1.101 0.3333333333333333\n", "1 1.101 x\n", "history 13"),
    ("[seed 37]\n", "[seed x]\n", "seed x"),
    ("best_epoch: 2\n", "best_epoch: two\n", "seed 37"),
    ("weighted_f1: 0.45\n", "weighted_f1: 0.45.0\n", "seed 37"),
    ("per_class: 0.5,0.5,-,-\n", "per_class: 0.5,0.5,?,-\n", "seed 37"),
    ("ci_weighted_f1: 0.28,0.44\n", "ci_weighted_f1: 0.28\n", "mean"),
], ids=["history-two-fields", "history-not-numeric", "seed-header",
        "best-epoch", "weighted-f1", "per-class", "ci-one-field"])
def test_report_malformed_line_names_report_and_section(tmp_path, old, new,
                                                        section):
    path = tmp_path / "malformed.report"
    write_report(sample_report(), path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError) as info:
        read_report(path)
    assert str(info.value).startswith(f"{path}: [{section}] bad ")


@pytest.mark.parametrize("old, new, message", [
    ("[mean]\n", "[seed 13]\nparams: other.npz\n\n[mean]\n",
     "repeated section [seed 13]"),
    ("[seed 37]\n", "[seed 013]\n", "[seed 013] repeats seed 13"),
    ("[mean]\n", "[mean]\nbalanced_accuracy: 0.9\n",
     "[mean] repeated key 'balanced_accuracy'"),
    ("best_epoch: 2\n", "best_epoch: 2\nbest_epoch: 3\n",
     "[seed 37] repeated key 'best_epoch'"),
    ("[data]\n", "[data]\nmanifest: other.tsv\n", "[data] repeated key 'manifest'"),
    ("[config]\n", "[config]\nmethod: baseline\n", "[config] repeated key 'method'"),
    ("created: ", "created: x\ncreated: ", "header repeated key 'created'"),
    ("[mean]\n", "[history 99]\n0 1.0 0.5\n\n[mean]\n",
     "unknown section [history 99]"),
    ("[seed 37]\n", "[sede 37]\n", "unknown section [sede 37]"),
    (SAMPLE_REPORT_TEXT[SAMPLE_REPORT_TEXT.index("[seed 13]"):
                        SAMPLE_REPORT_TEXT.index("[mean]")], "",
     "no [seed N] section"),
], ids=["section", "seed-number", "mean-key", "seed-key", "data-key",
        "config-key", "header-key", "history-without-seed", "misspelt-seed",
        "no-seed"])
def test_report_repeated_section_or_key_is_an_error(tmp_path, old, new, message):
    path = tmp_path / "repeated.report"
    write_report(sample_report(), path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError) as info:
        read_report(path)
    assert str(info.value) == f"{path}: {message}"


def test_report_schema_is_checked(tmp_path):
    path = tmp_path / "old.report"
    path.write_text("schema: wsdmil-report/0\ncreated: x\n")
    with pytest.raises(ValueError, match="schema"):
        read_report(path)


def test_report_preserves_full_float_precision(tmp_path):
    report = sample_report()
    report.mean_balanced_accuracy = 0.1 + 0.2  # the classic 0.30000000000000004
    path = tmp_path / "precise.report"
    write_report(report, path)
    assert read_report(path).mean_balanced_accuracy == report.mean_balanced_accuracy


# ---- heatmaps ---------------------------------------------------------------------


def test_heatmap_grid_places_weights_by_coordinate():
    grid = heatmap_grid(np.array([[2, 3], [4, 5], [2, 5]]), np.array([1.0, 0.5, 0.0]))
    assert grid.shape == (3, 3)
    assert grid.dtype == np.uint8
    assert grid[0, 0] == 255
    assert grid[2, 2] == 128  # floor(0.5 * 255 + 0.5)
    assert grid[0, 2] == 0
    assert grid[1, 1] == 0  # no tissue


def test_heatmap_grid_single_patch():
    grid = heatmap_grid(np.array([[7, 9]]), np.array([1.0]))
    assert grid.shape == (1, 1)
    assert grid[0, 0] == 255


def test_heatmap_grid_validation():
    with pytest.raises(ValueError, match="no attention"):
        heatmap_grid(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        heatmap_grid(np.array([[0, 0]]), np.array([1.5]))
    with pytest.raises(ValueError, match="duplicate"):
        heatmap_grid(np.array([[0, 0], [0, 0]]), np.array([0.5, 0.6]))
    assert heatmap_grid(np.array([[0, 0], [4095, 4095]]),
                        np.array([0.5, 0.6])).shape == (4096, 4096)
    with pytest.raises(ValueError, match="span 4096x4097 cells"):
        heatmap_grid(np.array([[0, 0], [4095, 4096]]), np.array([0.5, 0.6]))


def test_pgm_layout(tmp_path):
    grid = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "map.pgm"
    write_pgm(grid, path)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + grid.tobytes()
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(np.zeros(4, dtype=np.uint8), path)


def test_attention_table_sorted_heaviest_first(tmp_path):
    coords = np.array([[1, 1], [0, 3], [5, 0], [2, 2]])
    path = tmp_path / "attn.tsv"
    write_attention_table(coords, np.array([0.2, 0.7, 0.2, 0.1]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# x\ty\tweight"
    assert lines[1] == "0\t3\t0.700000"
    # equal weights fall back to coordinate order
    assert lines[2] == "1\t1\t0.200000"
    assert lines[3] == "5\t0\t0.200000"
    assert lines[4] == "2\t2\t0.100000"


def test_schema_constant_matches_written_header(tmp_path):
    path = tmp_path / "r.report"
    write_report(sample_report(), path)
    assert path.read_text().splitlines()[0] == f"schema: {REPORT_SCHEMA}"


# ---- atomic writes ----------------------------------------------------------------


def write_each(kind, path):
    if kind == "params":
        mc = ModelConfig("abmil", 4, hidden_dim=3, attention_dim=2)
        save_params(init_model(mc), mc, path)
    elif kind == "report":
        write_report(sample_report(), path)
    elif kind == "pgm":
        write_pgm(np.arange(6, dtype=np.uint8).reshape(2, 3), path)
    else:
        write_attention_table(np.array([[0, 0], [0, 1]]), np.array([0.25, 1.0]), path)


@pytest.mark.parametrize("kind", ["params", "report", "pgm", "table"])
def test_failed_write_leaves_old_file_and_no_temp_file(tmp_path, disk_full, kind):
    path = tmp_path / f"target.{kind}"
    path.write_bytes(b"old contents")
    with pytest.raises(OSError, match="disk full"):
        write_each(kind, path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
