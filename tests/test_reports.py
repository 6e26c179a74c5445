"""Report serialization, parameter archives, and heatmap artifacts."""

import hashlib

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
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert loaded[name].name == name


def test_load_rejects_plain_npz(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, w=np.zeros(3))
    with pytest.raises(ValueError, match="model config"):
        load_params(path)


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


def test_report_optional_fields_default_to_none(tmp_path):
    report = sample_report()
    report.ci_balanced_accuracy = None
    report.ci_weighted_f1 = None
    path = tmp_path / "bare.report"
    write_report(report, path)
    back = read_report(path)
    assert back.ci_balanced_accuracy is None
    assert back.ci_weighted_f1 is None


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
    pairs = [((2, 3), 1.0), ((4, 5), 0.5), ((2, 5), 0.0)]
    grid = heatmap_grid(pairs)
    assert grid.shape == (3, 3)
    assert grid.dtype == np.uint8
    assert grid[0, 0] == 255
    assert grid[2, 2] == 128  # floor(0.5 * 255 + 0.5)
    assert grid[0, 2] == 0
    assert grid[1, 1] == 0  # no tissue


def test_heatmap_grid_single_patch():
    grid = heatmap_grid([((7, 9), 1.0)])
    assert grid.shape == (1, 1)
    assert grid[0, 0] == 255


def test_heatmap_grid_validation():
    with pytest.raises(ValueError, match="no attention"):
        heatmap_grid([])
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        heatmap_grid([((0, 0), 1.5)])
    with pytest.raises(ValueError, match="duplicate"):
        heatmap_grid([((0, 0), 0.5), ((0, 0), 0.6)])


def test_pgm_layout(tmp_path):
    grid = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "map.pgm"
    write_pgm(grid, path)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + grid.tobytes()
    with pytest.raises(ValueError, match="2-D"):
        write_pgm(np.zeros(4, dtype=np.uint8), path)


def test_attention_table_sorted_heaviest_first(tmp_path):
    pairs = [((1, 1), 0.2), ((0, 3), 0.7), ((5, 0), 0.2), ((2, 2), 0.1)]
    path = tmp_path / "attn.tsv"
    write_attention_table(pairs, path)
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
