"""Run reports, parameter archives, and heatmap artifacts.

A run report is a diffable line-oriented text document (schema
wsdmil-report/1): key-value pairs grouped into [sections], one section per
seed plus a seed-averaged summary.  Model parameters are stored next to the
report as .npz archives that embed their model config.  Heatmaps are 8-bit
portable graymaps with one pixel per patch-grid cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .models import ModelConfig

__all__ = [
    "REPORT_SCHEMA",
    "SeedResult",
    "RunReport",
    "format_score",
    "save_params",
    "load_params",
    "manifest_fingerprint",
    "write_report",
    "read_report",
    "heatmap_grid",
    "write_pgm",
    "write_attention_table",
]

REPORT_SCHEMA = "wsdmil-report/1"


def manifest_fingerprint(path) -> str:
    """sha256 of the manifest bytes, identifying the exact dataset."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def format_score(value: float, offsets: tuple[float, float] | None = None,
                 starred: bool = False) -> str:
    """Render a metric on the 0..100 scale, e.g. "75.6 (-1.4, +1.9) *"."""
    text = f"{value * 100:.1f}"
    if offsets is not None:
        text += f" ({offsets[0] * 100:+.1f}, {offsets[1] * 100:+.1f})"
    if starred:
        text += " *"
    return text


# ---- parameter archives -----------------------------------------------------------


def save_params(params: dict[str, Tensor], config: ModelConfig, path) -> None:
    """Write parameters and their model config to an .npz archive."""
    arrays = {name: p.data for name, p in params.items()}
    arrays["__model_config__"] = np.array(json.dumps(asdict(config)))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[dict[str, Tensor], ModelConfig]:
    with np.load(path) as archive:
        if "__model_config__" not in archive:
            raise ValueError(f"{path} is not a parameter archive "
                             f"(missing model config)")
        config = ModelConfig(**json.loads(str(archive["__model_config__"])))
        params = {name: Tensor(archive[name], name=name)
                  for name in archive.files if name != "__model_config__"}
    return params, config


# ---- run reports ------------------------------------------------------------------


@dataclass
class SeedResult:
    """Test metrics for one seed's best-validation checkpoint."""

    seed: int
    balanced_accuracy: float
    weighted_f1: float
    per_class: list[float | None]
    best_epoch: int
    params_path: str
    history: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass
class RunReport:
    config: dict[str, str]
    manifest: str
    fingerprint: str
    seeds: list[SeedResult]
    mean_balanced_accuracy: float
    mean_weighted_f1: float
    ci_balanced_accuracy: tuple[float, float] | None = None
    ci_weighted_f1: tuple[float, float] | None = None
    created: str = ""
    schema: str = REPORT_SCHEMA

    def display_line(self) -> str:
        return format_score(self.mean_balanced_accuracy,
                            self.ci_balanced_accuracy)


def _fmt_per_class(values) -> str:
    return ",".join("-" if v is None else repr(float(v)) for v in values)


def _parse_per_class(text: str) -> list[float | None]:
    return [None if tok == "-" else float(tok) for tok in text.split(",")]


def write_report(report: RunReport, path) -> None:
    """Serialize to the line-oriented report format (full float precision)."""
    lines = [f"schema: {report.schema}",
             f"created: {report.created or _now()}",
             "",
             "[config]"]
    lines += [f"{k}: {v}" for k, v in report.config.items()]
    lines += ["", "[data]",
              f"manifest: {report.manifest}",
              f"fingerprint: {report.fingerprint}"]
    for s in report.seeds:
        lines += ["", f"[seed {s.seed}]",
                  f"params: {s.params_path}",
                  f"balanced_accuracy: {s.balanced_accuracy!r}",
                  f"weighted_f1: {s.weighted_f1!r}",
                  f"per_class: {_fmt_per_class(s.per_class)}",
                  f"best_epoch: {s.best_epoch}"]
        if s.history:
            lines += ["", f"[history {s.seed}]"]
            lines += [f"{e} {tl!r} {vb!r}" for e, tl, vb in s.history]
    lines += ["", "[mean]",
              f"balanced_accuracy: {report.mean_balanced_accuracy!r}",
              f"weighted_f1: {report.mean_weighted_f1!r}"]
    for key, ci in (("ci_balanced_accuracy", report.ci_balanced_accuracy),
                    ("ci_weighted_f1", report.ci_weighted_f1)):
        if ci is not None:
            lines.append(f"{key}: {ci[0]!r},{ci[1]!r}")
    lines.append(f"display: {report.display_line()}")
    Path(path).write_text("\n".join(lines) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def read_report(path) -> RunReport:
    """Parse a report written by write_report."""
    section = ""
    top: dict[str, str] = {}
    config: dict[str, str] = {}
    data: dict[str, str] = {}
    mean: dict[str, str] = {}
    seed_blocks: dict[int, dict[str, str]] = {}
    histories: dict[int, list[tuple[int, float, float]]] = {}
    seed_order: list[int] = []

    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section.startswith("seed "):
                seed = int(section.split()[1])
                seed_order.append(seed)
                seed_blocks[seed] = {}
            elif section.startswith("history "):
                histories[int(section.split()[1])] = []
            continue
        if section.startswith("history "):
            epoch, train_loss, val_ba = line.split()
            histories[int(section.split()[1])].append(
                (int(epoch), float(train_loss), float(val_ba)))
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if section == "":
            top[key] = value
        elif section == "config":
            config[key] = value
        elif section == "data":
            data[key] = value
        elif section == "mean":
            mean[key] = value
        elif section.startswith("seed "):
            seed_blocks[int(section.split()[1])][key] = value

    if top.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"{path}: unsupported report schema {top.get('schema')!r}")
    seeds = []
    for seed in seed_order:
        block = seed_blocks[seed]
        seeds.append(SeedResult(
            seed=seed,
            balanced_accuracy=float(block["balanced_accuracy"]),
            weighted_f1=float(block["weighted_f1"]),
            per_class=_parse_per_class(block["per_class"]),
            best_epoch=int(block["best_epoch"]),
            params_path=block["params"],
            history=histories.get(seed, [])))

    def _ci(key):
        if key not in mean:
            return None
        lo, hi = mean[key].split(",")
        return (float(lo), float(hi))

    return RunReport(
        config=config,
        manifest=data["manifest"],
        fingerprint=data["fingerprint"],
        seeds=seeds,
        mean_balanced_accuracy=float(mean["balanced_accuracy"]),
        mean_weighted_f1=float(mean["weighted_f1"]),
        ci_balanced_accuracy=_ci("ci_balanced_accuracy"),
        ci_weighted_f1=_ci("ci_weighted_f1"),
        created=top.get("created", ""),
        schema=top["schema"])


# ---- heatmaps ---------------------------------------------------------------------


def heatmap_grid(pairs: list[tuple[tuple[int, int], float]]) -> np.ndarray:
    """Rasterize (coord, weight) pairs onto a uint8 grid.

    Weights must already be in [0, 1]; cells without tissue stay 0.
    Coordinates must be unique per bag.
    """
    if not pairs:
        raise ValueError("no attention pairs to rasterize")
    coords = np.array([c for c, _ in pairs], dtype=np.int64)
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    if (weights < 0).any() or (weights > 1).any():
        raise ValueError("attention weights must lie in [0, 1]")
    if len({tuple(c) for c in coords}) != len(coords):
        raise ValueError("duplicate patch coordinates in bag")
    origin = coords.min(axis=0)
    extent = coords.max(axis=0) - origin + 1
    grid = np.zeros((int(extent[0]), int(extent[1])), dtype=np.uint8)
    shifted = coords - origin
    grid[shifted[:, 0], shifted[:, 1]] = np.floor(weights * 255.0 + 0.5).astype(np.uint8)
    return grid


def write_pgm(grid: np.ndarray, path) -> None:
    """8-bit binary portable graymap (P5)."""
    grid = np.asarray(grid, dtype=np.uint8)
    if grid.ndim != 2:
        raise ValueError(f"heatmap grid must be 2-D, got shape {grid.shape}")
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + grid.tobytes())


def write_attention_table(pairs: list[tuple[tuple[int, int], float]], path) -> None:
    """Text table of coord and weight, heaviest patch first."""
    ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))
    lines = ["# x\ty\tweight"]
    lines += [f"{c[0]}\t{c[1]}\t{w:.6f}" for c, w in ordered]
    Path(path).write_text("\n".join(lines) + "\n")
