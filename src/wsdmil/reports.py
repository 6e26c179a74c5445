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
import zipfile
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import Tensor, value
from .bags import open_atomic, read_text
from .models import ModelConfig, param_shapes

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


def save_params(params: dict[str, Tensor | np.ndarray], config: ModelConfig,
                path) -> None:
    """Write parameters (Tensors or arrays) and their model config to an .npz."""
    arrays = {name: value(p) for name, p in params.items()}
    arrays["__model_config__"] = np.array(json.dumps(asdict(config)))
    with open_atomic(path) as fh:    # np.savez would add .npz to a path
        np.savez(fh, **arrays)


def load_params(path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Read an archive written by save_params as name -> float64 array.

    A missing file raises FileNotFoundError.  Any other failure to read the
    archive, a bad model config, or parameters whose names or shapes differ
    from what init_model builds for that config raise one ValueError naming
    the archive.
    """
    try:
        with np.load(path) as archive:
            if "__model_config__" not in archive:
                raise ValueError("missing model config")
            config = ModelConfig(**json.loads(str(archive["__model_config__"])))
            arrays = {name: np.asarray(archive[name], dtype=np.float64)
                      for name in archive.files if name != "__model_config__"}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, TypeError,
            ValueError) as exc:
        raise ValueError(f"{path} is not a valid parameter archive ({exc})") from exc
    expected = param_shapes(config)
    problems = [f"missing {name}" for name in expected if name not in arrays]
    problems += [f"unexpected {name}" for name in arrays if name not in expected]
    problems += [f"{name} has shape {arrays[name].shape}, expected {shape}"
                 for name, shape in expected.items()
                 if name in arrays and arrays[name].shape != shape]
    if problems:
        raise ValueError(f"{path} does not match its {config.head_kind} model "
                         f"config: {'; '.join(problems)}")
    return arrays, config


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

    def display_line(self) -> str:
        return format_score(self.mean_balanced_accuracy,
                            self.ci_balanced_accuracy)


def _fmt_floats(values) -> str:
    return ",".join("-" if v is None else repr(float(v)) for v in values)


def _parse_per_class(text: str) -> list[float | None]:
    return [None if tok == "-" else float(tok) for tok in text.split(",")]


def _parse_pair(text: str) -> tuple[float, float]:
    low, high = text.split(",")
    return float(low), float(high)


# (key, attribute, format, parse) of each line of a section, in file order.
# A None attribute writes no line, and a missing line reads as None if the
# attribute defaults to None; any other missing line is an error.
_DATA_LINES = (("manifest", "manifest", str, str),
               ("fingerprint", "fingerprint", str, str))
_SEED_LINES = (("params", "params_path", str, str),
               ("balanced_accuracy", "balanced_accuracy", repr, float),
               ("weighted_f1", "weighted_f1", repr, float),
               ("per_class", "per_class", _fmt_floats, _parse_per_class),
               ("best_epoch", "best_epoch", str, int))
_MEAN_LINES = (("balanced_accuracy", "mean_balanced_accuracy", repr, float),
               ("weighted_f1", "mean_weighted_f1", repr, float),
               ("ci_balanced_accuracy", "ci_balanced_accuracy", _fmt_floats,
                _parse_pair),
               ("ci_weighted_f1", "ci_weighted_f1", _fmt_floats, _parse_pair))

_OPTIONAL = {f.name for f in fields(RunReport) if f.default is None}


def _history_row(line: str) -> tuple[int, float, float]:
    epoch, train_loss, val_bal_acc = line.split()
    return int(epoch), float(train_loss), float(val_bal_acc)


def _key_value(line: str) -> tuple[str, str]:
    key, _, value = line.partition(":")
    return key.strip(), value.strip()


def _section_lines(name: str, obj, rows) -> list[str]:
    return ["", f"[{name}]"] + [f"{key}: {fmt(value)}" for key, attr, fmt, _ in rows
                                 if (value := getattr(obj, attr)) is not None]


def write_report(report: RunReport, path) -> None:
    """Serialize to the line-oriented report format (full float precision)."""
    lines = [f"schema: {REPORT_SCHEMA}",
             f"created: {report.created or _now()}",
             "",
             "[config]"]
    lines += [f"{k}: {v}" for k, v in report.config.items()]
    lines += _section_lines("data", report, _DATA_LINES)
    for s in report.seeds:
        lines += _section_lines(f"seed {s.seed}", s, _SEED_LINES)
        if s.history:
            lines += ["", f"[history {s.seed}]"]
            lines += [f"{e} {tl!r} {vb!r}" for e, tl, vb in s.history]
    lines += _section_lines("mean", report, _MEAN_LINES)
    lines.append(f"display: {report.display_line()}")
    with open_atomic(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def read_report(path) -> RunReport:
    """Parse a report written by write_report.

    One pass reads the file into ``{section: lines}``, where section "" is
    the header, and the report is built from that.  A missing key, a
    repeated section, key or seed, and a section other than [config],
    [data], [mean], [seed N], [level <name>] and the [history N] of a
    [seed N] raise a ValueError naming the report and the section; so does
    a report without a [seed N].
    """
    sections: dict[str, list[str]] = {"": []}
    body = sections[""]
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            if line[1:-1] in sections:
                raise ValueError(f"{path}: repeated section {line}")
            body = sections[line[1:-1]] = []
        elif line:
            body.append(line)
    values: dict[str, dict[str, str]] = {}
    for name, lines in sections.items():
        if name.startswith("history "):
            continue
        found = values[name] = {}
        for key, value in map(_key_value, lines):
            if key in found:
                where = f"[{name}]" if name else "header"
                raise ValueError(f"{path}: {where} repeated key {key!r}")
            found[key] = value

    def parsed(name: str, what: str, text: str, parse):
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"{path}: [{name}] bad {what}: {text!r}") from None

    def section(name: str, rows) -> dict:
        found, kwargs = values.get(name, {}), {}
        for key, attr, _, parse in rows:
            if key in found:
                kwargs[attr] = parsed(name, repr(key), found[key], parse)
            elif attr not in _OPTIONAL:
                raise ValueError(f"{path}: [{name}] has no {key!r}")
        return kwargs

    header = values[""]
    if header.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"{path}: unsupported report schema "
                         f"{header.get('schema')!r}")
    seeds = []
    for name in (n for n in sections if n.startswith("seed ")):
        seed = parsed(name, "seed number", name[len("seed "):], int)
        if any(s.seed == seed for s in seeds):
            raise ValueError(f"{path}: [{name}] repeats seed {seed}")
        history = [parsed(f"history {seed}", "line", line, _history_row)
                   for line in sections.get(f"history {seed}", [])]
        seeds.append(SeedResult(seed=seed, history=history,
                                **section(name, _SEED_LINES)))
    if not seeds:
        raise ValueError(f"{path}: no [seed N] section")
    known = {"", "config", "data", "mean"} | {f"history {s.seed}" for s in seeds}
    for name in sections:
        if name not in known and not name.startswith(("seed ", "level ")):
            raise ValueError(f"{path}: unknown section [{name}]")
    return RunReport(config=values.get("config", {}), seeds=seeds,
                     created=header.get("created", ""),
                     **section("data", _DATA_LINES), **section("mean", _MEAN_LINES))


# ---- heatmaps ---------------------------------------------------------------------


def heatmap_grid(coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rasterize each patch's weight at its (x, y) coordinate onto a uint8 grid.

    Weights must already be in [0, 1]; cells without tissue stay 0.
    Coordinates must be unique per bag.
    """
    if not len(weights):
        raise ValueError("no attention weights to rasterize")
    if (weights < 0).any() or (weights > 1).any():
        raise ValueError("attention weights must lie in [0, 1]")
    if len(np.unique(coords, axis=0)) != len(coords):
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
    with open_atomic(path) as fh:
        fh.write(header + grid.tobytes())


def write_attention_table(coords: np.ndarray, weights: np.ndarray, path) -> None:
    """Text table of coords and weight, heaviest patch first, ties by coords."""
    order = np.lexsort((coords[:, 1], coords[:, 0], -weights))
    lines = ["# x\ty\tweight"]
    lines += [f"{coords[i, 0]}\t{coords[i, 1]}\t{weights[i]:.6f}" for i in order]
    with open_atomic(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
