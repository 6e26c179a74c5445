"""Slide feature bags: binary bag files, manifests, and a synthetic generator.

A bag is one slide's set of patch feature vectors plus patch-grid coordinates.
Bags live on disk in a fixed little-endian binary layout (float32 features,
widened to float64 in memory) and are enumerated by a flat tab-separated
manifest.  The synthetic generator samples Gaussian prototype mixtures whose
hardness and rater disagreement both grow with a latent difficulty, and its
defaults are calibrated so the consensus-level mix lands near the target
fractions below.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gleason import (
    ConsensusLevel,
    GleasonScore,
    class_of,
    consensus_record,
    parse_score,
)

__all__ = [
    "Bag",
    "BagFormatError",
    "ManifestEntry",
    "SynthConfig",
    "SynthResult",
    "CALIBRATION_TARGETS",
    "SPLITS",
    "write_bag",
    "read_bag",
    "read_manifest",
    "write_manifest",
    "split_bags",
    "generate_synthetic",
]

_MAGIC = b"WSDB"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")

BAG_INSTANCES_MIN = 68
BAG_INSTANCES_MAX = 1187

SPLITS = ("train", "val", "test")

# Consensus-level mix the default generator settings aim for:
# (homogeneous, heterogeneous, no consensus) as fractions of all slides.
CALIBRATION_TARGETS = {
    ConsensusLevel.HOMOGENEOUS: 0.677,
    ConsensusLevel.HETEROGENEOUS: 0.140,
    ConsensusLevel.NO_CONSENSUS: 0.183,
}


class BagFormatError(ValueError):
    """A bag file violates the binary format; ``reason`` is a stable tag."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(f"{reason}: {detail}")


@dataclass
class Bag:
    """One slide's instance features (n, d) and patch-grid coords (n, 2)."""

    slide_id: str
    features: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.int32)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"bag {self.slide_id}: features must be (n>=1, d), "
                             f"got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError(f"bag {self.slide_id}: non-finite features")
        if self.coords.shape != (self.features.shape[0], 2):
            raise ValueError(f"bag {self.slide_id}: coords shape {self.coords.shape} "
                             f"does not match {self.features.shape[0]} instances")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def write_bag(bag: Bag, path) -> None:
    """Serialize a bag (header, float32 features row-major, int32 coords)."""
    n, d = bag.features.shape
    payload = bytearray(_HEADER.pack(_MAGIC, _VERSION, n, d))
    payload += np.ascontiguousarray(bag.features, dtype="<f4").tobytes()
    payload += np.ascontiguousarray(bag.coords, dtype="<i4").tobytes()
    Path(path).write_bytes(bytes(payload))


def read_bag(path, slide_id: str | None = None) -> Bag:
    """Read a bag file, widening features to float64.

    Raises BagFormatError with reason "bad_magic", "bad_version",
    "empty_dims", "truncated", or "trailing_data".
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise BagFormatError("truncated", f"{path}: {len(raw)} bytes is shorter "
                             f"than the {_HEADER.size}-byte header")
    magic, version, n, d = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BagFormatError("bad_magic", f"{path}: got {magic!r}")
    if version != _VERSION:
        raise BagFormatError("bad_version", f"{path}: got {version}, "
                             f"expected {_VERSION}")
    if n == 0 or d == 0:
        raise BagFormatError("empty_dims", f"{path}: n={n}, d={d}")
    expected = _HEADER.size + 4 * n * d + 8 * n
    if len(raw) < expected:
        raise BagFormatError("truncated", f"{path}: {len(raw)} bytes, "
                             f"header declares {expected}")
    if len(raw) > expected:
        raise BagFormatError("trailing_data", f"{path}: {len(raw) - expected} "
                             f"bytes past declared payload")
    off = _HEADER.size
    features = np.frombuffer(raw, dtype="<f4", count=n * d, offset=off)
    features = features.reshape(n, d).astype(np.float64)
    off += 4 * n * d
    coords = np.frombuffer(raw, dtype="<i4", count=2 * n, offset=off).reshape(n, 2)
    return Bag(slide_id or path.stem, features, coords.copy())


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row; bag_path is resolved against the manifest location."""

    slide_id: str
    bag_path: Path
    expert: GleasonScore
    nonexpert: GleasonScore | None
    split: str

    def label(self) -> int:
        return class_of(self.expert)


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a tab-separated manifest into validated entries.

    Columns: slide_id, bag_path, expert score, non-expert score or "-",
    split (train/val/test).  Blank lines and lines starting with "#" are
    skipped.  Duplicate slide ids and train rows without a non-expert
    score are rejected.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields, "
                             f"got {len(fields)}")
        slide_id, bag_rel, expert_text, nonexpert_text, split = fields
        if slide_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate slide_id {slide_id!r}")
        seen.add(slide_id)
        if split not in SPLITS:
            raise ValueError(f"{path}:{lineno}: unknown split {split!r}")
        try:
            expert = parse_score(expert_text)
            nonexpert = None if nonexpert_text == "-" else parse_score(nonexpert_text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if split == "train" and nonexpert is None:
            raise ValueError(f"{path}:{lineno}: train slide {slide_id!r} "
                             f"lacks a non-expert score")
        entries.append(ManifestEntry(slide_id, (base / bag_rel).resolve(),
                                     expert, nonexpert, split))
    if not entries:
        warnings.warn(f"manifest {path} contains no entries")
    return entries


def write_manifest(entries, path) -> None:
    """Write entries as tab-separated rows with paths relative to ``path``."""
    path = Path(path)
    base = path.parent.resolve()
    lines = ["# slide_id\tbag_path\texpert\tnonexpert\tsplit"]
    for e in entries:
        bag_path = Path(e.bag_path)
        try:
            rel = bag_path.resolve().relative_to(base)
        except ValueError:
            rel = bag_path
        non = "-" if e.nonexpert is None else str(e.nonexpert)
        lines.append(f"{e.slide_id}\t{rel.as_posix()}\t{e.expert}\t{non}\t{e.split}")
    path.write_text("\n".join(lines) + "\n")


def split_bags(entries, split: str) -> list[ManifestEntry]:
    """Entries belonging to one split, in stable slide_id order."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}, expected one of {SPLITS}")
    return sorted((e for e in entries if e.split == split),
                  key=lambda e: e.slide_id)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic cohort.

    Difficulty delta is Beta(difficulty_alpha, difficulty_beta) per slide.
    The worst-grade error rate grows as error_base + error_slope * delta **
    error_power (convex by default: raters rarely miss easy slides and miss
    hard ones often), the secondary-grade error follows the same form, and
    the fraction of instances carrying the slide's class evidence shrinks
    from evidence_max to evidence_min as delta goes 0 to 1.  Each slide
    also leans toward one adjacent grade: its evidence direction slides a
    confusion_max * delta share of the way toward that neighbor's
    prototype (staying on its own side of the boundary), and when the
    non-expert misreads the worst grade the misread lands on the same
    neighbor.  Difficult slides are therefore boundary slides, and rater
    disagreement points at the boundary they sit near.

    The default error curves are calibrated against Beta(2, 2) moments so
    the consensus mix lands on CALIBRATION_TARGETS: E[p] = 0.01 +
    0.865 * E[delta^3] = 0.183, and with the default 65% graded prior,
    0.65 * E[(1 - p) * q] = 0.140.  Only graded slides can disagree on the
    secondary grade, so the class prior and the secondary curve move
    together; re-solve the slope if either changes.
    """

    n_train: int = 600
    n_val: int = 150
    n_test: int = 150
    feature_dim: int = 32
    class_prior: tuple[float, float, float, float] = (0.35, 0.27, 0.22, 0.16)
    difficulty_alpha: float = 2.0
    difficulty_beta: float = 2.0
    error_base: float = 0.01
    error_slope: float = 0.865
    error_power: float = 3.0
    secondary_base: float = 0.06
    secondary_slope: float = 0.814
    secondary_power: float = 2.0
    evidence_max: float = 0.75
    evidence_min: float = 0.40
    confusion_max: float = 0.35
    lower_fraction: float = 0.25
    noise_sigma: float = 0.7
    size_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_train + self.n_val + self.n_test < 1:
            raise ValueError("at least one slide required")
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("split sizes must be non-negative")
        if self.feature_dim < 2:
            raise ValueError(f"feature_dim must be >= 2, got {self.feature_dim}")
        prior = np.asarray(self.class_prior, dtype=np.float64)
        if prior.shape != (4,) or (prior < 0).any() or abs(prior.sum() - 1.0) > 1e-9:
            raise ValueError(f"class_prior must be 4 non-negative values "
                             f"summing to 1, got {self.class_prior}")
        for name, base, slope in (("error", self.error_base, self.error_slope),
                                  ("secondary", self.secondary_base, self.secondary_slope),
                                  ("evidence", self.evidence_min,
                                   self.evidence_max - self.evidence_min)):
            lo, hi = sorted((base, base + slope))
            if lo < 0.0 or hi > 1.0:
                raise ValueError(f"{name} curve leaves [0, 1]: "
                                 f"endpoints {base} and {base + slope}")
        if not 0.0 <= self.lower_fraction <= 1.0:
            raise ValueError(f"lower_fraction {self.lower_fraction} outside [0, 1]")
        if self.error_power <= 0 or self.secondary_power <= 0:
            raise ValueError("curve powers must be positive")
        if not 0.0 <= self.confusion_max < 0.5:
            raise ValueError(f"confusion_max {self.confusion_max} outside [0, 0.5); "
                             f"at 0.5 the hardest slides sit on the class boundary")
        if self.noise_sigma < 0 or self.size_factor <= 0:
            raise ValueError("noise_sigma must be >= 0 and size_factor > 0")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_val + self.n_test

    def worst_error(self, delta: float) -> float:
        """Probability the non-expert misreads the worst grade."""
        return self.error_base + self.error_slope * delta ** self.error_power

    def secondary_error(self, delta: float) -> float:
        """Probability the non-expert's secondary grade drifts."""
        return self.secondary_base + self.secondary_slope * delta ** self.secondary_power

    def evidence_fraction(self, delta: float) -> float:
        """Fraction of instances carrying the slide's class evidence."""
        return self.evidence_max - (self.evidence_max - self.evidence_min) * delta


@dataclass
class SynthResult:
    """What generate_synthetic wrote and the consensus mix it achieved."""

    manifest_path: Path
    entries: list[ManifestEntry]
    fractions: dict[ConsensusLevel, float]


def _prototypes(rng: np.random.Generator, d: int) -> np.ndarray:
    """Five unit-norm rows (4 class prototypes + background), orthonormal
    when the feature dimension allows."""
    raw = rng.standard_normal((d, 5))
    if d >= 5:
        q, _ = np.linalg.qr(raw)
        return q.T.copy()
    return (raw / np.linalg.norm(raw, axis=0, keepdims=True)).T.copy()


def _evidence_direction(protos: np.ndarray, cls: int, lean: int,
                        delta: float, confusion_max: float) -> np.ndarray:
    """Unit vector sliding from the class prototype toward the adjacent
    class it resembles.  The neighbor share caps below one half, so hard
    slides sit near the class boundary without crossing it."""
    share = confusion_max * delta
    mix = (1.0 - share) * protos[cls] + share * protos[lean]
    return mix / np.linalg.norm(mix)


def _token_text(token: int, rng: np.random.Generator) -> str:
    # benign-token secondaries surface as pattern 1 or 2 in the label text
    return str(rng.integers(1, 3)) if token == 0 else str(token)


def _score_text(worst: int, secondary_token: int, rng: np.random.Generator) -> str:
    parts = [str(worst), _token_text(secondary_token, rng)]
    if rng.random() < 0.5:
        parts.reverse()
    return "+".join(parts)


def _secondary_tokens(worst: int) -> list[int]:
    return [0] + list(range(3, worst + 1))


def generate_synthetic(config: SynthConfig, out_dir) -> SynthResult:
    """Write a synthetic cohort (bags/ directory + manifest.tsv) under out_dir.

    Deterministic: the same config produces byte-identical files.  Emits a
    warning when the achieved consensus mix strays more than 3 points from
    the calibration targets, which is expected for non-default curves.
    """
    out_dir = Path(out_dir)
    bag_dir = out_dir / "bags"
    bag_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    protos = _prototypes(rng, config.feature_dim)
    prior = np.asarray(config.class_prior, dtype=np.float64)

    split_of = (["train"] * config.n_train + ["val"] * config.n_val
                + ["test"] * config.n_test)
    entries: list[ManifestEntry] = []
    level_counts = dict.fromkeys(ConsensusLevel, 0)

    for i in range(config.n_total):
        slide_id = f"s{i:05d}"
        cls = int(rng.choice(4, p=prior))
        delta = float(rng.beta(config.difficulty_alpha, config.difficulty_beta))
        # the adjacent grade this slide resembles; benign leans toward
        # grade 3, grade 5 toward grade 4, the middle grades either way
        neighbors = [c for c in (cls - 1, cls + 1) if 0 <= c <= 3]
        lean = int(neighbors[rng.integers(len(neighbors))])

        # expert label: ground truth by construction
        if cls == 0:
            expert_text = "benign"
            expert_secondary = 0
        else:
            worst = cls + 2
            expert_secondary = int(rng.choice(_secondary_tokens(worst)))
            expert_text = _score_text(worst, expert_secondary, rng)

        # non-expert label: with probability p(delta) the worst grade is
        # misread as the neighbor the slide leans toward; otherwise the
        # secondary may still differ
        p_worst = config.worst_error(delta)
        p_secondary = config.secondary_error(delta)
        corrupt_worst = rng.random() < p_worst
        corrupt_secondary = rng.random() < p_secondary
        non_cls = lean if corrupt_worst else cls
        if non_cls == 0:
            nonexpert_text = "benign"
        else:
            worst = non_cls + 2
            if not corrupt_worst and not corrupt_secondary:
                secondary = expert_secondary
            elif not corrupt_worst:
                options = [t for t in _secondary_tokens(worst) if t != expert_secondary]
                secondary = int(options[rng.integers(len(options))])
            else:
                secondary = int(rng.choice(_secondary_tokens(worst)))
            nonexpert_text = _score_text(worst, secondary, rng)

        expert = parse_score(expert_text)
        nonexpert = parse_score(nonexpert_text)
        level_counts[consensus_record(slide_id, expert, nonexpert).level] += 1

        # features: evidence thins out and drifts toward the leaned-on
        # neighbor's prototype as delta grows
        n_full = int(rng.integers(BAG_INSTANCES_MIN, BAG_INSTANCES_MAX + 1))
        n = max(1, int(round(n_full * config.size_factor)))
        n_evidence = int(round(config.evidence_fraction(delta) * n))
        lower_proto = 4 if cls == 0 else (0 if expert_secondary == 0
                                          else expert_secondary - 2)
        n_lower = 0 if cls == 0 else int(round(config.lower_fraction * (n - n_evidence)))
        assign = np.full(n, 4, dtype=np.intp)
        assign[n_evidence:n_evidence + n_lower] = lower_proto
        base = protos[assign]
        base[:n_evidence] = _evidence_direction(protos, cls, lean, delta,
                                                config.confusion_max)
        features = base + config.noise_sigma * rng.standard_normal(
            (n, config.feature_dim))

        side = int(np.ceil(np.sqrt(n))) + 1
        cells = rng.choice(side * side, size=n, replace=False)
        coords = np.stack([cells // side, cells % side], axis=1).astype(np.int32)

        bag = Bag(slide_id, features.astype(np.float32), coords)
        write_bag(bag, bag_dir / f"{slide_id}.bag")
        entries.append(ManifestEntry(slide_id, (bag_dir / f"{slide_id}.bag").resolve(),
                                     expert, nonexpert, split_of[i]))

    manifest_path = out_dir / "manifest.tsv"
    write_manifest(entries, manifest_path)

    total = max(1, config.n_total)
    fractions = {lvl: level_counts[lvl] / total for lvl in ConsensusLevel}
    drift = max(abs(fractions[lvl] - CALIBRATION_TARGETS[lvl]) for lvl in ConsensusLevel)
    if drift > 0.03:
        achieved = ", ".join(f"{lvl.value}={fractions[lvl]:.3f}" for lvl in ConsensusLevel)
        warnings.warn(f"consensus mix off calibration targets by "
                      f"{drift * 100:.1f} points ({achieved})")
    return SynthResult(manifest_path, entries, fractions)
