"""Slide feature bags: binary bag files, manifests, and a synthetic generator.

A bag is one slide's set of patch feature vectors plus patch-grid coordinates.
Bags live on disk in a fixed little-endian binary layout and are enumerated
by a flat tab-separated manifest.  Features stay float32 in memory, as read;
each forward pass widens them to float64, which is exact.  Bags, manifests
and every other file this package writes are written atomically, through a
temp file beside the target that is renamed over it.  The synthetic
generator samples Gaussian prototype mixtures whose hardness and rater
disagreement both grow with a latent difficulty, and its constants are
calibrated so the consensus-level mix lands near the target fractions below.
"""

from __future__ import annotations

import os
import secrets
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gleason import (
    ConsensusLevel,
    GleasonScore,
    class_of,
    consensus_level,
    parse_score,
)

_MAGIC = b"WSDB"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")

BAG_INSTANCES_MIN = 68
BAG_INSTANCES_MAX = 1187

SPLITS = ("train", "val", "test")

# Consensus-level mix the generator's calibration aims for:
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
    """One slide's instance features (n, d) and patch-grid coords (n, 2).

    float32 features are kept as they are; any other dtype is widened to
    float64.  Each patch-grid coordinate may occur once per bag.
    """

    slide_id: str
    features: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.dtype != np.float32:
            self.features = self.features.astype(np.float64, copy=False)
        self.coords = np.ascontiguousarray(self.coords, dtype=np.int32)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"bag {self.slide_id}: features must be (n>=1, d), "
                             f"got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError(f"bag {self.slide_id}: non-finite features")
        if self.coords.shape != (self.features.shape[0], 2):
            raise ValueError(f"bag {self.slide_id}: coords shape {self.coords.shape} "
                             f"does not match {self.features.shape[0]} instances")
        keys = self.coords.view(np.int64).ravel()     # one int64 per (x, y)
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            _, first = np.unique(keys, return_index=True)
            dup = int(np.setdiff1d(np.arange(self.n), first)[0])
            x, y = self.coords[dup]
            raise ValueError(f"bag {self.slide_id}: duplicate patch coordinate "
                             f"({x}, {y}) at instance {dup}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@contextmanager
def open_atomic(path):
    """Open ``path`` for binary writing so that it is replaced whole or not
    at all: the bytes go to a temp file in the same directory, made here if
    missing, which is renamed over ``path`` only when the block exits
    normally.  On an exception the temp file is removed and ``path`` keeps
    its old content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """A UTF-8 file's text, without a leading byte order mark; an
    undecodable byte raises a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_bag(bag: Bag, path) -> None:
    """Serialize a bag (header, float32 features row-major, int32 coords)."""
    n, d = bag.features.shape
    features = np.ascontiguousarray(bag.features, dtype="<f4")
    coords = np.ascontiguousarray(bag.coords, dtype="<i4")
    with open_atomic(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, d))
        fh.write(features.data)
        fh.write(coords.data)


def read_bag(path, slide_id: str | None = None) -> Bag:
    """Read a bag file.  Its features are a read-only float32 view of the
    file's bytes.

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
    off += 4 * n * d
    coords = np.frombuffer(raw, dtype="<i4", count=2 * n, offset=off).reshape(n, 2)
    return Bag(slide_id or path.stem, features.reshape(n, d), coords.copy())


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
    score are rejected.  Bag paths are absolute: each distinct bag directory
    is resolved once and the file name joined to it, so a symlinked bag file
    is kept as named, not followed.
    """
    path = Path(path)
    base = path.parent
    dirs: dict[str, Path] = {}       # bag directory as written -> resolved
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
        bag_dir, name = os.path.split(bag_rel)
        folder = dirs.get(bag_dir)
        if folder is None:
            folder = dirs[bag_dir] = (base / bag_dir).resolve()
        entries.append(ManifestEntry(slide_id, folder / name,
                                     expert, nonexpert, split))
    if not entries:
        warnings.warn(f"manifest {path} contains no entries")
    return entries


def write_manifest(entries, path) -> None:
    """Write entries as tab-separated rows with paths relative to ``path``.

    As in ``read_manifest``, each distinct bag directory is resolved once
    and the file name joined to it.  A bag outside the manifest's directory
    is written as an absolute path.
    """
    path = Path(path)
    base = path.parent.resolve()
    dirs: dict[Path, Path] = {}      # bag directory as given -> resolved
    lines = ["# slide_id\tbag_path\texpert\tnonexpert\tsplit"]
    for e in entries:
        bag_path = Path(e.bag_path)
        folder = dirs.get(bag_path.parent)
        if folder is None:
            folder = dirs[bag_path.parent] = bag_path.parent.resolve()
        try:
            rel = (folder / bag_path.name).relative_to(base)
        except ValueError:
            rel = bag_path.absolute()
        non = "-" if e.nonexpert is None else str(e.nonexpert)
        lines.append(f"{e.slide_id}\t{rel.as_posix()}\t{e.expert}\t{non}\t{e.split}")
    with open_atomic(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def split_bags(entries, split: str) -> list[ManifestEntry]:
    """Entries belonging to one split, in stable slide_id order."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}, expected one of {SPLITS}")
    return sorted((e for e in entries if e.split == split),
                  key=lambda e: e.slide_id)


# The generator's calibration.  Each slide draws its class from CLASS_PRIOR
# and a difficulty delta from Beta(DIFFICULTY_BETA, DIFFICULTY_BETA).  The
# error curves below are calibrated against Beta(2, 2) moments so the
# consensus mix lands on CALIBRATION_TARGETS: E[p] = 0.01 + 0.865 *
# E[delta^3] = 0.183, and with the 65% graded prior, 0.65 * E[(1 - p) * q]
# = 0.140.  Only graded slides can disagree on the secondary grade, so the
# class prior and the secondary curve move together; re-solve the slope if
# either changes.
CLASS_PRIOR = (0.35, 0.27, 0.22, 0.16)
DIFFICULTY_BETA = 2.0
CONFUSION_MAX = 0.35    # neighbor share of the evidence direction at delta = 1
# share of a graded slide's other instances from its secondary grade
LOWER_FRACTION = 0.25


def worst_error(delta: float) -> float:
    """Probability the non-expert misreads the worst grade: convex, so
    raters rarely miss easy slides and miss hard ones often."""
    return 0.01 + 0.865 * delta ** 3.0


def secondary_error(delta: float) -> float:
    """Probability the non-expert's secondary grade drifts."""
    return 0.06 + 0.814 * delta ** 2.0


def evidence_fraction(delta: float) -> float:
    """Fraction of instances carrying the slide's class evidence."""
    return 0.75 - (0.75 - 0.40) * delta


@dataclass(frozen=True)
class SynthConfig:
    """Size, feature noise and seed of a synthetic cohort; the calibration
    above fixes the rest."""

    n_train: int = 600
    n_val: int = 150
    n_test: int = 150
    feature_dim: int = 32
    noise_sigma: float = 0.7
    size_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.n_train + self.n_val + self.n_test < 1:
            raise ValueError("at least one slide required")
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ValueError("split sizes must be non-negative")
        if self.feature_dim < 2:
            raise ValueError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.noise_sigma < 0 or self.size_factor <= 0:
            raise ValueError("noise_sigma must be >= 0 and size_factor > 0")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_val + self.n_test


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
                        delta: float) -> np.ndarray:
    """Unit vector sliding from the class prototype toward the adjacent
    class it resembles.  The neighbor share caps below one half, so hard
    slides sit near the class boundary without crossing it."""
    share = CONFUSION_MAX * delta
    mix = (1.0 - share) * protos[cls] + share * protos[lean]
    return mix / np.linalg.norm(mix)


def _graded(worst: int, token: int, rng: np.random.Generator) -> GleasonScore:
    """A graded label, its two patterns in either order; a benign secondary
    token surfaces as pattern 1 or 2."""
    secondary = int(rng.integers(1, 3)) if token == 0 else token
    if rng.random() < 0.5:
        return GleasonScore(secondary, worst)
    return GleasonScore(worst, secondary)


def _secondary_tokens(worst: int) -> list[int]:
    return [0] + list(range(3, worst + 1))


def generate_synthetic(config: SynthConfig, out_dir) -> SynthResult:
    """Write a synthetic cohort (bags/ directory + manifest.tsv) under out_dir.

    Deterministic: the same config produces byte-identical files; a bag's
    features fill in row blocks, never holding its float64 noise whole.  Emits
    a warning when the achieved consensus mix strays more than 3 points from
    the calibration targets, which small cohorts do from sampling alone.
    """
    out_dir = Path(out_dir)
    bag_dir = out_dir / "bags"
    resolved_dir = bag_dir.resolve()
    rng = np.random.default_rng(config.seed)
    protos = _prototypes(rng, config.feature_dim)

    split_of = (["train"] * config.n_train + ["val"] * config.n_val
                + ["test"] * config.n_test)
    entries: list[ManifestEntry] = []

    for i in range(config.n_total):
        slide_id = f"s{i:05d}"
        cls = int(rng.choice(4, p=CLASS_PRIOR))
        delta = float(rng.beta(DIFFICULTY_BETA, DIFFICULTY_BETA))
        # the adjacent grade this slide resembles; benign leans toward
        # grade 3, grade 5 toward grade 4, the middle grades either way
        neighbors = [c for c in (cls - 1, cls + 1) if 0 <= c <= 3]
        lean = int(neighbors[rng.integers(len(neighbors))])

        # expert label: ground truth by construction
        expert, expert_secondary = GleasonScore(0, 0), 0
        if cls:
            expert_secondary = int(rng.choice(_secondary_tokens(cls + 2)))
            expert = _graded(cls + 2, expert_secondary, rng)

        # non-expert label: with probability worst_error(delta) the worst
        # grade is misread as the neighbor the slide leans toward; otherwise
        # the secondary may still differ
        corrupt_worst = rng.random() < worst_error(delta)
        corrupt_secondary = rng.random() < secondary_error(delta)
        non_cls = lean if corrupt_worst else cls
        nonexpert = GleasonScore(0, 0)
        if non_cls:
            worst = non_cls + 2
            if not corrupt_worst and not corrupt_secondary:
                secondary = expert_secondary
            elif not corrupt_worst:
                options = [t for t in _secondary_tokens(worst) if t != expert_secondary]
                secondary = int(options[rng.integers(len(options))])
            else:
                secondary = int(rng.choice(_secondary_tokens(worst)))
            nonexpert = _graded(worst, secondary, rng)

        # features: evidence thins out and drifts toward the leaned-on
        # neighbor's prototype as delta grows
        n_full = int(rng.integers(BAG_INSTANCES_MIN, BAG_INSTANCES_MAX + 1))
        n = max(1, int(round(n_full * config.size_factor)))
        n_evidence = int(round(evidence_fraction(delta) * n))
        lower_proto = 4 if cls == 0 else (0 if expert_secondary == 0
                                          else expert_secondary - 2)
        n_lower = 0 if cls == 0 else int(round(LOWER_FRACTION * (n - n_evidence)))
        # row i is centred on rows[assign[i]]; row 5 is the evidence direction
        rows = np.vstack([protos, _evidence_direction(protos, cls, lean, delta)])
        assign = np.full(n, 4, dtype=np.intp)
        assign[:n_evidence] = 5
        assign[n_evidence:n_evidence + n_lower] = lower_proto
        features = np.empty((n, config.feature_dim), dtype=np.float32)
        # blocks of <= 64 Ki float64 values draw the noise as one (n, d) draw would
        step = max(1, 65536 // config.feature_dim)
        for lo in range(0, n, step):
            block = rng.standard_normal((min(step, n - lo), config.feature_dim))
            block *= config.noise_sigma
            block += rows[assign[lo:lo + step]]
            features[lo:lo + step] = block

        side = int(np.ceil(np.sqrt(n))) + 1
        cells = rng.choice(side * side, size=n, replace=False)
        coords = np.stack([cells // side, cells % side], axis=1).astype(np.int32)

        write_bag(Bag(slide_id, features, coords), bag_dir / f"{slide_id}.bag")
        del features, block       # so the next bag's np.empty finds them freed
        entries.append(ManifestEntry(slide_id, resolved_dir / f"{slide_id}.bag",
                                     expert, nonexpert, split_of[i]))

    manifest_path = out_dir / "manifest.tsv"
    write_manifest(entries, manifest_path)

    levels = [consensus_level(e.expert, e.nonexpert) for e in entries]
    fractions = {lvl: levels.count(lvl) / config.n_total for lvl in ConsensusLevel}
    drift = max(abs(fractions[lvl] - CALIBRATION_TARGETS[lvl]) for lvl in ConsensusLevel)
    if drift > 0.03:
        achieved = ", ".join(f"{lvl.value}={fractions[lvl]:.3f}" for lvl in ConsensusLevel)
        warnings.warn(f"consensus mix off calibration targets by "
                      f"{drift * 100:.1f} points ({achieved})")
    return SynthResult(manifest_path, entries, fractions)
