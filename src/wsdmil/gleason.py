"""Gleason score parsing, slide classes, and rater-consensus difficulty.

A slide is labeled either "benign" or with a graded pair "a+b" (primary and
secondary pattern, each 1..5).  Patterns 1 and 2 carry no clinical weight
here and normalize to the benign token 0, so "1+2" and "benign" agree.
Two raters' labels are compared through their normalized grade multisets to
produce a consensus level, which maps to a difficulty score and, during
training, a loss weight.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

BENIGN_TOKEN = 0

_SCORE_RE = re.compile(r"^\s*([1-5])\s*\+\s*([1-5])\s*$")


@dataclass(frozen=True)
class GleasonScore:
    """A parsed slide label: benign, or a primary+secondary pattern pair."""

    primary: int
    secondary: int

    @property
    def is_benign(self) -> bool:
        return self.primary == 0

    def grade_multiset(self) -> tuple[int, int]:
        """Normalized grades in sorted order; patterns 1-2 collapse to 0."""
        a = _normalize(self.primary)
        b = _normalize(self.secondary)
        return (a, b) if a <= b else (b, a)

    def __str__(self) -> str:
        if self.is_benign:
            return "benign"
        return f"{self.primary}+{self.secondary}"


def _normalize(grade: int) -> int:
    return BENIGN_TOKEN if grade <= 2 else grade


def parse_score(text: str) -> GleasonScore:
    """Parse "a+b" (a, b in 1..5) or "benign", case-insensitive.

    Raises ValueError naming the offending text on anything else.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a Gleason label: {text!r}")
    if text.strip().lower() == "benign":
        return GleasonScore(0, 0)
    m = _SCORE_RE.match(text)
    if m is None:
        raise ValueError(f"not a Gleason label: {text!r}")
    return GleasonScore(int(m.group(1)), int(m.group(2)))


def worst_grade(score: GleasonScore) -> int:
    """Highest normalized pattern in the score; 0 for benign slides."""
    return max(score.grade_multiset())


def class_of(score: GleasonScore) -> int:
    """Four-way slide class: 0 benign, 1/2/3 for worst pattern 3/4/5."""
    worst = worst_grade(score)
    if worst == BENIGN_TOKEN:
        return 0
    return worst - 2


class ConsensusLevel(enum.Enum):
    """Agreement between two raters' labels for the same slide."""

    HOMOGENEOUS = "homogeneous"
    HETEROGENEOUS = "heterogeneous"
    NO_CONSENSUS = "no_consensus"


def consensus_level(expert: GleasonScore, nonexpert: GleasonScore) -> ConsensusLevel:
    """Classify rater agreement by normalized grade multisets.

    Equal multisets are homogeneous; equal worst grade with differing
    multisets is heterogeneous; differing worst grades give no consensus.
    """
    a = expert.grade_multiset()
    b = nonexpert.grade_multiset()
    if a == b:
        return ConsensusLevel.HOMOGENEOUS
    if max(a) == max(b):
        return ConsensusLevel.HETEROGENEOUS
    return ConsensusLevel.NO_CONSENSUS


_DIFFICULTY = {
    ConsensusLevel.HOMOGENEOUS: 0.0,
    ConsensusLevel.HETEROGENEOUS: 0.5,
    ConsensusLevel.NO_CONSENSUS: 1.0,
}


def wsd_score(level: ConsensusLevel) -> float:
    """Slide difficulty in {0.0, 0.5, 1.0}, increasing with disagreement."""
    return _DIFFICULTY[level]


@dataclass(frozen=True)
class WeightTriple:
    """Per-consensus-level loss weights (no-consensus, heterogeneous, homogeneous).

    The homogeneous weight is pinned to 1.0 and the other two are confined
    to their useful ranges unless ``allow_out_of_range`` is set, which exists
    for ablations such as the uniform (1, 1, 1) triple.
    """

    no_consensus: float
    heterogeneous: float
    homogeneous: float = 1.0
    allow_out_of_range: bool = False

    def __post_init__(self):
        for name in ("no_consensus", "heterogeneous", "homogeneous"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                raise ValueError(f"weight {name} must be a positive finite number, "
                                 f"got {v!r}")
        if self.allow_out_of_range:
            return
        if self.homogeneous != 1.0:
            raise ValueError(f"homogeneous weight must be 1.0, got {self.homogeneous}")
        if not 1.3 <= self.heterogeneous <= 4.0:
            raise ValueError(
                f"heterogeneous weight {self.heterogeneous} outside [1.3, 4.0]")
        if not 2.0 <= self.no_consensus <= 10.0:
            raise ValueError(
                f"no-consensus weight {self.no_consensus} outside [2.0, 10.0]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.no_consensus, self.heterogeneous, self.homogeneous)


def wsd_weight(level: ConsensusLevel, weights: WeightTriple) -> float:
    """Loss weight for a slide at the given consensus level."""
    if level is ConsensusLevel.NO_CONSENSUS:
        return weights.no_consensus
    if level is ConsensusLevel.HETEROGENEOUS:
        return weights.heterogeneous
    return weights.homogeneous


@dataclass(frozen=True)
class ConsensusRecord:
    """One slide's rater pair with its derived consensus level and difficulty."""

    slide_id: str
    expert: GleasonScore
    nonexpert: GleasonScore
    level: ConsensusLevel
    wsd: float


def consensus_record(slide_id: str, expert: GleasonScore,
                     nonexpert: GleasonScore) -> ConsensusRecord:
    """Bundle the consensus level and difficulty for one slide."""
    level = consensus_level(expert, nonexpert)
    return ConsensusRecord(slide_id, expert, nonexpert, level, wsd_score(level))
