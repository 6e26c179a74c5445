"""Score parsing, slide classes, consensus levels, and loss weights."""

import pytest

from wsdmil.gleason import (
    ConsensusLevel,
    GleasonScore,
    WeightTriple,
    class_of,
    consensus_level,
    parse_score,
    worst_grade,
    wsd_score,
    wsd_weight,
)


def all_scores():
    """Every representable label: benign plus all 25 ordered grade pairs."""
    return [GleasonScore(0, 0)] + [GleasonScore(a, b)
                                   for a in range(1, 6) for b in range(1, 6)]


def oracle_level(x: GleasonScore, y: GleasonScore) -> ConsensusLevel:
    """Brute-force reference written from the definitions, not the code:
    compare sorted benign-normalized grade pairs."""
    def normalized(s):
        grades = [] if s.primary == 0 else [s.primary, s.secondary]
        return sorted(0 if g in (1, 2) else g for g in (grades or [0, 0]))

    nx, ny = normalized(x), normalized(y)
    if nx == ny:
        return ConsensusLevel.HOMOGENEOUS
    if nx[-1] == ny[-1]:
        return ConsensusLevel.HETEROGENEOUS
    return ConsensusLevel.NO_CONSENSUS


# ---- parsing ----------------------------------------------------------------------


def test_parse_graded_pair():
    s = parse_score("3+5")
    assert (s.primary, s.secondary) == (3, 5)
    assert str(s) == "3+5"


def test_parse_benign_any_case_and_whitespace():
    assert parse_score("benign").is_benign
    assert parse_score("  BeNiGn ").is_benign
    assert parse_score(" 4 + 3 ") == GleasonScore(4, 3)


@pytest.mark.parametrize("bad", ["3+6", "0+3", "6+6", "", "3-4", "3+4+5",
                                 "threeplusfour", "3+", "+4", "33+4"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError, match="Gleason"):
        parse_score(bad)


def test_parse_rejects_non_string():
    with pytest.raises(ValueError):
        parse_score(34)


def test_parse_preserves_order():
    assert str(parse_score("3+4")) == "3+4"
    assert str(parse_score("4+3")) == "4+3"


# ---- grades and classes -----------------------------------------------------------


def test_worst_grade_examples():
    assert worst_grade(parse_score("3+5")) == 5
    assert worst_grade(parse_score("2+2")) == 0
    assert worst_grade(parse_score("benign")) == 0
    assert worst_grade(parse_score("1+3")) == 3


def test_class_of_examples():
    assert class_of(parse_score("4+3")) == 2
    assert class_of(parse_score("1+2")) == 0
    assert class_of(parse_score("5+5")) == 3
    assert class_of(parse_score("benign")) == 0
    assert class_of(parse_score("3+3")) == 1


def test_class_covers_exactly_four_values():
    assert {class_of(s) for s in all_scores()} == {0, 1, 2, 3}


# ---- consensus --------------------------------------------------------------------


def test_consensus_example_pairs():
    assert consensus_level(parse_score("3+4"),
                           parse_score("4+3")) is ConsensusLevel.HOMOGENEOUS
    assert consensus_level(parse_score("4+4"),
                           parse_score("3+4")) is ConsensusLevel.HETEROGENEOUS
    assert consensus_level(parse_score("4+5"),
                           parse_score("4+3")) is ConsensusLevel.NO_CONSENSUS
    assert consensus_level(parse_score("benign"),
                           parse_score("benign")) is ConsensusLevel.HOMOGENEOUS


def test_benign_normalization_in_consensus():
    assert consensus_level(parse_score("benign"),
                           parse_score("1+2")) is ConsensusLevel.HOMOGENEOUS
    assert consensus_level(parse_score("2+2"),
                           parse_score("benign")) is ConsensusLevel.HOMOGENEOUS
    assert consensus_level(parse_score("benign"),
                           parse_score("3+3")) is ConsensusLevel.NO_CONSENSUS
    # worst agrees at 3, secondaries 0 vs 3 differ
    assert consensus_level(parse_score("3+2"),
                           parse_score("3+3")) is ConsensusLevel.HETEROGENEOUS


def test_consensus_matches_brute_force_oracle_on_all_pairs():
    scores = all_scores()
    for x in scores:
        for y in scores:
            assert consensus_level(x, y) is oracle_level(x, y), (str(x), str(y))


def test_consensus_symmetry_and_reflexivity():
    scores = all_scores()
    for x in scores:
        assert consensus_level(x, x) is ConsensusLevel.HOMOGENEOUS
        for y in scores:
            assert consensus_level(x, y) is consensus_level(y, x)


def test_no_consensus_iff_worst_grades_differ():
    scores = all_scores()
    for x in scores:
        for y in scores:
            differs = worst_grade(x) != worst_grade(y)
            is_nc = consensus_level(x, y) is ConsensusLevel.NO_CONSENSUS
            assert differs == is_nc


# ---- difficulty and weights -------------------------------------------------------


def test_wsd_score_mapping_and_monotonicity():
    assert wsd_score(ConsensusLevel.HOMOGENEOUS) == 0.0
    assert wsd_score(ConsensusLevel.HETEROGENEOUS) == 0.5
    assert wsd_score(ConsensusLevel.NO_CONSENSUS) == 1.0


def test_weight_triple_accepts_in_range_values():
    t = WeightTriple(4.0, 3.0, 1.0)
    assert t.as_tuple() == (4.0, 3.0, 1.0)
    WeightTriple(2.0, 1.3, 1.0)
    WeightTriple(10.0, 4.0, 1.0)


@pytest.mark.parametrize("nc,hec,hoc", [
    (4.0, 3.0, 2.0),    # homogeneous weight pinned to 1
    (4.0, 1.2, 1.0),    # heterogeneous below range
    (4.0, 4.5, 1.0),    # heterogeneous above range
    (1.5, 3.0, 1.0),    # no-consensus below range
    (11.0, 3.0, 1.0),   # no-consensus above range
])
def test_weight_triple_rejects_out_of_range(nc, hec, hoc):
    with pytest.raises(ValueError):
        WeightTriple(nc, hec, hoc)


def test_weight_triple_override_allows_ablations():
    t = WeightTriple(1.0, 1.7, 2.0, allow_out_of_range=True)
    assert t.as_tuple() == (1.0, 1.7, 2.0)
    WeightTriple(1.0, 1.0, 1.0, allow_out_of_range=True)


def test_weight_triple_rejects_non_positive_even_with_override():
    with pytest.raises(ValueError):
        WeightTriple(0.0, 1.0, 1.0, allow_out_of_range=True)
    with pytest.raises(ValueError):
        WeightTriple(4.0, -3.0, 1.0, allow_out_of_range=True)


def test_wsd_weight_selects_component():
    t = WeightTriple(4.0, 3.0, 1.0)
    assert wsd_weight(ConsensusLevel.NO_CONSENSUS, t) == 4.0
    assert wsd_weight(ConsensusLevel.HETEROGENEOUS, t) == 3.0
    assert wsd_weight(ConsensusLevel.HOMOGENEOUS, t) == 1.0


def test_consensus_level_gives_consistent_wsd_and_weight():
    level = consensus_level(parse_score("4+4"), parse_score("3+4"))
    assert level is ConsensusLevel.HETEROGENEOUS
    assert wsd_score(level) == 0.5
    assert wsd_weight(level, WeightTriple(4.0, 3.0, 1.0)) == 3.0


def test_consensus_level_with_unit_triple_weighs_one():
    level = consensus_level(parse_score("3+3"), parse_score("4+3"))
    assert level is ConsensusLevel.NO_CONSENSUS
    unit = WeightTriple(1.0, 1.0, 1.0, allow_out_of_range=True)
    assert wsd_weight(level, unit) == 1.0
