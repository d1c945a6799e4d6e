import json
from fractions import Fraction
from pathlib import Path

import pytest

from circlegather.analysis import (
    ConfigurationClass,
    LeaderTag,
    Possibility,
    analysis_report,
    classify,
    classify_all,
    configuration_class,
    detect_confused_peer_in_c0,
    expected_leaders,
    hypothesis_configs,
    is_safe_neighbor,
)
from circlegather.configuration import (
    Configuration,
    Snapshot,
    take_snapshot,
    true_leader,
)
from circlegather.errors import (
    MultiplicityInSnapshot,
    MultiplicityPresent,
    NotConfusedLeader,
    SymmetricConfiguration,
)

FIXTURES = Path(__file__).parent / "fixtures"


def F(s):
    return Fraction(s)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return Configuration.from_json(json.load(fh))


@pytest.fixture
def worked():
    return load_fixture("worked_example")


def test_hypothesis_configs_frame(worked):
    snap = take_snapshot(worked, "r0")
    c0, c1, possibility = hypothesis_configs(snap)
    assert possibility is Possibility.BOTH
    assert c0.positions == (F(0), F("1/10"), F("9/20"), F("7/10"))
    assert set(c1.positions) == set(c0.positions) | {F("1/2")}
    assert c1.robot("antipodal").pos == F("1/2")


def test_hypothesis_rejects_multiplicity_snapshot():
    snap = Snapshot.of([(F("1/10"), True)])
    with pytest.raises(MultiplicityInSnapshot):
        hypothesis_configs(snap)
    with pytest.raises(MultiplicityInSnapshot):
        classify(snap)


def test_only_c0_when_adding_the_antipode_creates_symmetry():
    # Observer at 0 with robots at 1/4 and 3/4: adding 1/2 makes a square.
    snap = Snapshot.of([(F("1/4"), False), (F("3/4"), False)])
    _, _, possibility = hypothesis_configs(snap)
    assert possibility is Possibility.ONLY_C0


def test_only_c1_when_the_view_alone_is_symmetric():
    snap = Snapshot.of([(F("1/3"), False), (F("2/3"), False)])
    _, _, possibility = hypothesis_configs(snap)
    assert possibility is Possibility.ONLY_C1


def test_no_snapshot_with_both_hypotheses_symmetric_found():
    """Sampled views never make both hypotheses symmetric at once.

    A view symmetric both with and without its antipodal point would be
    unclassifiable; enumerate small evenly spaced views to confirm none is.
    """
    from itertools import combinations

    for d in range(3, 13):
        offsets = [F(k) / d for k in range(1, d)]
        for size in (1, 2, 3):
            for combo in combinations(offsets, size):
                if F("1/2") in combo:
                    continue
                snap = Snapshot.of((o, False) for o in combo)
                classify(snap)


def test_worked_example_classification(worked):
    tags = {rid: lc.tag for rid, lc in classify_all(worked).items()}
    assert tags == {
        "r0": LeaderTag.CONFUSED_LEADER,
        "r1": LeaderTag.FOLLOWER,
        "r2": LeaderTag.FOLLOWER,
        "r3": LeaderTag.FOLLOWER,
    }
    lc = classify(take_snapshot(worked, "r0"))
    assert lc.possibility is Possibility.BOTH


def test_worked_example_confused_leader_splits_hypotheses(worked):
    snap = take_snapshot(worked, "r0")
    c0, c1, _ = hypothesis_configs(snap)
    assert true_leader(c0) == 0
    assert true_leader(c1) != 0


def test_worked_example_safe_neighbor_and_class(worked):
    snap = take_snapshot(worked, "r0")
    assert is_safe_neighbor(snap)
    assert configuration_class(worked) is ConfigurationClass.A


def test_safe_neighbor_requires_confused_leader(worked):
    with pytest.raises(NotConfusedLeader):
        is_safe_neighbor(take_snapshot(worked, "r1"))
    with pytest.raises(NotConfusedLeader):
        detect_confused_peer_in_c0(take_snapshot(worked, "r1"))


@pytest.mark.parametrize(
    "name,expected",
    [
        ("class_A_sure", ConfigurationClass.A),
        ("class_A_confused", ConfigurationClass.A),
        ("class_BI", ConfigurationClass.BI),
        ("class_BII", ConfigurationClass.BII),
        ("class_C", ConfigurationClass.C),
    ],
)
def test_fixture_classes(name, expected):
    assert configuration_class(load_fixture(name)) is expected


def test_class_A_sure_fixture_has_a_sure_leader():
    leaders = expected_leaders(load_fixture("class_A_sure"))
    assert len(leaders) == 1
    assert leaders[0][1].tag is LeaderTag.SURE_LEADER


def test_class_C_fixture_leader_is_confused_and_unsafe():
    cfg = load_fixture("class_C")
    leaders = expected_leaders(cfg)
    assert len(leaders) == 1
    rid, lc = leaders[0]
    assert lc.tag is LeaderTag.CONFUSED_LEADER
    assert not is_safe_neighbor(take_snapshot(cfg, rid))


def test_two_leader_fixtures_have_two_expected_leaders():
    for name in ("class_BI", "class_BII", "leaders_two_confused", "leaders_sure_and_confused"):
        cfg = load_fixture(name)
        assert len(expected_leaders(cfg)) == 2, name


def test_expected_leader_tag_combinations():
    combos = {
        "leaders_one_sure": ("sure-leader",),
        "leaders_one_confused": ("confused-leader",),
        "leaders_two_confused": ("confused-leader", "confused-leader"),
        "leaders_sure_and_confused": ("confused-leader", "sure-leader"),
    }
    for name, expected in combos.items():
        tags = tuple(sorted(lc.tag.value for _, lc in expected_leaders(load_fixture(name))))
        assert tags == expected, name


def test_taxonomy_rejects_illegal_inputs():
    with pytest.raises(MultiplicityPresent):
        configuration_class(Configuration.from_points([F(0), F(0), F("1/4")]))
    with pytest.raises(SymmetricConfiguration):
        configuration_class(Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")]))


def test_analysis_report_shape(worked):
    report = analysis_report(worked)
    assert report["class"] == "A"
    assert report["leader"] == "0/1"
    assert [r["id"] for r in report["robots"]] == ["r0", "r1", "r2", "r3"]
    assert report["robots"][0]["class"] == "confused-leader"
    json.dumps(report)
