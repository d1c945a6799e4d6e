import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circlegather import analysis
from circlegather.analysis import (
    ConfigurationClass,
    LeaderTag,
    Possibility,
    analysis_report,
    classify,
    configuration_class,
    detect_confused_peer_in_c0,
    is_safe_neighbor,
)
from circlegather.angles import HALF_TURN, format_angle
from circlegather.configuration import (
    Configuration,
    Snapshot,
    gap_sequence,
    is_rotationally_symmetric,
    snapshot_of_positions,
    take_snapshot,
)
from circlegather.errors import (
    AmbiguousSymmetric,
    MultiplicityPresent,
    NotConfusedLeader,
    SymmetricConfiguration,
)
from circlegather.oracle import brute_force_leader, oracle_classify

FIXTURES = Path(__file__).parent / "fixtures"

#: Examples per property test: 300, or the deep profile's budget when it is larger.
BUDGET = max(300, settings.default.max_examples)


def F(s):
    return Fraction(s)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return Configuration.from_json(json.load(fh))


@pytest.fixture
def worked():
    return load_fixture("worked_example")


def report_leaders(config):
    """(robot id, class) of every robot the analysis report does not call a follower."""
    robots = analysis_report(config)["robots"]
    return [(r["id"], r["class"]) for r in robots if r["class"] != "follower"]


def test_hypothesis_rejects_multiplicity_snapshot():
    """A flagged neighbour or own point raises the error the CLI maps to exit 2."""
    for snap in (Snapshot(10, (1,), (True,)), Snapshot(10, (1,), (False,), True)):
        for reasoning in (classify, is_safe_neighbor, detect_confused_peer_in_c0):
            with pytest.raises(
                MultiplicityPresent, match="^operation undefined with a multiplicity point$"
            ):
                reasoning(snap)


def test_only_c0_when_adding_the_antipode_creates_symmetry():
    # Observer at 0 with robots at 1/4 and 3/4: adding 1/2 makes a square.
    snap = Snapshot(4, (1, 3), (False, False))
    assert classify(snap).possibility is Possibility.ONLY_C0


def test_only_c1_when_the_view_alone_is_symmetric():
    snap = Snapshot(3, (1, 2), (False, False))
    assert classify(snap).possibility is Possibility.ONLY_C1


def test_no_snapshot_with_both_hypotheses_symmetric_found():
    """Sampled views never make both hypotheses symmetric at once.

    A view symmetric both with and without its antipodal point would be
    unclassifiable; enumerate small evenly spaced views to confirm none is.
    """
    for d in range(3, 13):
        for size in (1, 2, 3):
            for ticks in combinations(range(1, d), size):
                if any(2 * t == d for t in ticks):
                    continue
                classify(plain(d, ticks))


def test_worked_example_classification(worked):
    tags = {r["id"]: r["class"] for r in analysis_report(worked)["robots"]}
    assert tags == {
        "r0": "confused-leader",
        "r1": "follower",
        "r2": "follower",
        "r3": "follower",
    }
    lc = classify(take_snapshot(worked, "r0"))
    assert lc.possibility is Possibility.BOTH


def test_worked_example_confused_leader_splits_hypotheses(worked):
    snap = take_snapshot(worked, "r0")
    # c0 is the observer frame of the view: the observer, index 0, leads it.
    _, _, _, lead0, lead1 = analysis._hypothesis_data(snap)
    assert lead0 == 0
    assert lead1 != 0


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
    assert [cls for _, cls in report_leaders(load_fixture("class_A_sure"))] == ["sure-leader"]


def test_class_C_fixture_leader_is_confused_and_unsafe():
    cfg = load_fixture("class_C")
    ((rid, cls),) = report_leaders(cfg)
    assert cls == "confused-leader"
    assert not is_safe_neighbor(take_snapshot(cfg, rid))


def test_two_leader_fixtures_have_two_expected_leaders():
    for name in ("class_BI", "class_BII", "leaders_two_confused", "leaders_sure_and_confused"):
        assert len(report_leaders(load_fixture(name))) == 2, name


def test_expected_leader_tag_combinations():
    combos = {
        "leaders_one_sure": ("sure-leader",),
        "leaders_one_confused": ("confused-leader",),
        "leaders_two_confused": ("confused-leader", "confused-leader"),
        "leaders_sure_and_confused": ("confused-leader", "sure-leader"),
    }
    for name, expected in combos.items():
        tags = tuple(sorted(cls for _, cls in report_leaders(load_fixture(name))))
        assert tags == expected, name


def test_taxonomy_rejects_illegal_inputs():
    with pytest.raises(
        MultiplicityPresent, match="^operation undefined with a multiplicity point$"
    ):
        configuration_class(Configuration.from_points([F(0), F(0), F("1/4")]))
    with pytest.raises(
        SymmetricConfiguration, match="^taxonomy undefined for symmetric configurations$"
    ):
        configuration_class(Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")]))


#: sha256 of each fixture configuration's ``analysis_report``, as sorted-key JSON.
REPORT_DIGESTS = {
    "class_A_confused": "41d5c13576bff5d3452106d1dbc6abc6fd1a7970468a187acd5af9191b4eeaa6",
    "class_A_sure": "7393135ca873410f910233100cece1175e1f9cad38f8e9b981a9ee442fbbda44",
    "class_BI": "ccba494c4d70370930484b3290ae80806fab7653c9cb09d9db4fa0c9ee8b24a6",
    "class_BII": "8d7dc90c20f2b2eb35d5d4c4d2d9a97765e7f6f7a6fd666f190b4ea0b5e56ced",
    "class_C": "8fde117d8162608a59860bbf532528908c32e5b2b9b47511465ea1b85e938765",
    "leaders_one_confused": "385b483bf1cd85d6f5c48750389136f3fdf345e0dce0956ee8cf544a77932622",
    "leaders_one_sure": "b38977049f65b7361d762b54e26b8aeb57cc3e00b41f2b39304818c5afae3155",
    "leaders_sure_and_confused": "f7b730f5ebb7501e39a6eaa2fd7b622351b51e0f6c27d6b09df8a92e9dae0c32",
    "leaders_two_confused": "f8478bf3c33bdacf2aadfe57515655e7290439d2078613f53c1d03ee2d20baa1",
    "worked_example": "f48ef874144a220cf10d309e500a522c8691be195abeceb25ffd402f3380f978",
}


def test_analysis_reports_of_the_fixtures_are_pinned():
    names = sorted(path.stem for path in FIXTURES.glob("*.json"))
    assert names == sorted(REPORT_DIGESTS)
    for name in names:
        text = json.dumps(analysis_report(load_fixture(name)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name], name


def test_analysis_report_shape(worked):
    report = analysis_report(worked)
    assert report["class"] == "A"
    assert report["leader"] == "0/1"
    assert [r["id"] for r in report["robots"]] == ["r0", "r1", "r2", "r3"]
    assert report["robots"][0]["class"] == "confused-leader"
    json.dumps(report)


# ---------------------------------------------------------------------------
# The int election against the Fraction rule it replaced


def naive_has_period(gaps):
    """Some nontrivial rotation of ``gaps`` equals ``gaps``."""
    return any(gaps[k:] + gaps[:k] == gaps for k in range(1, len(gaps)))


def reference_hypotheses(snapshot, symmetric=naive_has_period):
    """(c0, c1, possibility, c0 leader, c1 leader) on Fractions.

    c0 is the observer at 0 plus the offsets, c1 adds the half turn and is
    sorted, and each is elected on its own Fraction ``gap_sequence`` by
    comparing every rotation; leaders are positions.
    """
    c0 = (Fraction(0),) + tuple(Fraction(t, snapshot.d) for t in snapshot.ticks)
    c1 = tuple(sorted(c0 + (HALF_TURN,)))
    leaders = []
    for positions in (c0, c1):
        pts, gaps = sorted(positions), gap_sequence(positions)
        least = min(range(len(gaps)), key=lambda k: gaps[k:] + gaps[:k])
        leaders.append(None if symmetric(gaps) else pts[least])
    lead0, lead1 = leaders
    if lead0 is None and lead1 is None:
        raise AmbiguousSymmetric("both antipodal hypotheses are symmetric")
    if lead0 is None:
        possibility = Possibility.ONLY_C1
    elif lead1 is None:
        possibility = Possibility.ONLY_C0
    else:
        possibility = Possibility.BOTH
    return c0, c1, possibility, lead0, lead1


def reference_classify(snapshot):
    _, _, possibility, lead0, lead1 = reference_hypotheses(snapshot)
    leads0, leads1 = lead0 == 0, lead1 == 0
    if possibility is Possibility.ONLY_C0:
        leads = leads0
    elif possibility is Possibility.ONLY_C1:
        leads = leads1
    elif leads0 != leads1:
        return LeaderTag.CONFUSED_LEADER, possibility
    else:
        leads = leads0
    return (LeaderTag.SURE_LEADER if leads else LeaderTag.FOLLOWER), possibility


def reference_is_safe_neighbor(snapshot):
    _, c1, _, _, lead1 = reference_hypotheses(snapshot)
    neighbor = c1[(c1.index(lead1) + 1) % len(c1)]
    return (Fraction(snapshot.ticks[0], snapshot.d) + HALF_TURN) % 1 != neighbor


def reference_confused_peer_in_c0(snapshot):
    c0 = reference_hypotheses(snapshot)[0]
    return any(
        reference_classify(snapshot_of_positions(c0, p))[0] is LeaderTag.CONFUSED_LEADER
        for p in c0[1:]
    )


def check_against_reference(snapshot):
    """The four hypothesis functions agree with the reference on ``snapshot``.

    Returns the reference's tag and possibility and, for a confused leader,
    its safe-neighbor and confused-peer verdicts (None otherwise).
    """
    c0, c1, possibility, _, _ = reference_hypotheses(snapshot)
    tag, _ = reference_classify(snapshot)
    cls = classify(snapshot)
    assert (cls.tag, cls.possibility) == (tag, possibility), snapshot
    ticks0, ticks1 = analysis._hypothesis_data(snapshot)[:2]
    assert tuple(Fraction(t, snapshot.d) for t in ticks0) == c0
    assert tuple(Fraction(t, 2 * snapshot.d) for t in ticks1) == c1
    if tag is not LeaderTag.CONFUSED_LEADER:
        with pytest.raises(NotConfusedLeader):
            is_safe_neighbor(snapshot)
        with pytest.raises(NotConfusedLeader):
            detect_confused_peer_in_c0(snapshot)
        return tag, possibility, None, None
    safe = reference_is_safe_neighbor(snapshot)
    assert is_safe_neighbor(snapshot) is safe, snapshot
    peer = reference_confused_peer_in_c0(snapshot)
    assert detect_confused_peer_in_c0(snapshot) is peer, snapshot
    return tag, possibility, safe, peer


def plain(d, ticks):
    return Snapshot(d, tuple(ticks), (False,) * len(ticks))


@pytest.mark.parametrize(
    "snapshot,possibility",
    [
        (plain(1, ()), Possibility.ONLY_C0),
        (plain(4, (1, 3)), Possibility.ONLY_C0),
        (plain(3, (1, 2)), Possibility.ONLY_C1),
        (plain(20, (2, 9, 14)), Possibility.BOTH),
        (plain(7, (1, 3)), Possibility.BOTH),
        (plain(9, (1, 2, 4, 8)), Possibility.BOTH),
    ],
    ids=["empty", "only-c0", "only-c1", "both-even-d", "both-odd-d", "both-odd-d-wide"],
)
def test_int_election_matches_the_fraction_reference_on_named_views(snapshot, possibility):
    assert check_against_reference(snapshot)[1] is possibility


def test_int_election_matches_the_fraction_reference_on_every_small_view():
    """Every multiplicity-free view on a lattice of up to 11 points, odd and even."""
    seen = set()
    for d in range(1, 12):
        free = [t for t in range(1, d) if 2 * t != d]
        for size in range(len(free) + 1):
            for ticks in combinations(free, size):
                seen.add((d % 2,) + check_against_reference(plain(d, ticks)))
    # Every tag and possibility occurs, and a confused leader is both safe and
    # unsafe and both sees and misses a confused peer.
    parities, tags, possibilities, safes, peers = (set(column) for column in zip(*seen))
    assert parities == {0, 1}
    assert tags == set(LeaderTag) and possibilities == set(Possibility)
    assert safes == peers == {None, True, False}


@st.composite
def plain_views(draw):
    d = draw(st.integers(3, 96))
    free = [t for t in range(1, d) if 2 * t != d]
    ticks = draw(st.lists(st.sampled_from(free), max_size=12, unique=True))
    return plain(d, sorted(ticks))


@settings(max_examples=BUDGET, deadline=None)
@given(plain_views())
def test_int_election_matches_the_fraction_reference(snapshot):
    check_against_reference(snapshot)


@pytest.fixture
def cold_caches():
    for f in (classify, is_safe_neighbor, detect_confused_peer_in_c0):
        f.cache_clear()
    yield
    for f in (classify, is_safe_neighbor, detect_confused_peer_in_c0):
        f.cache_clear()


def test_both_hypotheses_symmetric_raises_like_the_reference(monkeypatch, cold_caches):
    """No real view makes both hypotheses symmetric (see the enumeration
    above), so ``elect`` declares every hypothesis symmetric to reach the raise."""
    monkeypatch.setattr(analysis, "elect", lambda ticks, d: None)
    for snapshot in (plain(1, ()), plain(7, (1, 3)), plain(20, (2, 9, 14))):
        with pytest.raises(AmbiguousSymmetric):
            reference_hypotheses(snapshot, symmetric=lambda gaps: True)
        with pytest.raises(AmbiguousSymmetric):
            classify(snapshot)


# ---------------------------------------------------------------------------
# The taxonomy against a reference built from the oracle


def reference_taxonomy(config):
    """(class, leader, verdicts) from the oracle and the Fraction references.

    Each robot is classified by ``oracle_classify`` and the leader elected by
    ``brute_force_leader``. With one expected leader the class is A when it
    is sure or its first clockwise neighbor is safe, and C otherwise; with
    two, the one away from the leader is confused, and the class is BI or
    BII as its neighbor is safe or not.
    """
    positions = config.positions
    leader = brute_force_leader(config)
    verdicts = [oracle_classify(positions, p) for p in positions]
    expected = [v for v in verdicts if v.tag != "follower"]

    def safe(verdict):
        return reference_is_safe_neighbor(snapshot_of_positions(positions, verdict.pos))

    if len(expected) == 1:
        (v,) = expected
        cls = "A" if v.tag == "sure-leader" or safe(v) else "C"
    else:
        assert len(expected) == 2, expected
        (v,) = [v for v in expected if v.pos != leader]
        assert v.tag == "confused-leader", v
        cls = "BI" if safe(v) else "BII"
    return cls, leader, verdicts


@st.composite
def asymmetric_configs(draw):
    """Asymmetric multiplicity-free configurations of 3 to 10 robots, on
    small lattices, where classes BI, BII and C are common."""
    d = draw(st.sampled_from((9, 12, 15, 16, 20, 24, 60)))
    n = draw(st.integers(3, min(10, d)))
    ticks = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n, unique=True))
    config = Configuration.from_points([Fraction(t, d) for t in ticks])
    assume(not is_rotationally_symmetric(config))
    return config


@settings(max_examples=BUDGET, deadline=None)
@given(asymmetric_configs())
@example(load_fixture("class_BI"))
@example(load_fixture("class_BII"))
@example(load_fixture("class_C"))
def test_configuration_class_matches_the_fraction_reference(config):
    cls, leader, verdicts = reference_taxonomy(config)
    assert configuration_class(config).value == cls
    report = analysis_report(config)
    assert (report["class"], report["leader"]) == (cls, format_angle(leader))
    assert [(r["class"], r["possibility"]) for r in report["robots"]] == [
        (v.tag, v.possibility) for v in verdicts
    ]
