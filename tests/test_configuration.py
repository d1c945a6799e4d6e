from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlegather.angles import cw_angle
from circlegather.configuration import (
    Configuration,
    Snapshot,
    VisiblePoint,
    angle_sequence,
    gap_sequence,
    has_period,
    is_rotationally_symmetric,
    lattice,
    leader_of_positions,
    least_rotation,
    lex_compare,
    require_legal_initial,
    sequence_from,
    snapshot_of_positions,
    take_snapshot,
    true_leader,
)
from circlegather.errors import (
    ContractViolation,
    LengthMismatch,
    MultiplicityPresent,
    ParseError,
    SymmetricConfiguration,
    UnknownRobot,
)
from circlegather.oracle import brute_force_leader


def F(s):
    return Fraction(s)


def distinct_point_sets(min_size=3, max_size=8):
    return st.lists(
        st.builds(
            Fraction,
            st.integers(min_value=0, max_value=119),
            st.just(120),
        ),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    )


def test_configuration_json_roundtrip():
    cfg = Configuration.from_points([F("0"), F("1/10"), F("9/20")])
    again = Configuration.from_json(cfg.to_json())
    assert again == cfg


def test_configuration_rejects_duplicate_ids():
    from circlegather.configuration import Robot

    with pytest.raises(ContractViolation):
        Configuration((Robot("a", F(0)), Robot("a", F("1/4"))))


def test_configuration_allows_coincident_positions():
    cfg = Configuration.from_points([F(0), F(0), F("1/4")])
    assert cfg.has_multiplicity
    assert cfg.position_counts[F(0)] == 2


def test_from_json_rejects_malformed_documents():
    for bad in ({}, {"robots": []}, {"robots": [{"id": "a"}]}, {"robots": [{"id": 3, "pos": "1/4"}]}):
        with pytest.raises(ParseError):
            Configuration.from_json(bad)


def test_gap_sequence_sums_to_one_turn():
    gaps = gap_sequence([F(0), F("1/10"), F("9/20"), F("7/10")])
    assert sum(gaps) == 1
    assert gaps == (F("1/10"), F("7/20"), F("1/4"), F("3/10"))


def test_gap_sequence_rejects_multiplicity():
    with pytest.raises(MultiplicityPresent):
        gap_sequence([F(0), F(0), F("1/4")])


def test_angle_sequence_starts_at_the_robot():
    cfg = Configuration.from_points([F(0), F("1/10"), F("9/20"), F("7/10")])
    assert angle_sequence(cfg, F("1/10")) == (F("7/20"), F("1/4"), F("3/10"), F("1/10"))
    with pytest.raises(UnknownRobot):
        angle_sequence(cfg, F("1/3"))


def test_lex_compare():
    assert lex_compare((F(1), F(2)), (F(1), F(3))) == -1
    assert lex_compare((F(1), F(3)), (F(1), F(2))) == 1
    assert lex_compare((F(1), F(2)), (F(1), F(2))) == 0
    with pytest.raises(LengthMismatch):
        lex_compare((F(1),), (F(1), F(2)))


def test_rotational_symmetry():
    assert is_rotationally_symmetric((F(0), F("1/4"), F("1/2"), F("3/4")))
    assert is_rotationally_symmetric((F(0), F("1/10"), F("1/2"), F("6/10")))
    assert not is_rotationally_symmetric((F(0), F("1/10"), F("9/20"), F("7/10")))


def test_true_leader_on_worked_points():
    cfg = Configuration.from_points([F(0), F("1/10"), F("9/20"), F("7/10")])
    assert true_leader(cfg) == 0


def test_true_leader_rejects_symmetric():
    with pytest.raises(SymmetricConfiguration):
        true_leader(Configuration.from_points([F(0), F("1/2")]))


@given(distinct_point_sets())
def test_leader_has_strictly_smallest_sequence(points):
    pts = tuple(points)
    if is_rotationally_symmetric(pts):
        return
    leader = leader_of_positions(pts)
    leader_seq = sequence_from(pts, leader)
    for p in pts:
        if p != leader:
            assert sequence_from(pts, p) > leader_seq


@given(distinct_point_sets())
def test_every_angle_sequence_sums_to_one(points):
    pts = tuple(points)
    for p in pts:
        seq = sequence_from(pts, p)
        assert sum(seq) == 1
        assert len(seq) == len(pts)


def test_snapshot_excludes_antipode_and_far_points():
    cfg = Configuration.from_points([F(0), F("1/10"), F("1/2"), F("7/10")])
    snap = take_snapshot(cfg, "r0")
    assert snap.offsets == (F("1/10"), F("7/10"))
    assert not snap.self_is_multiplicity


def test_snapshot_collapses_coincident_robots():
    cfg = Configuration.from_points([F(0), F("1/10"), F("1/10")])
    snap = take_snapshot(cfg, "r0")
    assert snap.offsets == (F("1/10"),)
    assert snap.visible[0].is_multiplicity
    snap_on = take_snapshot(cfg, "r1")
    assert snap_on.self_is_multiplicity


def test_snapshot_of_positions_matches_take_snapshot():
    pts = [F(0), F("1/10"), F("9/20"), F("7/10")]
    cfg = Configuration.from_points(pts)
    for r in cfg.robots:
        assert snapshot_of_positions(pts, r.pos) == take_snapshot(cfg, r.robot_id)


def test_visible_point_validation():
    with pytest.raises(ContractViolation):
        VisiblePoint(F("1/2"), False)
    with pytest.raises(ContractViolation):
        VisiblePoint(F(0), False)
    with pytest.raises(ContractViolation):
        Snapshot((VisiblePoint(F("1/4"), False), VisiblePoint(F("1/4"), True)))


def test_snapshot_sorts_visible_by_offset():
    snap = Snapshot((VisiblePoint(F("3/4"), False), VisiblePoint(F("1/4"), False)))
    assert snap.offsets == (F("1/4"), F("3/4"))


def test_require_legal_initial():
    require_legal_initial(Configuration.from_points([F(0), F("1/10"), F("9/20")]))
    with pytest.raises(MultiplicityPresent):
        require_legal_initial(Configuration.from_points([F(0), F(0)]))
    with pytest.raises(SymmetricConfiguration):
        require_legal_initial(Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")]))


# ---------------------------------------------------------------------------
# Lattice election against the definitions

#: Pairwise coprime denominators (and 120) so that the lattice step 1/D is fine.
MIXED_DENOMINATORS = (7, 11, 13, 120)


def mixed_point():
    return st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda d: st.integers(0, d - 1).map(lambda k: Fraction(k, d))
    )


def shuffled_point_sets(min_size=1, max_size=40):
    return st.lists(mixed_point(), min_size=min_size, max_size=max_size, unique=True).flatmap(
        st.permutations
    )


def naive_leader(points):
    """The definition: the robot whose gap sequence is smallest."""
    return min(points, key=lambda p: sequence_from(points, p))


def naive_symmetric(points):
    """The definition: some rotation other than the identity maps the set onto itself."""
    occupied = set(points)
    return any(
        {(p + cw_angle(points[0], q)) % 1 for p in points} == occupied for q in points[1:]
    )


def points_from_gaps(gaps, start=Fraction(0)):
    total = sum(gaps)
    points, at = [], start
    for g in gaps:
        points.append(at % 1)
        at += Fraction(g, total)
    return tuple(points)


def assert_election_matches_definitions(points):
    symmetric = naive_symmetric(points)
    assert is_rotationally_symmetric(points) == symmetric
    if symmetric:
        with pytest.raises(SymmetricConfiguration):
            true_leader(points)
        return
    leader = leader_of_positions(points)
    assert leader == naive_leader(points)
    assert leader == true_leader(points)
    assert leader == brute_force_leader(Configuration.from_points(points))


@settings(max_examples=150, deadline=None)
@given(shuffled_point_sets())
def test_lattice_election_matches_definitions(points):
    assert_election_matches_definitions(tuple(points))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(mixed_point(), min_size=1, max_size=13, unique=True),
    st.sampled_from((2, 3, 4)),
    st.randoms(use_true_random=False),
)
def test_rotated_copies_are_symmetric(base, k, rnd):
    points = sorted({(p / k + Fraction(j, k)) % 1 for p in base for j in range(k)})
    rnd.shuffle(points)
    assert naive_symmetric(points)
    assert is_rotationally_symmetric(tuple(points))
    with pytest.raises(SymmetricConfiguration):
        true_leader(tuple(points))


@given(shuffled_point_sets())
def test_lattice_gaps_are_the_scaled_gap_sequence(points):
    pts, gaps = lattice(points)
    d = sum(gaps)
    assert pts == tuple(sorted(points))
    assert all(isinstance(g, int) for g in gaps)
    assert tuple(Fraction(g, d) for g in gaps) == gap_sequence(points)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=30))
def test_least_rotation_and_period_on_ints(seq):
    n = len(seq)
    rotations = [seq[k:] + seq[:k] for k in range(n)]
    k = least_rotation(seq)
    assert rotations[k] == min(rotations)
    assert has_period(seq) == any(r == seq for r in rotations[1:])


def test_election_edge_cases():
    # One robot: its own leader, never symmetric.
    assert leader_of_positions((F("2/7"),)) == F("2/7")
    assert not is_rotationally_symmetric((F("2/7"),))
    # Two robots: symmetric only when antipodal.
    assert_election_matches_definitions((F("1/3"), F("1/7")))
    assert is_rotationally_symmetric((F("1/3"), F("5/6")))
    # All gaps equal: every regular polygon is symmetric.
    for n in range(2, 41):
        assert is_rotationally_symmetric(points_from_gaps([1] * n, F("1/13")))
    # Positions are read modulo one turn.
    assert is_rotationally_symmetric((F(0), F("5/4"), F("1/2"), F("-1/4")))
    # The worked example {0, 1/10, 9/20, 7/10}, led by 0, written unnormalised:
    assert leader_of_positions((F("1/10"), F("29/20"), F("-3/10"), F(1))) == F(1)
    # Coincident robots are rejected, not elected.
    with pytest.raises(MultiplicityPresent):
        is_rotationally_symmetric((F(0), F("1/3"), F("1/3")))


def test_election_on_adversarial_gap_patterns():
    # Long runs of equal gaps make a naive rotation scan restart often.
    patterns = []
    for k in (1, 2, 3, 5, 8, 13):
        patterns.append([1] * k + [2])
        patterns.append([2] * k + [1])
        patterns.append([1] * k + [2] + [1] * (k - 1) + [2])
        patterns.append([1, 2] * k + [1, 3])
    for gaps in patterns:
        for r in range(len(gaps)):
            rotated = gaps[r:] + gaps[:r]
            assert_election_matches_definitions(points_from_gaps(rotated, F("3/11")))
