import json
import pickle
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from collections import Counter

from circlegather.analysis import configuration_class
from circlegather.angles import HALF_TURN, cw_angle, format_angle
from circlegather.configuration import (
    Configuration,
    LatticeView,
    Snapshot,
    gap_sequence,
    is_rotationally_symmetric,
    leader_of_positions,
    least_rotation,
    require_legal_initial,
    snapshot_of_positions,
    take_snapshot,
    true_leader,
)
from circlegather.errors import (
    ContractViolation,
    MultiplicityPresent,
    ParseError,
    SymmetricConfiguration,
    TooFewRobots,
    UnknownRobot,
)
from circlegather.oracle import brute_force_leader
from circlegather.sim import Trace, TraceRecord
from test_sim import expand_view_lines


def F(s):
    return Fraction(s)


def sequence_from(positions, r):
    """The definition: the clockwise gap sequence of distinct ``positions``
    starting at ``r`` (assumed present)."""
    ordered = [r] + sorted((p for p in positions if p != r), key=lambda p: cw_angle(r, p))
    n = len(ordered)
    return tuple(cw_angle(ordered[i], ordered[(i + 1) % n]) for i in range(n))


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
    assert Counter(cfg.positions)[F(0)] == 2


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


def test_rotational_symmetry():
    assert is_rotationally_symmetric((F(0), F("1/4"), F("1/2"), F("3/4")))
    assert is_rotationally_symmetric((F(0), F("1/10"), F("1/2"), F("6/10")))
    assert not is_rotationally_symmetric((F(0), F("1/10"), F("9/20"), F("7/10")))


@pytest.mark.parametrize(
    "no_leader",
    [true_leader, lambda points: configuration_class(Configuration(points))],
    ids=["true_leader", "configuration_class"],
)
def test_the_empty_point_set_is_symmetric(no_leader):
    """Every rotation maps the empty set onto itself, so it has no leader."""
    assert is_rotationally_symmetric(())
    with pytest.raises(SymmetricConfiguration):
        no_leader(())


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
    assert (snap.ticks, snap.d) == ((1, 7), 10)
    assert not snap.self_is_multiplicity


def test_snapshot_collapses_coincident_robots():
    cfg = Configuration.from_points([F(0), F("1/10"), F("1/10")])
    snap = take_snapshot(cfg, "r0")
    assert (snap.ticks, snap.d) == ((1,), 10)
    assert snap.flags == (True,)
    snap_on = take_snapshot(cfg, "r1")
    assert snap_on.self_is_multiplicity


def test_snapshot_of_positions_matches_take_snapshot():
    pts = [F(0), F("1/10"), F("9/20"), F("7/10")]
    cfg = Configuration.from_points(pts)
    for r in cfg.robots:
        assert snapshot_of_positions(pts, r.pos) == take_snapshot(cfg, r.robot_id)


def test_snapshot_sorts_visible_by_offset():
    # A ring lists points clockwise from 0 whatever order they come in.
    snap = LatticeView([(F("3/4"), 2), (F(0), 1), (F("1/4"), 1)]).snapshot(0)
    assert (snap.ticks, snap.d) == ((1, 3), 4)
    assert snap.flags == (False, True)


def test_require_legal_initial():
    require_legal_initial(Configuration.from_points([F(0), F("1/10"), F("9/20")]))
    with pytest.raises(MultiplicityPresent):
        require_legal_initial(Configuration.from_points([F(0), F(0)]))
    with pytest.raises(SymmetricConfiguration):
        require_legal_initial(Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")]))
    with pytest.raises(TooFewRobots):
        require_legal_initial(Configuration.from_points([F(0)]))


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


def unnormalised(points):
    """The same points reordered, each written one turn below, at or above its value."""
    shifted = [p + (i % 3 - 1) for i, p in enumerate(points)]
    return tuple(shifted[len(shifted) // 2 :] + shifted[: len(shifted) // 2][::-1])


def assert_election_matches_definitions(points):
    symmetric = naive_symmetric(points)
    wide = unnormalised(points)
    assert is_rotationally_symmetric(points) == symmetric
    assert is_rotationally_symmetric(wide) == symmetric
    if symmetric:
        with pytest.raises(SymmetricConfiguration):
            true_leader(points)
        with pytest.raises(SymmetricConfiguration):
            true_leader(wide)
        return
    leader = leader_of_positions(points)
    assert leader == naive_leader(points)
    assert leader == true_leader(points)
    assert leader == brute_force_leader(Configuration.from_points(points))
    # The leader comes back as it was written, the very object given.
    wide_leader = true_leader(wide)
    assert wide_leader % 1 == leader
    assert any(wide_leader is p for p in wide)


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
    view = LatticeView((p, 1) for p in points)
    ticks, d = view.ticks, view.d
    gaps = [b - a for a, b in zip(ticks, ticks[1:])] + [ticks[0] + d - ticks[-1]]
    assert [Fraction(t, d) for t in ticks] == sorted(points)
    assert all(isinstance(g, int) for g in gaps)
    assert tuple(Fraction(g, d) for g in gaps) == gap_sequence(points)


def assert_least_rotation_matches_definitions(seq):
    """The start begins a least rotation, and the period is shorter than the
    sequence iff some nontrivial rotation equals the sequence."""
    n = len(seq)
    rotations = [seq[k:] + seq[:k] for k in range(n)]
    k, period = least_rotation(seq)
    assert rotations[k] == min(rotations)
    assert (period < n) == any(r == seq for r in rotations[1:])


@given(st.lists(st.integers(1, 3), min_size=1, max_size=30))
def test_least_rotation_and_period_on_ints(seq):
    assert_least_rotation_matches_definitions(seq)


def test_least_rotation_and_period_on_every_short_sequence():
    for letters, longest in (((1, 2, 3), 9), ((1, 2), 14)):
        for n in range(1, longest + 1):
            for seq in product(letters, repeat=n):
                assert_least_rotation_matches_definitions(seq)


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


# ---------------------------------------------------------------------------
# The lattice view against the definition


def reference_snapshot(occupancy, flags, observer):
    """The definition in plain Fraction arithmetic: every occupied point but the
    observer's own and its antipode is visible, flagged when counted twice.
    The sorted offsets are written as ints over the lcm of their denominators."""
    visible = []
    for pos in occupancy:
        offset = (pos - observer) % 1
        if offset != 0 and offset != Fraction(1, 2):
            visible.append((offset, flags[pos] >= 2))
    visible.sort()
    d = lcm(*[o.denominator for o, _ in visible])
    ticks = tuple(int(o * d) for o, _ in visible)
    return Snapshot(d, ticks, tuple(f for _, f in visible), flags[observer] >= 2)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(
    st.lists(st.tuples(mixed_point(), st.integers(1, 3), st.integers(0, 3)), min_size=1,
             max_size=30),
    st.booleans(),
)
def test_lattice_view_matches_the_definition(entries, antipode_occupied):
    # Each entry is (position, robots there, robots there that raise flags);
    # a position may come up in several entries.
    occupancy, flags = Counter(), Counter()
    for pos, count, flagged in entries:
        occupancy[pos] += count
        flags[pos] += min(count, flagged)
    pairs = [(pos, min(count, flagged)) for pos, count, flagged in entries]
    if antipode_occupied:
        far = (entries[0][0] + HALF_TURN) % 1
        occupancy[far] += 2
        flags[far] += 2
        pairs.append((far, 2))
    view = LatticeView(pairs)
    assert len(view.ticks) == len(occupancy)
    for observer in occupancy:
        snap = view.snapshot(view.tick(observer))
        assert snap == reference_snapshot(occupancy, flags, observer)


def reference_view_snapshot(view, tick):
    """The modular walk ``LatticeView.snapshot`` replaced: every point but
    the observer's, clockwise round the ring, each offset taken modulo ``d``
    and the antipodal offset skipped."""
    ticks, flags, d = view.ticks, view.flags, view.d
    i = view.ticks.index(tick)
    offs, seen = [], []
    # Negative indices wrap, so k = i + 1 - n .. i - 1 goes clockwise from
    # the observer's successor round the ring to its predecessor.
    for k in range(i + 1 - len(ticks), i):
        off = (ticks[k] - tick) % d
        if 2 * off != d:
            offs.append(off)
            seen.append(flags[k])
    return Snapshot(d, tuple(offs), tuple(seen), flags[i])


@st.composite
def weighted_points(draw):
    """``(position, weight)`` pairs on a lattice of at most 48 points, some
    outside [0, 1), some on one point, with weights 0 to 2."""
    d = draw(st.integers(1, 48))
    ticks = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=20))
    return [
        (Fraction(t + d * draw(st.integers(-1, 1)), d), draw(st.integers(0, 2)))
        for t in ticks
    ]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(weighted_points())
@example([(F(0), 1)])  # one point
@example([(F("2/3"), 2)])  # one point, flagged
@example([(F(0), 2), (F("1/2"), 1), (F("1/4"), 0), (F("3/4"), 2)])  # even d, antipodes occupied
@example([(F(0), 1), (F("1/3"), 0), (F("2/3"), 1), (F("2/3"), 1)])  # odd d, weights 0 and merged
@example([(F("1/10"), 0), (F("3/5"), 0), (F("9/10"), 1), (F("7/20"), 2)])  # weight 0, antipode
def test_lattice_view_snapshot_matches_the_modular_walk(pairs):
    view = LatticeView(pairs)
    for tick in view.ticks:
        assert view.snapshot(tick) == reference_view_snapshot(view, tick), tick


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(weighted_points(), st.integers(1, 6))
@example([(F(0), 1)], 1)  # one point on the trivial lattice
@example([(F(0), 2), (F("1/2"), 1), (F("1/4"), 0), (F("3/4"), 2)], 3)
@example([(F("2/6"), 1), (F("4/6"), 0)], 5)  # the ints share a factor with the scale
def test_lattice_view_on_lattice_matches_the_fraction_view(pairs, multiple):
    scale = lcm(*[p.denominator for p, _ in pairs]) * multiple
    weights = {}
    for p, weight in pairs:
        k = p.numerator * (scale // p.denominator) % scale
        weights[k] = weights.get(k, 0) + weight
    view, expected = LatticeView.on_lattice(scale, weights), LatticeView(pairs)
    assert (view.d, view.ticks, view.flags) == (expected.d, expected.ticks, expected.flags)
    for tick in expected.ticks:
        assert view.snapshot(tick) == expected.snapshot(tick), tick


def test_lattice_view_reads_positions_modulo_a_turn_and_rejects_empty_points():
    view = LatticeView([(F("5/4"), 1), (F("1/4"), 1), (F("-1/3"), 1)])
    assert view.tick(F("1/4")) == view.tick(F("-3/4"))
    snap = view.snapshot(view.tick(F("2/3")))
    assert snap == Snapshot(12, (7,), (True,), False)
    for empty in (F("1/2"), F("1/5")):
        with pytest.raises(UnknownRobot):
            view.tick(empty)
    with pytest.raises(UnknownRobot):
        snapshot_of_positions([F(0), F("1/3")], F("1/6"))


# ---------------------------------------------------------------------------
# The snapshot contract, checked on lattice ints, against Fraction arithmetic

#: 12 and 120 share factors with each other, 7 and 101 are prime.
SNAPSHOT_DENOMINATORS = (7, 12, 101, 120)


def visible_offset():
    return (
        st.sampled_from(SNAPSHOT_DENOMINATORS)
        .flatmap(lambda d: st.integers(1, d - 1).map(lambda k: Fraction(k, d)))
        .filter(lambda o: o != HALF_TURN)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(visible_offset(), st.booleans()), max_size=25,
             unique_by=lambda e: e[0]),
    st.lists(st.integers(0, 24), max_size=3),
    st.randoms(use_true_random=False),
)
def test_snapshot_orders_and_rejects_like_fraction_offsets(entries, repeats, rnd):
    points = list(entries)
    # Value-equal copies of some offsets, each a new Fraction object.
    for i in repeats:
        if i < len(entries):
            o, m = entries[i]
            points.append((Fraction(3 * o.numerator, 3 * o.denominator), not m))
    rnd.shuffle(points)
    # The look as the run loop builds it: the observer at 0 on a ring where a
    # flagged point weighs 2, so the ring lists each offset once, clockwise,
    # flagged when its copies weigh 2 or more.
    ring = LatticeView([(Fraction(0), 1)] + [(o, 1 + m) for o, m in points])
    snap = ring.snapshot(0)
    weight = Counter()
    for o, m in points:
        weight[o] += 1 + m
    ordered = sorted(weight)
    assert [(Fraction(t, snap.d), f) for t, f in zip(snap.ticks, snap.flags)] == [
        (o, weight[o] >= 2) for o in ordered
    ]
    # The constructor takes the drawn offsets as ints only when each comes
    # once and in clockwise order, as the Fractions are.
    offsets = [o for o, _ in points]
    ticks, flags = tuple(int(o * snap.d) for o in offsets), tuple(m for _, m in points)
    if offsets == ordered:
        assert Snapshot(snap.d, ticks, flags) == snap
    else:
        with pytest.raises(ContractViolation):
            Snapshot(snap.d, ticks, flags)
    # The same look written as a trace's view line and snapshot line.
    trace = Trace([TraceRecord(Fraction(0), "r", "snapshot", (ring, 0))], {})
    line = json.loads(expand_view_lines(trace.to_jsonl()).splitlines()[0])
    assert [v["offset"] for v in line["payload"]["visible"]] == list(map(format_angle, ordered))


def ring_snapshot(entries, own_flag):
    """The view of an observer at 0, built the way the run loop builds a look:
    on a ring where a flagged point weighs 2."""
    ring = LatticeView(
        [(Fraction(0), 2 if own_flag else 1)] + [(o, 2 if m else 1) for o, m in entries]
    )
    return ring.snapshot(0)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(
    st.lists(st.tuples(visible_offset(), st.booleans()), max_size=25,
             unique_by=lambda e: e[0]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_equal_snapshots_hash_equal(entries, own_flag, rnd):
    snap = ring_snapshot(entries, own_flag)
    assert len(snap.ticks) == len(entries)
    # The same points in another order, each offset a new Fraction built
    # from a scaled numerator and denominator.
    points = [(Fraction(3 * o.numerator, 3 * o.denominator), m) for o, m in entries]
    rnd.shuffle(points)
    again = ring_snapshot(points, own_flag)
    assert again == snap and hash(again) == hash(snap)
    # The same ints on a lattice three times finer, before reduction.
    scaled = Snapshot(3 * snap.d, tuple(3 * t for t in snap.ticks), snap.flags, own_flag)
    assert scaled == snap and hash(scaled) == hash(snap)
    # The same view read off a world rotated onto another lattice: 13 divides
    # none of the offset denominators.
    turn = Fraction(rnd.randrange(1, 13), 13)
    view = LatticeView(
        [(turn, 2 if own_flag else 1)] + [(o + turn, 2 if m else 1) for o, m in entries]
    )
    seen = view.snapshot(view.tick(turn))
    assert seen == snap and hash(seen) == hash(snap)
    assert len({snap, again, scaled, seen}) == 1


@pytest.mark.parametrize(
    "offset", [F(0), F(1), F("1/2"), F("-1/4"), F("5/4"), 0, 1], ids=repr
)
def test_visible_point_rejects_offsets_outside_the_open_turn_or_at_half(offset):
    num, den = Fraction(offset).as_integer_ratio()
    with pytest.raises(ContractViolation):
        Snapshot(den, (num,), (False,))




FLAG_COUNT = "a snapshot needs one flag per visible point"
ORDER = "visible offsets must be distinct and sorted"


def range_message(d, ticks):
    return f"visible offsets must be in (0,1) and never 1/2, got {ticks} over {d}"


#: Malformed snapshots with the message each raises. The checks run in a
#: fixed order (flag count, range, order), which the two-fault rows pin.
MALFORMED_SNAPSHOTS = {
    "repeated": (8, (1, 1), (False, False), ORDER),
    "repeated-odd-d": (7, (2, 2), (False, False), ORDER),
    "descending": (8, (3, 1), (False, False), ORDER),
    "tick-0": (8, (0, 3), (False, False), range_message(8, (0, 3))),
    "tick-d": (8, (3, 8), (False, False), range_message(8, (3, 8))),
    "tick-half": (8, (3, 4), (False, False), range_message(8, (3, 4))),
    "tick-negative": (8, (-1, 3), (False, False), range_message(8, (-1, 3))),
    "flags-short": (8, (1, 3), (False,), FLAG_COUNT),
    "flags-long": (8, (1,), (False, True), FLAG_COUNT),
    "d-0": (0, (), (), range_message(0, ())),
    "d-negative": (-3, (1,), (False,), range_message(-3, (1,))),
    "flags-and-range": (8, (0,), (), FLAG_COUNT),
    "flags-and-order": (8, (3, 1), (False,), FLAG_COUNT),
    "range-and-order": (8, (5, 0), (False, False), range_message(8, (5, 0))),
    "half-twice": (8, (4, 4), (False, False), range_message(8, (4, 4))),
    "d-0-and-order": (0, (2, 1), (False, False), range_message(0, (2, 1))),
}


@pytest.mark.parametrize("name", list(MALFORMED_SNAPSHOTS))
def test_snapshot_rejects_ints_off_the_contract(name):
    d, ticks, flags, message = MALFORMED_SNAPSHOTS[name]
    with pytest.raises(ContractViolation) as exc:
        Snapshot(d, ticks, flags)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", list(MALFORMED_SNAPSHOTS))
def test_snapshot_tuple_constructors_run_the_same_checks(name):
    d, ticks, flags, message = MALFORMED_SNAPSHOTS[name]
    for build in (
        lambda: Snapshot._make((d, ticks, flags, False)),
        lambda: Snapshot(1, (), ())._replace(d=d, ticks=ticks, flags=flags),
        lambda: pickle.loads(pickle.dumps(tuple.__new__(Snapshot, (d, ticks, flags, False)))),
    ):
        with pytest.raises(ContractViolation) as exc:
            build()
        assert str(exc.value) == message


def test_snapshot_equals_the_plain_tuple_of_its_reduced_fields():
    snap = Snapshot(12, (3, 9), (True, False), True)
    assert snap == (4, (1, 3), (True, False), True)
    assert hash(snap) == hash((4, (1, 3), (True, False), True))
    assert Snapshot._make((12, (3, 9), (True, False), True)) == snap
    assert snap._replace(d=8, ticks=(2, 6)) == Snapshot(4, (1, 3), (True, False), True)
    assert pickle.loads(pickle.dumps(snap)) == snap
