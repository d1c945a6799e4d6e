import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from circlegather.analysis import LeaderTag, analysis_report, classify, is_safe_neighbor
from circlegather.angles import HALF_TURN, QUARTER_TURN
from circlegather.configuration import (
    Configuration,
    LatticeView,
    Snapshot,
    take_snapshot,
)
from circlegather.errors import ContractViolation, InvariantViolation
from circlegather.protocol import (
    CCW,
    CW,
    LEGAL_TRANSITIONS,
    Memory,
    MoveCommand,
    NONE,
    STAY,
    decide,
)

FIXTURES = Path(__file__).parent / "fixtures"


def F(s):
    return Fraction(s)


def snap(*entries, self_mult=False):
    """The view of an observer at 0 from ``(offset, flag)`` entries, built the
    way the run loop builds a look: on a ring where a flagged point weighs 2."""
    ring = LatticeView(
        [(Fraction(0), 2 if self_mult else 1)] + [(F(o), 2 if m else 1) for o, m in entries]
    )
    s = ring.snapshot(0)
    # A ring merges repeated offsets and hides the half turn; no entry may vanish.
    assert len(s.ticks) == len(entries), entries
    return s


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return Configuration.from_json(json.load(fh))


def test_move_command_validation():
    with pytest.raises(ContractViolation):
        MoveCommand(CW, 0)
    with pytest.raises(ContractViolation):
        MoveCommand(NONE, F("1/4"))
    with pytest.raises(ContractViolation):
        MoveCommand(CW, 1)


def test_move_command_keeps_a_fraction_amount():
    amount = F("1/4")
    assert MoveCommand(CW, amount).amount is amount


def test_empty_view_moves_quarter_turn():
    for state in Memory:
        new_state, cmd = decide(Snapshot(1, (), ()), state)
        assert new_state is state
        assert cmd == MoveCommand(CW, QUARTER_TURN)


def test_own_multiplicity_walks_to_close_second_point():
    # Second multiplicity at clockwise distance 1/5 < 1/4.
    s = snap(("1/5", True), ("3/5", False), self_mult=True)
    for state in Memory:
        new_state, cmd = decide(s, state)
        assert new_state is state
        assert cmd.direction == CW and cmd.amount == F("1/5")


def test_own_multiplicity_threshold_default_and_wide():
    s = snap(("3/10", True), self_mult=True)
    _, cmd = decide(s, Memory.OFF, multiplicity_threshold=QUARTER_TURN)
    assert cmd == STAY
    for threshold in ({}, {"multiplicity_threshold": HALF_TURN}):
        _, cmd = decide(s, Memory.OFF, **threshold)
        assert cmd.direction == CW and cmd.amount == F("3/10")


@pytest.mark.parametrize(
    "d, threshold, expected",
    [
        (4, QUARTER_TURN, STAY),
        (4, HALF_TURN, MoveCommand(CW, F("1/4"), "multiplicity-position")),
        (8, QUARTER_TURN, MoveCommand(CW, F("1/8"), "multiplicity-position")),
    ],
    ids=["at-the-threshold", "below-the-wide-threshold", "below-the-threshold"],
)
def test_own_multiplicity_walks_only_strictly_below_the_threshold(d, threshold, expected):
    s = Snapshot(d, (1,), (True,), True)
    assert decide(s, Memory.OFF, threshold) == (Memory.OFF, expected)


def test_own_multiplicity_stays_without_second_point():
    s = snap(("1/5", False), self_mult=True)
    assert decide(s, Memory.OFF) == (Memory.OFF, STAY)


@pytest.mark.parametrize(
    "entries",
    [
        (("1/10", False), ("1/5", True), ("3/5", False)),
        (("3/10", True), ("1/5", True)),
    ],
    ids=["unflagged-point-nearer", "nearer-flagged-point-wins"],
)
def test_own_multiplicity_walks_to_the_nearest_flagged_point(entries):
    _, cmd = decide(snap(*entries, self_mult=True), Memory.OFF)
    assert cmd == MoveCommand(CW, F("1/5"), "multiplicity-position")


def test_neighbor_multiplicity_clockwise():
    s = snap(("1/10", True), ("2/5", False))
    state, cmd = decide(s, Memory.TERMINATE)
    assert state is Memory.TERMINATE
    assert cmd.direction == CW and cmd.amount == F("1/10")


def test_neighbor_multiplicity_counterclockwise_shorter_arc():
    s = snap(("2/5", False), ("9/10", True))
    _, cmd = decide(s, Memory.OFF)
    assert cmd.direction == CCW and cmd.amount == F("1/10")


def test_neighbor_multiplicity_tie_breaks_clockwise():
    s = snap(("1/10", True), ("9/10", True))
    _, cmd = decide(s, Memory.OFF)
    assert cmd.direction == CW and cmd.amount == F("1/10")


@pytest.mark.parametrize(
    "offset, direction, amount",
    [("1/10", CW, "1/10"), ("9/10", CCW, "1/10"), ("2/5", CW, "2/5")],
)
def test_lone_flagged_neighbor_is_joined_by_the_shorter_arc(offset, direction, amount):
    # With one visible point, the first clockwise and the first
    # counter-clockwise neighbour are the same point.
    _, cmd = decide(snap((offset, True)), Memory.OFF)
    assert cmd == MoveCommand(direction, F(amount), "multiplicity-position")


def test_distant_multiplicity_is_not_chased():
    # The multiplicity is visible but is neither the first clockwise nor the
    # first counter-clockwise neighbor.
    s = snap(("1/10", False), ("2/5", True), ("9/10", False))
    assert decide(s, Memory.OFF) == (Memory.OFF, STAY)


def test_follower_stays():
    cfg = load_fixture("worked_example")
    for rid in ("r1", "r2", "r3"):
        assert decide(take_snapshot(cfg, rid), Memory.OFF) == (Memory.OFF, STAY)


def test_sure_leader_moves_to_neighbor():
    cfg = load_fixture("class_A_sure")
    # True leader of this fixture is r0 at 1/40 with its neighbor at 1/20.
    state, cmd = decide(take_snapshot(cfg, "r0"), Memory.OFF)
    assert state is Memory.OFF
    assert cmd.direction == CW and cmd.amount == F("1/40")
    assert cmd.target_kind == "neighbor-position"


def test_confused_safe_leader_moves_to_neighbor():
    cfg = load_fixture("worked_example")
    state, cmd = decide(take_snapshot(cfg, "r0"), Memory.OFF)
    assert state is Memory.OFF
    assert cmd.direction == CW and cmd.amount == F("1/10")


def test_confused_unsafe_leader_starts_the_dance():
    cfg = load_fixture("class_C")
    (rid,) = [r["id"] for r in analysis_report(cfg)["robots"] if r["class"] != "follower"]
    s = take_snapshot(cfg, rid)
    state, cmd = decide(s, Memory.OFF)
    assert state is Memory.MOVE_HALF
    assert cmd.direction == CW and cmd.amount == Fraction(s.ticks[0], 2 * s.d)


def test_confused_unsafe_with_confused_peer_stays():
    cfg = load_fixture("class_BII")
    moved = []
    for r in cfg.robots:
        s = take_snapshot(cfg, r.robot_id)
        if classify(s).tag is LeaderTag.CONFUSED_LEADER and not is_safe_neighbor(s):
            moved.append(decide(s, Memory.OFF))
    assert moved, "fixture must contain an unsafe confused leader"
    assert any(out == (Memory.OFF, STAY) for out in moved)


def test_move_half_terminates_when_neighbor_is_not_antipodal():
    s = snap(("1/20", False), ("3/10", False))
    assert decide(s, Memory.MOVE_HALF) == (Memory.TERMINATE, STAY)


def test_move_half_advances_when_probe_arc_is_empty():
    s = snap(("1/20", False), ("11/20", False))
    state, cmd = decide(s, Memory.MOVE_HALF)
    assert state is Memory.MOVE_MORE
    assert cmd.direction == CW and cmd.amount == F("1/40")


def test_move_half_counters_when_probe_arc_is_occupied():
    s = snap(("1/20", False), ("19/40", False), ("11/20", False))
    state, cmd = decide(s, Memory.MOVE_HALF)
    assert state is Memory.TERMINATE
    assert cmd.direction == CCW and cmd.amount == F("1/20")


def test_move_more_terminates_when_neighbor_is_not_antipodal():
    s = snap(("1/40", False), ("3/10", False))
    assert decide(s, Memory.MOVE_MORE) == (Memory.TERMINATE, STAY)


def test_move_more_walks_onto_neighbor_when_probe_arc_is_empty():
    s = snap(("1/40", False), ("21/40", False))
    state, cmd = decide(s, Memory.MOVE_MORE)
    assert state is Memory.OFF
    assert cmd.direction == CW and cmd.amount == F("1/40")
    assert cmd.target_kind == "neighbor-position"


def test_move_more_counters_when_probe_arc_is_occupied():
    s = snap(("1/40", False), ("9/20", False), ("21/40", False))
    state, cmd = decide(s, Memory.MOVE_MORE)
    assert state is Memory.TERMINATE
    assert cmd.direction == CCW and cmd.amount == F("3/40")


def test_countermoves_cancel_exactly():
    """Walking the dance forward then countering restores the start point."""
    start = F("1/4")
    theta = F("1/10")
    # off -> moveHalf: advance theta/2.
    after_half = (start + theta / 2) % 1
    # Reading the leading angle as theta/2, the counter is that same amount.
    assert (after_half - theta / 2) % 1 == start
    # moveHalf -> moveMore: advance another theta/4, counter is 3*theta/4.
    after_more = (after_half + theta / 4) % 1
    assert (after_more - 3 * theta / 4) % 1 == start


def test_terminate_state_is_inert_without_multiplicity():
    s = snap(("1/10", False), ("2/5", False))
    assert decide(s, Memory.TERMINATE) == (Memory.TERMINATE, STAY)


offset_sets = st.lists(
    st.builds(Fraction, st.integers(min_value=1, max_value=39), st.just(40)).filter(
        lambda f: f != HALF_TURN
    ),
    min_size=0,
    max_size=6,
    unique=True,
)


@given(offset_sets, st.sampled_from(list(Memory)), st.booleans())
def test_decide_is_total_legal_and_bounded(offsets, state, flag_first):
    s = snap(*((o, flag_first and i == 0) for i, o in enumerate(sorted(offsets))))
    try:
        new_state, cmd = decide(s, state)
    except Exception as exc:  # classification aborts on symmetric views
        from circlegather.errors import CircleGatherError

        assert isinstance(exc, CircleGatherError)
        return
    assert (state, new_state) in LEGAL_TRANSITIONS
    assert 0 <= cmd.amount < HALF_TURN or (not offsets and cmd.amount == QUARTER_TURN)
    # Deterministic: the same inputs always produce the same decision.
    assert decide(s, state) == (new_state, cmd)


def reference_multiplicity_move(offsets, flags, self_mult, threshold):
    """The multiplicity walks in plain Fraction arithmetic: from an own
    multiplicity, the nearest flagged point below the threshold; otherwise
    the nearer flagged direct neighbour by the shorter arc, ties clockwise."""
    if self_mult:
        near = [o for o, f in zip(offsets, flags) if f and o < threshold]
        return MoveCommand(CW, min(near), "multiplicity-position") if near else STAY
    moves = []
    for i in {0, len(offsets) - 1}:
        if flags[i]:
            o = offsets[i]
            if o < HALF_TURN:
                moves.append(MoveCommand(CW, o, "multiplicity-position"))
            else:
                moves.append(MoveCommand(CCW, 1 - o, "multiplicity-position"))
    if not moves:
        return STAY
    return min(moves, key=lambda m: (m.amount, m.direction != CW))


@given(
    offset_sets.filter(bool),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.booleans(),
    st.sampled_from([QUARTER_TURN, HALF_TURN]),
)
def test_multiplicity_walks_match_their_definition(offsets, flags, self_mult, threshold):
    offsets = sorted(offsets)
    flags = flags[: len(offsets)]
    if not (self_mult or any(flags)):
        return
    s = snap(*zip(offsets, flags), self_mult=self_mult)
    state, cmd = decide(s, Memory.MOVE_HALF, threshold)
    assert state is Memory.MOVE_HALF
    assert cmd == reference_multiplicity_move(offsets, flags, self_mult, threshold)


def reference_step(direction, amount, kind="relative-angle"):
    if amount >= HALF_TURN:
        raise InvariantViolation(
            f"leader or staged move of {amount} exceeds the visibility bound"
        )
    return MoveCommand(direction, amount, kind)


def reference_staged_move(offsets, memory):
    """The staged approach in plain Fraction arithmetic on sorted offsets.

    The dance goes on only while the first clockwise neighbour's antipode is
    occupied. The probe arc is centred on the observer's antipode, 1/2, and
    holds an offset ``o`` iff ``(o - start) % 1 < extent``: ``[1/2 - h,
    1/2 + h)`` in moveHalf and ``[1/2 - 3q, 1/2 + q)`` in moveMore, at most
    a full turn, with the leading angle read as ``h`` or ``q``.
    """
    leading = offsets[0]
    if (leading + HALF_TURN) % 1 not in offsets:
        return Memory.TERMINATE, STAY

    def probed(start, extent):
        return any((o - start) % 1 < extent for o in offsets)

    if memory is Memory.MOVE_HALF:
        half = leading
        if probed(HALF_TURN - half, 2 * half):
            return Memory.TERMINATE, reference_step(CCW, half)
        return Memory.MOVE_MORE, reference_step(CW, half / 2)
    quarter = leading
    if probed(HALF_TURN - 3 * quarter, min(4 * quarter, Fraction(1))):
        return Memory.TERMINATE, reference_step(CCW, 3 * quarter)
    return Memory.OFF, reference_step(CW, quarter, "neighbor-position")


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its violation."""
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return InvariantViolation, str(exc)


def assert_staged_matches_reference(d, ticks):
    s = Snapshot(d, tuple(ticks), (False,) * len(ticks))
    offsets = [Fraction(t, d) for t in ticks]
    for memory in (Memory.MOVE_HALF, Memory.MOVE_MORE):
        assert outcome(decide, s, memory) == outcome(reference_staged_move, offsets, memory)


def test_decide_raises_exactly_where_its_contract_says_on_every_small_view():
    """Every reduced flag-free view over d <= 12, under every memory: decide
    raises only in moveMore, when d is even, the lead's antipode is occupied
    and 6 * lead >= d. Every other decide takes a legal transition and moves
    less than half a turn; TERMINATE stays except on the empty view, which
    every memory keeps and leaves by the same clockwise quarter turn."""
    views, raised, expected, census = 0, [], [], Counter()
    for d in range(1, 13):
        points = [t for t in range(1, d) if 2 * t != d]
        for size in range(len(points) + 1):
            for ticks in combinations(points, size):
                if gcd(d, *ticks) > 1:
                    continue
                s = Snapshot(d, ticks, (False,) * size)
                views += 1
                for memory in Memory:
                    try:
                        after, move = decide(s, memory)
                    except InvariantViolation:
                        raised.append((s, memory))
                        continue
                    assert (memory, after) in LEGAL_TRANSITIONS, (s, memory)
                    assert move.amount < HALF_TURN, (s, memory)
                    if not ticks:
                        assert (after, move) == (memory, MoveCommand(CW, QUARTER_TURN))
                    elif memory is Memory.TERMINATE:
                        assert (after, move) == (Memory.TERMINATE, STAY), s
                    census[memory.value, after.value, move.direction, move.target_kind] += 1
                if ticks and d % 2 == 0 and (ticks[0] + d // 2) % d in ticks:
                    if 6 * ticks[0] >= d:
                        expected.append((s, Memory.MOVE_MORE))
    assert (views, len(expected)) == (2677, 307)
    assert raised == expected
    # (memory before, memory after, direction, target kind) -> views.
    assert census == {
        ("off", "off", NONE, "relative-angle"): 2157,
        ("off", "off", CW, "relative-angle"): 1,
        ("off", "off", CW, "neighbor-position"): 517,
        ("off", "moveHalf", CW, "relative-angle"): 2,
        ("moveHalf", "moveHalf", CW, "relative-angle"): 1,
        ("moveHalf", "moveMore", CW, "relative-angle"): 188,
        ("moveHalf", "terminate", NONE, "relative-angle"): 2033,
        ("moveHalf", "terminate", CCW, "relative-angle"): 455,
        ("moveMore", "moveMore", CW, "relative-angle"): 1,
        ("moveMore", "off", CW, "neighbor-position"): 40,
        ("moveMore", "terminate", NONE, "relative-angle"): 2033,
        ("moveMore", "terminate", CCW, "relative-angle"): 296,
        ("terminate", "terminate", NONE, "relative-angle"): 2676,
        ("terminate", "terminate", CW, "relative-angle"): 1,
    }


def test_decide_only_stays_or_joins_a_multiplicity_on_every_small_flagged_view():
    """Every reduced view over d <= 8 with a flag, the observer's own or a
    visible point's, under both thresholds and every memory: decide keeps
    the memory and stays or moves to a multiplicity below the half turn,
    below the threshold from the observer's own multiplicity. Memory
    changes the result only in the staged branches, which a flag never
    reaches, so all four memories give one command."""
    views = set()
    for d in range(1, 9):
        points = [t for t in range(1, d) if 2 * t != d]
        for size in range(len(points) + 1):
            for ticks in combinations(points, size):
                for flags in product((False, True), repeat=size):
                    for own in (False, True):
                        if own or any(flags):
                            views.add(Snapshot(d, ticks, flags, own))
    assert len(views) == 3077
    for s in sorted(views):
        for threshold in (HALF_TURN, QUARTER_TURN):
            commands = set()
            for memory in Memory:
                kept, move = decide(s, memory, threshold)
                assert kept is memory, (s, memory)
                if move != STAY:
                    assert move.target_kind == "multiplicity-position", (s, move)
                    assert move.amount < (threshold if s.self_is_multiplicity else HALF_TURN)
                commands.add(move)
            assert len(commands) == 1, (s, threshold, commands)


def test_staged_moves_match_the_reference_on_every_small_view():
    """Every view of 1-3 points over 24, where q = 1/8, 1/6 and 1/4 all lie."""
    d = 24
    points = [t for t in range(1, d) if 2 * t != d]
    for size in (1, 2, 3):
        for ticks in combinations(points, size):
            assert_staged_matches_reference(d, ticks)


@st.composite
def staged_views(draw):
    """A denominator up to 240 and up to 6 sorted ticks, the first one's
    antipode often added so that the dance goes on."""
    d = draw(st.integers(2, 240))
    ticks = draw(
        st.lists(
            st.integers(1, d - 1).filter(lambda t: 2 * t != d),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    lead = min(ticks)
    if draw(st.booleans()) and d % 2 == 0 and 2 * lead < d:
        ticks.append(lead + d // 2)
    return d, sorted(set(ticks))


@given(staged_views())
def test_staged_moves_match_the_reference(view):
    assert_staged_matches_reference(*view)
