import hashlib
import json
import math
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from circlegather import protocol
from circlegather.analysis import analysis_report
from circlegather.angles import HALF_TURN, QUARTER_TURN, parse_angle
from circlegather.cli import load_run_config, main
from circlegather.configuration import (
    Configuration,
    LatticeView,
    Robot,
    Snapshot,
    is_rotationally_symmetric,
)
from circlegather.errors import (
    LimitExceeded,
    ObserverMoving,
    ScheduleError,
    SymmetricConfiguration,
)
from circlegather.oracle import GeneratorSpec, random_config
from circlegather.protocol import CW, Memory, MoveCommand
from circlegather.sim import (
    AsyncRandomPolicy,
    FsyncPolicy,
    Pending,
    RobotRuntime,
    RunLimits,
    RunOptions,
    SchedulerPolicy,
    ScriptedPolicy,
    SsyncPolicy,
    Trace,
    TraceRecord,
    is_gathered,
    multiplicity_points,
    run,
    world_snapshot,
)

FIXTURES = Path(__file__).parent / "fixtures"


def F(s):
    return Fraction(s)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return Configuration.from_json(json.load(fh))


def moving_robot(rid, origin, amount, start, direction=CW):
    rr = RobotRuntime(rid, origin)
    dest = (origin + amount) % 1 if direction == CW else (origin - amount) % 1
    rr.pending = Pending(MoveCommand(direction, amount), start, start + amount, dest)
    return rr


def test_position_interpolates_at_unit_speed():
    rr = moving_robot("a", F("9/10"), F("1/5"), F(1))
    assert rr.position_at(F("1/2")) == F("9/10")
    assert rr.position_at(F(1)) == F("9/10")
    assert rr.position_at(F("11/10")) == F(0)
    assert rr.position_at(F("6/5")) == F("1/10")
    assert rr.position_at(F(2)) == F("1/10")
    assert rr.is_moving_at(F("11/10"))
    assert not rr.is_moving_at(F(1))


def test_position_counterclockwise():
    from circlegather.protocol import CCW

    rr = moving_robot("a", F("1/10"), F("1/5"), F(0), CCW)
    assert rr.position_at(F("1/10")) == F(0)
    assert rr.position_at(F("1/5")) == F("9/10")


def test_observer_cannot_look_mid_move():
    world = {"a": moving_robot("a", F(0), F("1/4"), F(0)), "b": RobotRuntime("b", F("1/10"))}
    with pytest.raises(ObserverMoving):
        world_snapshot(world, "a", F("1/8"))


def test_snapshot_sees_movers_at_interpolated_positions():
    world = {"a": moving_robot("a", F(0), F("1/4"), F(0)), "b": RobotRuntime("b", F("1/2"))}
    snap = world_snapshot(world, "b", F("1/8"))
    assert (snap.ticks, snap.d) == ((5,), 8)


def test_snapshot_flags_only_robots_at_rest():
    # A mover passing exactly through b's point at the snapshot instant is
    # seen there, but does not make it a multiplicity.
    world = {
        "a": moving_robot("a", F(0), F("1/4"), F(0)),
        "b": RobotRuntime("b", F("1/8")),
        "c": RobotRuntime("c", F("1/2")),
    }
    snap = world_snapshot(world, "c", F("1/8"))
    assert (snap.ticks, snap.d) == ((5,), 8)
    assert snap.flags == (False,)


def test_multiplicity_points_ignore_robots_in_transit():
    world = {
        "a": moving_robot("a", F(0), F("1/4"), F(0)),
        "b": RobotRuntime("b", F("1/8")),
        "c": RobotRuntime("c", F("1/8")),
    }
    assert multiplicity_points(world, F("1/8")) == [(F("1/8"), 2)]


def test_is_gathered_requires_rest():
    world = {"a": moving_robot("a", F(0), F("1/8"), F(0)), "b": RobotRuntime("b", F("1/8"))}
    assert not is_gathered(world, F("1/8"))
    world["a"].anchor, world["a"].pending = F("1/8"), None
    assert is_gathered(world, F("1/4"))


def test_two_robots_gather():
    cfg = Configuration.from_points([F(0), F("1/10")])
    trace = run(cfg, FsyncPolicy())
    assert trace.summary["gathered"]
    assert trace.summary["gather_point"] == "1/10"
    assert trace.summary["max_simultaneous_multiplicities"] == 1


def test_worked_example_gathers_under_each_policy():
    cfg = load_fixture("worked_example")
    for policy in (FsyncPolicy(), SsyncPolicy(seed=1), AsyncRandomPolicy(seed=2)):
        trace = run(cfg, policy)
        assert trace.summary["gathered"], type(policy).__name__
        assert trace.summary["max_simultaneous_multiplicities"] <= 2


def test_symmetric_initial_is_rejected():
    cfg = Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")])
    with pytest.raises(SymmetricConfiguration):
        run(cfg, FsyncPolicy())


def test_traces_are_reproducible():
    cfg = load_fixture("class_BI")
    for policy_factory in (
        FsyncPolicy,
        lambda: SsyncPolicy(seed=5),
        lambda: AsyncRandomPolicy(seed=5),
    ):
        a = run(cfg, policy_factory()).to_jsonl()
        b = run(cfg, policy_factory()).to_jsonl()
        assert a == b


def test_different_seeds_give_different_schedules():
    cfg = load_fixture("class_BI")
    a = run(cfg, AsyncRandomPolicy(seed=1)).to_jsonl()
    b = run(cfg, AsyncRandomPolicy(seed=2)).to_jsonl()
    assert a != b


def test_records_are_ordered_and_serializable():
    trace = run(load_fixture("worked_example"), FsyncPolicy())
    keys = [(r.t, r.robot, r.kind) for r in trace.records]
    assert keys == sorted(keys)
    lines = trace.to_jsonl().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["kind"] == "summary"
    assert {p["kind"] for p in parsed[:-1]} <= {
        "view",
        "activate",
        "snapshot",
        "decide",
        "move-start",
        "move-end",
    }


def reference_snapshot_json(snap):
    """The dict a snapshot record's payload once was: each offset ``tick/d``
    in lowest terms, with its flag, then the observer's own flag."""
    d = snap.d
    visible = []
    for t, flag in zip(snap.ticks, snap.flags):
        g = math.gcd(t, d)
        visible.append({"offset": f"{t // g}/{d // g}", "multiplicity": flag})
    return {"visible": visible, "self_multiplicity": snap.self_is_multiplicity}


def look_of(payload):
    """The ``Snapshot`` a snapshot record's ``(view, tick)`` payload encodes."""
    view, tick = payload
    return view.snapshot(tick)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_jsonl(trace):
    """The per-record form ``Trace.to_jsonl`` wrote before view lines: one
    ``json.dumps`` per record, a snapshot payload first turned into the
    :func:`reference_snapshot_json` dict of its look."""
    lines = [
        dumps(
            {
                "t": f"{r.t.numerator}/{r.t.denominator}",
                "robot": r.robot,
                "kind": r.kind,
                "payload": (
                    reference_snapshot_json(look_of(r.payload))
                    if r.kind == "snapshot"
                    else r.payload
                ),
            }
        )
        for r in trace.records
    ]
    lines.append(dumps({"kind": "summary", **trace.summary}))
    return "\n".join(lines) + "\n"


def expand_view_lines(text):
    """``Trace.to_jsonl`` text in the per-record form of :func:`reference_jsonl`.

    Each snapshot line's payload is rebuilt from the view line before it, with
    ``Fraction`` arithmetic: every ring point's offset from the observer's
    tick, modulo a turn, except the observer's own point and its antipode,
    flagged iff its tick is among the ring's multiplicities. View lines are
    dropped; every other line is re-encoded as it is.
    """
    lines, ring = [], None
    for line in text.splitlines():
        obj = json.loads(line)
        if obj["kind"] == "view":
            assert set(obj) == {"kind", "payload", "t"}
            ring = obj
            continue
        if obj["kind"] == "snapshot":
            assert ring["t"] == obj["t"]
            d, ticks = ring["payload"]["d"], ring["payload"]["ticks"]
            flagged = set(ring["payload"]["multiplicities"])
            assert ticks == sorted(set(ticks)) and flagged <= set(ticks)
            me, own = obj["payload"]["tick"], obj["payload"]["self_multiplicity"]
            assert me in ticks and own == (me in flagged)
            visible = sorted((Fraction(k - me, d) % 1, k in flagged) for k in ticks)
            obj["payload"] = {
                "visible": [
                    {"offset": f"{o.numerator}/{o.denominator}", "multiplicity": flag}
                    for o, flag in visible
                    if o not in (0, HALF_TURN)
                ],
                "self_multiplicity": own,
            }
        lines.append(dumps(obj))
    return "\n".join(lines) + "\n"


def _limit_trace():
    with pytest.raises(LimitExceeded) as exc:
        run(load_fixture("class_C"), FsyncPolicy(), RunLimits(max_events=60))
    return exc.value.trace


def _escaped_ids_trace():
    # A quote, a backslash, a Latin-1 letter and a character outside the BMP
    # (written as a surrogate pair under ensure_ascii).
    ids = ['say "hi"', "back\\slash", "caf\u00e9", "robot-\U0001F916"]
    worked = load_fixture("worked_example")
    cfg = Configuration(tuple(Robot(rid, r.pos) for rid, r in zip(ids, worked.robots)))
    return run(cfg, AsyncRandomPolicy(seed=3))


JSONL_TRACES = {
    "fsync": lambda: run(random_config(GeneratorSpec(12, 72, 21)), FsyncPolicy()),
    "ssync": lambda: run(random_config(GeneratorSpec(10, 60, 22)), SsyncPolicy(seed=22)),
    "async": lambda: run(random_config(GeneratorSpec(10, 60, 23)), AsyncRandomPolicy(seed=23)),
    "limit": _limit_trace,
    "escaped-ids": _escaped_ids_trace,
    # Views on several reduced lattices, with and without flagged points.
    "fsync-n24": lambda: run(random_config(GeneratorSpec(24, 192, 24)), FsyncPolicy()),
}


@pytest.mark.parametrize("name", sorted(JSONL_TRACES))
def test_to_jsonl_matches_the_per_record_reference(name):
    trace = JSONL_TRACES[name]()
    # Records share payload objects, so the once-per-object encoding is exercised.
    assert len({id(r.payload) for r in trace.records}) < len(trace.records)
    assert expand_view_lines(trace.to_jsonl()) == reference_jsonl(trace)
    if name == "fsync-n24":
        # The views' snapshots reduce to distinct d and hold both flags.
        snaps = [look_of(r.payload) for r in trace.records if r.kind == "snapshot"]
        assert len({s.d for s in snaps}) >= 2
        assert {f for s in snaps for f in s.flags} == {False, True}
    if name == "escaped-ids":
        text = trace.to_jsonl()
        assert text.isascii()
        assert '"robot":"say \\"hi\\""' in text and '"robot":"back\\\\slash"' in text
        assert '"robot":"caf\\u00e9"' in text and '"robot":"robot-\\ud83e\\udd16"' in text


@pytest.mark.parametrize("name", sorted(JSONL_TRACES))
def test_snapshot_records_hold_the_view_and_tick_their_lines_encode(name):
    trace = JSONL_TRACES[name]()
    assert not any(isinstance(r.payload, Snapshot) for r in trace.records)
    snapshots = [r for r in trace.records if r.kind == "snapshot"]
    assert snapshots
    views, pairs = [], {}
    for r in snapshots:
        assert type(r.payload) is tuple and len(r.payload) == 2
        view, tick = r.payload
        assert type(view) is LatticeView and type(tick) is int and tick in view.ticks
        if not any(v is view for v in views):
            views.append(view)
        # Records that share a look share one pair object.
        assert pairs.setdefault((id(view), tick), r.payload) is r.payload
    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    rings = [line["payload"] for line in lines if line["kind"] == "view"]
    assert rings == [
        {
            "d": v.d,
            "ticks": v.ticks,
            "multiplicities": [k for k, f in zip(v.ticks, v.flags) if f],
        }
        for v in views
    ]


@st.composite
def looks(draw):
    """A ring of points over d <= 200, weighing 0 to 2 each, and two of its
    points as observers."""
    d = draw(st.integers(1, 200))
    points = draw(
        st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, 2)), min_size=1, max_size=30)
    )
    view = LatticeView((Fraction(k, d), weight) for k, weight in points)
    return view, draw(st.sampled_from(view.ticks)), draw(st.sampled_from(view.ticks))


@settings(max_examples=300, deadline=None)
@given(looks())
def test_snapshot_jsonl_text_matches_the_reference(look):
    view, first, second = look
    records = [
        TraceRecord(F(1), f"r{i}", "snapshot", (view, tick))
        for i, tick in enumerate((first, second))
    ]
    trace = Trace(records, {})
    text = trace.to_jsonl()
    assert text.count('"kind":"view"') == 1
    assert expand_view_lines(text) == reference_jsonl(trace)


def test_moves_are_rigid():
    """Every commanded move completes at exactly the commanded destination."""
    from circlegather.angles import parse_angle

    trace = run(load_fixture("class_C"), FsyncPolicy())
    starts = {}
    for rec in trace.records:
        if rec.kind == "move-start":
            d = 1 if rec.payload["direction"] == "clockwise" else -1
            starts[rec.robot] = (
                parse_angle(rec.payload["from"]) + d * parse_angle(rec.payload["amount"])
            ) % 1
        elif rec.kind == "move-end":
            assert parse_angle(rec.payload["to"]) == starts[rec.robot]


def test_event_limit_raises_with_partial_trace():
    cfg = load_fixture("class_C")
    with pytest.raises(LimitExceeded) as exc:
        run(cfg, FsyncPolicy(), RunLimits(max_events=10))
    trace = exc.value.trace
    assert trace.summary["limit_exceeded"]
    assert not trace.summary["gathered"]
    assert len(trace.records) <= 10


def test_time_limit_raises():
    cfg = load_fixture("class_C")
    with pytest.raises(LimitExceeded):
        run(cfg, FsyncPolicy(), RunLimits(max_time=F("1/2")))


def test_scripted_policy_validation():
    with pytest.raises(ScheduleError):
        ScriptedPolicy([("a", F(-1), F(0))])
    with pytest.raises(ScheduleError):
        ScriptedPolicy([("a", F(1), F(1))])
    with pytest.raises(ScheduleError):
        ScriptedPolicy([("a", F(0), F(2)), ("a", F(1), F(3))])


def test_scripted_run_observes_mid_move_positions():
    cfg = Configuration.from_points([F(0), F("1/10")])
    policy = ScriptedPolicy(
        [
            ("r0", F(0), F("1/4")),
            ("r1", F("3/10"), F("2/5")),
        ]
    )
    trace = run(cfg, policy)
    # At 3/10 robot r0 is mid-move at 1/20; r1 sees it 19/20 clockwise away.
    snap = next(
        r for r in trace.records if r.kind == "snapshot" and r.robot == "r1"
    )
    assert reference_snapshot_json(look_of(snap.payload))["visible"] == [
        {"offset": "19/20", "multiplicity": False}
    ]
    assert trace.summary["final"] == {"r0": "1/10", "r1": "1/10"}


def test_quiescence_needs_every_robot_to_confirm():
    cfg = Configuration.from_points([F(0), F("1/10")])
    trace = run(cfg, FsyncPolicy())
    confirmations = {
        r.robot
        for r in trace.records
        if r.kind == "decide"
        and r.payload["move"]["direction"] == "none"
        and r.t > F(1)
    }
    assert confirmations == {"r0", "r1"}


def test_gathered_stays_gathered():
    trace = run(load_fixture("class_A_confused"), FsyncPolicy())
    from circlegather.angles import parse_angle

    point = parse_angle(trace.summary["gather_point"])
    # After the last move-end every robot sits at the gather point.
    last_positions = {}
    for rec in trace.records:
        if rec.kind == "move-end":
            last_positions[rec.robot] = parse_angle(rec.payload["to"])
    assert set(last_positions.values()) <= {point} or trace.summary["gathered"]


def test_ssync_fairness_forces_skipped_robots():
    policy = SsyncPolicy(seed=0, max_skips=2)
    policy.bind(("a", "b", "c"))
    # Over many rounds every robot appears within any max_skips + 1 window.
    appearances = {r: [] for r in ("a", "b", "c")}
    for k in range(60):
        for r in policy._membership(k):
            appearances[r].append(k)
    for r, ks in appearances.items():
        assert ks, r
        gaps = [b - a for a, b in zip(ks, ks[1:])]
        assert max(gaps, default=1) <= 3


def _renamed(config, names):
    return Configuration(tuple(Robot(name, r.pos) for name, r in zip(names, config.robots)))


REUSED_POLICIES = {
    "fsync": FsyncPolicy,
    "ssync": lambda: SsyncPolicy(seed=27, max_skips=1),
    "async": lambda: AsyncRandomPolicy(seed=27),
    # Only r0..r2 act, so the same script fits both id sets below.
    "scripted": lambda: ScriptedPolicy(
        [(f"r{i}", F(k), F(k) + F("1/4")) for k in range(4) for i in range(3)]
    ),
}


@pytest.mark.parametrize("kind", sorted(REUSED_POLICIES))
def test_a_reused_policy_replays_a_fresh_one(kind):
    first = random_config(GeneratorSpec(6, 36, 27))
    second = random_config(GeneratorSpec(6, 36, 1027))
    other_ids = _renamed(second, ["r0", "r1", "r2", "x3", "x4", "x5"])
    make = REUSED_POLICIES[kind]
    for config in (second, other_ids):
        policy = make()
        run(first, policy)
        assert run(config, policy).to_jsonl() == run(config, make()).to_jsonl(), config


@pytest.mark.parametrize(
    "make_policy", [FsyncPolicy, lambda: SsyncPolicy(seed=3)], ids=["fsync", "ssync"]
)
def test_positions_outside_a_turn_run_like_their_normalised_config(make_policy):
    given = ("5/4", "-1/3", "1/10", "2/5")
    raw = Configuration(tuple(Robot(rid, F(p)) for rid, p in zip("abcd", given)))
    normalised = Configuration(tuple(Robot(rid, F(p) % 1) for rid, p in zip("abcd", given)))
    trace = run(raw, make_policy())
    assert trace.summary["gathered"]
    assert trace.to_jsonl() == run(normalised, make_policy()).to_jsonl()


def test_async_delays_stay_on_the_rational_grid():
    policy = AsyncRandomPolicy(seed=9, delay_denominator_bound=8)
    policy.bind(("a", "b"))
    t = F(0)
    for _ in range(50):
        look, decide = policy.next_cycle("a", t)
        assert look.denominator <= 8 and decide.denominator <= 8
        assert t < look < decide
        t = decide


@pytest.mark.parametrize(
    "make_policy", [FsyncPolicy, lambda: SsyncPolicy(seed=5)], ids=["fsync", "ssync"]
)
def test_round_policies_hand_out_one_instant_object_per_round(make_policy):
    policy = make_policy()
    robots = ("a", "b", "c")
    policy.bind(robots)
    cycles = {r: {} for r in robots}
    for r in robots:
        t = F(0)
        while not cycles[r] or max(cycles[r]) < 50:
            look, decide = policy.next_cycle(r, t)
            assert type(look) is Fraction and type(decide) is Fraction
            k = look.numerator
            assert look == Fraction(k) and decide == Fraction(k) + Fraction(1, 4)
            assert k >= t and k not in cycles[r]
            cycles[r][k] = (look, decide)
            t = decide
    shared = set(cycles["a"]) & set(cycles["b"]) & set(cycles["c"])
    assert shared
    for k in shared:
        (la, da), (lb, db), (lc, dc) = (cycles[r][k] for r in robots)
        assert la is lb is lc and da is db is dc


# (not_before, ceil(not_before)), with ints among the instants.
NOT_BEFORE_CEILINGS = [
    (0, 0), (F(3), 3), (F(3) + F("1/4"), 4), (F("7/3"), 3), (5, 5),
    (10**20 + Fraction(1, 10**20), 10**20 + 1),
]


# SsyncPolicy draws each round's members in sequence from round 0, so it
# cannot reach round 10**20; fsync covers that ceiling.
@pytest.mark.parametrize(
    "make_policy, cases",
    [(FsyncPolicy, NOT_BEFORE_CEILINGS), (lambda: SsyncPolicy(seed=5), NOT_BEFORE_CEILINGS[:-1])],
    ids=["fsync", "ssync"],
)
def test_round_policies_pick_the_first_active_round_from_the_ceiling(make_policy, cases):
    policy = make_policy()
    robots = ("a", "b", "c")
    policy.bind(robots)
    waited = False
    for not_before, first in cases:
        for r in robots:
            look, decide = policy.next_cycle(r, not_before)
            k = look.numerator
            assert look == Fraction(k) and decide == Fraction(k) + Fraction(1, 4)
            assert k >= first and policy._active(r, k), (not_before, r)
            assert not any(policy._active(r, j) for j in range(first, k)), (not_before, r)
            waited = waited or k > first
    # Some ssync robot sits out its ceiling round and waits for a later one.
    assert waited == isinstance(policy, SsyncPolicy)


def test_policy_with_int_look_instants_matches_fsync():
    class IntLookFsync(SchedulerPolicy):
        """Fsync's schedule with each look instant as a plain int."""

        def bind(self, robot_ids):
            super().bind(robot_ids)
            self._next_round = {r: 0 for r in robot_ids}

        def next_cycle(self, robot_id, not_before):
            k = max(self._next_round[robot_id], math.ceil(not_before))
            self._next_round[robot_id] = k + 1
            return k, Fraction(4 * k + 1, 4)

    cfg = load_fixture("worked_example")
    expected = run(cfg, FsyncPolicy()).to_jsonl()
    trace = run(cfg, IntLookFsync())
    assert all(type(r.t) is Fraction for r in trace.records)
    assert trace.to_jsonl() == expected


def test_policy_sharing_one_int_look_pair_per_round_matches_fsync():
    class SharedIntLookFsync(SchedulerPolicy):
        """Fsync's schedule, every robot of round k handed one ``(k, k + 1/4)``
        tuple object whose look instant is a plain int."""

        def bind(self, robot_ids):
            super().bind(robot_ids)
            self._next_round = {r: 0 for r in robot_ids}
            self._pairs = {}

        def next_cycle(self, robot_id, not_before):
            k = max(self._next_round[robot_id], math.ceil(not_before))
            self._next_round[robot_id] = k + 1
            if k not in self._pairs:
                self._pairs[k] = (k, Fraction(4 * k + 1, 4))
            return self._pairs[k]

    cfg = load_fixture("worked_example")
    expected = run(cfg, FsyncPolicy()).to_jsonl()
    trace = run(cfg, SharedIntLookFsync())
    assert all(type(r.t) is Fraction for r in trace.records)
    assert trace.to_jsonl() == expected


# ---------------------------------------------------------------------------
# Pinned traces. The digests were taken with a run loop that rescanned the
# whole world after every event; they hold the incremental world state to
# byte-identical output. The async and scripted rows were re-pinned when the
# records moved to processing order; SORTED_DIGESTS shows each re-pin is a
# reordering. Since view lines, these digests hold the per-record form, and
# VIEW_DIGESTS pins ``to_jsonl`` (see assert_pinned).


def _pinned_policy(kind, seed, config):
    if kind == "fsync":
        return FsyncPolicy()
    if kind == "ssync":
        return SsyncPolicy(seed=seed)
    if kind == "async":
        return AsyncRandomPolicy(seed=seed)
    # Four cycles per robot on a quarter-unit grid, at least one time unit
    # apart so that no robot is scripted to look while it moves.
    rng = Random(f"script:{seed}")
    events = []
    for r in config.robots:
        t = Fraction(rng.randrange(3), 4)
        for _ in range(4):
            decide = t + Fraction(rng.randint(1, 2), 4)
            events.append((r.robot_id, t, decide))
            t = decide + 1 + Fraction(rng.randrange(4), 4)
    return ScriptedPolicy(events)


# (n, denominator bound, seed, policy, threshold, pinned as, max mult, sha256)
#
# Looks once had a second, "relaxed" semantics in which a robot seen mid-move
# raised multiplicity flags. "pinned as" names the semantics a digest was
# first pinned under and only labels the test id: every case now runs the one
# rest-only semantics, and only async-n12-seed8 changed bytes with it.
PINNED_TRACES = [
    (5, 30, 1, "fsync", QUARTER_TURN, "relaxed", 1,
     "572c57f908e589546c581dec91fe6ce5999e29d5885a4b5b644c9c7730337cc3"),
    (8, 48, 2, "fsync", HALF_TURN, "strict", 1,
     "3060bb55a726a99ee27f985f2a0a3c48bb011fcb394a24fa8da4726b4389d2c6"),
    (20, 160, 3, "fsync", HALF_TURN, "relaxed", 1,
     "1dd1f7cbf00f9f695e9b44c2490849bd5ee9c777789164e1885ec4e3891c0c73"),
    (6, 36, 4, "ssync", QUARTER_TURN, "strict", 1,
     "5dc2af725ebf82167f78d09bad707fa36219b042757b9cd268506e5750a34cd6"),
    (10, 60, 5, "ssync", HALF_TURN, "relaxed", 1,
     "fbc81cdceaf3731184cb43bdbbee4aa60ea36e6c3d5f308602b74e2c5e278d6f"),
    (16, 96, 6, "ssync", HALF_TURN, "strict", 1,
     "024dd520bfd8e320c2973ace7ee739b6b961ddcc66aa891f61344d267746879b"),
    (7, 42, 8, "async", QUARTER_TURN, "strict", 1,
     "ec1d75e33b8cd7af56ac33c506f04d8aa17a67dd552dbe296dd764e81698184b"),
    (10, 60, 34, "async", HALF_TURN, "relaxed", 2,
     "ef20aee0d366b495b9aec05975845ae53a436676cb513bb58ab117f27fa8daf3"),
    (12, 72, 33, "async", HALF_TURN, "strict", 2,
     "c28568cd74312da3f62f5c7c17c4d85c9569bc14da9ea4c8bd929af7f2ce8803"),
    # Relaxed looks took both runs past the bound of two multiplicity points
    # (3 and 4); n16-seed61 ran the same bytes as its strict row and went.
    (12, 72, 8, "async", HALF_TURN, "relaxed", 1,
     "14c80fe311b950f82a9e9e10d4859d0622843ae64b0df135ca4b8977c6e719b5"),
    (16, 96, 61, "async", HALF_TURN, "strict", 1,
     "33927ed40e14226b85aef19574d784fdd669f1b7da46d78e895f360d69f602bd"),
    (20, 160, 12, "async", HALF_TURN, "relaxed", 1,
     "301a1926d8e62f08c26f96a5b4c27b71b44c01603151f083081e002640d0aa81"),
    # Stalls under the narrow threshold: a partial trace at the event limit.
    (8, 48, 37, "async", QUARTER_TURN, "relaxed", 2,
     "ea5e53d0faed485eef493359a96fd92890c4687e9bbacd4d04dba93c3a8596f9"),
    (4, 24, 9, "scripted", QUARTER_TURN, "relaxed", 1,
     "9e32557e38456556c611dce6fb3d7c6aa0e868626bb26f8f1691128277860af1"),
    (6, 36, 10, "scripted", HALF_TURN, "strict", 1,
     "41e704e5d32b80ea1c68eee1e9f08ca167006a03428aabcf00d5bbfcf626f7fc"),
    (8, 48, 14, "scripted", HALF_TURN, "relaxed", 1,
     "1700206cebaa80840dce9d53b4e2ac8094aaa80d0f9cd5a818966b70a097c2c1"),
    (12, 72, 13, "scripted", QUARTER_TURN, "strict", 1,
     "f641639b1106afb9f72562c1148e3f1e68b0ace042c59868f4cbbeef2d93db9b"),
]


def _pinned_id(case):
    n, _, seed, kind, threshold, pinned_as, _, _ = case
    wide = "pi" if threshold == HALF_TURN else "pi/2"
    return f"{kind}-n{n}-seed{seed}-{wide}-{pinned_as}"


def _pinned_trace(case):
    n, bound, seed, kind, threshold = case[:5]
    config = random_config(GeneratorSpec(n, bound, seed))
    options = RunOptions(multiplicity_threshold=threshold)
    try:
        return run(config, _pinned_policy(kind, seed, config), RunLimits(max_events=2000), options)
    except LimitExceeded as exc:
        return exc.trace


def sha256_of(text):
    return hashlib.sha256(text.encode()).hexdigest()


def assert_pinned(name, trace, digest):
    """The per-record form of ``trace`` still hashes to ``digest``, the pin
    taken before view lines; ``to_jsonl`` expands to that form, so it only
    re-encodes the records, and its own text hashes to ``VIEW_DIGESTS[name]``."""
    reference = reference_jsonl(trace)
    assert sha256_of(reference) == digest
    text = trace.to_jsonl()
    assert expand_view_lines(text) == reference
    assert sha256_of(text) == VIEW_DIGESTS[name]


@pytest.mark.parametrize("case", PINNED_TRACES, ids=_pinned_id)
def test_pinned_trace_digests(case):
    max_mult, digest = case[6:]
    trace = _pinned_trace(case)
    assert trace.summary["max_simultaneous_multiplicities"] == max_mult
    assert_pinned(_pinned_id(case), trace, digest)


# ---------------------------------------------------------------------------
# Hand-built scripted edge cases of the world state


def config_of(**positions):
    return Configuration.from_json(
        {"robots": [{"id": rid, "pos": pos} for rid, pos in positions.items()]}
    )


def snapshots_at(trace, t):
    return {
        r.robot: reference_snapshot_json(look_of(r.payload))
        for r in trace.records
        if r.kind == "snapshot" and r.t == t
    }


def test_two_robots_arriving_at_one_point_at_the_same_instant():
    # ``a`` is the sure leader and steps onto ``b``; the merged point then
    # draws ``c`` (counter-clockwise) and ``d`` (clockwise) from equal
    # distances, in fsync-like rounds.
    initial = config_of(a="19/20", b="0/1", c="1/5", d="4/5")
    events = [(r, F(k), F(k) + F("1/4")) for k in range(3) for r in "abcd"]
    events.append(("a", F("29/20"), F("3/2")))  # looks at the arrival instant
    trace = run(initial, ScriptedPolicy(sorted(events, key=lambda e: e[1])))
    arrivals = [(r.robot, r.payload["to"]) for r in trace.records
                if r.kind == "move-end" and r.t == F("29/20")]
    assert arrivals == [("c", "0/1"), ("d", "0/1")]
    # Both move-ends come before a look at the same instant.
    assert snapshots_at(trace, F("29/20")) == {
        "a": {"visible": [], "self_multiplicity": True}
    }
    assert trace.summary["max_simultaneous_multiplicities"] == 1
    assert trace.summary["gathered"] and trace.summary["gather_point"] == "0/1"


def test_look_at_the_instant_a_robot_starts_moving():
    # ``r2`` steps onto ``r0`` (arriving at 7/12). ``r0``, which looked while
    # still alone, steps off that multiplicity point toward ``r1`` at 3/4.
    # ``r1`` decides not to move at 3/4 and looks again at once: ``r0`` is
    # still at rest on its origin, so ``r1`` sees a multiplicity there.
    # ``r2`` looks at 5/6, while ``r0`` is mid-move.
    initial = config_of(r0="0/1", r1="1/6", r2="2/3")
    events = [
        ("r0", F(0), F("3/4")),
        ("r1", F(0), F("3/4")),
        ("r1", F("3/4"), F(1)),
        ("r2", F(0), F("1/4")),
        ("r2", F("5/6"), F(1)),
    ]
    trace = run(initial, ScriptedPolicy(events))
    starts = [(r.t, r.robot) for r in trace.records if r.kind == "move-start"]
    assert starts[:2] == [(F("1/4"), "r2"), (F("3/4"), "r0")]
    assert snapshots_at(trace, F("3/4")) == {
        "r1": {"visible": [{"offset": "5/6", "multiplicity": True}], "self_multiplicity": False}
    }
    assert snapshots_at(trace, F("5/6")) == {
        "r2": {
            "visible": [
                {"offset": "1/12", "multiplicity": False},
                {"offset": "1/6", "multiplicity": False},
            ],
            "self_multiplicity": False,
        }
    }
    assert trace.summary["max_simultaneous_multiplicities"] == 1


def test_mover_passing_through_an_occupied_point():
    # ``r1`` steps onto ``r2`` at 5/8. ``r0`` then walks the shorter arc to
    # that multiplicity, counter-clockwise from 0, through ``r3`` at 3/4,
    # which it passes at t=1, the instant ``r1`` and ``r3`` look.
    initial = config_of(r0="0/1", r1="1/2", r2="5/8", r3="3/4")
    events = [
        ("r1", F(0), F("1/4")),
        ("r2", F(0), F("1/4")),
        ("r3", F(0), F("1/4")),
        ("r0", F("1/2"), F("3/4")),
        ("r1", F(1), F("5/4")),
        ("r3", F(1), F("5/4")),
    ]

    trace = run(initial, ScriptedPolicy(events))
    # r0 passing through 3/4 does not make that point a multiplicity, so r1
    # stays on the one at 5/8 and everyone gathers there.
    assert snapshots_at(trace, F(1)) == {
        "r1": {"visible": [{"offset": "1/8", "multiplicity": False}], "self_multiplicity": True},
        "r3": {"visible": [{"offset": "7/8", "multiplicity": True}], "self_multiplicity": False},
    }
    assert trace.summary["gathered"] and trace.summary["gather_point"] == "5/8"
    assert trace.summary["max_simultaneous_multiplicities"] == 1


def test_robots_on_one_point_share_one_look_per_instant():
    # Under fsync the leader r0 steps onto r1 in round 0, and the rest join
    # them in round 1 (see the worked example).
    trace = run(load_fixture("worked_example"), FsyncPolicy())
    looks = {}
    for r in trace.records:
        if r.kind == "snapshot":
            looks.setdefault(r.t, {})[r.robot] = r.payload
    at_1, at_2 = looks[F(1)], looks[F(2)]
    assert at_1["r0"] is at_1["r1"]
    assert at_1["r2"] is not at_1["r0"] and at_1["r3"] is not at_1["r0"]
    # Gathered: one payload for all four.
    assert len({id(p) for p in at_2.values()}) == 1
    assert at_2["r0"] is not at_1["r0"]


def test_robots_sharing_a_look_and_memory_decide_once(monkeypatch):
    calls = []
    decide = protocol.decide

    def counted(snap, memory, threshold):
        calls.append(snap)
        return decide(snap, memory, threshold)

    monkeypatch.setattr(protocol, "decide", counted)
    trace = JSONL_TRACES["fsync-n24"]()
    looked, pairs, decides = {}, set(), 0
    for r in trace.records:
        if r.kind == "snapshot":
            looked[r.robot] = r.payload
        elif r.kind == "decide":
            pairs.add((id(looked[r.robot]), r.payload["state_before"]))
            decides += 1
    assert len(calls) == len(pairs) < decides
    # The digest of this run before decides were shared.
    assert sha256_of(reference_jsonl(trace)) == (
        "c07394c913b46444965c243d917b8bffc78d4f3c37749d0056ea7b6c7fd1d31b"
    )


def test_robots_sharing_a_look_with_other_memories_decide_apart():
    # Under fsync, robots in memories off and moveMore rest on one point of
    # this configuration and look at one instant.
    trace = run(random_config(GeneratorSpec(4, 60, 5577)), FsyncPolicy())
    memory, looked, readers = {}, {}, {}
    for r in trace.records:
        if r.kind == "activate":
            memory[r.robot] = Memory(r.payload["state"])
        elif r.kind == "snapshot":
            looked[r.robot] = r.payload
            readers.setdefault(id(r.payload), set()).add(memory[r.robot])
        elif r.kind == "decide":
            after, command = protocol.decide(look_of(looked[r.robot]), memory[r.robot], HALF_TURN)
            assert r.payload == {
                "state_before": memory[r.robot].value,
                "state_after": after.value,
                "move": command.to_json(),
            }
    assert any(len(memories) > 1 for memories in readers.values())


def test_looks_during_a_move_see_the_mover_where_it_is_at_each_instant():
    # r0 walks from 0 onto r1 at 1/10 during [1/4, 7/20]. r2 and r3 look
    # twice in that interval and stay, so no move starts or ends between
    # their looks: only the instant changes.
    initial = load_fixture("worked_example")
    events = [("r0", F(0), F("1/4"))]
    for t_look, t_decide in ((F("3/10"), F("13/40")), (F("27/80"), F("29/80"))):
        events += [("r2", t_look, t_decide), ("r3", t_look, t_decide)]
    trace = run(initial, ScriptedPolicy(events))
    assert [(r.t, r.robot) for r in trace.records if r.kind == "move-start"] == [
        (F("1/4"), "r0")
    ]
    world = {r.robot_id: RobotRuntime(r.robot_id, r.pos) for r in initial.robots}
    world["r0"] = moving_robot("r0", F(0), F("1/10"), F("1/4"))
    seen = {}
    for t in (F("3/10"), F("27/80")):
        for rid, payload in snapshots_at(trace, t).items():
            assert payload == reference_snapshot_json(world_snapshot(world, rid, t)), (t, rid)
            seen[t, rid] = payload
    assert [v["offset"] for v in seen[F("3/10"), "r2"]["visible"]] == ["1/4", "3/5", "13/20"]
    assert [v["offset"] for v in seen[F("27/80"), "r2"]["visible"]] == ["1/4", "51/80", "13/20"]


# All first cycles are on quarters. At 1/4, r0 decides first and steps onto
# r1, ending at 7/20 (brings 5); r1 and r2 then queue cycles at 1/3 (brings
# 3) and 5/7 (brings 7) while other decides and the move-end are queued; r3
# looks at 7/20, the instant the move-end brought.
EVENT_CLOCK_SCRIPT = [(r, F(0), F("1/4")) for r in ("r0", "r1", "r2", "r3")] + [
    ("r1", F("1/3"), F("2/5")), ("r2", F("5/7"), F("4/5")), ("r3", F("7/20"), F("3/7"))
]


def test_event_clock_grows_its_scale_mid_run_and_keeps_the_order():
    initial = load_fixture("worked_example")
    events = EVENT_CLOCK_SCRIPT
    trace = run(initial, ScriptedPolicy(events))
    keys = [(r.t, r.robot, r.kind) for r in trace.records]
    assert keys == sorted(keys)
    assert {r.t.denominator for r in trace.records} >= {3, 5, 7, 20, 35}
    arrival = F("7/20")
    assert [(r.robot, r.kind) for r in trace.records if r.t == arrival] == [
        ("r0", "move-end"), ("r3", "activate"), ("r3", "snapshot")
    ]
    # r0 rests on r1's point, flagged, and r2 is still where it started.
    assert snapshots_at(trace, arrival) == {
        "r3": {
            "visible": [
                {"offset": "2/5", "multiplicity": True},
                {"offset": "3/4", "multiplicity": False},
            ],
            "self_multiplicity": False,
        }
    }
    # At 1/3, r1 sees r0 mid-move, at 1/12, unflagged.
    assert snapshots_at(trace, F("1/3"))["r1"]["visible"][-1] == {
        "offset": "59/60", "multiplicity": False
    }

    def cut_after(max_events):
        with pytest.raises(LimitExceeded) as exc:
            run(initial, ScriptedPolicy(events), RunLimits(max_events=max_events))
        return exc.value.trace.records

    # With room for one event past the records before 7/20, the move-end is
    # that event and the look never runs.
    before = sum(1 for r in trace.records if r.t < arrival)
    assert [(r.robot, r.kind) for r in cut_after(before + 1) if r.t == arrival] == [
        ("r0", "move-end")
    ]


def test_event_clock_grows_its_scale_between_two_looks_of_one_instant():
    # Positions on twelfths and integer instants keep the scale at 12 until
    # r0 decides at 1 to move half its 1/12 gap, which needs 24. r2 looks
    # at 1 before that decide; r1 stays at 1 after it and looks at 1 again,
    # on the view r2's look built, at the grown scale.
    initial = config_of(r0="0/12", r1="1/12", r2="7/12", r3="10/12")
    events = [("r0", F(0), F(1)), ("r1", F(0), F(1)), ("r1", F(1), F(2)),
              ("r2", F(1), F(2)), ("r3", F(0), F(1))]
    trace = run(initial, ScriptedPolicy(events))
    at_1 = [(r.robot, r.kind) for r in trace.records if r.t == 1]
    assert at_1[:6] == [
        ("r2", "activate"), ("r2", "snapshot"), ("r0", "decide"), ("r0", "move-start"),
        ("r1", "decide"), ("r1", "activate"),
    ]
    move = next(r.payload for r in trace.records if r.kind == "move-start")
    assert move == {"from": "0/1", "direction": CW, "amount": "1/24"}
    looks = {r.robot: r.payload for r in trace.records if r.kind == "snapshot" and r.t == 1}
    assert looks["r1"][0] is looks["r2"][0]
    world = {r.robot_id: RobotRuntime(r.robot_id, r.pos) for r in initial.robots}
    world["r0"] = moving_robot("r0", F(0), F("1/24"), F(1))
    assert snapshots_at(trace, F(1)) == {
        rid: reference_snapshot_json(world_snapshot(world, rid, F(1))) for rid in ("r1", "r2")
    }


def test_event_clock_rejects_a_busy_look_at_a_new_denominator():
    # r0 moves during [1/4, 7/20]; its next look at 1/3 brings the
    # denominator 3 and falls before its move has ended.
    events = [(r, F(0), F("1/4")) for r in ("r0", "r1", "r2", "r3")]
    events.append(("r0", F("1/3"), F("3/8")))
    with pytest.raises(ScheduleError) as exc:
        run(load_fixture("worked_example"), ScriptedPolicy(events))
    assert str(exc.value) == "policy scheduled robot 'r0' to look at 1/3 while busy until 7/20"


# ---------------------------------------------------------------------------
# The bound of two multiplicity points along asynchronous runs

# The sha256 of each committed run configuration's trace in the per-record
# form (see assert_pinned).
RUN_DIGESTS = {
    "async_n10_seed1297162590": "a4e8e25361c91cc92ad1af94bf990ca11fd4faffc91e03097076b944cce1b596",
    "async_n30_seed150608039": "ee90dca7510fe8f9557b8352701509c00c9e76c7b1654452720db75001ef9e75",
    "class_C_async_seed0": "f51b51d2a36899c6aaec1d395e326eb06d4b04659ac2acaabec6f8ca2585c8f4",
}

# The sha256 of ``to_jsonl`` of each pinned case and run witness, pinned when
# view lines replaced the per-record snapshot payloads.
VIEW_DIGESTS = {
    "fsync-n5-seed1-pi/2-relaxed":
        "a9e971a4d3aec31aa486554788f7866f55c73247079a94bbc73251f56069e30a",
    "fsync-n8-seed2-pi-strict":
        "99b64541203d6dcc5994c72b537c5ba74f091919b243d425402439dac9cedbb3",
    "fsync-n20-seed3-pi-relaxed":
        "78030d483f84843141a97963a28ec00ef7687b712f5a16d3332fec486ed250cd",
    "ssync-n6-seed4-pi/2-strict":
        "d8a259eebcfa450452b0e2d87ef7b68e8ae475b63b810beb5c1a639ec777009c",
    "ssync-n10-seed5-pi-relaxed":
        "0177fa03b407a0b1b5e9cc9ad1a8e3afc1634e9d849be0cb0de81a1163ec7768",
    "ssync-n16-seed6-pi-strict":
        "ea965f8515ddbe17242a66379c78cc5bd8e5e7438ad15d2c2f6e48d209e9a496",
    "async-n7-seed8-pi/2-strict":
        "97094335514ba175870ddd33b03e4c60241bd963aea0728406b956c34ea62003",
    "async-n10-seed34-pi-relaxed":
        "7f31c0eaf478eae72c8f2eaa60b72b1fce4b91395d05205ded6944a1e9726b2b",
    "async-n12-seed33-pi-strict":
        "4172dd09bb42661d7bfc20b3b38bfc49d3f2370149da1dec664b0dbab024f773",
    "async-n12-seed8-pi-relaxed":
        "7dacf72a8a945d24736fd2f55be6cc017db713146a4cb08773c590276a341017",
    "async-n16-seed61-pi-strict":
        "36c999b677c01314fadf4494b9137a9f4ca4fc8ae79b42e5554f8c0aff828965",
    "async-n20-seed12-pi-relaxed":
        "51f595363d665e0bc4193470d7e0c49ce59aee0cef0ad1c2677227b009058e4a",
    "async-n8-seed37-pi/2-relaxed":
        "f48bc27356db67bd86789602e0385cc460975c3ce1831123a9edd57afedc92b4",
    "scripted-n4-seed9-pi/2-relaxed":
        "1af01c02529ba009d8c5cf1ef5def1ca2c4cd573af146ec9213abf0f4db37fe0",
    "scripted-n6-seed10-pi-strict":
        "6773938543a6958bd4a10c076fce8aeecd3f674914d24ec9c19391b6111dcbc8",
    "scripted-n8-seed14-pi-relaxed":
        "7b5a31bb173d4eeb8f8aa615dc4ce26ee9b18de8e71249e855121848b53caabd",
    "scripted-n12-seed13-pi/2-strict":
        "d2041e55194cf7b1602d4f6973c0ea48b08e1d34d0430651b63ccad8f15d303b",
    "async_n10_seed1297162590":
        "88474c4a4c0596b98b498b16147812a6c254fca7a86864bf5183dd6760bfefbe",
    "async_n30_seed150608039":
        "31d99c1bd7748093aca853d98325f8aa9173ce62da440416a6afbcba518841fd",
    "class_C_async_seed0":
        "7cf768e15a186c1d380c5bf93da8d0f7d298d56a56c761315ad4e499fa91e063",
}

RUN_WITNESSES = sorted(p.stem for p in (FIXTURES / "runs").glob("*.json"))


def _witness_config(name):
    """(initial, policy, limits, options) of a committed run configuration."""
    with open(FIXTURES / "runs" / f"{name}.json") as fh:
        return load_run_config(json.load(fh))


@pytest.mark.parametrize("name", RUN_WITNESSES)
def test_run_witnesses_gather_within_the_bound(name):
    """Run configurations that once broke the bound or stalled.

    The two async witnesses reached three multiplicity points while robots
    seen mid-move raised multiplicity flags; class_C under async-random seed
    0 hit the event limit while the threshold defaulted to a quarter turn.
    class_C also takes the staged branches (moveHalf, moveMore, then off),
    so its pinned bytes hold that path still.
    """
    trace = run(*_witness_config(name))
    assert trace.summary["gathered"]
    assert trace.summary["max_simultaneous_multiplicities"] <= 2
    assert_pinned(name, trace, RUN_DIGESTS[name])


# ---------------------------------------------------------------------------
# Records in processing order

# The digests of the async and scripted pinned rows and of the run witnesses
# while ``run`` sorted its records by (t, robot, kind). The fsync and ssync
# rows kept their bytes: no instant of theirs holds events of two ranks.
SORTED_DIGESTS = {
    "async-n7-seed8-pi/2-strict":
        "44f955a25716f627079aeb006dc4888bf4d8f17e3c828bb73d895f29d76e07c4",
    "async-n10-seed34-pi-relaxed":
        "cc0d1fd2f993b233d287169beb8a8dabf07ee394a27f22dceef717f9d07a9541",
    "async-n12-seed33-pi-strict":
        "47ebfd22616161a6aba01a1fb69d99fc2485dafe203bcc57361f50031d35d142",
    "async-n12-seed8-pi-relaxed":
        "83e96956ec8c4b7185a05ba8c70f5d67c1de6f32fa5f0e59568e8f31ee747241",
    "async-n16-seed61-pi-strict":
        "395831efb1381490803e2a9337d5521aa357de74ec9d9b66f36a5b93fa5bb7e1",
    "async-n20-seed12-pi-relaxed":
        "0b17b57ee54280a4af993532bde0554bfdbeb5f87e5fecce9d7890b805b842e7",
    "async-n8-seed37-pi/2-relaxed":
        "063aa70b8d7f755e8b0b67870fb9f15c8ab776d4d1a9f59b19407db9b4374099",
    "scripted-n4-seed9-pi/2-relaxed":
        "c2d0c2c8c1bbb8a30b25ee567bd522bce156d7b64d023a5324d2f4d869004e8a",
    "scripted-n6-seed10-pi-strict":
        "6d3da4dfcb734fbc31781cef21bbcbfd047f75bfe9a1bfa70a0216b6aed1b011",
    "scripted-n8-seed14-pi-relaxed":
        "943575258837eb76bf5f16fd1f0078a6f0a93bf0bc551a636df4b6becccb736f",
    "scripted-n12-seed13-pi/2-strict":
        "0a7e8a749a5d71193fd3a818d350c4217e4d3222450abef89273d8e1ea31a778",
    "async_n10_seed1297162590":
        "5a451bb981b295b309af11951ba159559591e457b6e1f8c86496f7ab22ad5796",
    "async_n30_seed150608039":
        "c2a4bcfe717fd9c6f3363a0396ed51e0a0e2f408b211cb7a42ca1f1dfe227375",
    "class_C_async_seed0":
        "f5f09ec3e40887d867c2c51a8380771deed67dad11970b12812e5cf8adf49751",
}


@pytest.mark.parametrize("name", sorted(SORTED_DIGESTS))
def test_pinned_digests_reorder_the_sorted_traces(name):
    """Sorted by (t, robot, kind), today's records give the old bytes back:
    the processing order only reorders the records."""
    if name in RUN_DIGESTS:
        trace = run(*_witness_config(name))
    else:
        trace = _pinned_trace(next(c for c in PINNED_TRACES if _pinned_id(c) == name))
    resorted = Trace(sorted(trace.records, key=itemgetter(0, 1, 2)), trace.summary)
    assert sha256_of(reference_jsonl(resorted)) == SORTED_DIGESTS[name]


def spelled_out(records):
    """The records with each ``(view, tick)`` payload spelled out as the
    view's ints and the tick, so that records of equal looks compare equal."""
    return [
        (t, robot, kind, (p[0].d, p[0].ticks, p[0].flags, p[1]) if kind == "snapshot" else p)
        for t, robot, kind, p in records
    ]


@pytest.mark.parametrize("name", ["async_n10_seed1297162590", "event-clock"])
def test_processing_order_cut_at_the_event_limit_is_a_prefix(name):
    if name == "event-clock":
        initial, policy = load_fixture("worked_example"), ScriptedPolicy(EVENT_CLOCK_SCRIPT)
        options = None
    else:
        initial, policy, _, options = _witness_config(name)
    whole = run(initial, policy, None, options)
    full, full_lines = spelled_out(whole.records), whole.to_jsonl().splitlines()
    for k in range(1, len(full)):
        with pytest.raises(LimitExceeded) as exc:
            run(initial, policy, RunLimits(max_events=k), options)
        partial = spelled_out(exc.value.trace.records)
        assert partial == full[: len(partial)], k
        # The lines too, view lines included, but for the summary.
        lines = exc.value.trace.to_jsonl().splitlines()[:-1]
        assert lines == full_lines[: len(lines)], k


def test_processing_order_puts_a_queued_look_right_after_its_decide():
    # r1 decides at 1/4 and looks again at once; nobody else runs.
    events = [("r1", F(0), F("1/4")), ("r1", F("1/4"), F("1/2"))]
    trace = run(load_fixture("worked_example"), ScriptedPolicy(events))
    assert [(r.robot, r.kind) for r in trace.records if r.t == F("1/4")] == [
        ("r1", "decide"), ("r1", "activate"), ("r1", "snapshot")
    ]


@pytest.mark.parametrize("seed", range(20))
def test_async_runs_at_n30_keep_at_most_two_multiplicities(seed):
    config = random_config(GeneratorSpec(30, 120, 1000 + seed))
    trace = run(config, AsyncRandomPolicy(seed=seed))
    assert trace.summary["gathered"]
    assert trace.summary["max_simultaneous_multiplicities"] <= 2


# ---------------------------------------------------------------------------
# The expected-leader monitor along whole runs

MONITORED_FIXTURES = [
    "worked_example",
    "class_A_sure",
    "class_A_confused",
    "class_BI",
    "class_BII",
    "class_C",
]


def positions_at_decides(trace):
    """(t, positions) at every decide record, replayed from the trace alone.

    A robot sits at its initial position until its first move-start, and
    afterwards on the arc of its latest move, clamped at the move's end.
    """
    moves = {
        rid: (parse_angle(pos), F(0), F(0), 1) for rid, pos in trace.summary["initial"].items()
    }
    for rec in trace.records:
        if rec.kind == "move-start":
            sign = 1 if rec.payload["direction"] == CW else -1
            origin, amount = parse_angle(rec.payload["from"]), parse_angle(rec.payload["amount"])
            moves[rec.robot] = (origin, rec.t, amount, sign)
        elif rec.kind == "decide":
            yield rec.t, [
                (origin + sign * min(rec.t - start, amount)) % 1
                for origin, start, amount, sign in moves.values()
            ]


@pytest.mark.parametrize("name", MONITORED_FIXTURES)
def test_expected_leader_count_holds_along_runs(name):
    """After every decision the configuration keeps one or two expected leaders.

    The analysis report classifies every robot, so the taxonomy's checks on
    the expected leaders run on each counted state too. Configurations
    holding a multiplicity (the gathered one included) or a rotational
    symmetry have no expected leaders to count and are skipped.
    """
    cfg = load_fixture(name)
    for policy in (
        FsyncPolicy(),
        SsyncPolicy(seed=0),
        AsyncRandomPolicy(seed=0),
        AsyncRandomPolicy(seed=1),
    ):
        trace = run(cfg, policy)
        assert trace.summary["gathered"], type(policy).__name__
        for t, positions in positions_at_decides(trace):
            if len(set(positions)) != len(positions) or is_rotationally_symmetric(
                tuple(positions)
            ):
                continue
            robots = analysis_report(Configuration.from_points(positions))["robots"]
            count = sum(r["class"] != "follower" for r in robots)
            assert count in (1, 2), (type(policy).__name__, t, positions)


@pytest.mark.parametrize("name", MONITORED_FIXTURES)
def test_ssync_without_skips_runs_the_fsync_schedule(name):
    cfg = load_fixture(name)
    expected = run(cfg, FsyncPolicy()).to_jsonl()
    for seed in range(3):
        assert run(cfg, SsyncPolicy(seed=seed, max_skips=0)).to_jsonl() == expected, seed


def test_run_loop_rejects_a_look_while_busy(tmp_path, capsys):
    # r0 decides at 1/4 to step 1/10 onto r1, so it is busy until 7/20, but
    # its next cycle is scripted to look at 3/10.
    cfg = Configuration.from_points([F(0), F("1/10")])
    events = [("r0", F(0), F("1/4")), ("r0", F("3/10"), F("1/2"))]
    with pytest.raises(ScheduleError) as exc:
        run(cfg, ScriptedPolicy(events))
    assert all(part in str(exc.value) for part in ("'r0'", "3/10", "7/20"))

    doc = {
        "initial": cfg.to_json(),
        "policy": {
            "kind": "scripted",
            "events": [{"robot": r, "look": str(look), "decide": str(decide)}
                       for r, look, decide in events],
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad schedule: ") and err.count("\n") == 1
