"""Leader reasoning from local views and whole-configuration taxonomy.

Because a robot never sees its antipodal point, every multiplicity-free view
spawns two hypothesis configurations: the view as-is (antipode empty) and
the view plus one robot at the antipode. Classification, the safe-neighbor
test and the A/BI/BII/C taxonomy are all built on electing leaders inside
those hypotheses, which ``configuration`` does by least rotation of their
integer gap lists. ``classify`` and friends consume a Snapshot only, so a
robot could run them from purely local information; the whole-configuration
operations at the bottom exist for the simulator and the test oracles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .angles import HALF_TURN, antipode, cw_angle, format_angle
from .configuration import (
    Configuration,
    Snapshot,
    is_rotationally_symmetric,
    leader_of_positions,
    snapshot_of_positions,
    take_snapshot,
    true_leader,
)
from .errors import (
    AmbiguousSymmetric,
    InvariantViolation,
    MultiplicityInSnapshot,
    MultiplicityPresent,
    NotConfusedLeader,
    SymmetricConfiguration,
)


class Possibility(enum.Enum):
    ONLY_C0 = "only-c0"
    ONLY_C1 = "only-c1"
    BOTH = "both"


class LeaderTag(enum.Enum):
    SURE_LEADER = "sure-leader"
    CONFUSED_LEADER = "confused-leader"
    FOLLOWER = "follower"


@dataclass(frozen=True)
class LeaderClass:
    tag: LeaderTag
    possibility: Possibility

    def __post_init__(self):
        if self.tag is LeaderTag.CONFUSED_LEADER and self.possibility is not Possibility.BOTH:
            raise InvariantViolation(
                "a confused leader requires both hypotheses to be possible"
            )

    @property
    def is_expected_leader(self) -> bool:
        return self.tag is not LeaderTag.FOLLOWER


class ConfigurationClass(enum.Enum):
    A = "A"
    BI = "BI"
    BII = "BII"
    C = "C"


def _require_plain(snapshot: Snapshot) -> None:
    if snapshot.has_multiplicity:
        raise MultiplicityInSnapshot(
            "hypothesis reasoning needs a multiplicity-free snapshot"
        )


@lru_cache(maxsize=1 << 16)
def _hypothesis_data(snapshot: Snapshot):
    """(c0 positions, c1 positions, possibility) in the observer frame.

    The observer sits at 0; c1 adds the hypothetical antipodal robot at 1/2.
    """
    c0 = (Fraction(0),) + snapshot.offsets
    c1 = tuple(sorted(c0 + (HALF_TURN,)))
    sym0 = is_rotationally_symmetric(c0)
    sym1 = is_rotationally_symmetric(c1)
    if sym0 and sym1:
        raise AmbiguousSymmetric("both antipodal hypotheses are symmetric")
    if sym0:
        possibility = Possibility.ONLY_C1
    elif sym1:
        possibility = Possibility.ONLY_C0
    else:
        possibility = Possibility.BOTH
    return c0, c1, possibility


@lru_cache(maxsize=1 << 16)
def _leader(positions: Tuple[Fraction, ...]) -> Fraction:
    return leader_of_positions(positions)


def hypothesis_configs(snapshot: Snapshot):
    """The observer's two candidate worlds and which of them are possible.

    Returns ``(c0, c1, possibility)`` as Configurations in the observer
    frame: the observer at 0 with id ``"observer"``, visible robots as
    ``"v<k>"`` and the hypothetical antipodal robot as ``"antipodal"``.
    """
    _require_plain(snapshot)
    c0, c1, possibility = _hypothesis_data(snapshot)
    conf0 = Configuration.from_points(c0, prefix="v")
    robots = list(conf0.robots)
    robots.append(type(robots[0])("antipodal", HALF_TURN))
    conf1 = Configuration(tuple(robots))
    return conf0, conf1, possibility


@lru_cache(maxsize=1 << 16)
def classify(snapshot: Snapshot) -> LeaderClass:
    """Sure leader, confused leader or follower, from the observer's view alone.

    The hypothetical antipodal robot counts as a leader candidate inside c1.
    A confused verdict always has the observer leading c0 and not c1; the
    opposite split would contradict a checked model invariant and aborts.
    """
    _require_plain(snapshot)
    c0, c1, possibility = _hypothesis_data(snapshot)
    if possibility is Possibility.ONLY_C0:
        leads = _leader(c0) == 0
        return LeaderClass(LeaderTag.SURE_LEADER if leads else LeaderTag.FOLLOWER, possibility)
    if possibility is Possibility.ONLY_C1:
        leads = _leader(c1) == 0
        return LeaderClass(LeaderTag.SURE_LEADER if leads else LeaderTag.FOLLOWER, possibility)
    leads0 = _leader(c0) == 0
    leads1 = _leader(c1) == 0
    if leads0 and leads1:
        return LeaderClass(LeaderTag.SURE_LEADER, possibility)
    if not leads0 and not leads1:
        return LeaderClass(LeaderTag.FOLLOWER, possibility)
    if leads1 and not leads0:
        raise InvariantViolation(
            "observer leads the occupied-antipode hypothesis but not the empty one; "
            f"view offsets: {[format_angle(o) for o in snapshot.offsets]}"
        )
    return LeaderClass(LeaderTag.CONFUSED_LEADER, possibility)


@lru_cache(maxsize=1 << 16)
def is_safe_neighbor(snapshot: Snapshot) -> bool:
    """Whether the confused observer may walk onto its first clockwise neighbor.

    Unsafe means: in the occupied-antipode hypothesis, the elected leader's
    first clockwise neighbor sits exactly antipodal to the observer's own
    first clockwise neighbor (the hypothetical robot is a candidate both as
    leader and as neighbor).
    """
    if classify(snapshot).tag is not LeaderTag.CONFUSED_LEADER:
        raise NotConfusedLeader("safe-neighbor test applies to confused leaders only")
    _, c1, _ = _hypothesis_data(snapshot)
    s = min(snapshot.offsets)
    lead = _leader(c1)
    neighbor = min(
        (p for p in c1 if p != lead), key=lambda p: cw_angle(lead, p)
    )
    return antipode(s) != neighbor


@lru_cache(maxsize=1 << 16)
def detect_confused_peer_in_c0(snapshot: Snapshot) -> bool:
    """True iff, inside the observer's antipode-empty hypothesis, some other
    robot would classify itself as a confused leader.

    Each other robot's own view is simulated within c0 taken as ground truth.
    """
    if classify(snapshot).tag is not LeaderTag.CONFUSED_LEADER:
        raise NotConfusedLeader("peer detection applies to confused leaders only")
    c0, _, _ = _hypothesis_data(snapshot)
    for p in c0:
        if p == 0:
            continue
        peer_view = snapshot_of_positions(c0, p)
        if classify(peer_view).tag is LeaderTag.CONFUSED_LEADER:
            return True
    return False


def classify_all(config: Configuration) -> Dict[str, LeaderClass]:
    """Every robot's self-classification from its own snapshot."""
    return {r.robot_id: classify(take_snapshot(config, r.robot_id)) for r in config.robots}


def expected_leaders(config: Configuration) -> List[Tuple[str, LeaderClass]]:
    """(robot_id, class) for every robot that is not a follower."""
    return [
        (rid, cls) for rid, cls in classify_all(config).items() if cls.is_expected_leader
    ]


def configuration_class(config: Configuration) -> ConfigurationClass:
    """The A / BI / BII / C taxonomy of an asymmetric multiplicity-free configuration."""
    positions = config.positions
    if len(set(positions)) != len(positions):
        raise MultiplicityPresent("taxonomy undefined with a multiplicity point")
    if is_rotationally_symmetric(positions):
        raise SymmetricConfiguration("taxonomy undefined for symmetric configurations")
    leaders = expected_leaders(config)
    if len(leaders) == 1:
        rid, cls = leaders[0]
        if cls.tag is LeaderTag.SURE_LEADER:
            return ConfigurationClass.A
        safe = is_safe_neighbor(take_snapshot(config, rid))
        return ConfigurationClass.A if safe else ConfigurationClass.C
    if len(leaders) == 2:
        lead_pos = true_leader(config)
        others = [rid for rid, _ in leaders if config.robot(rid).pos != lead_pos]
        if len(others) != 1:
            raise InvariantViolation(
                f"expected exactly one non-leader expected leader, got {others}"
            )
        other_cls = dict(leaders)[others[0]]
        if other_cls.tag is not LeaderTag.CONFUSED_LEADER:
            raise InvariantViolation(
                "the expected leader away from the true leader must be confused"
            )
        safe = is_safe_neighbor(take_snapshot(config, others[0]))
        return ConfigurationClass.BI if safe else ConfigurationClass.BII
    raise InvariantViolation(
        f"expected-leader count must be 1 or 2, got {len(leaders)} "
        f"in {[format_angle(p) for p in positions]}"
    )


def analysis_report(config: Configuration) -> dict:
    """JSON-ready report: taxonomy class, leader, and per-robot verdicts."""
    cls = configuration_class(config)
    leader_pos = true_leader(config)
    per_robot = []
    for r in config.robots:
        lc = classify(take_snapshot(config, r.robot_id))
        per_robot.append(
            {
                "id": r.robot_id,
                "pos": format_angle(r.pos),
                "class": lc.tag.value,
                "possibility": lc.possibility.value,
            }
        )
    return {
        "class": cls.value,
        "leader": format_angle(leader_pos),
        "robots": per_robot,
    }
