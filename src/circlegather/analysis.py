"""Leader reasoning from local views and whole-configuration taxonomy.

Because a robot never sees its antipodal point, every multiplicity-free view
spawns two hypothesis configurations: the view as-is (antipode empty) and
the view plus one robot at the antipode. Classification, the safe-neighbor
test and the A/BI/BII/C taxonomy are all built on electing leaders inside
those hypotheses. Each hypothesis gets one integer gap list per snapshot
(``configuration.lattice``), which its symmetry test and its election (the
least rotation of the gaps) both read, so it is elected once. ``classify``
and friends consume a Snapshot only, so a robot could run them from purely
local information; the whole-configuration operations at the bottom exist
for the simulator and the test oracles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .angles import HALF_TURN, antipode, format_angle
from .configuration import (
    Configuration,
    LatticeView,
    Snapshot,
    has_period,
    is_rotationally_symmetric,
    lattice,
    least_rotation,
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
    """(c0 positions, c1 positions, possibility, c0 leader, c1 leader).

    Positions are in the observer frame: the observer sits at 0 and c1 adds
    the hypothetical antipodal robot at 1/2. A hypothesis's leader is None
    when that hypothesis is symmetric.
    """
    c0 = (Fraction(0),) + snapshot.offsets
    c1 = tuple(sorted(c0 + (HALF_TURN,)))
    leaders = []
    for positions in (c0, c1):
        pts, gaps = lattice(positions)
        leaders.append(None if has_period(gaps) else pts[least_rotation(gaps)])
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


def hypothesis_configs(snapshot: Snapshot):
    """The observer's two candidate worlds and which of them are possible.

    Returns ``(c0, c1, possibility)`` as Configurations in the observer
    frame: the observer at 0 with id ``"v0"``, the visible robots as
    ``"v1"`` to ``"v<k>"`` in clockwise order and the hypothetical antipodal
    robot as ``"antipodal"``.
    """
    _require_plain(snapshot)
    c0, _, possibility, _, _ = _hypothesis_data(snapshot)
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
    _, _, possibility, lead0, lead1 = _hypothesis_data(snapshot)
    leads0, leads1 = lead0 == 0, lead1 == 0
    if possibility is Possibility.ONLY_C0:
        return LeaderClass(LeaderTag.SURE_LEADER if leads0 else LeaderTag.FOLLOWER, possibility)
    if possibility is Possibility.ONLY_C1:
        return LeaderClass(LeaderTag.SURE_LEADER if leads1 else LeaderTag.FOLLOWER, possibility)
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
    _, c1, _, _, lead1 = _hypothesis_data(snapshot)
    s = snapshot.offsets[0]
    neighbor = c1[(c1.index(lead1) + 1) % len(c1)]
    return antipode(s) != neighbor


@lru_cache(maxsize=1 << 16)
def detect_confused_peer_in_c0(snapshot: Snapshot) -> bool:
    """True iff, inside the observer's antipode-empty hypothesis, some other
    robot would classify itself as a confused leader.

    Each other robot's own view is simulated within c0 taken as ground truth.
    """
    if classify(snapshot).tag is not LeaderTag.CONFUSED_LEADER:
        raise NotConfusedLeader("peer detection applies to confused leaders only")
    # The observer sits at tick 0 of c0's view; every other tick is a peer.
    view = LatticeView((p, 1) for p in _hypothesis_data(snapshot)[0])
    for tick in view.ticks[1:]:
        if classify(view.snapshot(tick)).tag is LeaderTag.CONFUSED_LEADER:
            return True
    return False


def _snapshots(config: Configuration) -> Dict[str, Snapshot]:
    """Every robot's snapshot, read off one lattice view of the configuration."""
    view = LatticeView((r.pos, 1) for r in config.robots)
    return {r.robot_id: view.snapshot(view.tick(r.pos)) for r in config.robots}


def classify_all(config: Configuration) -> Dict[str, LeaderClass]:
    """Every robot's self-classification from its own snapshot."""
    return {rid: classify(snap) for rid, snap in _snapshots(config).items()}


def expected_leaders(config: Configuration) -> List[Tuple[str, LeaderClass]]:
    """(robot_id, class) for every robot that is not a follower."""
    return [
        (rid, cls) for rid, cls in classify_all(config).items() if cls.is_expected_leader
    ]


def configuration_class(config: Configuration) -> ConfigurationClass:
    """The A / BI / BII / C taxonomy of an asymmetric multiplicity-free configuration."""
    return _taxonomy(config, _snapshots(config))


def _taxonomy(config: Configuration, snapshots: Dict[str, Snapshot]) -> ConfigurationClass:
    positions = config.positions
    if len(set(positions)) != len(positions):
        raise MultiplicityPresent("taxonomy undefined with a multiplicity point")
    if is_rotationally_symmetric(positions):
        raise SymmetricConfiguration("taxonomy undefined for symmetric configurations")
    verdicts = ((rid, classify(snap)) for rid, snap in snapshots.items())
    leaders = [(rid, cls) for rid, cls in verdicts if cls.is_expected_leader]
    if len(leaders) == 1:
        rid, cls = leaders[0]
        if cls.tag is LeaderTag.SURE_LEADER:
            return ConfigurationClass.A
        safe = is_safe_neighbor(snapshots[rid])
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
        safe = is_safe_neighbor(snapshots[others[0]])
        return ConfigurationClass.BI if safe else ConfigurationClass.BII
    raise InvariantViolation(
        f"expected-leader count must be 1 or 2, got {len(leaders)} "
        f"in {[format_angle(p) for p in positions]}"
    )


def analysis_report(config: Configuration) -> dict:
    """JSON-ready report: taxonomy class, leader, and per-robot verdicts."""
    snapshots = _snapshots(config)
    cls = _taxonomy(config, snapshots)
    leader_pos = true_leader(config)
    per_robot = []
    for r in config.robots:
        lc = classify(snapshots[r.robot_id])
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
