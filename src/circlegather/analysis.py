"""Leader reasoning from local views and whole-configuration taxonomy.

Because a robot never sees its antipodal point, every multiplicity-free view
spawns two hypothesis configurations: the view as-is (antipode empty) and
the view plus one robot at the antipode. Classification, the safe-neighbor
test and the A/BI/BII/C taxonomy are all built on electing leaders inside
those hypotheses, which are elected on the snapshot's own ints by
``configuration.elect``: c0 is the observer's tick 0 plus the snapshot's
ticks over ``d``, and c1 doubles them and adds the half turn, over ``2d``.
Each hypothesis is elected once; a leader is an index, the observer's
being 0. ``classify`` and friends consume a Snapshot only, so a robot
could run them from purely local information; the whole-configuration
operations at the bottom exist for the simulator and the test oracles.
They build one ``LatticeView`` per configuration and read every robot's
snapshot, the symmetry test and the leader off it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .angles import HALF_TURN, format_angle
from .configuration import Configuration, LatticeView, Snapshot, elect
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
    """(c0 ticks, c1 ticks, possibility, c0 leader, c1 leader).

    The ticks are in the observer frame, the observer at tick 0: c0 is over
    ``snapshot.d`` and c1, which adds the hypothetical antipodal robot at
    tick ``d``, over ``2d``. No visible tick doubles to ``d``, so the half
    turn never lands on a visible point. A leader is an index into its
    hypothesis's ticks, and None when that hypothesis is symmetric.
    """
    d = snapshot.d
    c0 = (0,) + snapshot.ticks
    c1 = tuple(sorted([2 * t for t in c0] + [d]))
    lead0, lead1 = elect(c0, d), elect(c1, 2 * d)
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
    conf0 = Configuration.from_points([Fraction(t, snapshot.d) for t in c0], prefix="v")
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
            f"view ticks: {snapshot.ticks} over {snapshot.d}"
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
    d = snapshot.d
    # Over 2d the observer's first neighbour sits at 2 * ticks[0], its antipode d further.
    return (2 * snapshot.ticks[0] + d) % (2 * d) != c1[(lead1 + 1) % len(c1)]


@lru_cache(maxsize=1 << 16)
def detect_confused_peer_in_c0(snapshot: Snapshot) -> bool:
    """True iff, inside the observer's antipode-empty hypothesis, some other
    robot would classify itself as a confused leader.

    Each other robot's own view is simulated within c0 taken as ground truth.
    """
    if classify(snapshot).tag is not LeaderTag.CONFUSED_LEADER:
        raise NotConfusedLeader("peer detection applies to confused leaders only")
    # The observer sits at tick 0 of c0's view; every other tick is a peer.
    d = snapshot.d
    view = LatticeView((Fraction(t, d), 1) for t in _hypothesis_data(snapshot)[0])
    for tick in view.ticks[1:]:
        if classify(view.snapshot(tick)).tag is LeaderTag.CONFUSED_LEADER:
            return True
    return False


def _view(config: Configuration) -> LatticeView:
    return LatticeView((r.pos, 1) for r in config.robots)


def _snapshots(config: Configuration, view: LatticeView) -> Dict[str, Snapshot]:
    """Every robot's snapshot, read off one lattice view of the configuration."""
    return {r.robot_id: view.snapshot(view.tick(r.pos)) for r in config.robots}


def classify_all(config: Configuration) -> Dict[str, LeaderClass]:
    """Every robot's self-classification from its own snapshot."""
    return {rid: classify(snap) for rid, snap in _snapshots(config, _view(config)).items()}


def expected_leaders(config: Configuration) -> List[Tuple[str, LeaderClass]]:
    """(robot_id, class) for every robot that is not a follower."""
    return [
        (rid, cls) for rid, cls in classify_all(config).items() if cls.is_expected_leader
    ]


def configuration_class(config: Configuration) -> ConfigurationClass:
    """The A / BI / BII / C taxonomy of an asymmetric multiplicity-free configuration."""
    view = _view(config)
    return _taxonomy(config, view, _snapshots(config, view))[0]


def _taxonomy(
    config: Configuration, view: LatticeView, snapshots: Dict[str, Snapshot]
) -> Tuple[ConfigurationClass, int]:
    """The class and the leader's lattice int, both read off ``view``."""
    if len(view.ticks) < len(config.robots):
        raise MultiplicityPresent("taxonomy undefined with a multiplicity point")
    lead = elect(view.ticks, view.d)
    if lead is None:
        raise SymmetricConfiguration("taxonomy undefined for symmetric configurations")
    lead_tick = view.ticks[lead]
    verdicts = ((rid, classify(snap)) for rid, snap in snapshots.items())
    leaders = [(rid, cls) for rid, cls in verdicts if cls.is_expected_leader]
    if len(leaders) == 1:
        rid, cls = leaders[0]
        if cls.tag is LeaderTag.SURE_LEADER:
            return ConfigurationClass.A, lead_tick
        safe = is_safe_neighbor(snapshots[rid])
        return ConfigurationClass.A if safe else ConfigurationClass.C, lead_tick
    if len(leaders) == 2:
        others = [rid for rid, _ in leaders if view.tick(config.robot(rid).pos) != lead_tick]
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
        return ConfigurationClass.BI if safe else ConfigurationClass.BII, lead_tick
    raise InvariantViolation(
        f"expected-leader count must be 1 or 2, got {len(leaders)} "
        f"in {[format_angle(p) for p in config.positions]}"
    )


def analysis_report(config: Configuration) -> dict:
    """JSON-ready report: taxonomy class, leader, and per-robot verdicts."""
    view = _view(config)
    snapshots = _snapshots(config, view)
    cls, lead_tick = _taxonomy(config, view, snapshots)
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
        "leader": format_angle(Fraction(lead_tick, view.d)),
        "robots": per_robot,
    }
