"""Leader reasoning from local views and whole-configuration taxonomy.

Because a robot never sees its antipodal point, every multiplicity-free view
spawns two hypotheses: the view as-is (antipode empty) and the view plus
one robot at the antipode. Classification, the safe-neighbor test and the
A/BI/BII/C taxonomy are all built on electing leaders inside those
hypotheses, which are elected on the snapshot's own ints by
``configuration.elect``: c0 is the observer's tick 0 plus the snapshot's
ticks over ``d``, and c1 doubles them and adds the half turn, over ``2d``.
A leader is an index, the observer's being 0. ``classify`` and friends
consume a Snapshot only, so a robot could run them from purely local
information; the whole-configuration operations at the bottom exist for
the simulator, the CLI and the test oracles. The taxonomy reads one
``configuration.distinct_view`` of the occupied points and classifies each
point's snapshot by its lattice int, so, like the anonymous robots, it
reads no robot identity; only the report's per-robot list keys its
verdicts by robot id.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from .angles import format_angle
from .configuration import (
    CheckedRecord, Configuration, LatticeView, Snapshot, distinct_view, elect
)
from .errors import (
    AmbiguousSymmetric,
    InvariantViolation,
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


class _LeaderClassFields(NamedTuple):
    tag: LeaderTag
    possibility: Possibility


class LeaderClass(CheckedRecord, _LeaderClassFields):
    __slots__ = ()

    def __new__(cls, tag: LeaderTag, possibility: Possibility):
        if tag is LeaderTag.CONFUSED_LEADER and possibility is not Possibility.BOTH:
            raise InvariantViolation("a confused leader requires both hypotheses to be possible")
        return tuple.__new__(cls, (tag, possibility))

    @property
    def is_expected_leader(self) -> bool:
        return self.tag is not LeaderTag.FOLLOWER


class ConfigurationClass(enum.Enum):
    A = "A"
    BI = "BI"
    BII = "BII"
    C = "C"


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


@lru_cache(maxsize=1 << 16)
def classify(snapshot: Snapshot) -> LeaderClass:
    """Sure leader, confused leader or follower, from the observer's view alone.

    The hypothetical antipodal robot counts as a leader candidate inside c1.
    A confused verdict always has the observer leading c0 and not c1; the
    opposite split would contradict a checked model invariant and aborts.
    A flagged snapshot raises :class:`MultiplicityPresent`.
    """
    if snapshot.self_is_multiplicity or any(snapshot.flags):
        raise MultiplicityPresent("operation undefined with a multiplicity point")
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
    view = LatticeView.on_lattice(snapshot.d, dict.fromkeys((0,) + snapshot.ticks, 1))
    for tick in view.ticks[1:]:
        if classify(view.snapshot(tick)).tag is LeaderTag.CONFUSED_LEADER:
            return True
    return False


def configuration_class(config: Configuration) -> ConfigurationClass:
    """The A / BI / BII / C taxonomy of an asymmetric multiplicity-free configuration."""
    return _taxonomy(distinct_view(config.positions))[0]


def _taxonomy(view: LatticeView) -> Tuple[ConfigurationClass, int, Dict[int, LeaderClass]]:
    """The class, the leader's lattice int and each point's verdict, by its int.

    Every point of ``view`` is classified from its own snapshot; the expected
    leaders are told apart from the leader by their ints alone.
    """
    lead = elect(view.ticks, view.d)
    if lead is None:
        raise SymmetricConfiguration("taxonomy undefined for symmetric configurations")
    lead_tick = view.ticks[lead]
    verdicts = {tick: classify(view.snapshot(tick)) for tick in view.ticks}
    leaders = [tick for tick, cls in verdicts.items() if cls.is_expected_leader]
    if len(leaders) == 1:
        tick = leaders[0]
        if verdicts[tick].tag is LeaderTag.SURE_LEADER or is_safe_neighbor(view.snapshot(tick)):
            return ConfigurationClass.A, lead_tick, verdicts
        return ConfigurationClass.C, lead_tick, verdicts
    others = [tick for tick in leaders if tick != lead_tick]
    if len(leaders) != 2 or len(others) != 1:
        raise InvariantViolation(
            f"expected the leader and at most one other expected leader, got ticks {leaders} "
            f"over {view.d} with the leader at {lead_tick}"
        )
    if verdicts[others[0]].tag is not LeaderTag.CONFUSED_LEADER:
        raise InvariantViolation("the expected leader away from the true leader must be confused")
    safe = is_safe_neighbor(view.snapshot(others[0]))
    return (ConfigurationClass.BI if safe else ConfigurationClass.BII), lead_tick, verdicts


def analysis_report(config: Configuration) -> dict:
    """JSON-ready report: taxonomy class, leader, and per-robot verdicts."""
    view = distinct_view(config.positions)
    cls, lead_tick, verdicts = _taxonomy(view)
    per_robot = []
    for r in config.robots:
        lc = verdicts[view.tick(r.pos)]
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
