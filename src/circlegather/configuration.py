"""Configurations of robots on the circle and per-robot snapshots.

A configuration is a multiset of positions with opaque robot identities.
Identities exist only for the simulator and tests; none of the analysis
operations read them. Snapshots are what a single robot actually sees:
clockwise offsets of occupied points strictly closer than a half turn,
with weak multiplicity flags (a flag, never a count).

Angles are exact Fractions at every public boundary. Leader election and
the symmetry test convert the positions once to integer gaps on the
common-denominator lattice (:func:`lattice`) and run there in linear time:
the leader starts the least rotation of the gap list, and the configuration
is symmetric iff the gap list has a nontrivial period.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .angles import HALF_TURN, cw_angle, format_angle, norm, parse_angle
from .errors import (
    ContractViolation,
    LengthMismatch,
    MultiplicityPresent,
    ParseError,
    SymmetricConfiguration,
    UnknownRobot,
)

AngleSeq = Tuple[Fraction, ...]


@dataclass(frozen=True)
class Robot:
    robot_id: str
    pos: Fraction


@dataclass(frozen=True)
class Configuration:
    robots: Tuple[Robot, ...]

    def __post_init__(self):
        ids = [r.robot_id for r in self.robots]
        if len(set(ids)) != len(ids):
            raise ContractViolation("robot ids must be unique")

    @classmethod
    def from_points(cls, points: Iterable, prefix: str = "r") -> "Configuration":
        pts = [norm(p) for p in points]
        return cls(tuple(Robot(f"{prefix}{i}", p) for i, p in enumerate(pts)))

    @classmethod
    def from_json(cls, obj) -> "Configuration":
        try:
            entries = obj["robots"]
        except (TypeError, KeyError):
            raise ParseError("configuration document must have a 'robots' list")
        if not isinstance(entries, list) or not entries:
            raise ParseError("'robots' must be a non-empty list")
        robots = []
        for e in entries:
            try:
                rid, pos = e["id"], e["pos"]
            except (TypeError, KeyError):
                raise ParseError("each robot needs 'id' and 'pos' fields")
            if not isinstance(rid, str):
                raise ParseError("robot 'id' must be a string")
            robots.append(Robot(rid, parse_angle(pos)))
        if len({r.robot_id for r in robots}) != len(robots):
            raise ParseError("robot ids must be unique")
        return cls(tuple(robots))

    def to_json(self) -> dict:
        return {
            "robots": [
                {"id": r.robot_id, "pos": format_angle(r.pos)} for r in self.robots
            ]
        }

    @property
    def positions(self) -> Tuple[Fraction, ...]:
        return tuple(r.pos for r in self.robots)

    @property
    def position_counts(self) -> Dict[Fraction, int]:
        return Counter(self.positions)

    @property
    def has_multiplicity(self) -> bool:
        counts = self.position_counts
        return any(c >= 2 for c in counts.values())

    def robot(self, robot_id: str) -> Robot:
        for r in self.robots:
            if r.robot_id == robot_id:
                return r
        raise UnknownRobot(f"no robot with id {robot_id!r}")


@dataclass(frozen=True)
class VisiblePoint:
    """One occupied point in a snapshot, as a clockwise offset from the observer."""

    offset: Fraction
    is_multiplicity: bool

    def __post_init__(self):
        if not 0 < self.offset < 1 or self.offset == HALF_TURN:
            raise ContractViolation(
                f"visible offset must be in (0,1) and never 1/2, got {self.offset}"
            )


@dataclass(frozen=True)
class Snapshot:
    """What one robot sees: visible occupied points plus its own-point flag."""

    visible: Tuple[VisiblePoint, ...]
    self_is_multiplicity: bool = False

    def __post_init__(self):
        offsets = [v.offset for v in self.visible]
        if len(set(offsets)) != len(offsets):
            raise ContractViolation("visible offsets must be pairwise distinct")
        object.__setattr__(
            self, "visible", tuple(sorted(self.visible, key=lambda v: v.offset))
        )

    @property
    def offsets(self) -> Tuple[Fraction, ...]:
        return tuple(v.offset for v in self.visible)

    @property
    def has_multiplicity(self) -> bool:
        return self.self_is_multiplicity or any(v.is_multiplicity for v in self.visible)

    def to_json(self) -> dict:
        return {
            "visible": [
                {"offset": format_angle(v.offset), "multiplicity": v.is_multiplicity}
                for v in self.visible
            ],
            "self_multiplicity": self.self_is_multiplicity,
        }


def _require_distinct(positions: Sequence[Fraction]) -> None:
    if len(set(positions)) != len(positions):
        raise MultiplicityPresent("operation undefined with a multiplicity point")


def gap_sequence(positions: Sequence[Fraction]) -> AngleSeq:
    """Clockwise gaps between consecutive occupied points, from the smallest position."""
    _require_distinct(positions)
    pts = sorted(norm(p) for p in positions)
    n = len(pts)
    if n == 1:
        return (Fraction(1),)
    return tuple(cw_angle(pts[i], pts[(i + 1) % n]) for i in range(n))


def angle_sequence(config: Configuration, r: Fraction) -> AngleSeq:
    """The clockwise gap sequence starting at the robot at position ``r``.

    Only defined for multiplicity-free configurations; its length equals the
    robot count and its entries sum to exactly one turn.
    """
    positions = config.positions
    _require_distinct(positions)
    r = norm(r)
    if r not in positions:
        raise UnknownRobot(f"no robot at position {format_angle(r)}")
    return sequence_from(positions, r)


def sequence_from(positions: Sequence[Fraction], r: Fraction) -> AngleSeq:
    """Gap sequence of distinct ``positions`` starting at ``r`` (assumed present)."""
    ordered = [r] + sorted(
        (p for p in positions if p != r), key=lambda p: cw_angle(r, p)
    )
    n = len(ordered)
    return tuple(cw_angle(ordered[i], ordered[(i + 1) % n]) for i in range(n))


def lex_compare(a: AngleSeq, b: AngleSeq) -> int:
    """-1, 0 or 1 as ``a`` is lexicographically smaller, equal or greater."""
    if len(a) != len(b):
        raise LengthMismatch(f"cannot compare sequences of lengths {len(a)} and {len(b)}")
    ta, tb = tuple(a), tuple(b)
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


def lattice(positions: Sequence[Fraction]) -> Tuple[Tuple[Fraction, ...], List[int]]:
    """Positions sorted clockwise from 0, with their clockwise gaps as ints.

    The gaps are counted in steps of 1/D, D being the lcm of the position
    denominators, so gap ``i`` runs from point ``i`` to point ``i + 1`` (the
    last one wraps around) and the gaps sum to D. Scaling by D keeps every
    equality and order between gaps, so symmetry and leader election on the
    ints agree exactly with the same questions asked of the Fraction gaps.
    Positions outside [0, 1) are placed by their value modulo one turn;
    two positions on one point raise :class:`MultiplicityPresent`.
    """
    if not positions:
        return (), []
    ratios = [p.as_integer_ratio() for p in positions]
    d = lcm(*[q for _, q in ratios])
    ticks = [num * (d // q) % d for num, q in ratios]
    order = sorted(range(len(ticks)), key=ticks.__getitem__)
    pts = tuple([positions[i] for i in order])
    ticks = [ticks[i] for i in order]
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    gaps.append(ticks[0] + d - ticks[-1])
    if 0 in gaps:
        raise MultiplicityPresent("operation undefined with a multiplicity point")
    return pts, gaps


def least_rotation(seq: Sequence[int]) -> int:
    """Start index of the lexicographically least rotation of ``seq``.

    Duval's Lyndon factorisation run over the doubled sequence (Duval 1983),
    in linear time. For a periodic sequence any start of a least rotation
    may come back.
    """
    n = len(seq)
    doubled = list(seq) * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def has_period(seq: Sequence[int]) -> bool:
    """True iff a rotation by fewer than ``len(seq)`` steps maps ``seq`` onto itself.

    The smallest period p of a sequence follows from its longest proper
    border (the KMP prefix function): p = n - border. The sequence equals a
    nontrivial rotation of itself iff p < n and p divides n.
    """
    n = len(seq)
    if n < 2:
        return False
    border = [0] * n
    for i in range(1, n):
        b = border[i - 1]
        while b and seq[i] != seq[b]:
            b = border[b - 1]
        if seq[i] == seq[b]:
            b += 1
        border[i] = b
    period = n - border[-1]
    return period < n and n % period == 0


def _positions_of(config) -> Tuple[Fraction, ...]:
    return config.positions if isinstance(config, Configuration) else tuple(config)


def is_rotationally_symmetric(config) -> bool:
    """True iff some nontrivial rotation maps the configuration onto itself."""
    return has_period(lattice(_positions_of(config))[1])


def true_leader(config) -> Fraction:
    """Position of the robot with the strictly smallest gap sequence."""
    pts, gaps = lattice(_positions_of(config))
    if has_period(gaps):
        raise SymmetricConfiguration("no unique leader in a symmetric configuration")
    return pts[least_rotation(gaps)]


def leader_of_positions(positions: Sequence[Fraction]) -> Fraction:
    """Leader election over distinct positions, assuming asymmetry was checked.

    The leader's gap sequence is the least rotation of the gap list, so it
    is elected in linear time on the integer lattice instead of by comparing
    every robot's sequence.
    """
    pts, gaps = lattice(positions)
    return pts[least_rotation(gaps)]


def take_snapshot(config: Configuration, observer: str) -> Snapshot:
    """Build the observer's view: occupied points strictly closer than a half turn.

    The antipodal point is excluded even if occupied. Coincident robots
    collapse to one visible point with a multiplicity flag; the observer's
    own point only contributes ``self_is_multiplicity``.
    """
    me = config.robot(observer)
    counts = config.position_counts
    visible = []
    for pos, count in counts.items():
        if pos == me.pos:
            continue
        off = cw_angle(me.pos, pos)
        if off == HALF_TURN:
            continue
        visible.append(VisiblePoint(off, count >= 2))
    return Snapshot(tuple(visible), counts[me.pos] >= 2)


def snapshot_of_positions(positions: Sequence[Fraction], observer_pos: Fraction) -> Snapshot:
    """Snapshot seen from ``observer_pos`` in a raw multiset of positions."""
    counts = Counter(norm(p) for p in positions)
    me = norm(observer_pos)
    if me not in counts:
        raise UnknownRobot(f"no robot at position {format_angle(me)}")
    visible = []
    for pos, count in counts.items():
        if pos == me:
            continue
        off = cw_angle(me, pos)
        if off == HALF_TURN:
            continue
        visible.append(VisiblePoint(off, count >= 2))
    return Snapshot(tuple(visible), counts[me] >= 2)


def require_legal_initial(config: Configuration) -> None:
    """Reject configurations that are not legal starting points for a run.

    Coincident robots raise :class:`MultiplicityPresent` from the lattice.
    """
    if is_rotationally_symmetric(config):
        raise SymmetricConfiguration("initial configuration must be asymmetric")
