"""Configurations of robots on the circle and per-robot snapshots.

A configuration is a multiset of positions with opaque robot identities.
Identities exist only for the simulator, the tests and per-robot reports;
the symmetry test, the leader election and the taxonomy read only the
occupied points. Snapshots are what a single robot actually sees:
clockwise offsets of occupied points strictly closer than a half turn,
with weak multiplicity flags (a flag, never a count).

Angles are exact Fractions at every public boundary. A
:class:`LatticeView` is the one view of a point set as ints: the occupied
points on their common-denominator lattice, sorted clockwise and kept
doubled, so every observer's view of one world state is one slice of one
ring of ints (two around an occupied antipode), shifted to the observer.
It scales Fractions itself, and :meth:`LatticeView.on_lattice` takes the
ints the simulator keeps on its own lattice. :func:`elect` is the one
integer leader election: one Lyndon factorisation of the gaps between those
ints gives both the leader (the start of the least rotation of the gaps)
and the symmetry test (that rotation is a power of a shorter word), in
linear time.
:func:`distinct_view` is the one multiplicity check on the lattice: the
symmetry test, the leader and the analysis's taxonomy each read one such
view and elect on it. :func:`gap_sequence` is the Fraction path that
the tests' references and the benchmark's tracer read.
A :class:`Snapshot` is a tuple of ints: its visible points are ticks over
one denominator, reduced by their gcd, each with one flag, and it checks
them with C-level builtins (``map``, ``in``, and ``min``/``max`` only for
unsorted ticks) rather than a Python loop. Its readers (the analysis and
the protocol) decide on those ints; every snapshot the package builds comes
from a ``LatticeView``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .angles import format_angle, norm, parse_angle
from .errors import (
    ContractViolation,
    MultiplicityPresent,
    ParseError,
    SymmetricConfiguration,
    TooFewRobots,
    UnknownRobot,
)

AngleSeq = Tuple[Fraction, ...]


def reject_unknown_keys(obj: Mapping, allowed: set, what: str) -> None:
    """Raise :class:`ParseError` naming every key of ``obj`` outside ``allowed``."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"unknown {what}(s) {unknown}")


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
    def from_points(cls, points: Iterable) -> "Configuration":
        pts = [norm(p) for p in points]
        return cls(tuple(Robot(f"r{i}", p) for i, p in enumerate(pts)))

    @classmethod
    def from_json(cls, obj) -> "Configuration":
        try:
            entries = obj["robots"]
        except (TypeError, KeyError):
            raise ParseError("configuration document must have a 'robots' list")
        if not isinstance(entries, list) or not entries:
            raise ParseError("'robots' must be a non-empty list")
        reject_unknown_keys(obj, {"robots"}, "configuration key")
        robots = []
        for e in entries:
            try:
                rid, pos = e["id"], e["pos"]
            except (TypeError, KeyError):
                raise ParseError("each robot needs 'id' and 'pos' fields")
            reject_unknown_keys(e, {"id", "pos"}, "robot field")
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

    def robot(self, robot_id: str) -> Robot:
        for r in self.robots:
            if r.robot_id == robot_id:
                return r
        raise UnknownRobot(f"no robot with id {robot_id!r}")


class _SnapshotFields(NamedTuple):
    d: int
    ticks: Tuple[int, ...]
    flags: Tuple[bool, ...]
    self_is_multiplicity: bool = False


class Snapshot(_SnapshotFields):
    """What one robot sees: visible occupied points plus its own-point flag.

    The visible points are clockwise offsets from the observer on one
    lattice: point ``i`` lies ``ticks[i] / d`` of a turn clockwise and
    ``flags[i]`` is its multiplicity flag. The ticks are strictly
    increasing, so ``ticks[0]`` is the first clockwise neighbour and
    ``ticks[-1]`` the first counter-clockwise one, and each lies strictly
    between 0 and ``d`` and off the half turn. The lattice is reduced by
    ``gcd(d, *ticks)``, so equal views are equal field by field.

    A tuple of its four fields, checked in ``__new__`` (flag count, then
    range and antipode, then order); it equals the plain tuple of its
    fields, and its C-level tuple hash and equality serve as the analysis
    cache keys. ``_make`` (so ``_replace``) and unpickling run the checks too.
    """

    __slots__ = ()

    def __new__(cls, d: int, ticks, flags, self_is_multiplicity: bool = False):
        if len(flags) != len(ticks):
            raise ContractViolation("a snapshot needs one flag per visible point")
        # Sorted ticks have their extremes at the ends.
        ordered = all(map(lt, ticks, ticks[1:]))
        if ticks:
            lo, hi = (ticks[0], ticks[-1]) if ordered else (min(ticks), max(ticks))
        if d < 1 or ticks and (lo <= 0 or hi >= d) or not d % 2 and d // 2 in ticks:
            raise ContractViolation(
                f"visible offsets must be in (0,1) and never 1/2, got {ticks} over {d}"
            )
        if not ordered:
            raise ContractViolation("visible offsets must be distinct and sorted")
        g = gcd(d, *ticks)
        if g > 1:
            d, ticks = d // g, tuple([t // g for t in ticks])
        return tuple.__new__(cls, (d, ticks, flags, self_is_multiplicity))

    @classmethod
    def _make(cls, iterable) -> "Snapshot":
        return cls(*iterable)


def gap_sequence(positions: Sequence[Fraction]) -> AngleSeq:
    """Clockwise gaps between consecutive occupied points, from the smallest position.

    Neighbours of the sorted positions are subtracted directly, one
    ``Fraction`` operation per gap; the last gap wraps past a full turn.
    """
    if len(set(positions)) != len(positions):
        raise MultiplicityPresent("operation undefined with a multiplicity point")
    pts = sorted(norm(p) for p in positions)
    if len(pts) == 1:
        return (Fraction(1),)
    return tuple(b - a for a, b in zip(pts, pts[1:])) + (1 - pts[-1] + pts[0],)


def least_rotation(seq: Sequence[int]) -> Tuple[int, int]:
    """(start, period) of the lexicographically least rotation of ``seq``.

    Duval's Lyndon factorisation run over the doubled sequence (Duval 1983),
    in linear time. The least rotation is a power of one Lyndon word, and
    ``period`` is that word's length, so ``seq`` equals a nontrivial rotation
    of itself iff ``period < len(seq)``; then any start of a least rotation
    may come back.
    """
    n = len(seq)
    doubled = list(seq) * 2
    i = start = period = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        period = j - k
        while i <= k:
            i += period
    return start, period


class LatticeView:
    """One world state on its common-denominator lattice, seen from any occupied point.

    Built from ``(position, weight)`` pairs, where a weight counts the robots
    that may flag their point: every robot counts 1 in a static
    configuration, and a robot seen mid-move counts 0. Positions are read
    modulo one turn. The points are scaled once to ints in steps of 1/D, D
    being the lcm of their denominators; pairs on one point are merged,
    adding their weights, and the points are sorted clockwise from 0. A
    point of weight two or more is a multiplicity: ``flags`` keeps that
    verdict per point; a point's place on the ring is found by bisection.
    The first :meth:`snapshot` also keeps the ring doubled, each tick once
    more plus ``D`` and each flag twice, so that the points clockwise from
    any observer are one slice; views that only elect never build it.
    """

    __slots__ = ("d", "ticks", "flags", "_ring", "_seen")

    def __init__(self, points: Iterable[Tuple[Fraction, int]]):
        points = list(points)
        ratios = [p.as_integer_ratio() for p, _ in points]
        d = lcm(*[q for _, q in ratios])
        merged: Dict[int, int] = {}
        for (num, q), (_, weight) in zip(ratios, points):
            tick = num * (d // q) % d
            merged[tick] = merged.get(tick, 0) + weight
        self._fill(d, merged)

    @classmethod
    def on_lattice(cls, scale: int, weights: Mapping[int, int]) -> "LatticeView":
        """The view of the points ``p / scale``, each int p in [0, scale)
        weighing ``weights[p]``: one ``gcd`` reduces them to their own lattice."""
        g = gcd(scale, *weights)
        view = cls.__new__(cls)
        view._fill(scale // g, {p // g: w for p, w in weights.items()} if g > 1 else weights)
        return view

    def _fill(self, d: int, merged: Mapping[int, int]) -> None:
        self.d = d
        self.ticks = ticks = sorted(merged)
        self.flags = [merged[t] >= 2 for t in ticks]
        self._ring = None

    def tick(self, pos: Fraction) -> int:
        """The lattice int of the occupied point ``pos``."""
        num, q = pos.as_integer_ratio()
        d = self.d
        if d % q == 0:
            tick = num * (d // q) % d
            ticks = self.ticks
            i = bisect_left(ticks, tick)
            if i < len(ticks) and ticks[i] == tick:
                return tick
        raise UnknownRobot(f"no robot at position {format_angle(pos)}")

    def snapshot(self, tick: int) -> Snapshot:
        """The view from the occupied point at lattice int ``tick``.

        Every other occupied point strictly closer than a half turn is
        visible; the antipodal point is skipped even if occupied, and the
        observer's own point only contributes ``self_is_multiplicity``. The
        doubled ring holds the other points clockwise from the observer at
        index ``i`` as the slice ``i + 1 .. i + n``, in the order
        :class:`Snapshot` keeps; shifted by ``-tick``, they are the offsets.
        An occupied antipode at ``tick + d / 2`` splits the slice in two.
        """
        ring, d, ticks = self._ring, self.d, self.ticks
        if ring is None:
            ring = self._ring = ticks + [t + d for t in ticks]
            self._seen = self.flags * 2
        seen, n = self._seen, len(ticks)
        i = bisect_left(ring, tick, 0, n)
        j = i + n
        offs, flags = ring[i + 1 : j], seen[i + 1 : j]
        if not d % 2:
            far = tick + d // 2
            # ring[j] is the observer's own tick plus d, never its antipode.
            k = bisect_left(ring, far, i + 1, j)
            if ring[k] == far:
                offs, flags = ring[i + 1 : k] + ring[k + 1 : j], seen[i + 1 : k] + seen[k + 1 : j]
        # tuple() of a map guesses a length and shrinks the tuple after, which
        # fills CPython's per-length tuple free lists; a list has the exact length.
        return Snapshot(d, tuple(list(map((-tick).__add__, offs))), tuple(flags), seen[i])


def elect(ticks: Sequence[int], d: int) -> Optional[int]:
    """Leader index of the points ``ticks`` over ``d``, or None when symmetric.

    ``ticks`` are sorted and distinct, so the gaps are positive and sum to ``d``.
    One :func:`least_rotation` pass: the leader starts the least rotation of
    the gaps, and the points are symmetric iff its period is shorter than the
    gap list. Every rotation maps the empty set onto itself, so it is symmetric.
    """
    if not ticks:
        return None
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    gaps.append(ticks[0] + d - ticks[-1])
    start, period = least_rotation(gaps)
    return None if period < len(gaps) else start


def _positions_of(config) -> Tuple[Fraction, ...]:
    return config.positions if isinstance(config, Configuration) else tuple(config)


def distinct_view(positions: Sequence[Fraction]) -> LatticeView:
    """One view of ``positions``; fewer view points than positions means a shared point.

    This is the multiplicity check of every operation that needs distinct points.
    """
    view = LatticeView((p, 1) for p in positions)
    if len(view.ticks) < len(positions):
        raise MultiplicityPresent("operation undefined with a multiplicity point")
    return view


def is_rotationally_symmetric(config) -> bool:
    """True iff some nontrivial rotation maps the configuration onto itself."""
    view = distinct_view(_positions_of(config))
    return elect(view.ticks, view.d) is None


def true_leader(config) -> Fraction:
    """Position of the robot with the strictly smallest gap sequence.

    The position comes back as given, not normalised to [0, 1).
    """
    positions = _positions_of(config)
    view = distinct_view(positions)
    lead = elect(view.ticks, view.d)
    if lead is None:
        raise SymmetricConfiguration("no unique leader in a symmetric configuration")
    return next(p for p in positions if view.tick(p) == view.ticks[lead])


def leader_of_positions(positions: Sequence[Fraction]) -> Fraction:
    """Leader election over distinct positions, assuming asymmetry was checked.

    The leader's gap sequence is the least rotation of the gap list, so it
    is elected in linear time on the integer lattice instead of by comparing
    every robot's sequence. Symmetric input raises :class:`SymmetricConfiguration`.
    """
    return true_leader(positions)


def take_snapshot(config: Configuration, observer: str) -> Snapshot:
    """The observer's view of a configuration (see :class:`LatticeView`).

    Coincident robots collapse to one visible point with a multiplicity flag.
    """
    return snapshot_of_positions(config.positions, config.robot(observer).pos)


def snapshot_of_positions(positions: Sequence[Fraction], observer_pos: Fraction) -> Snapshot:
    """Snapshot seen from ``observer_pos`` in a raw multiset of positions."""
    view = LatticeView((p, 1) for p in positions)
    return view.snapshot(view.tick(observer_pos))


def require_legal_initial(config: Configuration) -> None:
    """Reject configurations that are not legal starting points for a run.

    Coincident robots raise :class:`MultiplicityPresent` from the view.
    """
    if len(config.robots) < 2:
        raise TooFewRobots("a run needs at least two robots")
    if is_rotationally_symmetric(config):
        raise SymmetricConfiguration("initial configuration must be asymmetric")
