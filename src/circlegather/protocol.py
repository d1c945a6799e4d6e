"""The robot's compute step: a pure map from (view, state) to (state, move).

State is the whole persistent memory: one of four values, no angles and no
counters. The decision tree routes on multiplicity first, then on state.
Robots at or next to a multiplicity point move regardless of state; the
staged half/quarter approach below only runs while no multiplicity is
visible. A :class:`MoveCommand` has no JSON form of its own: the run writes
its direction, amount and target kind into the decide payload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .angles import HALF_TURN, QUARTER_TURN
from .analysis import (
    LeaderTag,
    classify,
    detect_confused_peer_in_c0,
    is_safe_neighbor,
)
from .configuration import Snapshot
from .errors import ContractViolation, InvariantViolation


class Memory(enum.Enum):
    OFF = "off"
    MOVE_HALF = "moveHalf"
    MOVE_MORE = "moveMore"
    TERMINATE = "terminate"

    # Members are singletons compared by identity; Enum's own hash is a Python call.
    __hash__ = object.__hash__


#: Transitions the state machine may ever take (multiplicity-phase moves and
#: self-loops keep the state unchanged).
LEGAL_TRANSITIONS = {
    (Memory.OFF, Memory.OFF),
    (Memory.OFF, Memory.MOVE_HALF),
    (Memory.MOVE_HALF, Memory.TERMINATE),
    (Memory.MOVE_HALF, Memory.MOVE_MORE),
    (Memory.MOVE_MORE, Memory.TERMINATE),
    (Memory.MOVE_MORE, Memory.OFF),
    (Memory.MOVE_HALF, Memory.MOVE_HALF),
    (Memory.MOVE_MORE, Memory.MOVE_MORE),
    (Memory.TERMINATE, Memory.TERMINATE),
}

CW = "clockwise"
CCW = "counterclockwise"
NONE = "none"


@dataclass(frozen=True)
class MoveCommand:
    direction: str
    amount: Fraction
    target_kind: str = "relative-angle"

    def __post_init__(self):
        amount = self.amount
        if type(amount) is not Fraction:
            amount = Fraction(amount)
            object.__setattr__(self, "amount", amount)
        num, den = amount.as_integer_ratio()
        if (self.direction == NONE) != (num == 0):
            raise ContractViolation("amount must be positive iff the robot moves")
        if not 0 <= num < den:
            raise ContractViolation("no full-circle moves")


STAY = MoveCommand(NONE, 0)


def decide(
    snapshot: Snapshot,
    memory: Memory,
    multiplicity_threshold: Fraction = HALF_TURN,
) -> Tuple[Memory, MoveCommand]:
    """One compute step, deterministic.

    It raises :class:`InvariantViolation` only in moveMore with no
    multiplicity in view, and then exactly when ``d`` is even, the lead's
    antipode ``(ticks[0] + d/2) % d`` is occupied and ``6 * ticks[0] >= d``:
    the countermove of ``3 * ticks[0] / d`` would reach the half turn.

    ``multiplicity_threshold`` bounds the clockwise distance at which a robot
    already sitting on a multiplicity point walks to another one; 1/2 by
    default, 1/4 selectable.
    """
    if snapshot.self_is_multiplicity:
        return memory, _from_own_multiplicity(snapshot, multiplicity_threshold)
    if any(snapshot.flags):
        return memory, _toward_neighbor_multiplicity(snapshot)
    if not snapshot.ticks:
        # Nothing visible at all: quarter turn clockwise, state unchanged.
        return memory, MoveCommand(CW, QUARTER_TURN)
    if memory is Memory.OFF:
        return _decide_off(snapshot)
    if memory is Memory.TERMINATE:
        return Memory.TERMINATE, STAY
    return _decide_staged(snapshot, memory)


def _from_own_multiplicity(snapshot: Snapshot, threshold: Fraction) -> MoveCommand:
    """Observer sits on a multiplicity point; maybe walk to a nearby second one.

    The ticks are sorted, so the first flagged one is the nearest clockwise.
    """
    for t, flag in zip(snapshot.ticks, snapshot.flags):
        if flag:
            off = Fraction(t, snapshot.d)
            return MoveCommand(CW, off, "multiplicity-position") if off < threshold else STAY
    return STAY


def _toward_neighbor_multiplicity(snapshot: Snapshot) -> MoveCommand:
    """Observer is off every multiplicity point; join one if it is a direct neighbor.

    The candidates are the first clockwise neighbor (index 0) and the first
    counter-clockwise one (index -1), the same point when only one is
    visible. Movement follows the shorter arc, which stays below a half turn
    because the point is visible. Index 0 is the nearer unless its tick
    exceeds the counter-clockwise distance ``d - ticks[-1]``; on a tie it
    lies below the half turn, so equal distances break clockwise.
    """
    ticks, flags, d = snapshot.ticks, snapshot.flags, snapshot.d
    if flags[0] and (not flags[-1] or ticks[0] <= d - ticks[-1]):
        t = ticks[0]
    elif flags[-1]:
        t = ticks[-1]
    else:
        return STAY
    if 2 * t < d:
        return MoveCommand(CW, Fraction(t, d), "multiplicity-position")
    return MoveCommand(CCW, Fraction(d - t, d), "multiplicity-position")


def _decide_off(snapshot: Snapshot) -> Tuple[Memory, MoveCommand]:
    cls = classify(snapshot)
    if cls.tag is LeaderTag.FOLLOWER:
        return Memory.OFF, STAY
    lead, d = snapshot.ticks[0], snapshot.d
    if cls.tag is LeaderTag.SURE_LEADER:
        return Memory.OFF, _checked_step(CW, lead, d, "neighbor-position")
    if is_safe_neighbor(snapshot):
        return Memory.OFF, _checked_step(CW, lead, d, "neighbor-position")
    if detect_confused_peer_in_c0(snapshot):
        return Memory.OFF, STAY
    return Memory.MOVE_HALF, _checked_step(CW, lead, 2 * d)


def _decide_staged(snapshot: Snapshot, memory: Memory) -> Tuple[Memory, MoveCommand]:
    """The staged approach toward an ambiguity-breaking position.

    The first clockwise neighbor, at tick ``l = ticks[0]``, counts as
    antipodal when its own antipode ``l + d/2`` is occupied by a visible
    robot; only then does the dance continue. The arc probed for
    interference is centered on the observer's (invisible) antipodal point,
    tick ``d/2``. In moveHalf the leading angle is half the original step,
    and the arc is ``[d/2 - l, d/2 + l)``; in moveMore it is a quarter, and
    the arc is ``[d/2 - 3l, d/2 + l)``, the whole circle once its extent
    ``4l`` reaches ``d``. Ticks are doubled so that ``d/2`` is an int: tick
    ``t`` lies in ``[d/2 - a, d/2 + b)`` iff ``(2t - d + 2a) % 2d < 2(a + b)``.
    """
    ticks, d = snapshot.ticks, snapshot.d
    lead = ticks[0]
    if d % 2 or (lead + d // 2) % d not in ticks:
        return Memory.TERMINATE, STAY
    if memory is Memory.MOVE_HALF:
        if any((2 * t - d + 2 * lead) % (2 * d) < 4 * lead for t in ticks):
            return Memory.TERMINATE, _checked_step(CCW, lead, d)
        return Memory.MOVE_MORE, _checked_step(CW, lead, 2 * d)
    if any((2 * t - d + 6 * lead) % (2 * d) < 8 * lead for t in ticks):
        return Memory.TERMINATE, _checked_step(CCW, 3 * lead, d)
    return Memory.OFF, _checked_step(CW, lead, d, "neighbor-position")


def _checked_step(direction: str, num: int, den: int, kind: str = "relative-angle") -> MoveCommand:
    """A move of ``num / den`` of a turn, which must stay below the half turn."""
    if 2 * num >= den:
        raise InvariantViolation(
            f"leader or staged move of {Fraction(num, den)} exceeds the visibility bound"
        )
    return MoveCommand(direction, Fraction(num, den), kind)
