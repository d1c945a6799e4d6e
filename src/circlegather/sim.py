"""Deterministic discrete-event simulation of look-compute-move cycles.

Every robot runs sequential cycles: look at some instant, decide strictly
later, then (possibly) move at unit speed until the commanded displacement
completes. Schedulers only choose the instants; all of them draw times from
rational grids so that interpolated positions, and therefore coincidence
tests, stay exact. Identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import protocol
from .angles import QUARTER_TURN, format_angle
from .configuration import (
    Configuration,
    Snapshot,
    VisiblePoint,
    require_legal_initial,
)
from .errors import (
    InvariantViolation,
    LimitExceeded,
    ObserverMoving,
    ParseError,
    ScheduleError,
    TimeOutOfRange,
)
from .protocol import CW, Memory, MoveCommand


@dataclass
class Pending:
    command: MoveCommand
    start: Fraction
    end: Fraction
    origin: Fraction
    destination: Fraction


@dataclass
class RobotRuntime:
    robot_id: str
    anchor: Fraction
    memory: Memory = Memory.OFF
    pending: Optional[Pending] = None

    def position_at(self, t: Fraction) -> Fraction:
        if t < 0:
            raise TimeOutOfRange(f"negative time {t}")
        p = self.pending
        if p is None or t <= p.start:
            return self.anchor
        if t >= p.end:
            return p.destination
        delta = t - p.start
        if p.command.direction == CW:
            return (p.origin + delta) % 1
        return (p.origin - delta) % 1

    def is_moving_at(self, t: Fraction) -> bool:
        return self.pending is not None and self.pending.start < t < self.pending.end


# ---------------------------------------------------------------------------
# Scheduler policies


class SchedulerPolicy:
    """Produces, per robot, the look/decide instants of its successive cycles.

    ``fairness_window`` is a bound W such that every robot is activated at
    least once in any W consecutive activations of the whole system.
    """

    fairness_window: int = 1

    def bind(self, robot_ids: Sequence[str]) -> None:
        self.robot_ids = tuple(robot_ids)

    def next_cycle(self, robot_id: str, not_before: Fraction):
        """(t_look, t_decide) of the robot's next cycle, or None when done."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class FsyncPolicy(SchedulerPolicy):
    """All robots look together at integer rounds and decide a quarter unit later."""

    def __init__(self):
        self._next_round: Dict[str, int] = {}

    def bind(self, robot_ids):
        super().bind(robot_ids)
        self.fairness_window = len(robot_ids)
        self._next_round = {r: 0 for r in robot_ids}

    def next_cycle(self, robot_id, not_before):
        k = max(self._next_round[robot_id], math.ceil(not_before))
        self._next_round[robot_id] = k + 1
        return Fraction(k), Fraction(k) + Fraction(1, 4)

    def to_json(self):
        return {"kind": "fsync"}


class SsyncPolicy(SchedulerPolicy):
    """Round-based activation of seeded random nonempty subsets.

    A robot left out for ``max_skips`` consecutive rounds is force-included,
    which bounds the fairness window.
    """

    def __init__(self, seed: int = 0, max_skips: int = 3):
        if max_skips < 0:
            raise ValueError("max_skips must be nonnegative")
        self.seed = seed
        self.max_skips = max_skips
        self._rng = Random(f"ssync:{seed}")
        self._rounds: List[frozenset] = []
        self._skips: Dict[str, int] = {}

    def bind(self, robot_ids):
        super().bind(robot_ids)
        self.fairness_window = len(robot_ids) * (self.max_skips + 1)
        self._skips = {r: 0 for r in robot_ids}

    def _membership(self, k: int) -> frozenset:
        while len(self._rounds) <= k:
            chosen = {r for r in self.robot_ids if self._rng.random() < 0.5}
            for r in self.robot_ids:
                if self._skips[r] >= self.max_skips:
                    chosen.add(r)
            if not chosen:
                chosen = {self._rng.choice(self.robot_ids)}
            for r in self.robot_ids:
                self._skips[r] = 0 if r in chosen else self._skips[r] + 1
            self._rounds.append(frozenset(chosen))
        return self._rounds[k]

    def next_cycle(self, robot_id, not_before):
        k = math.ceil(not_before)
        while robot_id not in self._membership(k):
            k += 1
        return Fraction(k), Fraction(k) + Fraction(1, 4)

    def to_json(self):
        return {"kind": "ssync", "seed": self.seed, "max_skips": self.max_skips}


class AsyncRandomPolicy(SchedulerPolicy):
    """Fully asynchronous adversary with seeded rational delays.

    Idle gaps and look-compute durations are positive rationals drawn from a
    grid with the given denominator bound, so every event instant stays
    rational and every coincidence test exact.
    """

    def __init__(self, seed: int = 0, delay_denominator_bound: int = 8):
        if delay_denominator_bound < 1:
            raise ValueError("delay_denominator_bound must be positive")
        self.seed = seed
        self.bound = delay_denominator_bound
        self._rngs: Dict[str, Random] = {}

    def bind(self, robot_ids):
        super().bind(robot_ids)
        # Gaps never exceed two time units, so this many activations of the
        # busiest interleaving always contain every robot at least once.
        self.fairness_window = len(robot_ids) * 4 * self.bound
        self._rngs = {r: Random(f"async:{self.seed}:{r}") for r in robot_ids}

    def next_cycle(self, robot_id, not_before):
        rng = self._rngs[robot_id]
        gap = Fraction(rng.randint(1, 2 * self.bound), self.bound)
        look_compute = Fraction(rng.randint(1, self.bound), self.bound)
        t_look = not_before + gap
        return t_look, t_look + look_compute

    def to_json(self):
        return {
            "kind": "async-random",
            "seed": self.seed,
            "delay_denominator_bound": self.bound,
        }


class ScriptedPolicy(SchedulerPolicy):
    """Replays an explicit, validated list of (robot, t_look, t_decide) events."""

    def __init__(self, events: Iterable[Tuple[str, Fraction, Fraction]]):
        self._queues: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        self._events = []
        for robot_id, t_look, t_decide in events:
            t_look, t_decide = Fraction(t_look), Fraction(t_decide)
            if t_look < 0:
                raise ScheduleError("scripted times must be nonnegative")
            if t_decide <= t_look:
                raise ScheduleError("look and compute must take strictly positive time")
            self._events.append((robot_id, t_look, t_decide))
            self._queues.setdefault(robot_id, []).append((t_look, t_decide))
        for robot_id, q in self._queues.items():
            for (l0, d0), (l1, _) in zip(q, q[1:]):
                if l1 < d0:
                    raise ScheduleError(
                        f"robot {robot_id!r} activations overlap: look at {l1} "
                        f"before decide at {d0}"
                    )
        self.fairness_window = sum(len(q) for q in self._queues.values()) or 1

    def bind(self, robot_ids):
        super().bind(robot_ids)
        unknown = sorted(set(self._queues) - set(robot_ids))
        if unknown:
            raise ScheduleError(f"scripted events name unknown robots {unknown}")
        self._cursor = {r: 0 for r in robot_ids}

    def next_cycle(self, robot_id, not_before):
        q = self._queues.get(robot_id, [])
        i = self._cursor.get(robot_id, 0)
        if i < len(q) and q[i][0] < not_before:
            # Scheduled before the robot finished its move: a robot never
            # snapshots mid-move, so the entry is rejected.
            raise ScheduleError(
                f"robot {robot_id!r} scripted to look at {q[i][0]} while busy "
                f"until {not_before}"
            )
        self._cursor[robot_id] = i + 1
        if i >= len(q):
            return None
        return q[i]

    def to_json(self):
        return {
            "kind": "scripted",
            "events": [
                {"robot": r, "look": format_angle_time(l), "decide": format_angle_time(d)}
                for r, l, d in self._events
            ],
        }


def format_angle_time(t: Fraction) -> str:
    t = Fraction(t)
    return f"{t.numerator}/{t.denominator}"


def parse_time(text: str) -> Fraction:
    """Parse a time literal ``"p/q"`` or ``"p"``; anything else is a :class:`ParseError`."""
    if isinstance(text, str):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"expected a time of the form 'p/q' or 'p', got {text!r}")


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceRecord:
    t: Fraction
    robot: str
    kind: str
    payload: dict

    def to_json(self) -> dict:
        return {
            "t": format_angle_time(self.t),
            "robot": self.robot,
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass
class Trace:
    records: List[TraceRecord]
    summary: dict

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
            for r in self.records
        ]
        lines.append(
            json.dumps(
                {"kind": "summary", **self.summary},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        return "\n".join(lines) + "\n"

    @property
    def event_count(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# World queries


def world_positions(world: Dict[str, RobotRuntime], t: Fraction) -> Dict[str, Fraction]:
    return {rid: rr.position_at(t) for rid, rr in world.items()}


def multiplicity_points(world: Dict[str, RobotRuntime], t: Fraction) -> List[Tuple[Fraction, int]]:
    """Formed multiplicity points: two or more robots resting on one point.

    Robots mid-move are excluded; a merged group relocating between points is
    the same group in transit, not a new multiplicity point, and a mover
    passing through an occupied point only coincides with it for an instant.
    """
    counts = Counter(
        rr.position_at(t) for rr in world.values() if not rr.is_moving_at(t)
    )
    return sorted((pos, c) for pos, c in counts.items() if c >= 2)


def is_gathered(world: Dict[str, RobotRuntime], t: Fraction) -> bool:
    """All robots at one exact point with no move in flight."""
    if any(rr.pending is not None for rr in world.values()):
        return False
    positions = set(world_positions(world, t).values())
    return len(positions) == 1


def world_snapshot(
    world: Dict[str, RobotRuntime],
    observer: str,
    t: Fraction,
    strict_transient_multiplicity: bool = False,
) -> Snapshot:
    """The observer's view of everyone's exact position at time ``t``.

    Robots seen mid-move count toward multiplicity flags unless the strict
    option excludes them.
    """
    me = world[observer]
    if me.is_moving_at(t):
        raise ObserverMoving(f"robot {observer!r} cannot look while moving")
    my_pos = me.position_at(t)
    occupancy = Counter()
    flag_counts = Counter()
    for rid, rr in world.items():
        pos = rr.position_at(t)
        occupancy[pos] += 1
        if not (strict_transient_multiplicity and rr.is_moving_at(t)):
            flag_counts[pos] += 1
    visible = []
    for pos, _count in occupancy.items():
        if pos == my_pos:
            continue
        off = (pos - my_pos) % 1
        if off == Fraction(1, 2):
            continue
        visible.append(VisiblePoint(off, flag_counts[pos] >= 2))
    self_mult = flag_counts[my_pos] >= 2 and occupancy[my_pos] >= 2
    return Snapshot(tuple(visible), self_mult)


# ---------------------------------------------------------------------------
# The run loop


@dataclass
class RunLimits:
    max_events: int = 100_000
    max_time: Optional[Fraction] = None


@dataclass
class RunOptions:
    multiplicity_threshold: Fraction = QUARTER_TURN
    strict_transient_multiplicity: bool = False
    #: Costly diagnostic: re-elect leaders globally after every decision and
    #: abort if the expected-leader count leaves {1, 2}.
    check_expected_leaders: bool = False


def _check_expected_leader_count(world, t) -> None:
    from .analysis import expected_leaders
    from .configuration import Configuration, is_rotationally_symmetric

    positions = [rr.position_at(t) for rr in world.values()]
    if len(set(positions)) != len(positions):
        return
    if len(positions) > 1 and is_rotationally_symmetric(tuple(positions)):
        return
    config = Configuration.from_points(positions)
    count = len(expected_leaders(config))
    if count not in (1, 2):
        raise InvariantViolation(
            f"{count} expected leaders at t={t}: "
            f"{[format_angle(p) for p in positions]}"
        )


_KIND_RANK = {"move_end": 0, "look": 1, "decide": 2}


def run(
    initial: Configuration,
    policy: SchedulerPolicy,
    limits: Optional[RunLimits] = None,
    options: Optional[RunOptions] = None,
) -> Trace:
    """Simulate the protocol from ``initial`` under ``policy``.

    Ends when the world is gathered and every robot has confirmed quiescence
    with a moveless cycle, or when the schedule runs dry. Hitting the event
    or time limit raises :class:`LimitExceeded` carrying the partial trace.
    """
    limits = limits or RunLimits()
    options = options or RunOptions()
    require_legal_initial(initial)

    world: Dict[str, RobotRuntime] = {
        r.robot_id: RobotRuntime(r.robot_id, r.pos) for r in initial.robots
    }
    all_ids = sorted(world)
    policy.bind(all_ids)

    heap: List[Tuple[Fraction, int, str, str]] = []
    snapshots: Dict[str, Snapshot] = {}
    decide_times: Dict[str, Fraction] = {}
    records: List[TraceRecord] = []
    max_mult = 0
    gathered_confirmed: set = set()
    limit_hit = False

    def schedule_cycle(robot_id: str, not_before: Fraction) -> None:
        cycle = policy.next_cycle(robot_id, not_before)
        if cycle is None:
            return
        t_look, t_decide = Fraction(cycle[0]), Fraction(cycle[1])
        if t_look < not_before:
            raise ScheduleError(
                f"policy scheduled robot {robot_id!r} to look at {t_look} "
                f"while busy until {not_before}"
            )
        if t_decide <= t_look:
            raise ScheduleError("look and compute must take strictly positive time")
        decide_times[robot_id] = t_decide
        heapq.heappush(heap, (t_look, _KIND_RANK["look"], robot_id, "look"))

    def note_world(t: Fraction) -> None:
        nonlocal max_mult
        max_mult = max(max_mult, len(multiplicity_points(world, t)))

    for rid in all_ids:
        schedule_cycle(rid, Fraction(0))

    note_world(Fraction(0))

    while heap:
        t, _rank, rid, kind = heapq.heappop(heap)
        if limits.max_time is not None and t > limits.max_time:
            limit_hit = True
            break
        if len(records) >= limits.max_events:
            limit_hit = True
            break
        rr = world[rid]

        if kind == "look":
            snap = world_snapshot(world, rid, t, options.strict_transient_multiplicity)
            snapshots[rid] = snap
            records.append(TraceRecord(t, rid, "activate", {"state": rr.memory.value}))
            records.append(TraceRecord(t, rid, "snapshot", snap.to_json()))
            heapq.heappush(heap, (decide_times[rid], _KIND_RANK["decide"], rid, "decide"))
            note_world(t)
            continue

        if kind == "decide":
            state_before = rr.memory
            new_memory, command = protocol.decide(
                snapshots[rid], rr.memory, options.multiplicity_threshold
            )
            if (state_before, new_memory) not in protocol.LEGAL_TRANSITIONS:
                raise InvariantViolation(
                    f"illegal state transition {state_before.value} -> {new_memory.value}"
                )
            rr.memory = new_memory
            records.append(
                TraceRecord(
                    t,
                    rid,
                    "decide",
                    {
                        "state_before": state_before.value,
                        "state_after": new_memory.value,
                        "move": command.to_json(),
                    },
                )
            )
            if command.is_move:
                origin = rr.anchor
                if command.direction == CW:
                    destination = (origin + command.amount) % 1
                else:
                    destination = (origin - command.amount) % 1
                rr.pending = Pending(command, t, t + command.amount, origin, destination)
                records.append(
                    TraceRecord(
                        t,
                        rid,
                        "move-start",
                        {
                            "from": format_angle(origin),
                            "direction": command.direction,
                            "amount": format_angle(command.amount),
                        },
                    )
                )
                heapq.heappush(heap, (rr.pending.end, _KIND_RANK["move_end"], rid, "move_end"))
                gathered_confirmed.clear()
            else:
                if is_gathered(world, t):
                    gathered_confirmed.add(rid)
                    if gathered_confirmed == set(all_ids):
                        # Every robot has witnessed the gathering with a
                        # moveless cycle: gathered and quiescent.
                        note_world(t)
                        break
                else:
                    gathered_confirmed.clear()
                schedule_cycle(rid, t)
            note_world(t)
            if options.check_expected_leaders:
                _check_expected_leader_count(world, t)
            continue

        # move_end
        rr.anchor = rr.pending.destination
        rr.pending = None
        records.append(TraceRecord(t, rid, "move-end", {"to": format_angle(rr.anchor)}))
        note_world(t)
        schedule_cycle(rid, t)

    end_time = records[-1].t if records else Fraction(0)
    records.sort(key=lambda r: (r.t, r.robot, r.kind))
    gathered = is_gathered(world, end_time)
    positions = world_positions(world, end_time)
    summary = {
        "gathered": gathered,
        "event_count": len(records),
        "max_simultaneous_multiplicities": max_mult,
        "limit_exceeded": limit_hit,
        "initial": {r.robot_id: format_angle(r.pos) for r in initial.robots},
        "final": {rid: format_angle(p) for rid, p in sorted(positions.items())},
    }
    if gathered:
        summary["gather_point"] = format_angle(next(iter(positions.values())))
    trace = Trace(records, summary)
    if limit_hit:
        raise LimitExceeded("simulation hit its event or time limit", trace)
    return trace
