"""Deterministic discrete-event simulation of look-compute-move cycles.

Every robot runs sequential cycles: look at some instant, decide strictly
later, then (possibly) move at unit speed until the commanded displacement
completes. Schedulers only choose the instants; all of them draw times from
rational grids so that interpolated positions, and therefore coincidence
tests, stay exact. Identical inputs produce byte-identical traces.

Robots move rigidly at unit speed on a circle of one turn, so a move of
``a`` turns takes ``a`` time units: time and angle share one unit, and the
run loop keeps both as ints on one lattice. One int ``scale`` holds an
instant t as the key ``t * scale`` and a position p as ``p * scale mod
scale``; it starts as the lcm of the initial positions' denominators. An
instant or move amount whose denominator does not divide the scale
multiplies the scale and every key and position int by one factor, which
keeps their order. A move builds a ``Fraction`` only for its move-end
record's instant, and the trace's angles are formatted from the ints.
Policies, records and ``max_time`` keep their ``Fraction`` instants.

The run loop keeps the world state incrementally instead of rescanning every
robot after each event: each robot's anchor and memory, a count of robots
per resting position and the moves in flight, changed only when a move
starts or ends. The number of multiplicity points follows from those two
updates in O(1), and a look interpolates only the robots in flight. A look
flags a point as a multiplicity only from robots at rest on it, the same
count that defines the multiplicity points: a mover passing through an
occupied point is seen there, but does not make it a multiplicity.
:class:`RobotRuntime`, :class:`Pending` and the whole-world scans
:func:`world_snapshot`, :func:`multiplicity_points` and :func:`is_gathered`
are the ``Fraction`` reference of that state, kept only for the tests and
the benchmark's tracer; the run loop uses none of them.

Events at one instant run move-ends first, then looks, then decides, each
rank by robot id; a look that a decide queues at its own instant runs right
after that decide. Records stay in this processing order: a record's index
is its sequence number, and a trace cut at a limit is a prefix of the whole
run's. Every look at an instant sees one world. The run loop builds one
:class:`~circlegather.configuration.LatticeView` of it at the first look of
the instant and memoises each look by the observer's view tick: robots
resting on one point share one ``(view, tick)`` pair, their snapshot
records' payload, and one decide per memory on its ``Snapshot``, which only
the memo and queued decides keep. The view is rebuilt only when the look
instant changes: no move ends between the looks of one instant, and a move
that starts at the look instant leaves its mover at rest on its origin, as
the view already has it. Other payloads are dicts, equal ones shared: one
activate dict per memory value and, per run, one decide dict per (state
before, state after, command) and one move-end dict per destination.
Payloads are read-only; :meth:`Trace.to_jsonl` encodes each once and writes
each view once, before its first snapshot.

Each queued event carries the data its handler needs: a look its decide
instant, a decide its look's memo entry. While a policy hands back one tuple
object at one scale, as a round policy does to every robot of a round, its
instants are converted and keyed once. The fsync and ssync policies share
one round rule: a robot's next cycle is the first round from
``ceil(not_before)`` in which it is active. Whatever the policy, the run
loop rejects a cycle that looks before the robot's previous one, move
included, has ended. The loop checks no global property such as the
expected-leader count; a trace records every move start, so the positions
at any instant can be replayed from the trace alone, and the tests check
that property that way.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from random import Random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import protocol
from .angles import HALF_TURN, format_angle
from .configuration import (
    Configuration,
    LatticeView,
    Snapshot,
    require_legal_initial,
)
from .errors import (
    InvariantViolation,
    LimitExceeded,
    ObserverMoving,
    ScheduleError,
    TimeOutOfRange,
)
from .protocol import CW, Memory, MoveCommand


@dataclass
class Pending:
    """A move in flight; it starts at its robot's anchor, which moves only at its end."""

    command: MoveCommand
    start: Fraction
    end: Fraction
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
            return (self.anchor + delta) % 1
        return (self.anchor - delta) % 1

    def is_moving_at(self, t: Fraction) -> bool:
        return self.pending is not None and self.pending.start < t < self.pending.end


# ---------------------------------------------------------------------------
# Scheduler policies


class SchedulerPolicy:
    """Produces, per robot, the look/decide instants of its successive cycles."""

    def bind(self, robot_ids: Sequence[str]) -> None:
        self.robot_ids = tuple(robot_ids)

    def next_cycle(self, robot_id: str, not_before: Fraction):
        """(t_look, t_decide) of the robot's next cycle, or None when done.

        The run loop raises :class:`ScheduleError` if ``t_look`` is before
        ``not_before`` or ``t_decide`` is not after ``t_look``.
        """
        raise NotImplementedError


class _RoundPolicy(SchedulerPolicy):
    """A policy whose cycles look at an integer round k and decide at k + 1/4.

    A robot's next cycle is the first round from ``ceil(not_before)`` in
    which :meth:`_active` admits it. The policy builds each round's
    ``(k, k + 1/4)`` pair once and hands that one tuple to every robot active
    in that round, so the run loop keys it once and :meth:`Trace.to_jsonl`
    encodes each once.
    """

    def __init__(self):
        self._instants: Dict[int, Tuple[Fraction, Fraction]] = {}

    def _active(self, robot_id: str, k: int) -> bool:
        raise NotImplementedError

    def _round(self, k: int) -> Tuple[Fraction, Fraction]:
        pair = self._instants.get(k)
        if pair is None:
            pair = self._instants[k] = (Fraction(k), Fraction(4 * k + 1, 4))
        return pair

    def next_cycle(self, robot_id, not_before):
        p, q = not_before.as_integer_ratio()
        k = -(-p // q)
        while not self._active(robot_id, k):
            k += 1
        return self._round(k)


class FsyncPolicy(_RoundPolicy):
    """All robots look together at integer rounds and decide a quarter unit later."""

    def _active(self, robot_id, k):
        return True


class SsyncPolicy(_RoundPolicy):
    """Round-based activation of seeded random nonempty subsets.

    A robot left out for ``max_skips`` consecutive rounds is force-included,
    so every robot is activated at least once in any ``max_skips + 1``
    consecutive rounds.
    """

    def __init__(self, seed: int = 0, max_skips: int = 3):
        if max_skips < 0:
            raise ValueError("max_skips must be nonnegative")
        super().__init__()
        self.seed = seed
        self.max_skips = max_skips

    def bind(self, robot_ids):
        super().bind(robot_ids)
        self._rng = Random(f"ssync:{self.seed}")
        self._rounds: List[frozenset] = []
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

    def _active(self, robot_id, k):
        return robot_id in self._membership(k)


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
        self._rngs = {r: Random(f"async:{self.seed}:{r}") for r in robot_ids}

    def next_cycle(self, robot_id, not_before):
        rng = self._rngs[robot_id]
        gap = Fraction(rng.randint(1, 2 * self.bound), self.bound)
        look_compute = Fraction(rng.randint(1, self.bound), self.bound)
        t_look = not_before + gap
        return t_look, t_look + look_compute


class ScriptedPolicy(SchedulerPolicy):
    """Replays an explicit, validated list of (robot, t_look, t_decide) events."""

    def __init__(self, events: Iterable[Tuple[str, Fraction, Fraction]]):
        self._queues: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for robot_id, t_look, t_decide in events:
            t_look, t_decide = Fraction(t_look), Fraction(t_decide)
            if t_look < 0:
                raise ScheduleError("scripted times must be nonnegative")
            if t_decide <= t_look:
                raise ScheduleError("look and compute must take strictly positive time")
            self._queues.setdefault(robot_id, []).append((t_look, t_decide))
        for robot_id, q in self._queues.items():
            for (l0, d0), (l1, _) in zip(q, q[1:]):
                if l1 < d0:
                    raise ScheduleError(
                        f"robot {robot_id!r} activations overlap: look at {l1} "
                        f"before decide at {d0}"
                    )

    def bind(self, robot_ids):
        super().bind(robot_ids)
        unknown = sorted(set(self._queues) - set(robot_ids))
        if unknown:
            raise ScheduleError(f"scripted events name unknown robots {unknown}")
        self._cursor = {r: iter(self._queues.get(r, ())) for r in robot_ids}

    def next_cycle(self, robot_id, not_before):
        return next(self._cursor[robot_id], None)


# ---------------------------------------------------------------------------
# Traces


class TraceRecord(NamedTuple):
    """One event; a snapshot record's payload is a ``(view, tick)`` pair, others' a dict.

    ``view.snapshot(tick)`` is the look the pair encodes. A ``NamedTuple``:
    immutable, and equal to the plain tuple ``(t, robot, kind, payload)`` of
    its fields; :func:`run` builds it with ``tuple.__new__``.
    """

    t: Fraction
    robot: str
    kind: str
    payload: Tuple[LatticeView, int] | dict


#: Encodes trace line parts: sorted keys, compact, ASCII-escaped.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class Trace:
    """A run's records in processing order and its summary."""

    records: List[TraceRecord]
    summary: dict

    def to_jsonl(self) -> str:
        """One JSON object per record, in processing order, then the summary line.

        A record's line is ``{"kind", "payload", "robot", "t"}`` with sorted
        keys, assembled from encoded parts: each distinct payload and instant
        object once, keyed by identity while this call holds them all (see
        :func:`run` for the sharing), and each ``(kind, robot)`` head once.
        A snapshot's payload ``{"self_multiplicity", "tick"}`` reads the
        ring of the ``view`` line ``{"d", "multiplicities", "ticks"}`` before
        it, written once per view, by the rule of :meth:`LatticeView.snapshot`.
        """
        encode = _ENCODER.encode
        payloads: Dict[int, str] = {}
        instants: Dict[int, str] = {}
        heads: Dict[Tuple[str, str], Tuple[str, str]] = {}
        written = None
        lines = []
        for t, robot, kind, p in self.records:
            instant = instants.get(id(t))
            if instant is None:
                instant = instants[id(t)] = f'{t.numerator}/{t.denominator}"}}'
            payload = payloads.get(id(p))
            if type(p) is tuple:
                view, tick = p
                if view is not written:
                    written, ticks = view, view.ticks
                    mult = [k for k, f in zip(ticks, view.flags) if f]
                    ring = encode({"d": view.d, "multiplicities": mult, "ticks": ticks})
                    lines.append(f'{{"kind":"view","payload":{ring},"t":"{instant}')
                if payload is None:
                    own = "true" if view.flags[bisect_left(view.ticks, tick)] else "false"
                    payload = payloads[id(p)] = f'{{"self_multiplicity":{own},"tick":{tick}}}'
            elif payload is None:
                payload = payloads[id(p)] = encode(p)
            head = heads.get((kind, robot))
            if head is None:
                head = heads[kind, robot] = (
                    f'{{"kind":{encode(kind)},"payload":', f',"robot":{encode(robot)},"t":"'
                )
            lines.append(f"{head[0]}{payload}{head[1]}{instant}")
        lines.append(encode({"kind": "summary", **self.summary}))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# World queries


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
    return len({rr.position_at(t) for rr in world.values()}) == 1


def world_snapshot(world: Dict[str, RobotRuntime], observer: str, t: Fraction) -> Snapshot:
    """The observer's view of everyone's exact position at time ``t``.

    Exactly the :func:`multiplicity_points` are flagged; robots seen mid-move
    raise no flag. This scans the whole world; :func:`run` builds the same
    view from its resting-position index.
    """
    me = world[observer]
    if me.is_moving_at(t):
        raise ObserverMoving(f"robot {observer!r} cannot look while moving")
    view = LatticeView(
        (rr.position_at(t), 0 if rr.is_moving_at(t) else 1) for rr in world.values()
    )
    return view.snapshot(view.tick(me.position_at(t)))


# ---------------------------------------------------------------------------
# The run loop


@dataclass
class RunLimits:
    max_events: int = 100_000
    max_time: Optional[Fraction] = None


@dataclass
class RunOptions:
    multiplicity_threshold: Fraction = HALF_TURN


#: Event ranks: at one instant move-ends come before looks before decides.
MOVE_END, LOOK, DECIDE = 0, 1, 2

#: The payload of every activate record, one shared dict per memory value.
_ACTIVATE_PAYLOADS = {m: {"state": m.value} for m in Memory}


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

    The world is ints (see the module docstring): ``anchors`` and
    ``memories`` per robot, ``resting`` counting the robots per resting
    position and ``in_flight`` the moves under way. A look instant's view
    holds ``resting``, each robot weighing 1, and the movers at their
    interpolated positions, weighing 0, except a mover whose move starts at
    the look instant: it is still at rest on its origin and weighs 1.
    """
    limits = limits or RunLimits()
    options = options or RunOptions()
    require_legal_initial(initial)

    scale = math.lcm(*[r.pos.denominator for r in initial.robots])
    anchors: Dict[str, int] = {
        r.robot_id: r.pos.numerator * (scale // r.pos.denominator) % scale
        for r in initial.robots
    }
    memories: Dict[str, Memory] = dict.fromkeys(anchors, Memory.OFF)
    all_ids = sorted(anchors)
    policy.bind(all_ids)

    # Entries are (key, rank, robot, t, data). A look carries its decide
    # instant, a decide its look's entry in ``looks``. A robot has exactly
    # one event queued at a time, so (key, rank, robot) never ties and
    # neither t nor data is compared.
    heap: List[Tuple[int, int, str, Fraction, object]] = []
    records: List[TraceRecord] = []
    gathered_confirmed: set = set()
    limit_hit = False

    resting: Counter = Counter(anchors.values())
    # A mover's (start key, end key, +1 clockwise or -1, destination).
    in_flight: Dict[str, Tuple[int, int, int, int]] = {}
    mult_points = max_mult = sum(1 for c in resting.values() if c >= 2)
    # The world as every look at key view_key sees it, ``step`` the scale's
    # ints per view tick, and the looks already taken there, keyed by the
    # observer's view tick: each look's (view, tick) record payload, its
    # snapshot and its (memory after, payload, direction, amount ratio) per
    # memory before.
    view_key = step = -1
    looks: Dict[int, Tuple[Tuple[LatticeView, int], Snapshot, Dict[Memory, tuple]]] = {}
    # One decide payload per distinct (state before, state after, command),
    # the command keyed by its fields as ints and strings; one move-end
    # payload per destination int.
    decisions: Dict[Tuple[Memory, Memory, str, str, int, int], dict] = {}
    arrivals: Dict[int, dict] = {}
    # The last cycle pair the policy handed back, and its instants as
    # Fractions with their keys at scale ``cycle_scale``: a round policy hands
    # every robot of a round one pair object, converted and keyed once.
    last_cycle = cycle_scale = cycle_keys = None
    # A NamedTuple's own __new__ is a Python-level call; records skip it.
    new_record = tuple.__new__

    def angle(p: int) -> str:
        """The ``format_angle`` text of the position int ``p``."""
        g = math.gcd(p, scale)
        return f"{p // g}/{scale // g}"

    def grow(new_scale: int) -> int:
        """Raise ``scale`` to its multiple ``new_scale`` and return the factor.
        Every key and position int is multiplied by that factor, which keeps
        their order: the list stays a heap."""
        nonlocal scale, resting, view_key, step
        factor = new_scale // scale
        heap[:] = [(key * factor, rank, rid, t, data) for key, rank, rid, t, data in heap]
        for rid in anchors:
            anchors[rid] *= factor
        for rid, (start, end, sign, to) in in_flight.items():
            in_flight[rid] = (start * factor, end * factor, sign, to * factor)
        resting = Counter({p * factor: c for p, c in resting.items()})
        arrivals.clear()
        view_key, step = view_key * factor, step * factor
        scale = new_scale
        return factor

    def schedule_cycle(robot_id: str, not_before: Fraction, busy: int) -> None:
        """Queue the robot's next look; ``busy`` is ``not_before`` times ``scale``."""
        nonlocal last_cycle, cycle_scale, cycle_keys
        cycle = policy.next_cycle(robot_id, not_before)
        if cycle is None:
            return
        if cycle is not last_cycle or scale != cycle_scale:
            # Fractions pass through as they are, so a round's shared instant
            # objects reach the records; other rationals are converted.
            t_look, t_decide = cycle
            if not isinstance(t_look, Fraction):
                t_look = Fraction(t_look)
            if not isinstance(t_decide, Fraction):
                t_decide = Fraction(t_decide)
            (p_look, q_look), (p_decide, q_decide) = (
                t_look.as_integer_ratio(), t_decide.as_integer_ratio()
            )
            if scale % q_look or scale % q_decide:
                busy *= grow(math.lcm(scale, q_look, q_decide))
            # Only an immutable pair can be read again by identity.
            last_cycle, cycle_scale = cycle if type(cycle) is tuple else None, scale
            look, decide = p_look * (scale // q_look), p_decide * (scale // q_decide)
            cycle_keys = (t_look, t_decide, look, decide)
        t_look, t_decide, look, decide = cycle_keys
        if look < busy:
            raise ScheduleError(
                f"policy scheduled robot {robot_id!r} to look at {t_look} "
                f"while busy until {not_before}"
            )
        if decide <= look:
            raise ScheduleError("look and compute must take strictly positive time")
        heappush(heap, (look, LOOK, robot_id, t_look, t_decide))

    def position(rid: str, key: int) -> Tuple[int, int]:
        """The robot's position int at ``key`` and its weight in a view there."""
        move = in_flight.get(rid)
        if move is None or key <= move[0]:
            return anchors[rid], 1
        start, end, sign, to = move
        if key >= end:
            return to, 1
        return (anchors[rid] + sign * (key - start)) % scale, 0

    for rid in all_ids:
        schedule_cycle(rid, Fraction(0), 0)

    max_time, max_events = limits.max_time, limits.max_events
    while heap:
        key, rank, rid, t, data = heappop(heap)
        if len(records) >= max_events or (max_time is not None and t > max_time):
            limit_hit = True
            break

        if rank == LOOK:
            if key != view_key:
                weights = dict(resting)
                for mover in in_flight:
                    p, weight = position(mover, key)
                    weights[p] = weights.get(p, 0) + weight
                view, view_key, looks = LatticeView.on_lattice(scale, weights), key, {}
                step = scale // view.d
            # A robot's next cycle is queued only after a stay or once its
            # move has ended, so a looking robot rests on its anchor.
            tick = anchors[rid] // step
            look = looks.get(tick)
            if look is None:
                look = looks[tick] = ((view, tick), view.snapshot(tick), {})
            records.append(
                new_record(TraceRecord, (t, rid, "activate", _ACTIVATE_PAYLOADS[memories[rid]]))
            )
            records.append(new_record(TraceRecord, (t, rid, "snapshot", look[0])))
            # schedule_cycle grew the scale for the decide instant ``data``.
            heappush(heap, (data.numerator * (scale // data.denominator), DECIDE, rid, data, look))
            continue

        if rank == DECIDE:
            # decide and the legality check are pure in (look, memory): a
            # robot sharing a look with one of equal memory reuses its result.
            _, snap, decided = data
            state_before = memories[rid]
            decision = decided.get(state_before)
            if decision is None:
                new_memory, command = protocol.decide(
                    snap, state_before, options.multiplicity_threshold
                )
                if (state_before, new_memory) not in protocol.LEGAL_TRANSITIONS:
                    raise InvariantViolation(
                        f"illegal state transition {state_before.value} -> {new_memory.value}"
                    )
                num, den = command.amount.as_integer_ratio()
                decision_key = (
                    state_before, new_memory, command.direction, command.target_kind, num, den
                )
                payload = decisions.get(decision_key)
                if payload is None:
                    payload = decisions[decision_key] = {
                        "state_before": state_before.value,
                        "state_after": new_memory.value,
                        "move": command.to_json(),
                    }
                decision = (new_memory, payload, command.direction, num, den)
                decided[state_before] = decision
            new_memory, payload, direction, num, den = decision
            memories[rid] = new_memory
            records.append(new_record(TraceRecord, (t, rid, "decide", payload)))
            if num:  # a move: its amount is positive
                if scale % den:
                    key *= grow(math.lcm(scale, den))
                amount = num * (scale // den)
                origin = anchors[rid]
                sign = 1 if direction == CW else -1
                end = key + amount
                in_flight[rid] = (key, end, sign, (origin + sign * amount) % scale)
                move = {"from": angle(origin), "direction": direction, "amount": angle(amount)}
                records.append(new_record(TraceRecord, (t, rid, "move-start", move)))
                heappush(heap, (end, MOVE_END, rid, Fraction(end, scale), None))
                gathered_confirmed.clear()
                # Lift the robot off its origin.
                count = resting[origin]
                if count == 1:
                    del resting[origin]
                else:
                    resting[origin] = count - 1
                if count == 2:
                    mult_points -= 1
            else:
                # The set holds ids of all_ids only, and is empty unless the
                # world is gathered: only a move start ungathers it, and clears it.
                if not in_flight and len(resting) == 1:
                    gathered_confirmed.add(rid)
                    if len(gathered_confirmed) == len(all_ids):
                        # Every robot has witnessed the gathering with a
                        # moveless cycle: gathered and quiescent.
                        break
                schedule_cycle(rid, t, key)
            continue

        # move_end: the robot rests at its destination.
        to = anchors[rid] = in_flight.pop(rid)[3]
        count = resting[to] = resting.get(to, 0) + 1
        if count == 2:
            mult_points += 1
            max_mult = max(max_mult, mult_points)
        arrival = arrivals.get(to)
        if arrival is None:
            arrival = arrivals[to] = {"to": angle(to)}
        records.append(new_record(TraceRecord, (t, rid, "move-end", arrival)))
        schedule_cycle(rid, t, key)

    end_time = records[-1].t if records else Fraction(0)
    end_key = end_time.numerator * (scale // end_time.denominator)
    gathered = not in_flight and len(resting) == 1
    final = {rid: angle(position(rid, end_key)[0]) for rid in all_ids}
    summary = {
        "gathered": gathered,
        "event_count": len(records),
        "max_simultaneous_multiplicities": max_mult,
        "limit_exceeded": limit_hit,
        "initial": {r.robot_id: format_angle(r.pos) for r in initial.robots},
        "final": final,
    }
    if gathered:
        summary["gather_point"] = final[all_ids[0]]
    trace = Trace(records, summary)
    if limit_hit:
        raise LimitExceeded("simulation hit its event or time limit", trace)
    return trace
