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
scale``. It starts as the lcm of the policy's ``grid`` and the ``d`` of
the initial view that
:func:`~circlegather.configuration.require_legal_initial` returns (the lcm
of the initial positions' denominators), and each anchor as that view's
tick of the robot. A move amount whose denominator does not divide the scale
multiplies the scale and every key and position int by one factor, which
keeps their order. The trace's positions are formatted from the ints and
its move amounts from the integer ratio of the command's amount; records
and ``max_time`` keep ``Fraction`` instants, one per distinct instant.

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
are the ``Fraction`` reference of that state, a world dict keyed by robot
id, kept only for the tests and the benchmark's tracer; the run loop uses
none of them.

Events at one instant run move-ends first, then looks, then decides, each
rank by robot id; a look that a decide queues at its own instant runs right
after that decide. Records stay in this processing order: a record's index
is its sequence number, and a trace cut at a limit is a prefix of the whole
run's. Every look at an instant sees one world. The run loop holds one
:class:`~circlegather.configuration.LatticeView` of it, built at the first
look of the instant or kept from an earlier one, and memoises each look by
the observer's view tick: robots
resting on one point share one ``(view, tick)`` pair, their snapshot
records' payload. The view is rebuilt only when the world changes: at a
new look instant, when a move has ended since the view was built or a move
is in flight. Otherwise no robot has left or reached a point, so the run
keeps the view with its looks and its decisions, and snapshot records of
several instants share one ``(view, tick)`` pair. Within one instant the
world holds: no move ends between its looks, and a move that starts at the
look instant leaves its mover at rest on its origin, as the view already
has it.

Decisions are shared wider, by world. A robot's compute step is a pure map
from its view and its finite memory, and the view's reduced ring ``(d,
ticks, flags)`` with the observer's tick fixes that view, whatever the
run's scale. So :func:`_decisions_in`, an ``lru_cache`` of the 16 latest
worlds, keyed by that ring, the multiplicity threshold and the ``decide``
function the run calls, holds one decision per (memory before, view tick)
for every look at that world, at any instant of any run; a patched
``decide`` keys its own worlds. Only a decide that misses builds the
``Snapshot`` from the look's pair, runs ``decide`` and the legality check,
and drops it; the memo keeps memories, strings, payload dicts and ints,
never a view or a snapshot. Other payloads are dicts, equal ones shared:
one activate dict per memory value, one move-end dict per destination and
one decide dict per (state before, state after, command) a run computes,
which the memo hands on to later runs with its text. Payloads are
read-only. The run writes their JSON texts into :attr:`Trace.texts` as it
makes or meets them; :meth:`Trace.to_jsonl` joins them with fixed line
parts and writes a view before its first snapshot at each look instant.

Each queued event carries the data its handler needs: a look its decide
key, a decide its look's memo entry. Every policy hands the run its cycles
as int keys on the run's scale (see :meth:`SchedulerPolicy.next_cycle`),
which its ``grid`` divides, so a cycle never grows the scale: the fsync and
ssync policies look at the key of the first round from ``ceil(busy /
scale)`` in which the robot is active and decide a quarter unit later, and
the async policy adds its draws to ``busy``. The run loop rejects a cycle
that looks before the robot's previous one, move included, has ended, or
that decides no later than it looks. The loop checks no
global property such as the expected-leader count; a trace records every
move start, so the positions at any instant can be replayed from the trace
alone, and the tests check that property that way.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from random import Random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import protocol
from .angles import HALF_TURN
from .configuration import (
    Configuration,
    LatticeView,
    Snapshot,
    require_legal_initial,
)
from .errors import InvariantViolation, LimitExceeded, ObserverMoving, ScheduleError
from .protocol import CW, Memory


@dataclass
class Pending:
    """A move in flight; it starts at its robot's anchor, which moves only at its end."""

    direction: str
    start: Fraction
    end: Fraction
    destination: Fraction


@dataclass
class RobotRuntime:
    """A robot of a world dict keyed by its id: where it rests and its move in flight."""

    anchor: Fraction
    pending: Optional[Pending] = None

    def position_at(self, t: Fraction) -> Fraction:
        """The position at the nonnegative instant ``t``."""
        p = self.pending
        if p is None or t <= p.start:
            return self.anchor
        if t >= p.end:
            return p.destination
        delta = t - p.start
        if p.direction == CW:
            return (self.anchor + delta) % 1
        return (self.anchor - delta) % 1

    def is_moving_at(self, t: Fraction) -> bool:
        return self.pending is not None and self.pending.start < t < self.pending.end


# ---------------------------------------------------------------------------
# Scheduler policies


class SchedulerPolicy:
    """Produces, per robot, the look/decide instants of its successive cycles.

    ``grid`` is the denominator of every instant the policy adds: :func:`run`
    starts its scale at a multiple of it, so the policy's instants are ints
    of the run's scale.
    """

    grid = 1

    def bind(self, robot_ids: Sequence[str]) -> None:
        self.robot_ids = tuple(robot_ids)

    def next_cycle(self, robot_id: str, busy: int, scale: int) -> Optional[Tuple[int, int]]:
        """The (look, decide) keys of the robot's next cycle, or None when done.

        Keys are instants times ``scale``, the run's scale, which ``grid``
        divides; ``busy`` is the key at which the robot's previous cycle,
        move included, ended (0 before its first). The run loop raises
        :class:`ScheduleError` if ``look`` is before ``busy`` or ``decide``
        is not after ``look``.
        """
        raise NotImplementedError


class _RoundPolicy(SchedulerPolicy):
    """A policy whose cycles look at an integer round k and decide at k + 1/4.

    A robot's next cycle is round :meth:`_first_round` from ``ceil(busy /
    scale)``: the first round from there in which it is active.
    """

    grid = 4

    def _first_round(self, robot_id: str, k: int) -> int:
        """The first round from ``k`` in which the robot is active."""
        raise NotImplementedError

    def next_cycle(self, robot_id, busy, scale):
        look = self._first_round(robot_id, -(-busy // scale)) * scale
        return look, look + scale // 4


class FsyncPolicy(_RoundPolicy):
    """All robots look together at integer rounds and decide a quarter unit later."""

    def _first_round(self, robot_id, k):
        return k


class SsyncPolicy(_RoundPolicy):
    """Round-based activation of seeded random nonempty subsets.

    A robot left out for ``max_skips`` consecutive rounds is force-included,
    so every robot is activated at least once in any ``max_skips + 1``
    consecutive rounds. Rounds are drawn in order from round 0 and kept, so
    asking about round k draws and stores every round before it first: the
    cost grows with the round asked for, not with the rounds a run uses.
    """

    def __init__(self, seed: int = 0, max_skips: int = 3):
        if max_skips < 0:
            raise ValueError("max_skips must be nonnegative")
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

    def _first_round(self, robot_id, k):
        while robot_id not in self._membership(k):
            k += 1
        return k


class AsyncRandomPolicy(SchedulerPolicy):
    """Fully asynchronous adversary with seeded rational delays.

    Idle gaps and look-compute durations are positive rationals drawn from a
    grid with the given denominator bound, so every event instant stays
    rational and every coincidence test exact: a look comes ``1/bound`` to 2
    units after ``busy``, its decide ``1/bound`` to 1 unit after it.
    """

    def __init__(self, seed: int = 0, delay_denominator_bound: int = 8):
        if delay_denominator_bound < 1:
            raise ValueError("delay_denominator_bound must be positive")
        self.seed = seed
        self.grid = delay_denominator_bound

    def bind(self, robot_ids):
        super().bind(robot_ids)
        self._rngs = {r: Random(f"async:{self.seed}:{r}") for r in robot_ids}

    def next_cycle(self, robot_id, busy, scale):
        rng, bound = self._rngs[robot_id], self.grid
        unit = scale // bound
        look = busy + rng.randint(1, 2 * bound) * unit
        return look, look + rng.randint(1, bound) * unit


class ScriptedPolicy(SchedulerPolicy):
    """Replays an explicit, validated list of (robot, t_look, t_decide) events.

    The events are checked as ``Fraction``s, then kept as ints on ``grid``,
    the lcm of their denominators.
    """

    def __init__(self, events: Iterable[Tuple[str, Fraction, Fraction]]):
        queues: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
        for robot_id, t_look, t_decide in events:
            t_look, t_decide = Fraction(t_look), Fraction(t_decide)
            if t_look < 0:
                raise ScheduleError("scripted times must be nonnegative")
            if t_decide <= t_look:
                raise ScheduleError("look and compute must take strictly positive time")
            queues.setdefault(robot_id, []).append((t_look, t_decide))
        for robot_id, q in queues.items():
            for (l0, d0), (l1, _) in zip(q, q[1:]):
                if l1 < d0:
                    raise ScheduleError(
                        f"robot {robot_id!r} activations overlap: look at {l1} "
                        f"before decide at {d0}"
                    )
        grid = self.grid = math.lcm(
            *(t.denominator for q in queues.values() for cycle in q for t in cycle)
        )
        self._queues = {
            r: [(int(look * grid), int(decide * grid)) for look, decide in q]
            for r, q in queues.items()
        }

    def bind(self, robot_ids):
        super().bind(robot_ids)
        unknown = sorted(set(self._queues) - set(robot_ids))
        if unknown:
            raise ScheduleError(f"scripted events name unknown robots {unknown}")
        self._cursor = {r: iter(self._queues.get(r, ())) for r in robot_ids}

    def next_cycle(self, robot_id, busy, scale):
        cycle = next(self._cursor[robot_id], None)
        if cycle is None:
            return None
        factor = scale // self.grid
        return cycle[0] * factor, cycle[1] * factor


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

#: The ``{"kind":…,"payload":`` head of each kind of record a run writes.
_HEADS = {
    kind: f'{{"kind":"{kind}","payload":'
    for kind in ("activate", "snapshot", "decide", "move-start", "move-end")
}


@dataclass
class Trace:
    """A run's records in processing order, its summary and its payload texts."""

    records: List[TraceRecord]
    summary: dict
    #: id -> (payload, its JSON text) for each dict payload :func:`run` made, holding
    #: the payload so the id stays its own; empty in a trace built by hand or re-sorted.
    texts: Dict[int, Tuple[dict, str]] = field(default_factory=dict, compare=False, repr=False)

    def to_jsonl(self) -> str:
        """One JSON object per record, in processing order, then the summary line.

        A record's line is ``{"kind", "payload", "robot", "t"}`` with sorted
        keys, joined from text parts: a constant head for each kind a run
        writes, the payload's text from ``texts`` or encoded once per object,
        the robot's tail once per robot and an instant's text wherever a
        record's instant is another object than the one before. A snapshot's
        payload ``{"self_multiplicity", "tick"}`` reads the ring of the
        ``view`` line ``{"d", "multiplicities", "ticks"}`` before it, written
        from the view's ints, by the rule of :meth:`LatticeView.snapshot`,
        wherever a snapshot's view or instant text differs from the last
        view line's: one view serves the looks of every instant its world
        lasts.
        """
        encode = _ENCODER.encode
        payloads = {key: text for key, (_, text) in self.texts.items()}
        tails: Dict[str, str] = {}
        last = written = written_at = None
        lines = []
        for t, robot, kind, p in self.records:
            if t is not last:
                last, instant = t, f'{t.numerator}/{t.denominator}"}}'
            payload = payloads.get(id(p))
            if type(p) is tuple:
                view, tick = p
                # One view serves the looks of several instants; a trace
                # built by hand may hold equal instants in distinct
                # objects, so texts compare.
                if view is not written or instant != written_at:
                    written, written_at, ticks = view, instant, view.ticks
                    mult = ",".join([str(k) for k, f in zip(ticks, view.flags) if f])
                    lines.append(
                        f'{{"kind":"view","payload":{{"d":{view.d},"multiplicities":[{mult}],'
                        f'"ticks":[{",".join(map(str, ticks))}]}},"t":"{instant}'
                    )
                if payload is None:
                    own = "true" if view.flags[bisect_left(view.ticks, tick)] else "false"
                    payload = payloads[id(p)] = f'{{"self_multiplicity":{own},"tick":{tick}}}'
            elif payload is None:
                payload = payloads[id(p)] = encode(p)
            head = _HEADS.get(kind) or f'{{"kind":{encode(kind)},"payload":'
            tail = tails.get(robot)
            if tail is None:
                tail = tails[robot] = f',"robot":{encode(robot)},"t":"'
            lines.append(f"{head}{payload}{tail}{instant}")
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
    """Where :func:`run` stops and raises :class:`LimitExceeded`.

    ``max_events`` is checked against the record count before each event. A
    look writes two records, as does a decide that starts a move, so a trace
    cut there holds ``max_events`` or ``max_events + 1`` records."""

    max_events: int = 100_000
    max_time: Optional[Fraction] = None


@dataclass
class RunOptions:
    multiplicity_threshold: Fraction = HALF_TURN


#: Event ranks: at one instant move-ends come before looks before decides.
MOVE_END, LOOK, DECIDE = 0, 1, 2

#: The payload of every activate record, one shared dict per memory value.
_ACTIVATE_PAYLOADS = {m: {"state": m.value} for m in Memory}
#: Their texts, the start of every run's :attr:`Trace.texts`.
_ACTIVATE_TEXTS = {id(p): (p, _ENCODER.encode(p)) for p in _ACTIVATE_PAYLOADS.values()}


@lru_cache(maxsize=16)
def _decisions_in(d: int, ticks: tuple, flags: tuple, threshold: tuple, decide) -> dict:
    """The decisions taken in one world, shared by every look at it in any run.

    The key is the view's reduced ring (``d``, ``ticks``, ``flags``, the
    view's own tuples), which no run's scale enters, the multiplicity
    threshold as its integer ratio and the ``decide`` function the run
    calls. The value maps a ``(memory before, observer's view tick)`` pair
    to its decision, ``(memory after, (decide payload, its text), direction,
    amount numerator, amount denominator, move-start head)``, the head being
    a move-start text up to its origin.
    """
    return {}


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
    the look instant: it is still at rest on its origin and weighs 1. A new
    look instant rebuilds the view only if ``moved`` (a move has ended since
    the last view) or a move is in flight; else it keeps the view.

    ``looks`` keeps, per view tick of the current view, the ``(view,
    tick)`` record pair and the world's shared decisions (see
    :func:`_decisions_in`); a queued decide carries that entry and builds a
    ``Snapshot`` only if no decision is shared for its memory and tick yet.
    Every policy's cycles are int keys on ``scale`` and take one path; the
    records of one instant share one ``Fraction`` of it, built when its
    first event pops.
    Every decide registers its payload's text in :attr:`Trace.texts`; a
    shared decision keeps the payload dict of the run that computed it.
    """
    limits = limits or RunLimits()
    options = options or RunOptions()
    lattice = require_legal_initial(initial)
    all_ids = sorted(r.robot_id for r in initial.robots)
    policy.bind(all_ids)
    next_cycle = policy.next_cycle
    # Every instant a policy adds is an int of this scale from the start;
    # only a move amount grows it.
    scale = math.lcm(lattice.d, policy.grid)
    anchors: Dict[str, int] = {
        r.robot_id: lattice.tick(r.pos) * (scale // lattice.d) for r in initial.robots
    }
    memories: Dict[str, Memory] = dict.fromkeys(anchors, Memory.OFF)

    # Entries are (key, rank, robot, data). A look carries its decide key, a
    # decide its look's entry in ``looks``. A robot has exactly one event
    # queued at a time, so (key, rank, robot) never ties and data is never
    # compared.
    heap: List[Tuple[int, int, str, object]] = []
    records: List[TraceRecord] = []
    gathered_confirmed: set = set()
    limit_hit = False

    resting: Counter = Counter(anchors.values())
    # A mover's (start key, end key, +1 clockwise or -1, destination).
    in_flight: Dict[str, Tuple[int, int, int, int]] = {}
    mult_points = max_mult = sum(1 for c in resting.values() if c >= 2)
    # The world as every look at key view_key sees it, ``step`` the scale's
    # ints per view tick, its shared decisions (see _decisions_in), and the
    # looks already taken there, keyed by the observer's view tick: each
    # look's (view, tick) record payload and those decisions. ``moved`` says
    # that a move has ended since the view was built.
    view_key = step = -1
    moved = True
    looks: Dict[int, Tuple[Tuple[LatticeView, int], Dict[Tuple[Memory, int], tuple]]] = {}
    # The records' instant, built once per distinct popped key ``t_key``.
    t_key = -1
    # Read once, so a patched decide serves the whole run and keys its worlds.
    decide = protocol.decide
    threshold = options.multiplicity_threshold
    # The memo keys on the threshold's ints: a Fraction hashes in Python.
    threshold_ratio = threshold.as_integer_ratio()
    # One decision, and so one decide payload, per distinct (state before,
    # state after, command) the run computes, the command keyed by its fields
    # as ints and strings; one move-end payload per destination int.
    decisions: Dict[Tuple[Memory, Memory, str, str, int, int], tuple] = {}
    arrivals: Dict[int, dict] = {}
    texts = dict(_ACTIVATE_TEXTS)
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
        nonlocal scale, resting, view_key, step, t_key
        factor = new_scale // scale
        heap[:] = [
            (key * factor, rank, rid, data * factor if rank == LOOK else data)
            for key, rank, rid, data in heap
        ]
        for rid in anchors:
            anchors[rid] *= factor
        for rid, (start, end, sign, to) in in_flight.items():
            in_flight[rid] = (start * factor, end * factor, sign, to * factor)
        resting = Counter({p * factor: c for p, c in resting.items()})
        arrivals.clear()
        view_key, step, t_key = view_key * factor, step * factor, t_key * factor
        scale = new_scale
        return factor

    def schedule_cycle(robot_id: str, busy: int) -> None:
        """Queue the robot's next look; ``busy`` is the key its last cycle ended at."""
        cycle = next_cycle(robot_id, busy, scale)
        if cycle is None:
            return
        look, decide_key = cycle
        if look < busy:
            raise ScheduleError(
                f"policy scheduled robot {robot_id!r} to look at {Fraction(look, scale)} "
                f"while busy until {Fraction(busy, scale)}"
            )
        if decide_key <= look:
            raise ScheduleError("look and compute must take strictly positive time")
        heappush(heap, (look, LOOK, robot_id, decide_key))

    def position(rid: str, key: int) -> Tuple[int, int]:
        """The robot's position int at ``key`` and its weight in a view there."""
        move = in_flight.get(rid)
        if move is None or key <= move[0]:
            return anchors[rid], 1
        start, end, sign, to = move
        if key >= end:
            return to, 1
        return (anchors[rid] + sign * (key - start)) % scale, 0

    initial_angles = {rid: angle(anchor) for rid, anchor in anchors.items()}
    for rid in all_ids:
        schedule_cycle(rid, 0)

    max_time, max_events = limits.max_time, limits.max_events
    while heap:
        key, rank, rid, data = heappop(heap)
        # Keys pop in order, so the records of one instant share one object.
        if key != t_key:
            t_key, t = key, Fraction(key, scale)
        if len(records) >= max_events or (max_time is not None and t > max_time):
            limit_hit = True
            break

        if rank == LOOK:
            # A new look instant keeps the view, its looks and its decisions
            # when no move has ended since and none is in flight: the world
            # is the one the view holds.
            if key != view_key and (moved or in_flight):
                weights = dict(resting)
                for mover in in_flight:
                    p, weight = position(mover, key)
                    weights[p] = weights.get(p, 0) + weight
                view, looks, moved = LatticeView.on_lattice(scale, weights), {}, False
                step = scale // view.d
                world_decisions = _decisions_in(
                    view.d, view.ticks, view.flags, threshold_ratio, decide
                )
            view_key = key
            # A robot's next cycle is queued only after a stay or once its
            # move has ended, so a looking robot rests on its anchor.
            tick = anchors[rid] // step
            look = looks.get(tick)
            if look is None:
                look = looks[tick] = ((view, tick), world_decisions)
            records.append(
                new_record(TraceRecord, (t, rid, "activate", _ACTIVATE_PAYLOADS[memories[rid]]))
            )
            records.append(new_record(TraceRecord, (t, rid, "snapshot", look[0])))
            heappush(heap, (data, DECIDE, rid, look))
            continue

        if rank == DECIDE:
            # decide and the legality check are pure in (look, memory): a
            # robot whose world, view tick and memory were decided before, at
            # any instant of any run, reuses that result. The names differ
            # from the look branch's: a robot that stays may look again at
            # this instant, and that look must get this instant's world.
            (look_view, look_tick), decided = data
            state_before = memories[rid]
            decision = decided.get((state_before, look_tick))
            if decision is None:
                new_memory, command = decide(
                    look_view.snapshot(look_tick), state_before, threshold
                )
                if (state_before, new_memory) not in protocol.LEGAL_TRANSITIONS:
                    raise InvariantViolation(
                        f"illegal state transition {state_before.value} -> {new_memory.value}"
                    )
                direction, target_kind = command.direction, command.target_kind
                num, den = command.amount.as_integer_ratio()
                decision_key = (state_before, new_memory, direction, target_kind, num, den)
                decision = decisions.get(decision_key)
                if decision is None:
                    amount_text = f"{num}/{den}"
                    payload = {
                        "state_before": state_before.value,
                        "state_after": new_memory.value,
                        "move": {
                            "direction": direction,
                            "amount": amount_text,
                            "target_kind": target_kind,
                        },
                    }
                    # MoveCommand does not check its strings; a patched decide may pick any.
                    shift = f'"amount":"{amount_text}","direction":{_ENCODER.encode(direction)}'
                    text = (
                        f'{{"move":{{{shift},"target_kind":{_ENCODER.encode(target_kind)}}},'
                        f'"state_after":"{new_memory.value}",'
                        f'"state_before":"{state_before.value}"}}'
                    )
                    head = f'{{{shift},"from":"'
                    decision = decisions[decision_key] = (
                        new_memory, (payload, text), direction, num, den, head
                    )
                decided[state_before, look_tick] = decision
            new_memory, pair, direction, num, den, head = decision
            # The memo may hand on an earlier run's payload: register it here.
            payload = pair[0]
            texts[id(payload)] = pair
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
                move = {"from": angle(origin), "direction": direction, "amount": f"{num}/{den}"}
                texts[id(move)] = move, f'{head}{move["from"]}"}}'
                records.append(new_record(TraceRecord, (t, rid, "move-start", move)))
                heappush(heap, (end, MOVE_END, rid, None))
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
                schedule_cycle(rid, key)
            continue

        # move_end: the robot rests at its destination.
        to = anchors[rid] = in_flight.pop(rid)[3]
        moved = True
        count = resting[to] = resting.get(to, 0) + 1
        if count == 2:
            mult_points += 1
            max_mult = max(max_mult, mult_points)
        arrival = arrivals.get(to)
        if arrival is None:
            arrival = arrivals[to] = {"to": angle(to)}
            texts[id(arrival)] = arrival, f'{{"to":"{arrival["to"]}"}}'
        records.append(new_record(TraceRecord, (t, rid, "move-end", arrival)))
        schedule_cycle(rid, key)

    end_time = records[-1].t if records else Fraction(0)
    end_key = end_time.numerator * (scale // end_time.denominator)
    gathered = not in_flight and len(resting) == 1
    final = {rid: angle(position(rid, end_key)[0]) for rid in all_ids}
    summary = {
        "gathered": gathered,
        "event_count": len(records),
        "max_simultaneous_multiplicities": max_mult,
        "limit_exceeded": limit_hit,
        "initial": initial_angles,
        "final": final,
    }
    if gathered:
        summary["gather_point"] = final[all_ids[0]]
    trace = Trace(records, summary, texts)
    if limit_hit:
        raise LimitExceeded("simulation hit its event or time limit", trace)
    return trace
