"""Independent brute-force oracles and randomized searchers.

Everything here re-derives verdicts through a second code path. Each entry
point scales its sorted positions once onto one integer lattice of L ticks,
the lcm of lcm(1..12) and their denominators (:func:`_scale`). L is even, so
the antipode of tick t is ``(t + L/2) % L``, and every probe of the insertion
check is a tick. Each point set (a configuration, a robot's two hypotheses
C0 and C1, a configuration with one probe robot inserted) then gets its
sorted int gap list built once: :func:`_gaps` builds it from neighbour
differences, and a set that is its parent set plus one point (C1 is C0 plus
the antipode, a probe set is the configuration plus the probe) gets it
spliced from the parent's list by :func:`_insert`, since the new point only
splits one gap. One naive election, :func:`_least_rotation`, gives both the
leader (the start of the least cyclic rotation) and the symmetry test (the
least one occurs at two starts): a least gap that occurs once starts it, and
only a repeated least gap makes it build and compare every rotation. Fractions
appear only at the boundary: a leader, a verdict's position and a witness.
The structural claims the analysis layer relies on are enumerated directly.
Failures are data (reported with a witness), not exceptions, so a sweep can
tally them.

:func:`proposition_sweep` is the one sweep over random configurations that
both ``gather-sim verify`` and the acceptance suite run.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from fractions import Fraction
from math import lcm
from random import Random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .angles import format_angle
from .analysis import ConfigurationClass, configuration_class
from .configuration import CheckedRecord, Configuration, true_leader
from .errors import GenerationExhausted, MultiplicityPresent, SymmetricConfiguration

# ---------------------------------------------------------------------------
# Generation


RETRY_CAP = 2000  # draws random_config makes before it gives up


class _GeneratorSpecFields(NamedTuple):
    n: int
    denominator_bound: int
    seed: int


class GeneratorSpec(CheckedRecord, _GeneratorSpecFields):
    __slots__ = ()

    def __new__(cls, n: int, denominator_bound: int, seed: int):
        if n < 2:
            raise ValueError("need at least two robots")
        if denominator_bound < 1:
            raise ValueError("denominator bound must be positive")
        return tuple.__new__(cls, (n, denominator_bound, seed))


def random_config(spec: GeneratorSpec, rng: Optional[Random] = None) -> Configuration:
    """A uniformly sampled asymmetric multiplicity-free configuration.

    Deterministic in the seed. Raises :class:`GenerationExhausted` at once,
    drawing nothing, when n exceeds the d lattice points, else after
    :data:`RETRY_CAP` draws instead of looping forever on impossible constraints.
    """
    d = spec.denominator_bound
    if spec.n > d:
        raise GenerationExhausted(
            f"no configuration of n={spec.n} distinct points with denominator bound {d}"
        )
    rng = rng or Random(f"gen:{spec.seed}")
    for _ in range(RETRY_CAP):
        ticks = sorted(rng.randrange(d) for _ in range(spec.n))
        if len(set(ticks)) != spec.n or _least_rotation(_gaps(ticks, d)) is None:
            continue
        return Configuration.from_points([Fraction(t, d) for t in ticks])
    raise GenerationExhausted(
        f"no asymmetric configuration with n={spec.n}, denominator bound {d} "
        f"after {RETRY_CAP} attempts"
    )


#: lcm(1..12): every oracle lattice is a multiple of it, so every probe
#: :func:`_check` inserts is a tick, and L is even.
_PROBE_LATTICE = lcm(*range(1, 13))


def _scale(points: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(L, ticks): L = lcm(_PROBE_LATTICE, denominators), and each point times L."""
    L = lcm(_PROBE_LATTICE, *(p.denominator for p in points))
    return L, [p.numerator * (L // p.denominator) for p in points]


def _gaps(ticks: Sequence[int], L: int) -> Tuple[int, ...]:
    """Clockwise gaps between sorted distinct ``ticks`` of the 1/L lattice."""
    if len(set(ticks)) != len(ticks):
        raise MultiplicityPresent("operation undefined with a multiplicity point")
    return tuple(b - a for a, b in zip(ticks, ticks[1:])) + (L - ticks[-1] + ticks[0],)


# ---------------------------------------------------------------------------
# Independent leader election: least cyclic rotation of the gap sequence


def _least_rotation(gaps: Tuple[int, ...]) -> Optional[int]:
    """Start index of the least cyclic rotation of ``gaps``, None if periodic.

    A least rotation starts with the least gap. If that gap occurs once, its
    index is the answer and ``gaps`` has no period, which would repeat it.
    Otherwise every rotation is built and compared naively: the least occurs
    at two starts i < j exactly when rotating by j - i maps ``gaps`` onto
    itself. Neither step is the Lyndon election of the configuration layer.
    """
    least_gap = min(gaps)
    if gaps.count(least_gap) == 1:
        return gaps.index(least_gap)
    doubled = gaps + gaps
    rotations = [doubled[k : k + len(gaps)] for k in range(len(gaps))]
    least = min(rotations)
    return rotations.index(least) if rotations.count(least) == 1 else None


def _elect(gaps: Tuple[int, ...]) -> int:
    """Leader index of the points with gap list ``gaps``; tests patch it to inject a wrong one."""
    lead = _least_rotation(gaps)
    if lead is None:
        raise SymmetricConfiguration("no unique leader in a symmetric configuration")
    return lead


def brute_force_leader(config: Configuration) -> Fraction:
    """Leader position via the least cyclic rotation of the sorted gap list."""
    positions = sorted(config.positions)
    L, ticks = _scale(positions)
    return positions[_elect(_gaps(ticks, L))]


def _insert(positions: List, gaps: Tuple, p) -> Tuple[List, Tuple]:
    """``positions`` with ``p`` added, and its gap list, spliced from ``gaps``.

    ``positions`` are sorted distinct ticks of one lattice with gap list
    ``gaps``; ``p`` is a new tick of it. It splits the one gap it falls in,
    so this equals the gap list of the new set.
    """
    i = bisect(positions, p)
    if i == 0:
        # p becomes the smallest point: its gap leads, the wrap gap shrinks.
        d = positions[0] - p
        return [p] + positions, (d,) + gaps[:-1] + (gaps[-1] - d,)
    d = p - positions[i - 1]
    return (
        positions[:i] + [p] + positions[i:],
        gaps[: i - 1] + (d, gaps[i - 1] - d) + gaps[i:],
    )


# ---------------------------------------------------------------------------
# Per-robot classification rebuilt from raw positions


class RobotVerdict(NamedTuple):
    pos: Fraction
    tag: str  # "sure-leader" | "confused-leader" | "follower"
    leads_c0: Optional[bool]
    leads_c1: Optional[bool]
    possibility: str  # "only-c0" | "only-c1" | "both"


def oracle_classify(positions: Sequence[Fraction], me: Fraction) -> RobotVerdict:
    """Classify one robot straight from the raw position multiset.

    ``positions`` and ``me`` are angles in [0, 1), as in a configuration.
    """
    L, ticks = _scale([*positions, me])
    return _classify(ticks[:-1], L, me, ticks[-1])


def _classify(ticks: Sequence[int], L: int, me: Fraction, tick: int) -> RobotVerdict:
    """:func:`oracle_classify` on ticks of an even lattice; ``me`` is at ``tick``."""
    far = (tick + L // 2) % L
    c0 = sorted([t for t in ticks if t != tick and t != far] + [tick])
    gaps0 = _gaps(c0, L)
    c1, gaps1 = _insert(c0, gaps0, far)
    lead0, lead1 = _least_rotation(gaps0), _least_rotation(gaps1)
    leads0 = None if lead0 is None else c0[lead0] == tick
    leads1 = None if lead1 is None else c1[lead1] == tick
    if lead0 is None and lead1 is None:
        raise SymmetricConfiguration("both hypotheses symmetric")
    if lead0 is None:
        possibility, tag = "only-c1", ("sure-leader" if leads1 else "follower")
    elif lead1 is None:
        possibility, tag = "only-c0", ("sure-leader" if leads0 else "follower")
    else:
        possibility = "both"
        if leads0 and leads1:
            tag = "sure-leader"
        elif leads0 or leads1:
            tag = "confused-leader"
        else:
            tag = "follower"
    return RobotVerdict(me, tag, leads0, leads1, possibility)


# ---------------------------------------------------------------------------
# Structural claims checked by direct enumeration


#: The ticks proposition 2 inserts a robot at: every angle of denominator at most 12.
_PROBES = tuple(sorted({k * (_PROBE_LATTICE // d) for d in range(1, 13) for k in range(d)}))


class CheckResult(NamedTuple):
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"pass": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


def check_propositions(config: Configuration) -> Dict[str, CheckResult]:
    """Evaluate the nine structural claims on one configuration.

    Requires an asymmetric multiplicity-free input. Failures come back as
    results with witnesses; nothing raises for a false claim.
    """
    return _check(config)[0]


def _check(config: Configuration):
    """(:func:`check_propositions` report, oracle leader, robot verdicts)."""
    positions = sorted(config.positions)
    n = len(positions)
    L, ticks = _scale(positions)
    half = L // 2
    occupied = set(ticks)
    gaps = _gaps(ticks, L)
    lead_at = _elect(gaps)
    leader, lt = positions[lead_at], ticks[lead_at]
    doubled = gaps * 2
    verdicts = [_classify(ticks, L, p, t) for p, t in zip(positions, ticks)]
    # Each group holds indices into positions, ticks and verdicts.
    expected = [i for i, v in enumerate(verdicts) if v.tag != "follower"]
    confused = [i for i, v in enumerate(verdicts) if v.tag == "confused-leader"]
    sure = [i for i, v in enumerate(verdicts) if v.tag == "sure-leader"]

    def at(i: int) -> str:
        return format_angle(positions[i])

    report: Dict[str, CheckResult] = {}

    # 1. No robot left of the leader matches the leader's sequence prefix up
    #    to the leader's own position. Robot i's sequence is the rotation of
    #    the gap list starting at i, and the leader is (lead_at - i) % n hops
    #    clockwise from it.
    bad = None
    for i, t in enumerate(ticks):
        if i == lead_at or (t - lt) % L <= half:
            continue
        hops = (lead_at - i) % n
        if doubled[i : i + hops] == doubled[lead_at : lead_at + hops]:
            bad = i
            break
    report["no_left_prefix_rival"] = CheckResult(
        bad is None, None if bad is None else f"rival at {at(bad)}"
    )

    # 2. Inserting a robot at an empty point (creating no symmetry) can only
    #    move the leader into the clockwise interval [old leader, new robot].
    bad = None
    step = L // _PROBE_LATTICE
    for probe in _PROBES:
        probe *= step
        if probe in occupied:
            continue
        new_ticks, new_gaps = _insert(ticks, gaps, probe)
        new_lead = _least_rotation(new_gaps)
        if new_lead is None:
            continue
        new_leader = new_ticks[new_lead]
        if (new_leader - lt) % L > (probe - lt) % L:
            bad = (probe, new_leader)
            break
    report["insertion_keeps_leader_in_arc"] = CheckResult(
        bad is None,
        None
        if bad is None
        else f"probe {format_angle(Fraction(bad[0], L))} elects "
        f"{format_angle(Fraction(bad[1], L))}",
    )

    # 3. A confused leader always leads its antipode-empty hypothesis and
    #    never the antipode-occupied one.
    bad = next(
        (i for i in confused if not (verdicts[i].leads_c0 and not verdicts[i].leads_c1)),
        None,
    )
    report["confused_leads_empty_hypothesis_only"] = CheckResult(
        bad is None, None if bad is None else f"robot at {at(bad)}"
    )

    # 4. If the true leader is confused, its antipodal point is empty.
    ok = not (lead_at in confused and (lt + half) % L in occupied)
    report["confused_true_leader_antipode_empty"] = CheckResult(
        ok, None if ok else f"leader at {format_angle(leader)}"
    )

    # 5. If a non-leader is confused, its antipodal point is occupied.
    bad = next(
        (i for i in confused if i != lead_at and (ticks[i] + half) % L not in occupied),
        None,
    )
    report["confused_non_leader_antipode_occupied"] = CheckResult(
        bad is None, None if bad is None else f"robot at {at(bad)}"
    )

    # 6. Any expected leader other than the true leader sits at clockwise
    #    angle at least a half turn from it.
    bad = next(
        (i for i in expected if i != lead_at and (ticks[i] - lt) % L < half), None
    )
    report["other_expected_leader_half_turn_away"] = CheckResult(
        bad is None, None if bad is None else f"robot at {at(bad)}"
    )

    # 7. At most one sure leader (and it is the true leader), at most one
    #    confused leader besides the true leader, one or two expected leaders.
    ok = (
        len(expected) in (1, 2)
        and len(sure) <= 1
        and all(i == lead_at for i in sure)
        and len([i for i in confused if i != lead_at]) <= 1
    )
    report["expected_leader_cardinality"] = CheckResult(
        ok,
        None
        if ok
        else f"{len(sure)} sure / {len(confused)} confused "
        f"in {[format_angle(p) for p in positions]}",
    )

    # 8. Two confused leaders are never antipodal to each other.
    ok = not (len(confused) == 2 and ticks[confused[0]] == (ticks[confused[1]] + half) % L)
    report["confused_pair_not_antipodal"] = CheckResult(ok)

    # 9. Two confused leaders' first clockwise neighbors are never antipodal
    #    to each other.
    bad = None
    if len(confused) == 2:
        nb0, nb1 = ((i + 1) % n for i in confused)
        if ticks[nb0] == (ticks[nb1] + half) % L:
            bad = (nb0, nb1)
    report["confused_pair_neighbors_not_antipodal"] = CheckResult(
        bad is None,
        None if bad is None else f"neighbors {at(bad[0])}, {at(bad[1])}",
    )

    return report, leader, verdicts


# ---------------------------------------------------------------------------
# Proposition sweep


class SweepResult:
    """Tallies of :func:`proposition_sweep`; configurations appear as JSON."""

    __slots__ = ("checked", "proposition_failures", "leader_mismatches", "cases")

    def __init__(self):
        self.checked = 0
        #: ``{"check", "witness", "config"}`` for every failed claim.
        self.proposition_failures: List[dict] = []
        #: Configurations whose oracle leader differs from ``true_leader``'s.
        self.leader_mismatches: List[dict] = []
        #: Sorted non-follower tags of a configuration -> configurations with them.
        self.cases: Counter = Counter()


def proposition_sweep(
    ns: Sequence[int], count: int, seed: int, denominator_bound: int
) -> SweepResult:
    """Check ``count`` random configurations with one oracle pass each.

    Config ``i`` has ``ns[i % len(ns)]`` robots and generator seed
    ``seed + i``. The pass gives the nine claims, the leader to compare with
    ``true_leader`` and the expected-leader case.
    """
    result = SweepResult()
    for i in range(count):
        config = random_config(GeneratorSpec(ns[i % len(ns)], denominator_bound, seed + i))
        report, leader, verdicts = _check(config)
        result.checked += 1
        for name, check in report.items():
            if not check.passed:
                result.proposition_failures.append(
                    {"check": name, "witness": check.witness, "config": config.to_json()}
                )
        if leader != true_leader(config):
            result.leader_mismatches.append(config.to_json())
        result.cases[tuple(sorted(v.tag for v in verdicts if v.tag != "follower"))] += 1
    return result


# ---------------------------------------------------------------------------
# Randomized class search


def search_class(
    target: ConfigurationClass,
    spec: GeneratorSpec,
    budget: int,
) -> Optional[Configuration]:
    """First generated configuration of the requested taxonomy class.

    Returns None when the budget runs out.
    """
    rng = Random(f"search:{spec.seed}")
    for _ in range(budget):
        try:
            config = random_config(spec, rng)
        except GenerationExhausted:
            return None
        if configuration_class(config) is target:
            return config
    return None
