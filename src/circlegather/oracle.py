"""Independent brute-force oracles and randomized searchers.

Everything here re-derives verdicts through a second code path: leader
election by comparing every cyclic rotation of the Fraction gap sequence
with every other, symmetry by the same naive rotation scan, per-robot
classification built directly from raw position sets, and direct
enumeration of the structural claims the analysis layer relies on. Failures
are data (reported with a witness), not exceptions, so a sweep can tally
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from .angles import HALF_TURN, antipode, cw_angle, format_angle
from .analysis import ConfigurationClass, configuration_class
from .configuration import Configuration, gap_sequence
from .errors import GenerationExhausted, SymmetricConfiguration

# ---------------------------------------------------------------------------
# Generation


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    denominator_bound: int
    seed: int
    retry_cap: int = 2000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two robots")
        if self.denominator_bound < 1:
            raise ValueError("denominator bound must be positive")


def random_config(spec: GeneratorSpec, rng: Optional[Random] = None) -> Configuration:
    """A uniformly sampled asymmetric multiplicity-free configuration.

    Deterministic in the seed; raises :class:`GenerationExhausted` after the
    retry cap instead of looping forever on impossible constraints.
    """
    rng = rng or Random(f"gen:{spec.seed}")
    d = spec.denominator_bound
    for _ in range(spec.retry_cap):
        points = [Fraction(rng.randrange(d), d) for _ in range(spec.n)]
        if len(set(points)) != spec.n:
            continue
        gaps = gap_sequence(points)
        if _has_period(gaps):
            continue
        return Configuration.from_points(sorted(points))
    raise GenerationExhausted(
        f"no asymmetric configuration with n={spec.n}, denominator bound {d} "
        f"after {spec.retry_cap} attempts"
    )


def _has_period(gaps: Tuple[Fraction, ...]) -> bool:
    n = len(gaps)
    doubled = gaps + gaps
    return any(doubled[k : k + n] == gaps for k in range(1, n))


# ---------------------------------------------------------------------------
# Independent leader election: least cyclic rotation of the gap sequence


def brute_force_leader(config: Configuration) -> Fraction:
    """Leader position via the least cyclic rotation of the sorted gap list.

    Every rotation is compared naively on Fractions: deliberately a
    different algorithm from the linear-time integer election of the
    analysis layer.
    """
    positions = sorted(set(config.positions))
    if len(positions) != len(config.positions):
        raise SymmetricConfiguration("leader undefined with a multiplicity point")
    n = len(positions)
    gaps = [cw_angle(positions[i], positions[(i + 1) % n]) for i in range(n)]
    if _has_period(tuple(gaps)):
        raise SymmetricConfiguration("no unique leader in a symmetric configuration")
    doubled = gaps + gaps
    best = 0
    for k in range(1, n):
        if doubled[k : k + n] < doubled[best : best + n]:
            best = k
    return positions[best]


# ---------------------------------------------------------------------------
# Per-robot classification rebuilt from raw positions


@dataclass(frozen=True)
class RobotVerdict:
    pos: Fraction
    tag: str  # "sure-leader" | "confused-leader" | "follower"
    leads_c0: Optional[bool]
    leads_c1: Optional[bool]
    possibility: str  # "only-c0" | "only-c1" | "both"


def oracle_classify(positions: Sequence[Fraction], me: Fraction) -> RobotVerdict:
    """Classify one robot straight from the raw position multiset."""
    visible = [
        p for p in positions if p != me and cw_angle(me, p) != HALF_TURN
    ]
    c0 = sorted(visible + [me])
    c1 = sorted(c0 + [antipode(me)])
    sym0 = _has_period(gap_sequence(c0))
    sym1 = _has_period(gap_sequence(c1))
    leads0 = None if sym0 else _least_rotation_leader(c0) == me
    leads1 = None if sym1 else _least_rotation_leader(c1) == me
    if sym0 and sym1:
        raise SymmetricConfiguration("both hypotheses symmetric")
    if sym0:
        possibility, tag = "only-c1", ("sure-leader" if leads1 else "follower")
    elif sym1:
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


def _least_rotation_leader(positions: List[Fraction]) -> Fraction:
    n = len(positions)
    gaps = [cw_angle(positions[i], positions[(i + 1) % n]) for i in range(n)]
    doubled = gaps + gaps
    best = 0
    for k in range(1, n):
        if doubled[k : k + n] < doubled[best : best + n]:
            best = k
    return positions[best]


# ---------------------------------------------------------------------------
# Structural claims checked by direct enumeration


#: Names of the structural claims evaluated by :func:`check_propositions`.
CHECK_NAMES = (
    "no_left_prefix_rival",
    "insertion_keeps_leader_in_arc",
    "confused_leads_empty_hypothesis_only",
    "confused_true_leader_antipode_empty",
    "confused_non_leader_antipode_occupied",
    "other_expected_leader_half_turn_away",
    "expected_leader_cardinality",
    "confused_pair_not_antipodal",
    "confused_pair_neighbors_not_antipodal",
)


@dataclass
class CheckResult:
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"pass": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


def check_propositions(
    config: Configuration, probe_denominator_bound: int = 12
) -> Dict[str, CheckResult]:
    """Evaluate the nine structural claims on one configuration.

    Requires an asymmetric multiplicity-free input. Failures come back as
    results with witnesses; nothing raises for a false claim.
    """
    positions = sorted(config.positions)
    n = len(positions)
    occupied = set(positions)
    leader = brute_force_leader(config)
    verdicts = [oracle_classify(positions, p) for p in positions]
    by_pos = {v.pos: v for v in verdicts}
    expected = [v for v in verdicts if v.tag != "follower"]
    confused = [v for v in verdicts if v.tag == "confused-leader"]
    sure = [v for v in verdicts if v.tag == "sure-leader"]

    report: Dict[str, CheckResult] = {}

    # 1. No robot left of the leader matches the leader's sequence prefix up
    #    to the leader's own position.
    leader_seq = _sequence(positions, leader)
    bad = None
    for p in positions:
        if p == leader or cw_angle(leader, p) <= HALF_TURN:
            continue
        seq = _sequence(positions, p)
        hops = _cw_index(positions, p, leader)
        if tuple(seq[:hops]) == tuple(leader_seq[:hops]):
            bad = p
            break
    report["no_left_prefix_rival"] = CheckResult(
        bad is None, None if bad is None else f"rival at {format_angle(bad)}"
    )

    # 2. Inserting a robot at an empty point (creating no symmetry) can only
    #    move the leader into the clockwise interval [old leader, new robot].
    bad = None
    for probe in _probe_grid(probe_denominator_bound):
        if probe in occupied:
            continue
        new_positions = sorted(positions + [probe])
        if _has_period(gap_sequence(new_positions)):
            continue
        new_leader = _least_rotation_leader(new_positions)
        if cw_angle(leader, new_leader) > cw_angle(leader, probe):
            bad = (probe, new_leader)
            break
    report["insertion_keeps_leader_in_arc"] = CheckResult(
        bad is None,
        None
        if bad is None
        else f"probe {format_angle(bad[0])} elects {format_angle(bad[1])}",
    )

    # 3. A confused leader always leads its antipode-empty hypothesis and
    #    never the antipode-occupied one.
    bad = next(
        (v for v in confused if not (v.leads_c0 and not v.leads_c1)), None
    )
    report["confused_leads_empty_hypothesis_only"] = CheckResult(
        bad is None, None if bad is None else f"robot at {format_angle(bad.pos)}"
    )

    # 4. If the true leader is confused, its antipodal point is empty.
    bad = None
    lv = by_pos[leader]
    if lv.tag == "confused-leader" and antipode(leader) in occupied:
        bad = leader
    report["confused_true_leader_antipode_empty"] = CheckResult(
        bad is None, None if bad is None else f"leader at {format_angle(bad)}"
    )

    # 5. If a non-leader is confused, its antipodal point is occupied.
    bad = next(
        (
            v
            for v in confused
            if v.pos != leader and antipode(v.pos) not in occupied
        ),
        None,
    )
    report["confused_non_leader_antipode_occupied"] = CheckResult(
        bad is None, None if bad is None else f"robot at {format_angle(bad.pos)}"
    )

    # 6. Any expected leader other than the true leader sits at clockwise
    #    angle at least a half turn from it.
    bad = next(
        (
            v
            for v in expected
            if v.pos != leader and cw_angle(leader, v.pos) < HALF_TURN
        ),
        None,
    )
    report["other_expected_leader_half_turn_away"] = CheckResult(
        bad is None, None if bad is None else f"robot at {format_angle(bad.pos)}"
    )

    # 7. At most one sure leader (and it is the true leader), at most one
    #    confused leader besides the true leader, one or two expected leaders.
    ok = (
        len(expected) in (1, 2)
        and len(sure) <= 1
        and all(v.pos == leader for v in sure)
        and len([v for v in confused if v.pos != leader]) <= 1
    )
    report["expected_leader_cardinality"] = CheckResult(
        ok,
        None
        if ok
        else f"{len(sure)} sure / {len(confused)} confused "
        f"in {[format_angle(p) for p in positions]}",
    )

    # 8. Two confused leaders are never antipodal to each other.
    bad = None
    if len(confused) == 2 and confused[0].pos == antipode(confused[1].pos):
        bad = confused
    report["confused_pair_not_antipodal"] = CheckResult(bad is None)

    # 9. Two confused leaders' first clockwise neighbors are never antipodal
    #    to each other.
    bad = None
    if len(confused) == 2:
        nb0 = _first_cw_neighbor(positions, confused[0].pos)
        nb1 = _first_cw_neighbor(positions, confused[1].pos)
        if nb0 == antipode(nb1):
            bad = (nb0, nb1)
    report["confused_pair_neighbors_not_antipodal"] = CheckResult(
        bad is None,
        None
        if bad is None
        else f"neighbors {format_angle(bad[0])}, {format_angle(bad[1])}",
    )

    return report


def _sequence(positions: Sequence[Fraction], r: Fraction) -> List[Fraction]:
    ordered = [r] + sorted((p for p in positions if p != r), key=lambda p: cw_angle(r, p))
    n = len(ordered)
    return [cw_angle(ordered[i], ordered[(i + 1) % n]) for i in range(n)]


def _cw_index(positions: Sequence[Fraction], start: Fraction, target: Fraction) -> int:
    """1-based clockwise hop count from ``start`` to ``target``."""
    ordered = sorted((p for p in positions if p != start), key=lambda p: cw_angle(start, p))
    return ordered.index(target) + 1


def _first_cw_neighbor(positions: Sequence[Fraction], r: Fraction) -> Fraction:
    return min((p for p in positions if p != r), key=lambda p: cw_angle(r, p))


def _probe_grid(denominator_bound: int) -> List[Fraction]:
    grid = sorted(
        {
            Fraction(k, d)
            for d in range(1, denominator_bound + 1)
            for k in range(d)
        }
    )
    return grid


# ---------------------------------------------------------------------------
# Randomized class search


def search_class(
    target: ConfigurationClass,
    spec: GeneratorSpec,
    budget: int,
    predicate=None,
) -> Optional[Configuration]:
    """First generated configuration of the requested taxonomy class.

    ``predicate`` may refine the match (e.g. require a sure leader). Returns
    None when the budget runs out.
    """
    rng = Random(f"search:{spec.seed}")
    for _ in range(budget):
        try:
            config = random_config(spec, rng)
        except GenerationExhausted:
            return None
        if configuration_class(config) is not target:
            continue
        if predicate is not None and not predicate(config):
            continue
        return config
    return None


def shrink_config(config: Configuration, predicate) -> Configuration:
    """Greedy witness shrinking: drop robots, then reduce denominators.

    ``predicate`` must hold on the input and is preserved throughout.
    """
    current = config
    changed = True
    while changed:
        changed = False
        if len(current.robots) > 2:
            for i in range(len(current.robots)):
                smaller = Configuration.from_points(
                    [r.pos for j, r in enumerate(current.robots) if j != i]
                )
                if _safe_predicate(predicate, smaller):
                    current = smaller
                    changed = True
                    break
        if changed:
            continue
        for i, robot in enumerate(current.robots):
            pos = robot.pos
            for d in range(1, pos.denominator):
                candidate_pos = Fraction(round(pos * d), d) % 1
                pts = [
                    candidate_pos if j == i else r.pos
                    for j, r in enumerate(current.robots)
                ]
                smaller = Configuration.from_points(pts)
                if _safe_predicate(predicate, smaller):
                    current = smaller
                    changed = True
                    break
            if changed:
                break
    return current


def _safe_predicate(predicate, config: Configuration) -> bool:
    try:
        return bool(predicate(config))
    except Exception:
        return False
