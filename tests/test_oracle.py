import json
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from circlegather.analysis import ConfigurationClass, classify, configuration_class
from circlegather.angles import HALF_TURN, cw_angle, format_angle
from circlegather.configuration import (
    Configuration,
    elect,
    gap_sequence,
    take_snapshot,
    true_leader,
)
from circlegather.errors import (
    CircleGatherError,
    GenerationExhausted,
    MultiplicityPresent,
    SymmetricConfiguration,
)
from circlegather.oracle import (
    RETRY_CAP,
    GeneratorSpec,
    RobotVerdict,
    brute_force_leader,
    check_propositions,
    oracle_classify,
    random_config,
    search_class,
)

FIXTURES = Path(__file__).parent / "fixtures"

ALL_FIXTURES = [p.stem for p in sorted(FIXTURES.glob("*.json"))]


def F(s):
    return Fraction(s)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return Configuration.from_json(json.load(fh))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=1, denominator_bound=10, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, denominator_bound=0, seed=0)


def test_random_config_is_seed_deterministic():
    spec = GeneratorSpec(n=5, denominator_bound=60, seed=42)
    a = random_config(spec)
    b = random_config(spec)
    assert a == b
    assert a != random_config(GeneratorSpec(n=5, denominator_bound=60, seed=43))


def test_random_config_respects_constraints():
    spec = GeneratorSpec(n=6, denominator_bound=40, seed=7)
    cfg = random_config(spec)
    assert len(set(cfg.positions)) == 6
    assert all(p.denominator <= 40 for p in cfg.positions)
    true_leader(cfg)  # asymmetric, so this must not raise


class CountingRandom(Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_generation_gives_up_on_impossible_constraints():
    # Two distinct points on the lattice of halves are always antipodal.
    rng = CountingRandom(0)
    with pytest.raises(GenerationExhausted) as exc:
        random_config(GeneratorSpec(n=2, denominator_bound=2, seed=0), rng)
    assert rng.draws == 2 * RETRY_CAP
    assert str(exc.value).endswith(f"after {RETRY_CAP} attempts")


@pytest.mark.parametrize("n, d", [(3, 2), (100_000, 60)])
def test_generation_gives_up_at_once_when_robots_outnumber_lattice_points(n, d):
    rng = CountingRandom(0)
    state = rng.getstate()
    with pytest.raises(GenerationExhausted):
        random_config(GeneratorSpec(n=n, denominator_bound=d, seed=0), rng)
    assert rng.draws == 0 and rng.getstate() == state


def test_brute_force_leader_on_worked_example():
    assert brute_force_leader(load_fixture("worked_example")) == 0


def test_brute_force_leader_rejects_symmetry():
    with pytest.raises(SymmetricConfiguration):
        brute_force_leader(Configuration.from_points([F(0), F("1/4"), F("1/2"), F("3/4")]))


def test_both_elections_reject_a_multiplicity_alike():
    cfg = Configuration.from_points([F(0), F("1/5"), F("1/5"), F("3/5")])
    with pytest.raises(MultiplicityPresent):
        true_leader(cfg)
    with pytest.raises(MultiplicityPresent):
        brute_force_leader(cfg)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_brute_force_leader_matches_sequence_election(name):
    cfg = load_fixture(name)
    assert brute_force_leader(cfg) == true_leader(cfg)


def test_check_scales_and_splits_the_configuration_once(monkeypatch):
    import circlegather.oracle as oracle

    config = random_config(GeneratorSpec(6, 60, 1))
    calls = []
    for name in ("_scale", "_gaps"):
        def counted(*args, helper=getattr(oracle, name), name=name):
            calls.append(name)
            return helper(*args)

        monkeypatch.setattr(oracle, name, counted)
    report, leader, verdicts = oracle._check(config)
    # One gap list for the configuration and one for each robot's C0; each
    # C1 and probe set is spliced from one of those.
    assert sorted(calls) == ["_gaps"] * 7 + ["_scale"]
    assert len(verdicts) == 6


def test_leader_oracles_agree_on_random_corpus():
    for i in range(300):
        cfg = random_config(GeneratorSpec(n=3 + i % 8, denominator_bound=60, seed=i))
        assert brute_force_leader(cfg) == true_leader(cfg)


def test_oracle_classify_agrees_with_snapshot_classifier():
    for i in range(150):
        cfg = random_config(GeneratorSpec(n=3 + i % 6, denominator_bound=48, seed=900 + i))
        for r in cfg.robots:
            verdict = oracle_classify(cfg.positions, r.pos)
            lc = classify(take_snapshot(cfg, r.robot_id))
            assert verdict.tag == lc.tag.value
            assert verdict.possibility == lc.possibility.value


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_propositions_hold_on_fixtures(name):
    report = check_propositions(load_fixture(name))
    assert sorted(report) == sorted(check_propositions(load_fixture("worked_example")))
    assert len(report) == 9
    failed = {k: v.witness for k, v in report.items() if not v.passed}
    assert not failed


def test_check_results_serialize():
    report = check_propositions(load_fixture("worked_example"))
    for result in report.values():
        json.dumps(result.to_json())


def test_search_class_finds_each_class():
    for target in ConfigurationClass:
        spec = GeneratorSpec(n=5, denominator_bound=40, seed=11)
        found = search_class(target, spec, 5000)
        assert found is not None, target
        assert configuration_class(found) is target


def test_search_class_returns_none_when_the_budget_runs_out():
    spec = GeneratorSpec(n=5, denominator_bound=40, seed=11)
    assert search_class(ConfigurationClass.A, spec, 0) is None
    # No asymmetric set of 7 robots fits on 6 lattice points: generation is exhausted.
    spec = GeneratorSpec(n=7, denominator_bound=6, seed=0)
    assert search_class(ConfigurationClass.A, spec, 5) is None


# Failure paths: a wrong leader must make the prefix and insertion checks fail.
WRONG_LEADER_CASES = [
    (["0", "1/5", "2/5", "7/10"], "1/5", "no_left_prefix_rival", "rival at 0/1"),
    (["2/5", "1/2", "7/10", "9/10"], "1/2", "insertion_keeps_leader_in_arc",
     "probe 0/1 elects 2/5"),
]


@pytest.mark.parametrize(
    "points, wrong, check, witness", WRONG_LEADER_CASES, ids=[c[2] for c in WRONG_LEADER_CASES]
)
def test_checks_fail_with_a_witness_under_a_wrong_leader(
    points, wrong, check, witness, monkeypatch
):
    import circlegather.oracle as oracle

    cfg = Configuration.from_points([F(p) for p in points])
    assert brute_force_leader(cfg) != F(wrong)
    wrong_at = sorted(cfg.positions).index(F(wrong))
    monkeypatch.setattr(oracle, "_elect", lambda gaps: wrong_at)
    result = check_propositions(cfg)[check]
    assert not result.passed
    assert result.witness == witness


@given(st.data())
def test_insert_splices_the_gap_list_of_the_larger_set(data):
    import circlegather.oracle as oracle

    d = data.draw(st.sampled_from((7, 12, 120)))
    ks = data.draw(
        st.lists(st.integers(0, d - 1), min_size=2, max_size=min(13, d), unique=True)
    )
    points = sorted(F(k) / d for k in ks)
    # Below the first and above the last point are the two wrap cases.
    j = data.draw(st.sampled_from((0, -1)) | st.integers(0, len(points) - 1))
    p = points.pop(j)
    grown = sorted(points + [p])
    assert oracle._insert(points, gap_sequence(points), p) == (grown, gap_sequence(grown))


def test_oracle_stays_independent_of_the_lattice_election():
    import circlegather.oracle as oracle

    banned = {"lattice", "least_rotation", "has_period", "LatticeView", "elect"}
    assert not banned & set(vars(oracle))


# ---------------------------------------------------------------------------
# Fraction references: the oracle as it was before it computed on lattice
# ints. Each point set's gap list comes from ``gap_sequence``, never spliced.


def antipode(a):
    """The point diametrically opposite ``a``; an involution."""
    return (Fraction(a) + HALF_TURN) % 1


def test_antipode():
    assert antipode(Fraction(1, 10)) == Fraction(6, 10)
    assert antipode(Fraction(3, 4)) == Fraction(1, 4)


@given(st.fractions(min_value=0, max_value=1, max_denominator=64).filter(lambda a: a < 1))
def test_antipode_involution(a):
    assert antipode(antipode(a)) == a
    assert cw_angle(a, antipode(a)) == HALF_TURN


def ref_has_period(gaps):
    n = len(gaps)
    doubled = gaps + gaps
    return any(doubled[k : k + n] == gaps for k in range(1, n))


def ref_least_rotation(gaps):
    n = len(gaps)
    doubled = gaps + gaps
    best = 0
    for k in range(1, n):
        if doubled[k : k + n] < doubled[best : best + n]:
            best = k
    return best


def ref_random_config(spec, rng=None):
    d = spec.denominator_bound
    if spec.n > d:
        raise GenerationExhausted(
            f"no configuration of n={spec.n} distinct points with denominator bound {d}"
        )
    rng = rng or Random(f"gen:{spec.seed}")
    for _ in range(RETRY_CAP):
        points = [Fraction(rng.randrange(d), d) for _ in range(spec.n)]
        if len(set(points)) != spec.n or ref_has_period(gap_sequence(points)):
            continue
        return Configuration.from_points(sorted(points))
    raise GenerationExhausted(
        f"no asymmetric configuration with n={spec.n}, denominator bound {d} "
        f"after {RETRY_CAP} attempts"
    )


def ref_brute_force_leader(config):
    positions = sorted(set(config.positions))
    if len(positions) != len(config.positions):
        raise SymmetricConfiguration("leader undefined with a multiplicity point")
    gaps = gap_sequence(positions)
    if ref_has_period(gaps):
        raise SymmetricConfiguration("no unique leader in a symmetric configuration")
    return positions[ref_least_rotation(gaps)]


def ref_oracle_classify(positions, me):
    far = antipode(me)
    c0 = sorted([p for p in positions if p != me and p != far] + [me])
    c1 = sorted(c0 + [far])
    gaps0, gaps1 = gap_sequence(c0), gap_sequence(c1)
    sym0, sym1 = ref_has_period(gaps0), ref_has_period(gaps1)
    leads0 = None if sym0 else c0[ref_least_rotation(gaps0)] == me
    leads1 = None if sym1 else c1[ref_least_rotation(gaps1)] == me
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


REF_PROBES = tuple(sorted({Fraction(k, d) for d in range(1, 13) for k in range(d)}))


def ref_check(config, leader):
    """(report as JSON, leader, verdicts) of the nine claims under ``leader``."""
    positions = sorted(config.positions)
    n = len(positions)
    occupied = set(positions)
    lead_at = positions.index(leader)
    gaps = gap_sequence(positions)
    doubled = gaps * 2
    verdicts = [ref_oracle_classify(positions, p) for p in positions]
    expected = [v for v in verdicts if v.tag != "follower"]
    confused = [v for v in verdicts if v.tag == "confused-leader"]
    sure = [v for v in verdicts if v.tag == "sure-leader"]
    report = {}

    def put(name, bad, witness=None):
        report[name] = {"pass": bad is None}
        if bad is not None and witness:
            report[name]["witness"] = witness

    bad = None
    for i, p in enumerate(positions):
        if p == leader or cw_angle(leader, p) <= HALF_TURN:
            continue
        hops = (lead_at - i) % n
        if doubled[i : i + hops] == doubled[lead_at : lead_at + hops]:
            bad = p
            break
    put("no_left_prefix_rival", bad, bad is not None and f"rival at {format_angle(bad)}")

    bad = None
    for probe in REF_PROBES:
        if probe in occupied:
            continue
        new_positions = sorted(positions + [probe])
        new_gaps = gap_sequence(new_positions)
        if ref_has_period(new_gaps):
            continue
        new_leader = new_positions[ref_least_rotation(new_gaps)]
        if cw_angle(leader, new_leader) > cw_angle(leader, probe):
            bad = (probe, new_leader)
            break
    put("insertion_keeps_leader_in_arc", bad,
        bad and f"probe {format_angle(bad[0])} elects {format_angle(bad[1])}")

    bad = next((v for v in confused if not (v.leads_c0 and not v.leads_c1)), None)
    put("confused_leads_empty_hypothesis_only", bad, bad and f"robot at {format_angle(bad.pos)}")

    lv = verdicts[lead_at]
    bad = leader if lv.tag == "confused-leader" and antipode(leader) in occupied else None
    put("confused_true_leader_antipode_empty", bad,
        bad is not None and f"leader at {format_angle(bad)}")

    bad = next(
        (v for v in confused if v.pos != leader and antipode(v.pos) not in occupied), None
    )
    put("confused_non_leader_antipode_occupied", bad, bad and f"robot at {format_angle(bad.pos)}")

    bad = next(
        (v for v in expected if v.pos != leader and cw_angle(leader, v.pos) < HALF_TURN), None
    )
    put("other_expected_leader_half_turn_away", bad, bad and f"robot at {format_angle(bad.pos)}")

    ok = (
        len(expected) in (1, 2)
        and len(sure) <= 1
        and all(v.pos == leader for v in sure)
        and len([v for v in confused if v.pos != leader]) <= 1
    )
    put("expected_leader_cardinality", None if ok else positions,
        f"{len(sure)} sure / {len(confused)} confused "
        f"in {[format_angle(p) for p in positions]}")

    bad = None
    if len(confused) == 2 and confused[0].pos == antipode(confused[1].pos):
        bad = confused
    put("confused_pair_not_antipodal", bad)

    bad = None
    if len(confused) == 2:
        nb0 = positions[(positions.index(confused[0].pos) + 1) % n]
        nb1 = positions[(positions.index(confused[1].pos) + 1) % n]
        if nb0 == antipode(nb1):
            bad = (nb0, nb1)
    put("confused_pair_neighbors_not_antipodal", bad,
        bad and f"neighbors {format_angle(bad[0])}, {format_angle(bad[1])}")
    return report, leader, verdicts


def test_random_config_draws_like_the_fraction_reference():
    for seed in range(300):
        for d in (7, 60, 120):
            spec = GeneratorSpec(n=3 + seed % 8, denominator_bound=d, seed=seed)
            try:
                expected = ref_random_config(spec)
            except GenerationExhausted as exc:
                with pytest.raises(GenerationExhausted, match=str(exc)):
                    random_config(spec)
            else:
                assert random_config(spec) == expected


#: Denominators that divide the probe lattice lcm(1..12) = 27720, ones coprime
#: to it, and any up to a million.
DENOMINATORS = (
    st.sampled_from((1, 2, 8, 12, 120, 27720))
    | st.sampled_from((13, 101, 7 * 11 * 13 * 101))
    | st.integers(1, 10**6)
)
POINTS = DENOMINATORS.flatmap(lambda d: st.integers(0, d - 1).map(lambda k: Fraction(k, d)))


def points(*texts):
    return [F(t) for t in texts]


@settings(deadline=None)
@given(st.lists(POINTS, min_size=2, max_size=8, unique=True), st.integers(0, 7))
# The first failing probe lies below the first point, above the last, between two.
@example(points("3/10", "1/2", "4/5"), 1)
@example(points("1/10", "1/5", "3/5"), 2)
@example(points("0", "1/5", "4/5"), 0)
# Robot 0's C0 is the symmetric triangle, so its verdict is only-c1.
@example(points("0", "1/3", "1/2", "2/3"), 0)
def test_int_oracle_matches_the_fraction_reference(positions, pick):
    import circlegather.oracle as oracle

    config = Configuration.from_points(sorted(positions))
    try:
        leader = ref_brute_force_leader(config)
    except SymmetricConfiguration:
        with pytest.raises(SymmetricConfiguration):
            brute_force_leader(config)
        return
    assert brute_force_leader(config) == leader
    for me in config.positions:
        try:
            expected = ref_oracle_classify(config.positions, me)
        except CircleGatherError as exc:
            with pytest.raises(type(exc)):
                oracle_classify(config.positions, me)
        else:
            assert oracle_classify(config.positions, me) == expected
    # Under a wrong leader the claims fail, so their witnesses are compared too.
    for lead in {leader, config.positions[pick % len(config.positions)]}:
        lead_at = sorted(config.positions).index(lead)
        with mock.patch.object(oracle, "_elect", lambda gaps: lead_at):
            report, got, verdicts = oracle._check(config)
        assert ({k: v.to_json() for k, v in report.items()}, got, verdicts) == ref_check(
            config, lead
        )


@given(st.lists(st.integers(1, 3), min_size=1, max_size=12), st.integers(1, 10**6))
def test_int_rotation_and_period_match_the_fraction_reference(ints, d):
    import circlegather.oracle as oracle

    f = tuple(Fraction(k, d) for k in ints)
    expected = None if ref_has_period(f) else ref_least_rotation(f)
    assert oracle._least_rotation(tuple(ints)) == expected


class WatchedGaps(tuple):
    """A gap tuple that records whether the rotation scan doubled it."""

    scanned = False

    def __add__(self, other):
        self.scanned = True
        return tuple(self) + tuple(other)


def test_least_rotation_matches_the_reference_on_every_small_gap_tuple():
    """Every gap tuple over {1, 2, 3} of length 1..8: a unique least gap
    takes the shortcut, a repeated one the scan, and a periodic one is None."""
    import circlegather.oracle as oracle

    tuples = [WatchedGaps(g) for n in range(1, 9) for g in product((1, 2, 3), repeat=n)]
    shortcut = periodic = 0
    for gaps in tuples:
        plain = tuple(gaps)
        expected = None if ref_has_period(plain) else ref_least_rotation(plain)
        assert oracle._least_rotation(gaps) == expected, gaps
        unique = gaps.count(min(gaps)) == 1
        assert gaps.scanned is not unique, gaps
        shortcut += unique
        periodic += expected is None
    assert (len(tuples), shortcut, periodic) == (9840, 1830, 135)


def test_oracle_and_lattice_elections_agree_on_every_small_lattice_set():
    """Every nonempty point set of the 1/d lattice, d <= 12: the oracle's
    naive election and the Lyndon one give the same leader or both None."""
    import circlegather.oracle as oracle

    symmetric = {}
    for d in range(1, 13):
        symmetric[d] = 0
        for mask in range(1, 2**d):
            ticks = [t for t in range(d) if mask >> t & 1]
            lead = elect(ticks, d)
            assert oracle._least_rotation(oracle._gaps(ticks, d)) == lead, (ticks, d)
            symmetric[d] += lead is None
    assert symmetric[12] == 75
