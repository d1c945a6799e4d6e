import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from circlegather.analysis import ConfigurationClass, classify, configuration_class
from circlegather.configuration import (
    Configuration,
    gap_sequence,
    take_snapshot,
    true_leader,
)
from circlegather.errors import GenerationExhausted, SymmetricConfiguration
from circlegather.oracle import (
    CHECK_NAMES,
    RETRY_CAP,
    GeneratorSpec,
    brute_force_leader,
    check_propositions,
    oracle_classify,
    random_config,
    search_class,
    shrink_config,
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


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_brute_force_leader_matches_sequence_election(name):
    cfg = load_fixture(name)
    assert brute_force_leader(cfg) == true_leader(cfg)


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
    assert sorted(report) == sorted(CHECK_NAMES)
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


def test_search_class_honors_predicate_and_budget():
    spec = GeneratorSpec(n=5, denominator_bound=40, seed=11)
    assert search_class(ConfigurationClass.A, spec, 200, lambda c: False) is None
    found = search_class(
        ConfigurationClass.A, spec, 5000, lambda c: len(c.robots) == 5
    )
    assert found is not None and len(found.robots) == 5


def test_shrink_config_reduces_while_preserving_predicate():
    cfg = load_fixture("class_C")
    pred = lambda c: configuration_class(c) is ConfigurationClass.C
    small = shrink_config(cfg, pred)
    assert pred(small)
    assert len(small.robots) <= len(cfg.robots)
    assert sum(p.denominator for p in small.positions) <= sum(
        p.denominator for p in cfg.positions
    )


def test_shrink_config_propagates_a_predicate_bug():
    # Only symmetric or multiplicity candidates count as a failed predicate.
    with pytest.raises(AttributeError):
        shrink_config(load_fixture("class_C"), lambda c: c.robotz)


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
    monkeypatch.setattr(oracle, "brute_force_leader", lambda config: F(wrong))
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

    assert not {"lattice", "least_rotation", "has_period"} & set(vars(oracle))
