"""The three seeded workloads: their inputs, their operation and its check.

Every input is generated during set-up from the benchmark seed, with one
``random.Random`` per workload, so a seed always gives the same inputs. An
operation calls the public API of ``circlegather`` through module
attributes (``oracle.check_propositions``, ``sim.run``), so the tracer's
wrappers see the calls. Each operation returns its serialised output, the
number of records in it, the trace records to count branches on, and the
reason it failed its check (``None`` when it passed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Callable, List, Tuple

from circlegather import analysis, angles, configuration, errors, oracle, sim
from circlegather.angles import HALF_TURN

#: The run limit of the acceptance suite; no workload run comes near it.
EVENT_LIMIT = 100_000

#: Merge-phase walk threshold of the acceptance runs (see tests/test_acceptance.py).
RUN_OPTIONS = sim.RunOptions(multiplicity_threshold=HALF_TURN)


@dataclass(frozen=True)
class Sizes:
    """How much input one workload gets.

    The corpus is ``corpus`` ops: whole cycles of the size list ``ns`` (and,
    in ``gather``, of the schedulers), so every seed gets the
    same mix of sizes. Every pass of a run goes over the whole corpus.
    """

    ns: Tuple[int, ...]
    corpus: int


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    smoke_sizes: Sizes
    generate: Callable[[Sizes, Random], list]
    op: Callable


# ---------------------------------------------------------------------------
# sweep: the criterion-1 body plus the taxonomy step


def _sweep_inputs(sizes: Sizes, rng: Random) -> list:
    ns = sizes.ns
    return [
        oracle.random_config(oracle.GeneratorSpec(ns[i % len(ns)], 120, 0), rng)
        for i in range(sizes.corpus)
    ]


def _sweep_op(config):
    checks = oracle.check_propositions(config)
    bf_leader = oracle.brute_force_leader(config)
    leader = configuration.true_leader(config)
    positions = config.positions
    verdicts = [oracle.oracle_classify(positions, p) for p in positions]
    cls = analysis.configuration_class(config)
    lines = [
        {"kind": "check", "name": name, **result.to_json()} for name, result in checks.items()
    ]
    lines += [
        {"kind": "verdict", "pos": angles.format_angle(v.pos), "tag": v.tag,
         "possibility": v.possibility}
        for v in verdicts
    ]
    lines.append(
        {"kind": "class", "class": cls.value, "leader": angles.format_angle(leader),
         "oracle_leader": angles.format_angle(bf_leader)}
    )
    data = _jsonl(lines)
    failure = None
    failed_checks = [name for name, result in checks.items() if not result.passed]
    if failed_checks:
        failure = f"propositions failed: {failed_checks}"
    elif bf_leader != leader:
        failure = "oracle and analysis elect different leaders"
    elif not isinstance(cls, analysis.ConfigurationClass):
        failure = f"no configuration class: {cls!r}"
    return data, len(lines), (), failure


def _jsonl(lines) -> bytes:
    return "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n" for line in lines
    ).encode()


# ---------------------------------------------------------------------------
# gather and crowd: simulated runs, each serialised to JSONL


def _policy(spec):
    """The scheduler of a run. ``AsyncRandomPolicy`` is left out: under it the
    package breaks its own bound of two simultaneous multiplicity points (see
    "Known failure" in bench/README.md), and a benchmark op must not fail."""
    kind, seed = spec
    if kind == "fsync":
        return sim.FsyncPolicy()
    return sim.SsyncPolicy(seed=seed)


def _run_op(item):
    config, policy_spec = item
    try:
        trace = sim.run(config, _policy(policy_spec), sim.RunLimits(max_events=EVENT_LIMIT),
                        RUN_OPTIONS)
        failure = None
    except errors.LimitExceeded as exc:
        trace = exc.trace
        failure = "limit exceeded"
    data = trace.to_jsonl().encode()
    summary = trace.summary
    if failure is None and not summary["gathered"]:
        failure = "not gathered"
    if failure is None and summary["max_simultaneous_multiplicities"] > 2:
        failure = (
            f"{summary['max_simultaneous_multiplicities']} simultaneous multiplicity points"
        )
    return data, len(trace.records), trace.records, failure


def _gather_inputs(sizes: Sizes, rng: Random) -> list:
    """Config-major: each config runs under fsync and four ssync seeds."""
    ns = sizes.ns
    items = []
    for j in range(sizes.corpus // 5):
        config = oracle.random_config(oracle.GeneratorSpec(ns[j % len(ns)], 60, 0), rng)
        s = rng.randrange(1 << 30)
        items.append((config, ("fsync", 0)))
        items += [(config, ("ssync", 4 * s + k)) for k in range(4)]
    return items


def _crowd_inputs(sizes: Sizes, rng: Random) -> list:
    """n cycles through ``sizes.ns``; every run is fsync. The cost of an ssync
    run at these sizes varies about twofold from one config to the next, which
    made ``ops_per_s`` spread by 0.08 from seed to seed; gather covers ssync."""
    ns = sizes.ns
    return [
        (oracle.random_config(oracle.GeneratorSpec(n, 8 * n, 0), rng), ("fsync", 0))
        for n in (ns[i % len(ns)] for i in range(sizes.corpus))
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-1 body plus taxonomy: oracle, angles, configuration and the
        # cold analysis path; sim and protocol do no work.
        Workload(
            "sweep",
            Sizes(ns=tuple(range(3, 11)), corpus=120),
            Sizes(ns=(3, 4, 5, 6), corpus=4),
            _sweep_inputs,
            _sweep_op,
        ),
        # Criterion-3 batch at small n: run-loop bookkeeping, decide, the warm
        # classify cache and serialisation.
        Workload(
            "gather",
            Sizes(ns=tuple(range(3, 11)), corpus=240),
            Sizes(ns=(3, 4), corpus=10),
            _gather_inputs,
            _run_op,
        ),
        # Large n: per-event world scans and leader election over many robots,
        # on a mostly cold cache.
        Workload(
            "crowd",
            Sizes(ns=(16, 24, 32), corpus=30),
            Sizes(ns=(5, 6), corpus=4),
            _crowd_inputs,
            _run_op,
        ),
    )
}


def make_corpus(workload: Workload, seed: int, smoke: bool) -> List:
    """The seeded inputs of one run."""
    sizes = workload.smoke_sizes if smoke else workload.sizes
    rng = Random(f"bench:{workload.name}:{seed}")
    return workload.generate(sizes, rng)


def count_branches(records) -> Tuple[dict, int, int]:
    """(transition counts, countermoves, decides) read from trace records.

    A transition is a decide record whose state changes; a countermove is a
    step into ``terminate`` that walks counter-clockwise back to the start.
    """
    transitions = {}
    countermoves = 0
    decides = 0
    for rec in records:
        if rec.kind != "decide":
            continue
        decides += 1
        before, after = rec.payload["state_before"], rec.payload["state_after"]
        if before != after:
            key = f"{before}-{after}"
            transitions[key] = transitions.get(key, 0) + 1
        if after == "terminate" and before != "terminate" and (
            rec.payload["move"]["direction"] == "counterclockwise"
        ):
            countermoves += 1
    return transitions, countermoves, decides

