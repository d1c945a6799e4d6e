"""Operator entry point: analyze configurations, run simulations, verify.

Exit codes are fixed for scriptability: 0 success, 1 parse error (any
malformed document or field), 2 illegal input (symmetric or
multiplicity-bearing configuration, or a schedule that cannot be replayed),
3 limit exceeded or target not reached. All output is deterministic given
the flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .analysis import ConfigurationClass
from .angles import HALF_TURN, QUARTER_TURN
from .configuration import Configuration
from .errors import (
    LimitExceeded,
    MultiplicityPresent,
    ParseError,
    ScheduleError,
    SymmetricConfiguration,
)
from .oracle import (
    GeneratorSpec,
    brute_force_leader,
    check_propositions,
    random_config,
    search_class,
)
from .render import RenderSpec, render_svg
from .sim import (
    AsyncRandomPolicy,
    FsyncPolicy,
    RunLimits,
    RunOptions,
    ScriptedPolicy,
    SsyncPolicy,
    Trace,
    parse_time,
    run,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ILLEGAL = 2
EXIT_LIMIT = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SymmetricConfiguration, MultiplicityPresent) as exc:
        print(f"illegal configuration: {exc}", file=sys.stderr)
        return EXIT_ILLEGAL
    except ScheduleError as exc:
        print(f"bad schedule: {exc}", file=sys.stderr)
        return EXIT_ILLEGAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gather-sim",
        description="Simulator and verifier for circle gathering with limited visibility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a configuration file")
    p.add_argument("config", help="configuration JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="simulate a run configuration")
    p.add_argument("run_config", help="run configuration JSON file")
    p.add_argument("--trace", help="write the JSONL trace here")
    p.add_argument("--render", help="write a static SVG rendering here")
    p.add_argument("--frame-stride", type=int, default=1)
    p.add_argument("--image-size", type=int, default=220)
    p.add_argument("--show-labels", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the verification sweep")
    p.add_argument("--n", default="3..8", help="robot count range, e.g. 3..8")
    p.add_argument("--count", type=int, default=500, help="configurations per sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator-bound", type=int, default=60)
    p.add_argument("--search-budget", type=int, default=20000)
    p.add_argument("--sim-count", type=int, default=20, help="random initial configs to simulate")
    p.add_argument("--max-events", type=int, default=100000)
    p.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}")


def cmd_analyze(args) -> int:
    config = Configuration.from_json(_load_json(args.config))
    from .analysis import analysis_report

    report = analysis_report(config)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    return obj


def _int(obj: dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"{key!r} must be an integer, got {value!r}")


def _event_from_json(obj):
    obj = _object(obj, "each scripted event")
    try:
        robot, look, decide = obj["robot"], obj["look"], obj["decide"]
    except KeyError:
        raise ParseError("each scripted event needs 'robot', 'look' and 'decide' fields")
    if not isinstance(robot, str):
        raise ParseError("scripted event 'robot' must be a string")
    return robot, parse_time(look), parse_time(decide)


def _policy_from_json(obj):
    obj = _object(obj, "'policy'")
    kind = obj.get("kind")
    try:
        if kind == "fsync":
            return FsyncPolicy()
        if kind == "ssync":
            return SsyncPolicy(
                seed=_int(obj, "seed", 0),
                max_skips=_int(obj, "fairness_window", 3),
            )
        if kind == "async-random":
            return AsyncRandomPolicy(
                seed=_int(obj, "seed", 0),
                delay_denominator_bound=_int(obj, "delay_denominator_bound", 8),
            )
    except ValueError as exc:
        raise ParseError(f"bad {kind} policy: {exc}")
    if kind == "scripted":
        events = obj.get("events", [])
        if not isinstance(events, list):
            raise ParseError("scripted policy 'events' must be a list")
        return ScriptedPolicy([_event_from_json(e) for e in events])
    raise ParseError(f"unknown policy kind {kind!r}")


def _options_from_json(obj) -> RunOptions:
    obj = _object(obj, "'options'")
    options = RunOptions()
    threshold = obj.get("multiplicity_threshold", "pi/2")
    if threshold == "pi/2":
        options.multiplicity_threshold = QUARTER_TURN
    elif threshold == "pi":
        options.multiplicity_threshold = HALF_TURN
    else:
        raise ParseError("multiplicity_threshold must be 'pi/2' or 'pi'")
    options.strict_transient_multiplicity = bool(
        obj.get("strict_transient_multiplicity", False)
    )
    return options


def load_run_config(obj):
    """(initial, policy, limits, options) from a run configuration document.

    Any malformed field is a :class:`ParseError`.
    """
    try:
        initial = Configuration.from_json(obj["initial"])
    except (TypeError, KeyError):
        raise ParseError("run configuration needs an 'initial' configuration")
    policy = _policy_from_json(obj.get("policy", {"kind": "fsync"}))
    lim = _object(obj.get("limits", {}), "'limits'")
    limits = RunLimits(max_events=_int(lim, "max_events", 100000))
    if "max_time" in lim:
        limits.max_time = parse_time(lim["max_time"])
    options = _options_from_json(obj.get("options", {}))
    return initial, policy, limits, options


def cmd_run(args) -> int:
    initial, policy, limits, options = load_run_config(_load_json(args.run_config))
    trace: Optional[Trace] = None
    exit_code = EXIT_OK
    try:
        trace = run(initial, policy, limits, options)
        if not trace.summary["gathered"]:
            exit_code = EXIT_LIMIT
    except LimitExceeded as exc:
        trace = exc.trace
        exit_code = EXIT_LIMIT
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    if args.render:
        spec = RenderSpec(
            args.render,
            frame_stride=args.frame_stride,
            image_size=args.image_size,
            show_labels=args.show_labels,
        )
        with open(args.render, "w", encoding="utf-8") as fh:
            fh.write(render_svg(trace, spec))
    print(
        json.dumps(
            {k: trace.summary[k] for k in sorted(trace.summary) if k not in ("initial", "final")},
            sort_keys=True,
        )
    )
    return exit_code


# ---------------------------------------------------------------------------


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


def cmd_verify(args) -> int:
    report = verify_sweep(
        n_range=_parse_range(args.n),
        count=args.count,
        seed=args.seed,
        denominator_bound=args.denominator_bound,
        search_budget=args.search_budget,
        sim_count=args.sim_count,
        max_events=args.max_events,
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if report["ok"] else EXIT_LIMIT


def verify_sweep(
    n_range,
    count: int,
    seed: int,
    denominator_bound: int,
    search_budget: int = 20000,
    sim_count: int = 20,
    max_events: int = 100000,
) -> dict:
    """Proposition sweep + taxonomy search + batch simulations, as one report."""
    from random import Random

    proposition_failures = []
    leader_mismatches = 0
    checked = 0
    ns = list(n_range)
    rng = Random(f"verify:{seed}")
    for i in range(count):
        n = ns[i % len(ns)]
        spec = GeneratorSpec(n=n, denominator_bound=denominator_bound, seed=seed + i)
        config = random_config(spec, rng)
        checked += 1
        from .configuration import true_leader

        if brute_force_leader(config) != true_leader(config):
            leader_mismatches += 1
        for name, result in check_propositions(config).items():
            if not result.passed:
                proposition_failures.append(
                    {"check": name, "witness": result.witness, "config": config.to_json()}
                )

    classes_found = {}
    for target in ConfigurationClass:
        spec = GeneratorSpec(n=6, denominator_bound=denominator_bound, seed=seed)
        found = search_class(target, spec, search_budget)
        classes_found[target.value] = found.to_json() if found else None

    sim_failures = []
    for i in range(sim_count):
        spec = GeneratorSpec(
            n=ns[i % len(ns)], denominator_bound=denominator_bound, seed=seed + 7919 * (i + 1)
        )
        config = random_config(spec)
        try:
            trace = run(config, FsyncPolicy(), RunLimits(max_events=max_events))
        except LimitExceeded:
            sim_failures.append({"config": config.to_json(), "reason": "limit"})
            continue
        if trace.summary["max_simultaneous_multiplicities"] > 2:
            sim_failures.append({"config": config.to_json(), "reason": "multiplicities"})

    ok = (
        not proposition_failures
        and leader_mismatches == 0
        and all(v is not None for v in classes_found.values())
        and not sim_failures
    )
    return {
        "ok": ok,
        "configs_checked": checked,
        "leader_mismatches": leader_mismatches,
        "proposition_failures": proposition_failures,
        "classes_found": classes_found,
        "sim_failures": sim_failures,
    }


if __name__ == "__main__":
    sys.exit(main())
