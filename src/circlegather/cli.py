"""Operator entry point: analyze configurations, run simulations, verify.

Exit codes are fixed for scriptability: 0 success, 1 parse error (any
malformed document, field or flag, a usage error such as a missing or
unknown command, a file that cannot be read or written,
or ``verify`` flags that no random configuration can satisfy), 2 illegal
input (symmetric or multiplicity-bearing configuration, a run of fewer than
two robots, or a schedule that cannot be replayed), 3 limit exceeded or
target not reached. All output is deterministic given the flags.

``verify`` runs :func:`oracle.proposition_sweep`, the acceptance suite's
sweep: ``--n 3..10 --count 10000 --seed 0 --denominator-bound 120`` checks
exactly the corpus of acceptance criteria 1, 2 and 6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .analysis import ConfigurationClass, analysis_report
from .angles import HALF_TURN, QUARTER_TURN, parse_time
from .configuration import Configuration, reject_unknown_keys
from .errors import (
    GenerationExhausted,
    LimitExceeded,
    MultiplicityPresent,
    ParseError,
    ScheduleError,
    SymmetricConfiguration,
    TooFewRobots,
)
from .oracle import GeneratorSpec, proposition_sweep, random_config, search_class
from .render import RenderSpec, render_svg
from .sim import (
    AsyncRandomPolicy,
    FsyncPolicy,
    RunLimits,
    RunOptions,
    ScriptedPolicy,
    SsyncPolicy,
    Trace,
    run,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ILLEGAL = 2
EXIT_LIMIT = 3

#: Robots the taxonomy search places, on the even lattice ``bound - bound % 2``:
#: an odd lattice holds no antipodal pair, so no class but A fits on it.
CLASS_SEARCH_N = 6
#: Least denominator bound of the search: no class C set of 6 robots fits below.
CLASS_SEARCH_MIN_BOUND = 12


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Point stdout at
        # devnull so that the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, GenerationExhausted) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SymmetricConfiguration, MultiplicityPresent, TooFewRobots) as exc:
        print(f"illegal configuration: {exc}", file=sys.stderr)
        return EXIT_ILLEGAL
    except ScheduleError as exc:
        print(f"bad schedule: {exc}", file=sys.stderr)
        return EXIT_ILLEGAL


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ParseError`, so it exits 1.

    argparse's own ``error`` exits 2, the illegal-input code. Subparsers are
    built from the same class.
    """

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    p.add_argument("--max-events", type=int, default=RunLimits().max_events)
    p.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        # JSONDecodeError, and an integer literal over Python's digit limit.
        raise ParseError(f"{path} is not valid JSON: {exc}")


def cmd_analyze(args) -> int:
    config = Configuration.from_json(_load_json(args.config))
    report = analysis_report(config)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    return obj


def _int(obj: dict, key: str) -> int:
    value = obj[key]
    # JSON true and false are bools, which Python counts as ints.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


def _at_least(value: int, low: int, what: str) -> int:
    if value < low:
        raise ParseError(f"{what} must be at least {low}, got {value}")
    return value


def _event_from_json(obj):
    obj = _object(obj, "each scripted event")
    try:
        robot, look, decide = obj["robot"], obj["look"], obj["decide"]
    except KeyError:
        raise ParseError("each scripted event needs 'robot', 'look' and 'decide' fields")
    reject_unknown_keys(obj, {"robot", "look", "decide"}, "scripted event field")
    if not isinstance(robot, str):
        raise ParseError("scripted event 'robot' must be a string")
    return robot, parse_time(look), parse_time(decide)


#: The keys each policy kind reads; any other key is a parse error.
_POLICY_KEYS = {
    "fsync": {"kind"},
    "ssync": {"kind", "seed", "max_skips"},
    "async-random": {"kind", "seed", "delay_denominator_bound"},
    "scripted": {"kind", "events"},
}


def _policy_from_json(obj):
    obj = _object(obj, "'policy'")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ParseError(f"unknown policy kind {kind!r}")
    reject_unknown_keys(obj, _POLICY_KEYS[kind], f"{kind} policy field")
    if kind == "fsync":
        return FsyncPolicy()
    if kind == "scripted":
        events = obj.get("events", [])
        if not isinstance(events, list):
            raise ParseError("scripted policy 'events' must be a list")
        return ScriptedPolicy([_event_from_json(e) for e in events])
    # The policy's own defaults fill in every integer key the document omits.
    ints = {key: _int(obj, key) for key in obj if key != "kind"}
    try:
        return (SsyncPolicy if kind == "ssync" else AsyncRandomPolicy)(**ints)
    except ValueError as exc:
        raise ParseError(f"bad {kind} policy: {exc}")


def _options_from_json(obj) -> RunOptions:
    obj = _object(obj, "'options'")
    reject_unknown_keys(obj, {"multiplicity_threshold"}, "run option")
    threshold = obj.get("multiplicity_threshold", "pi")
    if threshold not in ("pi/2", "pi"):
        raise ParseError("multiplicity_threshold must be 'pi/2' or 'pi'")
    wide = threshold == "pi"
    return RunOptions(multiplicity_threshold=HALF_TURN if wide else QUARTER_TURN)


def load_run_config(obj):
    """(initial, policy, limits, options) from a run configuration document.

    Any malformed field is a :class:`ParseError`.
    """
    try:
        initial = Configuration.from_json(obj["initial"])
    except (TypeError, KeyError):
        raise ParseError("run configuration needs an 'initial' configuration")
    reject_unknown_keys(
        obj, {"initial", "policy", "limits", "options"}, "run configuration key"
    )
    policy = _policy_from_json(obj.get("policy", {"kind": "fsync"}))
    lim = _object(obj.get("limits", {}), "'limits'")
    reject_unknown_keys(lim, {"max_events", "max_time"}, "limits field")
    limits = RunLimits()
    if "max_events" in lim:
        limits.max_events = _at_least(_int(lim, "max_events"), 1, "'max_events'")
    if "max_time" in lim:
        limits.max_time = parse_time(lim["max_time"])
    options = _options_from_json(obj.get("options", {}))
    return initial, policy, limits, options


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_run(args) -> int:
    initial, policy, limits, options = load_run_config(_load_json(args.run_config))
    spec: Optional[RenderSpec] = None
    if args.render:
        try:
            spec = RenderSpec(
                args.render,
                frame_stride=args.frame_stride,
                image_size=args.image_size,
                show_labels=args.show_labels,
            )
        except ValueError as exc:
            raise ParseError(str(exc))
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
        _write_text(args.trace, trace.to_jsonl())
    if spec is not None:
        _write_text(spec.output_path, render_svg(trace, spec))
    print(
        json.dumps(
            {k: trace.summary[k] for k in sorted(trace.summary) if k not in ("initial", "final")},
            sort_keys=True,
        )
    )
    return exit_code


# ---------------------------------------------------------------------------


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        span = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ParseError(f"--n must be N or LO..HI, got {text!r}")
    if not 0 < span.stop - span.start <= sys.maxsize:  # len(span) must fit an index
        raise ParseError(f"--n range {text!r} is empty or too long")
    return span


def cmd_verify(args) -> int:
    n_range = _parse_range(args.n)
    _at_least(args.count, 1, "--count")
    _at_least(args.sim_count, 0, "--sim-count")
    _at_least(args.search_budget, 0, "--search-budget")
    _at_least(args.max_events, 1, "--max-events")
    _at_least(args.denominator_bound, CLASS_SEARCH_MIN_BOUND, "--denominator-bound")
    try:
        # A spec at the smallest robot count checks --n.
        GeneratorSpec(n=n_range[0], denominator_bound=args.denominator_bound, seed=args.seed)
    except ValueError as exc:
        raise ParseError(str(exc))
    report = verify_sweep(
        n_range=n_range,
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
    search_budget: int,
    sim_count: int,
    max_events: int,
) -> dict:
    """Proposition sweep + taxonomy search + batch simulations, as one report."""
    sweep = proposition_sweep(n_range, count, seed, denominator_bound)

    classes_found = {}
    even = denominator_bound - denominator_bound % 2
    spec = GeneratorSpec(n=CLASS_SEARCH_N, denominator_bound=even, seed=seed)
    for target in ConfigurationClass:
        found = search_class(target, spec, search_budget)
        classes_found[target.value] = found.to_json() if found else None

    sim_failures = []
    for i in range(sim_count):
        n = n_range[i % len(n_range)]
        spec = GeneratorSpec(n=n, denominator_bound=denominator_bound, seed=seed + 7919 * (i + 1))
        config = random_config(spec)
        try:
            trace = run(config, FsyncPolicy(), RunLimits(max_events=max_events))
        except LimitExceeded:
            sim_failures.append({"config": config.to_json(), "reason": "limit"})
            continue
        if trace.summary["max_simultaneous_multiplicities"] > 2:
            sim_failures.append({"config": config.to_json(), "reason": "multiplicities"})

    ok = (
        not sweep.proposition_failures
        and not sweep.leader_mismatches
        and all(v is not None for v in classes_found.values())
        and not sim_failures
    )
    return {
        "ok": ok,
        "configs_checked": sweep.checked,
        "leader_mismatches": len(sweep.leader_mismatches),
        "proposition_failures": sweep.proposition_failures,
        "classes_found": classes_found,
        "sim_failures": sim_failures,
    }


if __name__ == "__main__":
    sys.exit(main())
