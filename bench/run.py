"""Seeded, closed-loop benchmark of circlegather.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload crowd --trace 1
    python3 bench/run.py --smoke

One single-threaded caller starts the next operation only after the previous
one returned and was checked. Set-up imports the package from ``src/`` and
generates the corpus of inputs from the seed. The run then makes as many
passes over the corpus as fit in ``--seconds``, and at least one; each
pass starts from empty lru
caches, so every pass does the same work. Every timing is scaled to a
reference machine speed measured by a calibration kernel run between
operations (see :func:`calibrate`). With ``--trace 0`` the last line
of output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of traced passes. The line before it is a report with the
environment, the sizes, the trace digest and deterministic counts. See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 1
#: Kept out of tuning; a speed claim is re-checked on it.
HELD_OUT_SEED = 7600
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5
SMOKE_SECONDS = 0.1

BRANCHES = ("off-moveHalf", "moveHalf-moveMore", "moveMore-off", "moveHalf-terminate",
            "moveMore-terminate")

#: Run time of :func:`_kernel` at the reference speed: about its fastest on
#: the 2-vCPU Intel Xeon virtual machine, Python 3.11.7, used to size the
#: benchmark. Timings are reported as if the machine ran at this speed.
REFERENCE_KERNEL_S = 0.0002

#: Times the package import in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import circlegather; print(time.perf_counter() - t)"
)


def _kernel():
    """Fixed pure-Python work of the kind circlegather does: exact fractions,
    hashing and sorting."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 25):
        f = Fraction(i, 83)
        acc = (acc + f - Fraction(1, i + 1)) % 1
        seen[f] = acc
    return sorted(seen.values())[0]


def calibrate() -> float:
    """Current run time of the kernel: the fastest of three runs.

    Other tenants of a shared machine slow it down by up to a factor of two,
    for stretches from under a second to minutes; the kernel slows down with
    the benchmarked code, so dividing by it removes most of that noise.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def speed_factor(kernel_s) -> float:
    """Scale from measured time to time at the reference speed."""
    return REFERENCE_KERNEL_S / statistics.mean(kernel_s)


class Speedometer:
    """Calibrates every ``SAMPLE_INTERVAL_S`` while an operation runs.

    An operation of ``crowd`` lasts seconds, long enough for the machine's
    speed to change under it, so a timer signal interrupts it to run the
    kernel; the time spent in the handler is taken out of the operation's
    latency. The kernel touches no state of the package.
    """

    SAMPLE_INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_package() -> None:
    """Import circlegather from this checkout's sources."""
    if not (SRC / "circlegather" / "__init__.py").is_file():
        raise SystemExit(f"bench: no circlegather sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circlegather

    if Path(circlegather.__file__).resolve().parent != SRC / "circlegather":
        raise SystemExit(f"bench: imported circlegather from {circlegather.__file__}")


def import_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, seconds, trace, smoke) -> dict:
    sizes = workload.smoke_sizes if smoke else workload.sizes
    return {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "sizes": {"ns": list(sizes.ns), "corpus_ops": sizes.corpus},
    }


def call_op(op, item):
    """One operation; an error raised by the package is a failed operation."""
    from circlegather.errors import CircleGatherError

    try:
        return op(item)
    except CircleGatherError as exc:
        return b"", 0, (), f"{type(exc).__name__}: {exc}"


class Pass:
    """One pass over the corpus: per-op latencies, failures and output digest.

    With ``counts`` it also tallies the deterministic counts of the outputs:
    records, lines by kind, decides, protocol transitions and countermoves.
    """

    def __init__(self, counts: bool):
        self.latencies = []
        self.scaled = []
        self.kernel_s = []
        self.failures = []
        self.records = 0
        self.sha = hashlib.sha256()
        self.counts = counts
        self.kinds = Counter()
        self.transitions = Counter()
        self.countermoves = 0
        self.decides = 0

    def add(self, index, latency, factor, out) -> None:
        import workloads

        data, n_records, trace_records, failure = out
        self.latencies.append(latency)
        self.scaled.append(latency * factor)
        self.records += n_records
        self.sha.update(data)
        if failure is not None:
            self.failures.append(f"op {index}: {failure}")
        if self.counts:
            self.kinds.update(json.loads(line)["kind"] for line in data.splitlines())
            transitions, countermoves, decides = workloads.count_branches(trace_records)
            self.transitions.update(transitions)
            self.countermoves += countermoves
            self.decides += decides

    def summary(self) -> dict:
        return {
            "sha256": self.sha.hexdigest(),
            "records": self.records,
            "lines_by_kind": dict(sorted(self.kinds.items())),
            "decides": self.decides,
            "transitions": {b: self.transitions[b] for b in BRANCHES},
            "countermoves": self.countermoves,
        }


def run_pass(workload, corpus, counts: bool, tracer=None) -> Pass:
    """Every corpus op in order, closed loop, from empty lru caches; with a
    ``tracer``, its wrappers are in place for the pass."""
    import tracing

    tracing.clear_caches()
    result = Pass(counts)
    if tracer is not None:
        tracer.install()
    try:
        before = calibrate()
        result.kernel_s.append(before)
        for index, item in enumerate(corpus):
            if tracer is None:
                with Speedometer() as meter:
                    t0 = time.perf_counter()
                    out = call_op(workload.op, item)
                    latency = time.perf_counter() - t0 - meter.spent_s
                during = meter.samples
            else:
                # Spans would count a handler's time, so traced passes
                # sample between operations only.
                t0 = time.perf_counter()
                out = tracer.op(index, call_op, workload.op, item)
                latency = time.perf_counter() - t0
                during = []
            after = calibrate()
            result.kernel_s.append(after)
            result.add(index, latency, speed_factor([before, *during, after]), out)
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def set_up(workload, seed, smoke):
    """(corpus, setup_s): a fresh-interpreter import plus corpus generation,
    scaled to the reference speed, median over ``SETUP_REPEATS`` rounds."""
    import workloads

    rounds = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        imported = import_seconds()
        t0 = time.perf_counter()
        corpus = workloads.make_corpus(workload, seed, smoke)
        generated = time.perf_counter() - t0
        rounds.append((imported + generated) * speed_factor([before, calibrate()]))
    return corpus, statistics.median(rounds)


def fits_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, as long as the mean so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def end_to_end(workload, corpus, seconds, setup_s):
    """Passes while they fit in ``seconds``; each op counts at its fastest
    scaled time over the passes, which also drops bursts of interference
    shorter than an op that the calibration between ops cannot see.
    """
    start = time.perf_counter()
    passes = [run_pass(workload, corpus, counts=True)]
    while fits_another(start, len(passes), seconds):
        passes.append(run_pass(workload, corpus, counts=False))
    wall = time.perf_counter() - start
    best = [min(p.scaled[i] for p in passes) for i in range(len(corpus))]
    best_ms = [x * 1e3 for x in best]
    raw_best = [min(p.latencies[i] for p in passes) for i in range(len(corpus))]
    kernel_s = [k for p in passes for k in p.kernel_s]
    first = passes[0]
    metrics = {
        "ops_per_s": len(corpus) / sum(best),
        "op_ms.p50": statistics.median(best_ms),
        "records_per_s": first.records / sum(best),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"ops_per_s": "1/s", "op_ms.p50": "ms", "records_per_s": "1/s", "setup_s": "s",
             "peak_rss_mib": "MiB"}
    attempted = len(corpus) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    deterministic = all(p.sha.digest() == first.sha.digest() for p in passes)
    report = {
        "passes": len(passes),
        "unscaled_ops_per_s": len(corpus) / sum(raw_best),
        "wall_ops_per_s": attempted / wall,
        "kernel_ms": {"min": min(kernel_s) * 1e3, "median": statistics.median(kernel_s) * 1e3,
                      "reference": REFERENCE_KERNEL_S * 1e3},
        "op_ms.samples": len(best_ms),
        # The highest percentile with at least ten samples beyond it.
        "op_ms.p90": statistics.quantiles(best_ms, n=10)[8] if len(best_ms) >= 100 else None,
        "fail_frac": failed / attempted,
        "failures": first.failures[:5],
        "deterministic": deterministic,
        "corpus": first.summary(),
    }
    return metrics, units, attempted, failed, deterministic, report


def traced(workload, corpus, seconds, spans_path):
    """Pairs of an untraced and a traced pass while they fit in ``seconds``."""
    import tracing

    tracer = tracing.Tracer()
    pairs = []
    start = time.perf_counter()
    while not pairs or fits_another(start, len(pairs), seconds):
        plain = run_pass(workload, corpus, counts=False)
        tracer.reset()
        traced_pass = run_pass(workload, corpus, counts=True, tracer=tracer)
        cache = {layer: tracer.original(layer).cache_info() for layer in tracing.CACHED}
        factor = speed_factor(traced_pass.kernel_s)
        self_s = [x * factor for x in tracer.self_s]
        pairs.append((plain, traced_pass, list(tracer.calls), self_s))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    last = pairs[-1][1]
    deterministic = all(
        p.sha.digest() == last.sha.digest() and t.sha.digest() == last.sha.digest()
        and calls == pairs[0][2]
        for p, t, calls, _ in pairs
    )

    metrics, units = {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    for idx, layer in enumerate(tracing.LAYER_NAMES):
        put(f"{layer}.calls", pairs[0][2][idx], "count")
        put(f"{layer}.self_s", statistics.median(s[idx] for _, _, _, s in pairs), "s")
        put(f"{layer}.share", statistics.median(s[idx] / sum(t.scaled) for _, t, _, s in pairs),
            "ratio")
    for layer, info in cache.items():
        lookups = info.hits + info.misses
        put(f"{layer}.hit_ratio", info.hits / lookups if lookups else 0.0, "ratio")
    for branch in BRANCHES:
        put(f"protocol.transition.{branch}", last.transitions[branch], "count")
    put("protocol.countermoves", last.countermoves, "count")
    put("trace.overhead",
        statistics.median(sum(t.scaled) / sum(p.scaled) for p, t, _, _ in pairs), "ratio")

    attempted = 2 * len(corpus) * len(pairs)
    failed = sum(len(p.failures) + len(t.failures) for p, t, _, _ in pairs)
    report = {
        "pairs": len(pairs),
        "untraced_s": [sum(p.scaled) for p, _, _, _ in pairs],
        "traced_s": [sum(t.scaled) for _, t, _, _ in pairs],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "deterministic": deterministic,
        "fail_frac": failed / attempted,
        "failures": last.failures[:5],
        "corpus": last.summary(),
    }
    return metrics, units, attempted, failed, deterministic, report


def run_workload(workload, seed, seconds, trace, smoke):
    import workloads

    if trace:
        corpus = workloads.make_corpus(workload, seed, smoke)
        spans_path = OUT_DIR / f"spans-{workload.name}.tsv"
        outcome = traced(workload, corpus, seconds, spans_path)
    else:
        corpus, setup_s = set_up(workload, seed, smoke)
        outcome = end_to_end(workload, corpus, seconds, setup_s)
    metrics, units, attempted, failed, deterministic, report = outcome
    report["environment"] = environment(workload, seed, seconds, trace, smoke)
    report["attempted"] = attempted
    report["failed"] = failed
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def print_result(result, report) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:<52} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def smoke(seed: int) -> int:
    """Every workload, untraced and traced, on tiny sizes; checks the metric names."""
    import workloads

    e2e_declared, layer_declared, workload_names = declared_metrics()
    problems = []
    if sorted(workload_names) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {workload_names} != {sorted(workloads.WORKLOADS)}")
    for name, workload in workloads.WORKLOADS.items():
        for trace, declared in ((0, e2e_declared), (1, layer_declared)):
            result, report = run_workload(workload, seed, SMOKE_SECONDS, trace, True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            for metric in sorted(set(got) - set(declared)):
                problems.append(f"{name} trace={trace}: {metric} is not in BENCHMARK.json")
            for metric in sorted(set(declared) - set(got)):
                problems.append(f"{name} trace={trace}: {metric} is not reported")
            for metric in sorted(set(got) & set(declared)):
                if got[metric] != declared[metric]:
                    problems.append(f"{name} trace={trace}: {metric} unit {got[metric]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: incorrect output {report['failures']}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print(f"smoke FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, check metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    import_package()
    if args.smoke:
        return smoke(args.seed)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, report = run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, False
    )
    print_result(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
