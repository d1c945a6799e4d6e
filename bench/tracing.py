"""Span tracing from outside the package, by wrapping public functions.

A :class:`Tracer` replaces each traced function with a timing wrapper in
every ``circlegather`` module namespace that binds it, so call sites that
use ``from .x import f`` are counted as well as ``x.f`` call sites. Methods
are wrapped on their class. Nothing inside the package changes; removing
the wrappers restores the original objects.

Every wrapped call pushes a frame that collects the time of its children;
self time is the call's duration minus that child time. Non-leaf calls are
kept in memory as spans (id, parent id, op id, name, start, end) and written
out when the benchmark ends. Leaf calls (the ``angles`` helpers, called
hundreds of thousands of times) are only aggregated into call counts and
self time, which keeps the tracing overhead and the span list small.
"""

from __future__ import annotations

import sys
import time

#: module -> traced public names; ``Class.method`` wraps a method.
TRACED = {
    "angles": ("cw_angle", "norm", "format_angle"),
    "configuration": (
        "gap_sequence",
        "leader_of_positions",
        "true_leader",
        "is_rotationally_symmetric",
        "take_snapshot",
        "snapshot_of_positions",
    ),
    "analysis": (
        "classify",
        "is_safe_neighbor",
        "detect_confused_peer_in_c0",
        "configuration_class",
    ),
    "protocol": ("decide",),
    "sim": ("run", "world_snapshot", "multiplicity_points", "is_gathered", "Trace.to_jsonl"),
    "oracle": ("check_propositions", "brute_force_leader", "oracle_classify"),
}

#: Modules whose functions are aggregated instead of recorded as spans.
LEAF_MODULES = ("angles",)

#: Traced functions backed by an ``lru_cache``; their hit ratio is reported.
CACHED = ("analysis.classify", "analysis.is_safe_neighbor", "analysis.detect_confused_peer_in_c0")

#: Span name of the root span the benchmark opens around each operation.
OP_SPAN = "bench.op"

PACKAGE = "circlegather"

LAYER_NAMES = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def clear_caches() -> None:
    """Empty every ``lru_cache`` in the package so that two passes do equal work."""
    for module in package_modules():
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                obj.cache_clear()


class Tracer:
    """Call counts, self times and spans for the functions in :data:`TRACED`."""

    def __init__(self):
        self.names = LAYER_NAMES + (OP_SPAN,)
        self._originals = {}
        self._restore = []
        self.calls = []
        self.self_s = []
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self) -> None:
        """Forget all counts and spans; the lists are reused by live wrappers."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.spans.clear()
        # Frames are [child_time, span_id]; the bottom frame is the root.
        self._stack[:] = [[0.0, -1]]
        self._next_id = 0
        self._op = -1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Put a wrapper in place of every traced function."""
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for idx, layer in enumerate(LAYER_NAMES):
            mod_name, _, qual = layer.partition(".")
            module = by_name[f"{PACKAGE}.{mod_name}"]
            leaf = mod_name in LEAF_MODULES
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._originals[layer] = original
                setattr(cls, meth, self._wrap(idx, original, leaf))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, qual)
            self._originals[layer] = original
            wrapper = self._wrap(idx, original, leaf)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def original(self, layer: str):
        """The unwrapped function behind ``layer`` (for ``cache_info``)."""
        return self._originals[layer]

    # -- recording --------------------------------------------------------

    def _wrap(self, idx, fn, leaf):
        if not leaf:

            def span_wrapper(*args, **kwargs):
                return self._span(idx, fn, args, kwargs)

            return span_wrapper

        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def leaf_wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[0]

        return leaf_wrapper

    def _span(self, idx, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][1]
        frame = [0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dur = t1 - t0
            stack.pop()
            stack[-1][0] += dur
            self.calls[idx] += 1
            self.self_s[idx] += dur - frame[0]
            self.spans.append((span_id, parent, self._op, idx, t0, t1))

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` inside a root span for operation ``op_id``."""
        self._op = op_id
        try:
            return self._span(len(self.names) - 1, fn, args, {})
        finally:
            self._op = -1

    def write_spans(self, path) -> None:
        """Spans as tab-separated lines; times in seconds from the first span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for span_id, parent, op, idx, t0, t1 in sorted(self.spans):
                fh.write(
                    f"{span_id}\t{parent}\t{op}\t{self.names[idx]}\t"
                    f"{t0 - origin:.9f}\t{t1 - origin:.9f}\n"
                )
