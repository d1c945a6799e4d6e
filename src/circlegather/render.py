"""Static SVG rendering of a completed trace.

A render is a pure function of the trace: a grid of frames, one per sampled
event time, each showing the circle with robot positions color-coded by
memory state and multiplicity points highlighted. No live interaction, no
wall clock; the same trace always yields byte-identical SVG.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple

from .angles import parse_angle
from .configuration import CheckedRecord
from .sim import Trace

_STATE_COLORS = {
    "off": "#222222",
    "moveHalf": "#1f6fd0",
    "moveMore": "#d03b1f",
    "terminate": "#8a8a8a",
}

MAX_IMAGE_SIZE = 10_000  # pixels per frame side; far larger sizes overflow a float


class _RenderSpecFields(NamedTuple):
    output_path: str
    frame_stride: int
    image_size: int
    show_labels: bool


class RenderSpec(CheckedRecord, _RenderSpecFields):
    __slots__ = ()

    def __new__(cls, output_path: str, frame_stride=1, image_size=220, show_labels=False):
        if frame_stride < 1:
            raise ValueError("frame stride must be at least 1")
        if image_size < 60:
            raise ValueError("image size too small to draw anything")
        if image_size > MAX_IMAGE_SIZE:
            raise ValueError(f"image size must be at most {MAX_IMAGE_SIZE}")
        return tuple.__new__(cls, (output_path, frame_stride, image_size, show_labels))


def render_svg(trace: Trace, spec: RenderSpec) -> str:
    """Render sampled frames of the trace into one SVG document."""
    frames = _frames(trace, spec.frame_stride)
    size = spec.image_size
    cols = min(4, len(frames))
    rows = (len(frames) + cols - 1) // cols
    width, height = cols * size, rows * size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for idx, (t, positions, states) in enumerate(frames):
        ox = (idx % cols) * size
        oy = (idx // cols) * size
        parts.extend(_frame(t, positions, states, ox, oy, size, spec.show_labels))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _initial_positions(trace: Trace) -> Dict[str, Fraction]:
    return {rid: parse_angle(p) for rid, p in trace.summary.get("initial", {}).items()}


def _frames(trace: Trace, stride: int):
    """Positions and states after every ``stride``-th decide / move-end event.

    The initial frame counts as event 0, so the frames are those of events
    0, stride, 2 * stride, ...; only they copy the two maps.
    """
    positions = _initial_positions(trace)
    states = {rid: "off" for rid in positions}
    frames = [(Fraction(0), dict(positions), dict(states))]
    event = 0
    for rec in trace.records:
        if rec.kind == "decide":
            states[rec.robot] = rec.payload["state_after"]
        elif rec.kind == "move-end":
            positions[rec.robot] = parse_angle(rec.payload["to"])
        else:
            continue
        event += 1
        if event % stride == 0:
            frames.append((rec.t, dict(positions), dict(states)))
    return frames


def _frame(
    t: Fraction,
    positions: Dict[str, Fraction],
    states: Dict[str, str],
    ox: int,
    oy: int,
    size: int,
    labels: bool,
) -> List[str]:
    cx, cy = ox + size / 2, oy + size / 2
    radius = size * 0.38
    parts = [
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{radius:.1f}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>',
        f'<text x="{ox + 6}" y="{oy + 14}" font-size="10" '
        f'font-family="monospace" fill="#444444">t={t.numerator}/{t.denominator}</text>',
    ]
    counts: Dict[Fraction, List[str]] = {}
    for rid in sorted(positions):
        counts.setdefault(positions[rid], []).append(rid)
    for pos in sorted(counts):
        robots = counts[pos]
        # Clockwise when viewed with 0 at the top.
        theta = 2 * math.pi * float(pos)
        x = cx + radius * math.sin(theta)
        y = cy - radius * math.cos(theta)
        color = _STATE_COLORS.get(states.get(robots[0], "off"), "#222222")
        r_dot = 4 + 2 * min(len(robots) - 1, 3)
        stroke = ' stroke="#e08a00" stroke-width="2"' if len(robots) >= 2 else ""
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r_dot}" fill="{color}"{stroke}/>'
        )
        if labels:
            # Robot ids are arbitrary strings: escape &, < and > for XML text.
            # Imported here, as xml.sax.saxutils imports urllib.request,
            # which would weigh on every import of the package.
            from xml.sax.saxutils import escape

            label = escape(",".join(robots))
            parts.append(
                f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="8" '
                f'font-family="monospace" fill="#333333">{label}</text>'
            )
    return parts
