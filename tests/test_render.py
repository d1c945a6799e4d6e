import hashlib
from fractions import Fraction
from xml.dom import minidom

import pytest

from circlegather.configuration import Configuration, Robot
from circlegather.render import RenderSpec, render_svg
from circlegather.sim import FsyncPolicy, run


def F(s):
    return Fraction(s)


@pytest.fixture(scope="module")
def trace():
    cfg = Configuration.from_points([F(0), F("1/10"), F("9/20"), F("7/10")])
    return run(cfg, FsyncPolicy())


def test_render_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        RenderSpec(str(tmp_path / "x.svg"), frame_stride=0)
    with pytest.raises(ValueError):
        RenderSpec(str(tmp_path / "x.svg"), image_size=10)


def test_render_produces_svg(trace, tmp_path):
    svg = render_svg(trace, RenderSpec(str(tmp_path / "out.svg")))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "circle" in svg


def test_render_is_deterministic(trace, tmp_path):
    spec = RenderSpec(str(tmp_path / "out.svg"))
    assert render_svg(trace, spec) == render_svg(trace, spec)


def test_frame_stride_reduces_frames(trace, tmp_path):
    full = render_svg(trace, RenderSpec(str(tmp_path / "a.svg"), frame_stride=1))
    sparse = render_svg(trace, RenderSpec(str(tmp_path / "b.svg"), frame_stride=5))
    assert full.count("t=") > sparse.count("t=")


def test_labels_are_optional(trace, tmp_path):
    labelled = render_svg(
        trace, RenderSpec(str(tmp_path / "c.svg"), show_labels=True)
    )
    assert "r0" in labelled
    plain = render_svg(trace, RenderSpec(str(tmp_path / "d.svg")))
    assert "r0" not in plain


#: sha256 of the renders of the ``trace`` fixture by (labels, frame stride).
#: The stride-1 pair was taken before labels were escaped: plain ids render
#: byte for byte the same. The stride-5 one pins which events a strided
#: render draws: the initial frame, then every fifth decide or move-end.
PLAIN_ID_SVG_SHA256 = {
    (True, 1): "faa0360b45784a8dac880065fd05d0f7dfc6c176b26eecd6fba56285f2b74ae0",
    (False, 1): "b6d5efee3975f5791f123dcfe742112afecf8c5ac72b00372d2b16856e70be24",
    (False, 5): "0ac89e37820506e990792189148ee623f1f0572b09a5ca6822e8c7b7167dd2b1",
}


@pytest.mark.parametrize(
    "labels, stride",
    sorted(PLAIN_ID_SVG_SHA256),
    # A stride-1 case keeps the id it had before strides were pinned: its label flag.
    ids=[str(labels) if stride == 1 else f"{labels}-stride{stride}"
         for labels, stride in sorted(PLAIN_ID_SVG_SHA256)],
)
def test_plain_ids_render_as_before(trace, tmp_path, labels, stride):
    spec = RenderSpec(str(tmp_path / "p.svg"), frame_stride=stride, show_labels=labels)
    svg = render_svg(trace, spec)
    assert hashlib.sha256(svg.encode()).hexdigest() == PLAIN_ID_SVG_SHA256[labels, stride]


def test_labels_with_markup_characters_stay_well_formed(tmp_path):
    ids = ["a<&b", 'say "hi"', "r2", "r3"]
    cfg = Configuration.from_points([F(0), F("1/10"), F("9/20"), F("7/10")])
    cfg = Configuration(tuple(Robot(rid, r.pos) for rid, r in zip(ids, cfg.robots)))
    svg = render_svg(run(cfg, FsyncPolicy()), RenderSpec(str(tmp_path / "m.svg"), show_labels=True))
    doc = minidom.parseString(svg)
    labels = [
        node.firstChild.data
        for node in doc.getElementsByTagName("text")
        if not node.firstChild.data.startswith("t=")
    ]
    seen = {rid for label in labels for rid in label.split(",")}
    assert {"a<&b", 'say "hi"'} <= seen
