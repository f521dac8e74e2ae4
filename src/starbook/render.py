"""Deterministic SVG rendering of book layouts.

Vertices sit on a circle in spine order; each page becomes one <g>
layer.  Disk-page edges are straight chords.  On the cross-cap page the
through chords are drawn as two straight segments meeting a small
central circle at antipodal contact points: through chord j runs from
occurrence j to occurrence j + k of the through chords' endpoint
occurrences in spine order (see verify.py); planar cap edges stay
chords.  Output bytes are a pure function of the certificate.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

from .model import BookLayout, Page, PageKind
from .verify import crosscap_page_valid

_SIZE = 640.0
_CENTER = _SIZE / 2
_RADIUS = 250.0
_LABEL_RADIUS = _RADIUS + 22.0
_CAP_RADIUS = 34.0

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _vertex_xy(order, v, radius=_RADIUS):
    n = len(order)
    theta = 2 * math.pi * order.position(v) / n - math.pi / 2
    return _CENTER + radius * math.cos(theta), _CENTER + radius * math.sin(theta)


def _line(x1, y1, x2, y2, color) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="1.6"/>')


def render_svg(layout: BookLayout) -> str:
    """Render a layout as an SVG document, whether or not it passes verification.

    Edges with an end off the spine are dropped, and a cross-cap page
    whose chords cannot be routed through the cap is drawn as chords.
    """
    order = layout.order
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        '<g id="spine">',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="#999999" stroke-width="1"/>',
    ]
    for v in order.seq:
        x, y = _vertex_xy(order, v)
        lx, ly = _vertex_xy(order, v, _LABEL_RADIUS)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="#222222"/>')
        out.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="14" '
                   f'text-anchor="middle" dominant-baseline="middle">{v}</text>')
    out.append("</g>")

    drawable = set(order.seq)
    for pi, page in enumerate(layout.pages):
        color = _PALETTE[pi % len(_PALETTE)]
        out.append(f'<g id="page-{pi + 1}" class="page {page.kind.value}" opacity="0.85">')
        edges = [e for e in sorted(page.edge_set) if e[0] in drawable and e[1] in drawable]
        if page.kind is PageKind.DISK:
            for u, v in edges:
                out.append(_line(*_vertex_xy(order, u), *_vertex_xy(order, v), color))
        else:
            ok, split = crosscap_page_valid(order, Page(PageKind.CROSSCAP, tuple(edges)))
            through = sorted(split.through) if ok else []
            planar = sorted(split.planar) if ok else edges
            out.append(f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" '
                       f'r="{_fmt(_CAP_RADIUS)}" fill="none" stroke="{color}" '
                       'stroke-width="1.6" stroke-dasharray="4 3"/>')
            for u, v in planar:
                out.append(_line(*_vertex_xy(order, u), *_vertex_xy(order, v), color))
            if through:
                ends = Counter(chain.from_iterable(through))
                occ = [v for v in order.seq for _ in range(ends[v])]
                k = len(through)
                for j in range(k):
                    a = occ[j]
                    b = occ[j + k]
                    phi = math.pi * (j + 0.5) / k - math.pi / 2
                    cx1 = _CENTER + _CAP_RADIUS * math.cos(phi)
                    cy1 = _CENTER + _CAP_RADIUS * math.sin(phi)
                    cx2 = _CENTER - _CAP_RADIUS * math.cos(phi)
                    cy2 = _CENTER - _CAP_RADIUS * math.sin(phi)
                    out.append(_line(*_vertex_xy(order, a), cx1, cy1, color))
                    out.append(_line(*_vertex_xy(order, b), cx2, cy2, color))
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
