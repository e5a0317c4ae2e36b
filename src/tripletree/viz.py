"""Visualisation exports: leaf maps, projection/slice views, quiver fields,
and a small deterministic SVG renderer.

All operations return plain JSON-serialisable dicts; rendering is a separate
step so the data can also feed external plotting tools.  Every view reads
the leaf table (``TripleTree.table``): an attribute is one of its columns,
slices pick their rows with one mask over the stacked leaf boxes, and the
SVG colours are one array pass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .tree import Box, TripleTree


@dataclass
class PlaneSpec:
    """A two-feature viewing plane, with optional fixed values for slices."""

    f_x: int
    f_y: int
    n_x: int = 200
    n_y: int = 200
    fixed: dict = field(default_factory=dict)  # feature index -> value

    def validate(self, tree: TripleTree):
        if self.f_x == self.f_y:
            raise ParameterError("plane features must differ")
        for f in (self.f_x, self.f_y):
            if not 0 <= f < tree.d:
                raise ParameterError(f"plane feature {f} out of range")
        check_grid(tree, self.n_x, self.n_y, self.fixed)


def check_grid(tree: TripleTree, n_x: int, n_y: int, fixed: dict):
    """Check a view's resolution and fixed values, which need no plane."""
    if n_x < 1 or n_y < 1:
        raise ParameterError("plane resolution must be at least 1,1")
    for f, v in fixed.items():
        lo, hi = tree.feature_range[f]
        if not lo <= v <= hi:
            raise ParameterError(
                f"fixed value {v:g} for feature {f} outside data range")


def leaf_attribute(tree: TripleTree, attribute: str) -> np.ndarray:
    """The colouring attribute as one column over the rows of
    ``tree.table``; 'action.k' and 'derivative.k' pick component k of a
    vector quantity."""
    t = tree.table
    if attribute == "action":
        if t.action.ndim == 2:
            raise ParameterError(
                "vector actions need a component, e.g. 'action.0'")
        return t.action
    columns = dict(zip(("action_impurity", "value_impurity",
                        "derivative_impurity"), t.impurity.T),
                   value=t.value, density=t.density)
    if attribute in columns:
        return columns[attribute]
    name, dot, k = attribute.partition(".")
    if dot and name in ("action", "derivative"):
        matrix = (t.deriv if name == "derivative" else
                  t.action.reshape(t.ids.size, -1))
        if not (k.isdecimal() and int(k) < matrix.shape[1]):
            raise ParameterError(f"{attribute!r} needs a component index "
                                 f"from 0 to {matrix.shape[1] - 1}")
        try:
            return matrix[:, int(k)].astype(float)
        except ValueError:
            raise ParameterError(f"{attribute!r} needs numeric actions") from None
    if attribute == "derivative":
        raise ParameterError("derivative renders as a quiver; use quiver()")
    raise ParameterError(f"unknown colouring attribute {attribute!r}")


def _rects(tree: TripleTree, rows, fx: int, fy: int | None,
           attribute: str) -> list:
    """The range-clipped rectangles of the table rows ``rows`` on features
    (fx, fy), each with its attribute value and leaf id; with ``fy`` None
    they span y from 0 to 1."""
    t = tree.table
    values = leaf_attribute(tree, attribute)[rows]
    box = t.box[rows].clipped(tree.feature_range)
    y = ((np.zeros(len(values)), np.ones(len(values))) if fy is None else
         (box.lower[:, fy], box.upper[:, fy]))
    return _records(("x0", "x1", "y0", "y1", "value", "leaf"),
                    box.lower[:, fx], box.upper[:, fx], *y, values,
                    t.ids[rows])


def _records(keys, *columns) -> list:
    """One dict per row of the columns, with plain Python values."""
    return [dict(zip(keys, row))
            for row in zip(*(column.tolist() for column in columns))]


def direct_map(tree: TripleTree, attribute: str) -> dict:
    """One range-clipped rectangle per leaf, coloured by the attribute.

    Only valid when the state space has at most two features; higher
    dimensional trees must use projection or slicing.
    """
    if tree.d > 2:
        raise ParameterError(
            "direct maps need d <= 2; use pdp_projection or ice_slice")
    return {"plane": [0, 1] if tree.d == 2 else [0],
            "rects": _rects(tree, slice(None), 0, 1 if tree.d == 2 else None,
                            attribute),
            "x_range": [float(v) for v in tree.feature_range[0]],
            "y_range": ([float(v) for v in tree.feature_range[1]]
                        if tree.d == 2 else [0.0, 1.0])}


def pdp_projection(tree: TripleTree, plane: PlaneSpec, attribute: str) -> dict:
    """Marginal view of a scalar attribute on a two-feature plane.

    Each grid cell averages the attribute over every leaf whose projection
    covers the cell centre, weighted by leaf sample count.
    """
    plane.validate(tree)
    column = leaf_attribute(tree, attribute)
    if column.dtype == object and any(isinstance(v, str) for v in column):
        raise ParameterError("projections need numeric attributes")
    t = tree.table
    x_edges, y_edges = (np.linspace(*tree.feature_range[f], n + 1) for f, n in
                        ((plane.f_x, plane.n_x), (plane.f_y, plane.n_y)))
    cx = (x_edges[:-1] + x_edges[1:]) / 2.0
    cy = (y_edges[:-1] + y_edges[1:]) / 2.0
    # the centres ascend, so the cells a box covers on an axis are the range
    # from its first centre >= lower to its first centre >= upper
    x0, x1, y0, y1 = (np.searchsorted(c, side[:, f])
                      for c, f in ((cx, plane.f_x), (cy, plane.f_y))
                      for side in (t.box.lower, t.box.upper))
    width, height = np.maximum(x1 - x0, 0), np.maximum(y1 - y0, 0)
    area = width * height
    w = t.n.astype(float)
    wv = w * column.astype(float)
    acc = np.zeros((plane.n_y, plane.n_x))
    wsum = np.zeros_like(acc)
    # leaves add up in a cell in ascending id order, which fixes the rounding
    # of its mean where they overlap (d >= 3): one leaf-major np.add.at (it
    # adds in index order) per run of leaves whose cumulative cell count is
    # in (kP, (k+1)P], P = n_x * n_y, so under two planes; one run at d = 2
    ends = np.cumsum(area)
    runs = [0, *np.searchsorted(ends, np.arange(acc.size, ends[-1], acc.size),
                                side="right").tolist(), area.size]
    for r in map(slice, runs, runs[1:]):
        ys = _ranges(y0[r], height[r])
        cell = _ranges(ys * plane.n_x + np.repeat(x0[r], height[r]),
                       np.repeat(width[r], height[r]))
        np.add.at(acc.reshape(-1), cell, np.repeat(wv[r], area[r]))
        np.add.at(wsum.reshape(-1), cell, np.repeat(w[r], area[r]))
    values = np.divide(acc, wsum, out=np.zeros_like(acc), where=wsum > 0)
    return {"plane": [plane.f_x, plane.f_y],
            "x_edges": x_edges.tolist(), "y_edges": y_edges.tolist(),
            "values": values.tolist()}


def _ranges(starts, counts) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1``, concatenated."""
    ends = np.cumsum(counts)
    return (np.repeat(starts + counts - ends, counts)
            + np.arange(ends[-1] if ends.size else 0))


def resolve_fixed(tree: TripleTree, plane: PlaneSpec) -> dict:
    """Fixed values for all off-plane features; dataset medians by default."""
    return {f: float(plane.fixed.get(f, tree.medians[f]))
            for f in range(tree.d) if f not in (plane.f_x, plane.f_y)}


def _cut(tree: TripleTree, fixed: dict) -> np.ndarray:
    """Mask of the table rows whose leaf boxes hold every fixed off-plane
    value."""
    t, f = tree.table, list(fixed)
    v = np.array(list(fixed.values()), dtype=float)
    return Box(t.box.lower[:, f], t.box.upper[:, f]).meets(v, v)


def ice_slice(tree: TripleTree, plane: PlaneSpec, attribute: str) -> dict:
    """Rectangles of every leaf cut by an axis-aligned planar cross-section.

    Off-plane features are pinned to the plane's fixed values (medians when
    unspecified), giving an individual conditional expectation view.
    """
    plane.validate(tree)
    fixed = resolve_fixed(tree, plane)
    rects = _rects(tree, _cut(tree, fixed), plane.f_x, plane.f_y, attribute)
    return {"plane": [plane.f_x, plane.f_y], "rects": rects,
            "fixed": {str(f): v for f, v in sorted(fixed.items())},
            "x_range": [float(v) for v in tree.feature_range[plane.f_x]],
            "y_range": [float(v) for v in tree.feature_range[plane.f_y]]}


def quiver(tree: TripleTree, plane: PlaneSpec | None = None,
           mode: str = "direct") -> dict:
    """Arrow field of predicted state change, one arrow per leaf centre.

    Leaves without their own derivative estimate are omitted.  ``direct``
    mode shows every leaf (d <= 2); ``slice`` mode only leaves cut by the
    plane's fixed values.
    """
    if mode not in ("direct", "slice"):
        raise ParameterError("quiver mode must be 'direct' or 'slice'")
    if mode == "direct":
        if tree.d > 2:
            raise ParameterError("direct quiver needs d <= 2; use slice mode")
        fx, fy = (0, 1) if tree.d == 2 else (0, 0)
        fixed = {}
    else:
        if plane is None:
            raise ParameterError("slice quiver needs a plane")
        plane.validate(tree)
        fx, fy = plane.f_x, plane.f_y
        fixed = resolve_fixed(tree, plane)
    t = tree.table
    rows = _cut(tree, fixed) & ~t.low_conf  # no fixed value: every row
    c = t.box[rows].center(tree.feature_range)
    arrows = _records(("x", "y", "dx", "dy", "leaf"), c[:, fx], c[:, fy],
                      t.deriv[rows, fx], t.deriv[rows, fy], t.ids[rows])
    return {"plane": [fx, fy], "arrows": arrows,
            "fixed": {str(f): v for f, v in sorted(fixed.items())},
            "x_range": [float(v) for v in tree.feature_range[fx]],
            "y_range": [float(v) for v in tree.feature_range[fy]]}


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_VIRIDIS = [
    (68, 1, 84), (72, 40, 120), (62, 74, 137), (49, 104, 142),
    (38, 130, 142), (31, 158, 137), (53, 183, 121), (109, 205, 89),
    (253, 231, 37)]

_CATEGORICAL = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _heat(v) -> np.ndarray:
    """Viridis '#rrggbb' colours of the values ``v`` clipped into [0, 1],
    in an object array shaped like ``v``; each distinct colour is formatted
    once."""
    x = np.clip(np.asarray(v, dtype=float), 0.0, 1.0) * (len(_VIRIDIS) - 1)
    i = np.minimum(x.astype(int), len(_VIRIDIS) - 2)
    lo, hi = np.array(_VIRIDIS, dtype=float)[np.stack([i, i + 1])]
    rgb = np.rint(lo + (hi - lo) * (x - i)[..., None]).astype(int)
    code = rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]
    codes, inverse = np.unique(code.ravel(), return_inverse=True)
    hexes = np.array([f"#{c:06x}" for c in codes.tolist()], dtype=object)
    return hexes[inverse].reshape(rgb.shape[:-1])


def _heat_scale(canvas, values):
    """Viridis fills of ``values``, from the first colour at the least (the
    first of equal extremes, as min()/max() keep) to the last at the
    greatest, and the colour bar; a span that overflows is halved, which
    scales every fraction exactly.  No colour is defined for NaN or inf."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise ParameterError(f"heat map value {bad} is not finite")
    flat = values.ravel()
    vmin, vmax = ((flat[flat.argmin()].item(), flat[flat.argmax()].item())
                  if flat.size else (0.0, 1.0))
    k = 0.5 if math.isinf(vmax - vmin) else 1.0
    span = (vmax * k - vmin * k) or 1.0
    return (_heat((values * k - vmin * k) / span),
            _colorbar(canvas, vmin, vmax))


def _f(v: float) -> str:
    return f"{v:.2f}"


# the characters XML 1.0 cannot hold, even escaped
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f"
                      "\ud800-\udfff\ufffe\uffff]")


def _text(s) -> str:
    """``s`` as SVG text content: '&', '<' and '>' escaped, and each
    character XML cannot hold replaced by U+FFFD."""
    return _NOT_XML.sub("\ufffd", str(s).replace("&", "&amp;")
                        .replace("<", "&lt;").replace(">", "&gt;"))


class _Canvas:
    """Maps data coordinates onto a fixed pixel frame (y up)."""

    def __init__(self, x_range, y_range, width, height, margin):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.ml, self.mr = margin, margin + 70  # room for the colour bar
        self.mt, self.mb = margin, margin
        self.w = width
        self.h = height
        self.pw = width - self.ml - self.mr
        self.ph = height - self.mt - self.mb

    def x(self, v):
        span = (self.x1 - self.x0) or 1.0
        return self.ml + (v - self.x0) / span * self.pw

    def y(self, v):
        span = (self.y1 - self.y0) or 1.0
        return self.mt + (self.y1 - v) / span * self.ph


def render_svg(payload: dict, style: dict | None = None,
               overlays: list | None = None) -> str:
    """Deterministic SVG for a rectangle map, value grid, or arrow field.

    Overlays are drawn on top: ``{"type": "path", "nodes": [[x, y], ...],
    "probability": p}`` polylines (opacity proportional to probability),
    ``{"type": "point", "xy": [x, y]}`` markers, and ``{"type": "segment",
    "from": [..], "to": [..]}`` arrows.
    """
    style = {**{"width": 640, "height": 480, "margin": 45, "title": ""},
             **(style or {})}
    if "rects" in payload:
        body, legend = _render_rects(payload, style)
    elif "values" in payload:
        body, legend = _render_grid(payload, style)
    elif "arrows" in payload:
        body, legend = _render_arrows(payload, style)
    else:
        raise ParameterError("payload is not a rects/grid/arrows document")
    canvas = _canvas_for(payload, style)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.w}" '
        f'height="{canvas.h}" viewBox="0 0 {canvas.w} {canvas.h}">',
        f'<rect x="0" y="0" width="{canvas.w}" height="{canvas.h}" fill="#ffffff"/>',
    ]
    parts.extend(body)
    parts.extend(_render_overlays(canvas, overlays or []))
    parts.append(
        f'<rect x="{_f(canvas.ml)}" y="{_f(canvas.mt)}" width="{_f(canvas.pw)}" '
        f'height="{_f(canvas.ph)}" fill="none" stroke="#000000"/>')
    parts.extend(_axis_labels(canvas, style))
    parts.extend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _canvas_for(payload, style):
    if "values" in payload:
        xr = [payload["x_edges"][0], payload["x_edges"][-1]]
        yr = [payload["y_edges"][0], payload["y_edges"][-1]]
    else:
        xr, yr = payload["x_range"], payload["y_range"]
    return _Canvas(xr, yr, style["width"], style["height"], style["margin"])


def _render_rects(payload, style):
    canvas = _canvas_for(payload, style)
    vals = [r["value"] for r in payload["rects"]]
    if not any(isinstance(v, str) for v in vals):
        fills, legend = _heat_scale(canvas, vals)
    else:
        labels = sorted({str(v) for v in vals})
        cmap = {l: _CATEGORICAL[i % len(_CATEGORICAL)]
                for i, l in enumerate(labels)}
        fills = [cmap[str(v)] for v in vals]
        legend = _swatches(canvas, labels, cmap)
    # the pixel geometry in one array pass, in the per-rect order of operations
    corners = [[r["x0"], r["x1"], r["y0"], r["y1"]] for r in payload["rects"]]
    x0, x1, y0, y1 = np.array(corners, dtype=float).reshape(-1, 4).T
    x0, x1, y0, y1 = canvas.x(x0), canvas.x(x1), canvas.y(y0), canvas.y(y1)
    out = [f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
           f'fill="{fill}" stroke="#ffffff" stroke-width="0.3"/>'
           for x, y, w, h, fill in zip(x0.tolist(), y1.tolist(),
                                       (x1 - x0).tolist(), (y0 - y1).tolist(),
                                       fills)]
    return out, legend


def _render_grid(payload, style):
    canvas = _canvas_for(payload, style)
    fills, legend = _heat_scale(canvas, payload["values"])
    # each column's x and width, and each row's y and height, formatted once
    xs = [canvas.x(v) for v in payload["x_edges"]]
    ys = [canvas.y(v) for v in payload["y_edges"]]
    cols = [(_f(x), _f(x1 - x)) for x, x1 in zip(xs, xs[1:])]
    rows = [(_f(y), _f(y0 - y)) for y0, y in zip(ys, ys[1:])]
    out = [f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}"/>'
           for (y, h), fill_row in zip(rows, fills.tolist())
           for (x, w), fill in zip(cols, fill_row)]
    return out, legend


_LINE = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#202020" '
         'stroke-width="1"/>\n')
_HEAD = _LINE + '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="#202020"/>'
_DOT = _LINE + '<circle cx="%.2f" cy="%.2f" r="1.5" fill="#202020"/>'


def _render_arrows(payload, style):
    """Arrows from one array pass, in the per-arrow order of operations, and
    one format pass over a head or a dot template per arrow."""
    canvas = _canvas_for(payload, style)
    xy = [[a["x"], a["y"], a["dx"], a["dy"]] for a in payload["arrows"]]
    x, y, dx, dy = np.array(xy, dtype=float).reshape(-1, 4).T
    top = max(np.hypot(dx, dy).tolist(), default=1.0)
    scale = 0.08 * min(canvas.pw, canvas.ph) / (top or 1.0)
    x, y, dx, dy = canvas.x(x), canvas.y(y), dx * scale, -dy * scale
    tip_x, tip_y, norm = x + dx, y + dy, np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):  # read if norm > 1e-9
        ux, uy = dx / norm, dy / norm
    head = norm > 1e-9
    # a head reads all ten columns, a dot the first six with (x, y) last
    numbers = np.stack((x, y, tip_x, tip_y,
                        np.where(head, tip_x, x), np.where(head, tip_y, y),
                        tip_x - 4 * ux + 2 * uy, tip_y - 4 * uy - 2 * ux,
                        tip_x - 4 * ux - 2 * uy, tip_y - 4 * uy + 2 * ux), 1)
    read = np.arange(10) < np.where(head, 10, 6)[:, None]
    template = "\n".join([_HEAD if h else _DOT for h in head.tolist()])
    return [template % tuple(numbers[read].tolist())] if xy else [], []


def _render_overlays(canvas, overlays):
    out = []
    for item in overlays:
        if item.get("type") == "path":
            nodes = item["nodes"]
            pts = " ".join(f"{_f(canvas.x(p[0]))},{_f(canvas.y(p[1]))}"
                           for p in nodes)
            opacity = min(max(float(item.get("probability", 1.0)), 0.0), 1.0)
            out.append(f'<polyline points="{pts}" fill="none" stroke="#ff2a2a" '
                       f'stroke-width="2" stroke-opacity="{opacity:.4f}"/>')
        elif item.get("type") == "point":
            x, y = item["xy"]
            out.append(f'<circle cx="{_f(canvas.x(x))}" cy="{_f(canvas.y(y))}" '
                       f'r="4" fill="#ff2a2a" stroke="#000000"/>')
        elif item.get("type") == "segment":
            (x0, y0), (x1, y1) = item["from"], item["to"]
            out.append(f'<line x1="{_f(canvas.x(x0))}" y1="{_f(canvas.y(y0))}" '
                       f'x2="{_f(canvas.x(x1))}" y2="{_f(canvas.y(y1))}" '
                       f'stroke="#ff2a2a" stroke-width="1.5" '
                       f'stroke-dasharray="4,3"/>')
    return out


def _axis_labels(canvas, style):
    out = []
    if style.get("title"):
        out.append(f'<text x="{_f(canvas.ml)}" y="{_f(canvas.mt - 10)}" '
                   f'font-family="monospace" font-size="13">'
                   f'{_text(style["title"])}</text>')
    out.append(f'<text x="{_f(canvas.ml)}" y="{_f(canvas.mt + canvas.ph + 16)}" '
               f'font-family="monospace" font-size="10">{canvas.x0:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml + canvas.pw - 30)}" '
               f'y="{_f(canvas.mt + canvas.ph + 16)}" '
               f'font-family="monospace" font-size="10">{canvas.x1:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml - 40)}" y="{_f(canvas.mt + canvas.ph)}" '
               f'font-family="monospace" font-size="10">{canvas.y0:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml - 40)}" y="{_f(canvas.mt + 10)}" '
               f'font-family="monospace" font-size="10">{canvas.y1:.4g}</text>')
    xl = style.get("xlabel")
    yl = style.get("ylabel")
    if xl:
        out.append(f'<text x="{_f(canvas.ml + canvas.pw / 2)}" '
                   f'y="{_f(canvas.mt + canvas.ph + 30)}" '
                   f'font-family="monospace" font-size="11">{_text(xl)}</text>')
    if yl:
        out.append(f'<text x="12" y="{_f(canvas.mt + canvas.ph / 2)}" '
                   f'font-family="monospace" font-size="11">{_text(yl)}</text>')
    return out


def _colorbar(canvas, vmin, vmax):
    x = canvas.ml + canvas.pw + 18
    n = 48
    out = [f'<rect x="{_f(x)}" y="{_f(canvas.mt + canvas.ph * (1 - (i + 1) / n))}" '
           f'width="14" height="{_f(canvas.ph / n + 0.5)}" fill="{fill}"/>'
           for i, fill in enumerate(_heat(np.arange(n) / (n - 1)))]
    out.append(f'<text x="{_f(x + 18)}" y="{_f(canvas.mt + canvas.ph)}" '
               f'font-family="monospace" font-size="10">{vmin:.4g}</text>')
    out.append(f'<text x="{_f(x + 18)}" y="{_f(canvas.mt + 10)}" '
               f'font-family="monospace" font-size="10">{vmax:.4g}</text>')
    return out


def _swatches(canvas, labels, cmap):
    x = canvas.ml + canvas.pw + 14
    out = []
    for i, label in enumerate(labels):
        y = canvas.mt + 18 * i
        out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="12" height="12" '
                   f'fill="{cmap[label]}"/>')
        out.append(f'<text x="{_f(x + 16)}" y="{_f(y + 10)}" '
                   f'font-family="monospace" font-size="10">{_text(label)}</text>')
    return out
