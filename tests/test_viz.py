import hashlib
import itertools
import json
import math
import os
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import dataset as ds
from tripletree import trajectory as tj
from tripletree import tree as tr
from tripletree import viz
from tripletree.errors import ParameterError
from tripletree.viz import PlaneSpec

from . import reference as ref
from .conftest import build_tree, random_tree, synthetic_aug, traced_peak

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
VIEW_DIGEST = os.path.join(GOLDEN_DIR, "road_views.sha256")


def quad_tree():
    """Four unit boxes over [0,2]^2 with distinct attributes."""
    spec = ("split", 0, 1.0,
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "value": 0.0, "deriv": [1.0, 0.0], "n": 4}),
             ("leaf", {"action": "b", "value": 1.0, "deriv": [0.0, 1.0], "n": 2})),
            ("split", 1, 1.0,
             ("leaf", {"action": "b", "value": 2.0, "deriv": [-1.0, 0.0], "n": 3}),
             ("leaf", {"action": "a", "value": 3.0, "deriv": [0.0, -1.0], "n": 1})))
    return build_tree(spec, [[0.0, 2.0], [0.0, 2.0]])


def test_direct_map_single_leaf_covers_range():
    tree = build_tree(("leaf", {"action": "a", "value": 1.0}),
                      [[0.0, 3.0], [-1.0, 1.0]])
    doc = viz.direct_map(tree, "value")
    assert len(doc["rects"]) == 1
    r = doc["rects"][0]
    assert (r["x0"], r["x1"], r["y0"], r["y1"]) == (0.0, 3.0, -1.0, 1.0)
    assert r["value"] == 1.0


def test_direct_map_rejects_high_dimensional_trees():
    tree = build_tree(("leaf", {"action": "a"}), [[0, 1]] * 3)
    with pytest.raises(ParameterError, match="d <= 2"):
        viz.direct_map(tree, "action")


def test_direct_map_rectangles_tile_range_area():
    rng = np.random.default_rng(0)
    states = rng.uniform(0, 1, size=(200, 2))
    data = synthetic_aug(states=states,
                         actions=(states[:, 0] * 3).astype(int).astype(float),
                         V=rng.normal(size=200))
    tree = tr.grow(data, [1, 1, 0], max_leaves=25)
    doc = viz.direct_map(tree, "value")
    area = sum((r["x1"] - r["x0"]) * (r["y1"] - r["y0"]) for r in doc["rects"])
    widths = data.feature_range[:, 1] - data.feature_range[:, 0]
    assert area == pytest.approx(float(widths.prod()), abs=1e-9)


def test_pdp_projection_equals_direct_map_rasterised():
    rng = np.random.default_rng(1)
    states = rng.uniform(0, 1, size=(300, 2))
    data = synthetic_aug(states=states,
                         actions=(states[:, 1] > 0.4).astype(float),
                         V=rng.normal(size=300))
    tree = tr.grow(data, [1, 1, 0], max_leaves=20)
    plane = PlaneSpec(0, 1, n_x=37, n_y=23)
    grid = viz.pdp_projection(tree, plane, "value")
    xe = np.asarray(grid["x_edges"])
    ye = np.asarray(grid["y_edges"])
    cx = (xe[:-1] + xe[1:]) / 2
    cy = (ye[:-1] + ye[1:]) / 2
    rects = viz.direct_map(tree, "value")["rects"]
    for iy in range(23):
        for ix in range(37):
            covering = [r["value"] for r in rects
                        if r["x0"] <= cx[ix] and r["y0"] <= cy[iy]]
            # rasterise with the same half-open membership rule
            hit = [r["value"] for r in rects
                   if _covers(tree, r, cx[ix], cy[iy])]
            assert len(hit) == 1
            assert grid["values"][iy][ix] == pytest.approx(hit[0], rel=1e-12)


def _covers(tree, rect, cx, cy):
    leaf = tree.leaves[rect["leaf"]]
    return (leaf.box.lower[0] <= cx < leaf.box.upper[0]
            and leaf.box.lower[1] <= cy < leaf.box.upper[1])


def test_pdp_weighted_mean_over_marginalised_feature():
    # two leaves split only on feature 2: plane (0,1) sees their weighted mean
    spec = ("split", 2, 0.5,
            ("leaf", {"value": 0.0, "n": 1}),
            ("leaf", {"value": 1.0, "n": 3}))
    tree = build_tree(spec, [[0.0, 1.0]] * 3)
    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=5, n_y=4), "value")
    values = np.asarray(grid["values"])
    assert values.shape == (4, 5)
    assert np.allclose(values, 0.75)


def test_pdp_single_leaf_constant():
    tree = build_tree(("leaf", {"value": 2.5}), [[0, 1], [0, 1]])
    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=3, n_y=3), "value")
    assert np.allclose(grid["values"], 2.5)


def test_pdp_values_within_leaf_attribute_range():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 3, 12, actions=["a", "b"])
    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=11, n_y=7), "value")
    vals = [leaf.value_pred for leaf in tree.leaves.values()]
    assert np.min(grid["values"]) >= min(vals) - 1e-12
    assert np.max(grid["values"]) <= max(vals) + 1e-12


def test_ice_slice_selects_leaves_containing_fixed_values():
    spec = ("split", 2, 0.5,
            ("split", 0, 0.5,
             ("leaf", {"value": 0.0}),
             ("leaf", {"value": 1.0})),
            ("leaf", {"value": 2.0}))
    tree = build_tree(spec, [[0.0, 1.0]] * 3)
    below = viz.ice_slice(tree, PlaneSpec(0, 1, fixed={2: 0.2}), "value")
    assert sorted(r["value"] for r in below["rects"]) == [0.0, 1.0]
    above = viz.ice_slice(tree, PlaneSpec(0, 1, fixed={2: 0.8}), "value")
    assert [r["value"] for r in above["rects"]] == [2.0]
    # default fixed value is the feature median (0.5 -> upper side here)
    default = viz.ice_slice(tree, PlaneSpec(0, 1), "value")
    assert [r["value"] for r in default["rects"]] == [2.0]


def test_ice_slice_on_2d_equals_direct_map():
    tree = quad_tree()
    a = viz.direct_map(tree, "value")["rects"]
    b = viz.ice_slice(tree, PlaneSpec(0, 1), "value")["rects"]
    assert a == b


def test_ice_slice_tiles_with_no_overlap():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, 20, actions=["a"])
    doc = viz.ice_slice(tree, PlaneSpec(0, 1, fixed={2: 0.37}), "value")
    rects = doc["rects"]
    area = sum((r["x1"] - r["x0"]) * (r["y1"] - r["y0"]) for r in rects)
    assert area == pytest.approx(1.0, abs=1e-9)
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            ox = max(0.0, min(a["x1"], b["x1"]) - max(a["x0"], b["x0"]))
            oy = max(0.0, min(a["y1"], b["y1"]) - max(a["y0"], b["y0"]))
            assert ox * oy == pytest.approx(0.0, abs=1e-12)


def test_ice_slice_fixed_value_outside_range_rejected():
    tree = build_tree(("leaf", {"value": 0.0}), [[0.0, 1.0]] * 3)
    with pytest.raises(ParameterError, match="outside data range"):
        viz.ice_slice(tree, PlaneSpec(0, 1, fixed={2: 7.0}), "value")


def test_quiver_arrow_components_equal_leaf_derivatives():
    tree = quad_tree()
    doc = viz.quiver(tree, mode="direct")
    assert len(doc["arrows"]) == 4
    for arrow in doc["arrows"]:
        leaf = tree.leaves[arrow["leaf"]]
        assert (arrow["dx"], arrow["dy"]) == (leaf.deriv_pred[0],
                                              leaf.deriv_pred[1])
        c = leaf.box.center(tree.feature_range)
        assert (arrow["x"], arrow["y"]) == (c[0], c[1])


def test_quiver_constant_field_and_low_confidence_omission():
    spec = ("split", 0, 0.5,
            ("leaf", {"deriv": [0.5, 0.5]}),
            ("leaf", {"deriv": [0.5, 0.5], "low_conf": True}))
    tree = build_tree(spec, [[0, 1], [0, 1]])
    doc = viz.quiver(tree, mode="direct")
    assert len(doc["arrows"]) == 1  # the low-confidence arrow is omitted
    assert doc["arrows"][0]["dx"] == 0.5


def test_quiver_slice_mode():
    spec = ("split", 2, 0.5,
            ("leaf", {"deriv": [1.0, 0.0, 0.0]}),
            ("leaf", {"deriv": [0.0, 1.0, 0.0]}))
    tree = build_tree(spec, [[0, 1]] * 3)
    doc = viz.quiver(tree, PlaneSpec(0, 1, fixed={2: 0.1}), mode="slice")
    assert len(doc["arrows"]) == 1
    assert doc["arrows"][0]["dx"] == 1.0


def test_scalar_attribute_lookup_variants():
    tree = quad_tree()
    leaf = tree.leaves[0]
    assert viz.leaf_attribute(tree, "action")[0] == "a"
    assert viz.leaf_attribute(tree, "derivative.0")[0] == 1.0
    assert viz.leaf_attribute(tree, "density")[0] == leaf.density
    with pytest.raises(ParameterError):
        viz.leaf_attribute(tree, "derivative")
    with pytest.raises(ParameterError):
        viz.leaf_attribute(tree, "nope")


@pytest.mark.parametrize("call, message", [
    (lambda t: PlaneSpec(1, 1).validate(t), "plane features must differ"),
    (lambda t: PlaneSpec(0, 2).validate(t), "plane feature 2 out of range"),
    (lambda t: viz.leaf_attribute(t, "action.0"),
     "'action.0' needs numeric actions"),
    (lambda t: viz.pdp_projection(t, PlaneSpec(0, 1), "action"),
     "projections need numeric attributes"),
    (lambda t: viz.quiver(t, mode="x"),
     "quiver mode must be 'direct' or 'slice'"),
    (lambda t: viz.quiver(t, mode="slice"), "slice quiver needs a plane"),
    (lambda t: viz.render_svg({}),
     "payload is not a rects/grid/arrows document"),
], ids=["equal-plane-features", "plane-feature-out-of-range",
        "label-component", "label-projection", "unknown-quiver-mode",
        "slice-quiver-without-plane", "unknown-payload"])
def test_view_refusals_name_the_fault(call, message):
    # quad_tree's actions are the string labels 'a' and 'b'
    with pytest.raises(ParameterError) as err:
        call(quad_tree())
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# SVG goldens (regenerate with `python -m tests.make_goldens`)
# ---------------------------------------------------------------------------

def _golden(name, payload, style, overlays=None):
    svg = viz.render_svg(payload, style, overlays=overlays)
    path = os.path.join(GOLDEN_DIR, name)
    with open(path, "rb") as fh:
        assert svg.encode() == fh.read()


def test_svg_golden_action_map():
    tree = quad_tree()
    _golden("action_map.svg", viz.direct_map(tree, "action"),
            {"title": "action map", "xlabel": "f0", "ylabel": "f1"})


def test_svg_golden_value_grid():
    tree = quad_tree()
    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=8, n_y=6), "value")
    _golden("value_grid.svg", grid, {"title": "value grid"})


def test_svg_golden_quiver_with_path_overlay():
    tree = quad_tree()
    overlay = [{"type": "path", "nodes": [[0.5, 0.5], [1.0, 0.6], [1.5, 1.5]],
                "probability": 0.4},
               {"type": "point", "xy": [0.5, 0.5]},
               {"type": "segment", "from": [0.2, 0.2], "to": [1.0, 1.0]}]
    _golden("quiver_overlay.svg", viz.quiver(tree, mode="direct"),
            {"title": "quiver"}, overlays=overlay)


def test_arrow_svg_equals_the_per_arrow_loop_on_dots_and_odd_values():
    arrows = [{"x": 0.5, "y": 0.0, "dx": 0.0, "dy": 0.0},      # a dot
              {"x": 1, "y": 1, "dx": 3, "dy": -4},              # integers
              {"x": 1.5, "y": -0.5, "dx": 1e-14, "dy": 0.0},    # under 1e-9 px
              {"x": 0.2, "y": 0.3, "dx": math.nan, "dy": 1.0},  # NaN: a dot
              {"x": 2.0, "y": -1.0, "dx": -0.25, "dy": 0.5}]
    for rows in (arrows, arrows[3:] + arrows[:3], arrows[:1], []):
        # with the NaN first, Python's max, and so the scale, is NaN
        payload = {"arrows": rows, "x_range": [0.0, 2.0],
                   "y_range": [-1.0, 1.0]}
        assert viz.render_svg(payload) == ref.render_svg(payload)


# arrow components: zero-length arrows (either sign of zero, or under the
# 1e-9 px head threshold once scaled) and NaN ones, which draw dots, among
# ordinary ones
components = st.one_of(st.sampled_from([0.0, -0.0, 1e-14, -1e-300, math.nan]),
                       st.floats(-5.0, 5.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(-1.0, 1.0),
                               components, components), max_size=12))
def test_arrow_svg_equals_the_per_arrow_loop_on_mixed_dots_and_heads(rows):
    payload = {"arrows": [{"x": x, "y": y, "dx": dx, "dy": dy}
                          for x, y, dx, dy in rows],
               "x_range": [0.0, 2.0], "y_range": [-1.0, 1.0]}
    assert viz.render_svg(payload) == ref.render_svg(payload)


@pytest.mark.parametrize("size", [2, 40])
def test_grid_svg_takes_the_first_of_signed_zero_extremes(size):
    # min and max of the list keep the first of equal extremes, so 0.0 and
    # -0.0 print in the colour bar as whichever comes first in the grid
    n = size * size
    edges = np.linspace(0.0, 1.0, size + 1).tolist()
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        for fill in (1.0, -1.0):
            for i, j in ((0, n - 1), (n - 1, 0), (n // 2, 1)):
                flat = [fill] * n
                flat[i], flat[j] = first, second
                payload = {"values": np.reshape(flat, (size, size)).tolist(),
                           "x_edges": edges, "y_edges": edges}
                assert viz.render_svg(payload) == ref.render_svg(payload)


@pytest.mark.parametrize("payload", [
    {"values": [[0.0, math.nan]], "x_edges": [0, 1, 2], "y_edges": [0, 1]},
    {"rects": [{"x0": 0, "x1": 1, "y0": 0, "y1": 1, "value": math.nan}],
     "x_range": [0, 1], "y_range": [0, 1]},
], ids=["grid", "rects"])
def test_heat_map_of_a_nan_value_is_a_parameter_error(payload):
    # no colour is defined for NaN: a usage error that names the value, not
    # an index computed from it
    for render in (viz.render_svg, ref.render_svg):
        with pytest.raises(ParameterError, match="heat map value nan"):
            render(payload)


@pytest.mark.parametrize("payload", [
    {"values": [[-1e308, 0.0, 1e308]], "x_edges": [0, 1, 2, 3],
     "y_edges": [0, 1]},
    {"rects": [{"x0": i, "x1": i + 1, "y0": 0, "y1": 1, "value": v}
               for i, v in enumerate((-1e308, 0.0, 1e308))],
     "x_range": [0, 3], "y_range": [0, 1]},
], ids=["grid", "rects"])
def test_heat_map_whose_range_overflows_spans_the_scale(payload):
    # vmax - vmin overflows to inf, yet the least value takes viridis's
    # first colour, the greatest its last and the midpoint its middle one
    svg = ET.fromstring(viz.render_svg(payload))
    fills = [el.get("fill") for el in svg.iter("{http://www.w3.org/2000/svg}rect")]
    assert fills[1:4] == ["#440154", "#26828e", "#fde725"]
    labels = [el.text for el in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert labels[-2:] == ["-1e+308", "1e+308"]


def test_svg_deterministic_across_calls():
    tree = quad_tree()
    payload = viz.direct_map(tree, "value")
    assert viz.render_svg(payload) == viz.render_svg(payload)
    json.dumps(payload)  # payloads stay JSON-serialisable


def test_quiver_arrows_lengthen_with_speed_on_road_tree(road_fixture):
    from tripletree import tree as tr
    cfg, _, _, aug = road_fixture
    tree = tr.grow(aug, np.array([1 / 3, 1 / 3, 1 / 3]), 60)
    doc = viz.quiver(tree, mode="direct")
    speeds = np.array([abs(a["y"]) for a in doc["arrows"]])
    mags = np.array([np.hypot(a["dx"], a["dy"]) for a in doc["arrows"]])
    assert len(mags) >= 20
    corr = np.corrcoef(speeds, mags)[0, 1]
    assert corr > 0.5  # position changes by the speed itself each step


# ---------------------------------------------------------------------------
# Whole-tree readers on a grown tree (regenerate with `python -m
# tests.make_goldens`)
# ---------------------------------------------------------------------------

def road_view_digests(aug) -> str:
    """sha256 of every whole-tree reader's output, one ``<hex>  <what>`` line
    each: the views, losses, leaf graph and README zone paths of a 60-leaf
    road fit, then ``ice_slice``, slice-mode ``quiver`` and the projection
    of a grown d=3 tree cut at a fixed off-plane value, the road tree's
    direct maps of every numeric attribute, a vector-action direct map, and
    the SVG text of both projections."""
    from .test_queries import END_ZONE, START_ZONE
    tree = tr.fit(aug, [0.2, 0.6, 0.2], max_leaves=60)
    graph = tj.build_leaf_graph(tree)
    zones = [tr.Box(np.array(lo), np.array(hi)) for lo, hi in (START_ZONE,
                                                               END_ZONE)]
    rng = np.random.default_rng(7)
    states = rng.uniform(0, 1, size=(400, 3))
    cube = tr.grow(synthetic_aug(
        states=states, actions=(states[:, 0] + states[:, 2] > 1).astype(float),
        V=states[:, 1] + 0.1 * rng.normal(size=400),
        D=rng.normal(size=(400, 3))), [1, 1, 1], max_leaves=40)
    plane = PlaneSpec(0, 1, n_x=30, n_y=20, fixed={2: 0.37})
    vec_states = rng.uniform(0, 1, size=(200, 2))
    vec = tr.grow(synthetic_aug(
        states=vec_states, actions=np.stack([vec_states[:, 0] ** 2,
                                             vec_states.sum(axis=1)], axis=1),
        V=vec_states[:, 1], action_kind="continuous-vector"),
        [1, 1, 0], max_leaves=12)
    road_pdp = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=40, n_y=30),
                                  "value")
    cube_pdp = viz.pdp_projection(cube, plane, "value")
    docs = {
        "direct_map_action": viz.direct_map(tree, "action"),
        "direct_map_value": viz.direct_map(tree, "value"),
        "quiver_direct": viz.quiver(tree, mode="direct"),
        "pdp_projection": road_pdp,
        "losses": repr(tr.evaluate_losses(tree, aug)),
        "leaf_graph_edges": repr(graph.edges),
        "zone_paths": [p.to_json() for p in tj.zone_paths(graph, *zones)],
        "ice_slice_d3": viz.ice_slice(cube, plane, "value"),
        "quiver_slice_d3": viz.quiver(cube, plane, mode="slice"),
        "pdp_projection_d3": cube_pdp,
        **{f"direct_map_{a}": viz.direct_map(tree, a)
           for a in ("action_impurity", "value_impurity",
                     "derivative_impurity", "density", "derivative.1")},
        "direct_map_vector_action.0": viz.direct_map(vec, "action.0"),
    }
    svgs = {"pdp_projection": viz.render_svg(road_pdp),
            "pdp_projection_d3": viz.render_svg(cube_pdp)}
    return "".join(
        f"{hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()}"
        f"  {k}.json\n" for k, v in docs.items()) + "".join(
        f"{hashlib.sha256(v.encode()).hexdigest()}  {k}.svg\n"
        for k, v in svgs.items())


def test_road_views_are_byte_identical_to_recorded_digest(road_fixture):
    with open(VIEW_DIGEST) as fh:
        assert road_view_digests(road_fixture[3]) == fh.read()


# ---------------------------------------------------------------------------
# The table-reading views against the per-leaf and per-cell loops
# ---------------------------------------------------------------------------

ATTRIBUTES = ["action", "value", "action_impurity", "value_impurity",
              "derivative_impurity", "density"]
# weighted sums of these depend on the order of addition: 1e16 + 1 rounds
# back to 1e16, so overlapping leaves summed in another order differ
ORDER_SENSITIVE = [1e16, 1.0, -1e16, -0.0]


@st.composite
def view_cases(draw):
    """A grown (or grown and reloaded) tree with d = 1 to 3 of any action
    kind, labels with XML markup and control characters among the
    discrete ones, at d = 3 sometimes leaf values from ``ORDER_SENSITIVE``,
    an attribute (components one past the last included), and a plane with
    random features, resolution and fixed values."""
    kind, attribute, d = draw(st.sampled_from(list(itertools.product(
        [ds.DISCRETE, ds.CONTINUOUS_SCALAR, ds.CONTINUOUS_VECTOR],
        ATTRIBUTES + ["derivative.", "action."], [1, 2, 3]))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    m, n = draw(st.integers(1, 2)), 80
    states = rng.uniform(0, 1, size=(n, d))
    if kind == ds.DISCRETE:
        pool = draw(st.sampled_from([["go", "stop"], [0.0, 1.0, 2.0],
                                     ["go<", "a&b>\x01"]]))
        actions = [pool[k] for k in (states[:, 0] * len(pool)).astype(int)]
    elif kind == ds.CONTINUOUS_SCALAR:
        actions = np.round(states[:, -1] * 3)
    else:
        actions = np.round(rng.normal(size=(n, m)), 1)
    data = synthetic_aug(states=states, actions=actions,
                         V=rng.normal(size=n), D=rng.normal(size=(n, d)),
                         has_deriv=rng.uniform(size=n) < 0.4, action_kind=kind)
    tree = tr.grow(data, [1, 1, 1], draw(st.integers(2, 24)))
    if d == 3 and draw(st.booleans()):
        for leaf in tree.leaves.values():  # the table is not yet built
            leaf.value_pred = float(rng.choice(ORDER_SENSITIVE))
    if draw(st.booleans()):
        tree = tr.deserialize(tr.serialize(tree))
    if attribute.endswith("."):
        last = d if attribute == "derivative." else m
        attribute += str(draw(st.integers(0, last)))
    f_x, f_y = draw(st.permutations(range(max(d, 2))))[:2]
    fixed = {f: float(rng.uniform(*tree.feature_range[f]))
             for f in range(d) if f not in (f_x, f_y) and draw(st.booleans())}
    plane = PlaneSpec(f_x, f_y, n_x=draw(st.integers(1, 12)),
                      n_y=draw(st.integers(1, 12)), fixed=fixed)
    return tree, attribute, plane


def _outcome(view, *args):
    """("ok", JSON text and SVG text), ("usage", message), or ("crash",)
    for an exception other than ParameterError.  Every SVG must parse as
    XML."""
    module, name = view
    try:
        payload = getattr(module, name)(*args)
        svg = module.render_svg(payload, {"title": "<&>\x02",
                                          "xlabel": "a&b"})
        ET.fromstring(svg)
        return "ok", json.dumps(payload, sort_keys=True), svg
    except ParameterError as exc:
        return "usage", str(exc)
    except (ValueError, IndexError):
        return ("crash",)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=view_cases())
def test_views_equal_the_per_leaf_loops_byte_for_byte(case):
    tree, attribute, plane = case
    calls = [("direct_map", tree, attribute), ("quiver", tree, None, "direct")]
    if tree.d >= 2:
        calls += [("pdp_projection", tree, plane, attribute),
                  ("ice_slice", tree, plane, attribute),
                  ("quiver", tree, plane, "slice")]
    for name, *args in calls:
        want = _outcome((ref, name), *args)
        got = _outcome((viz, name), *args)
        if want[0] == "crash":  # now one usage error instead of a traceback
            assert got[0] == "usage"
        else:
            assert got == want


def test_readme_scale_views_equal_the_per_leaf_loops(road_fixture):
    """The benchmark's three views at README scale: the action map, the
    quiver and a 120x120 value projection of a 600-leaf road fit, each
    with its SVG."""
    tree = tr.fit(road_fixture[3], [0.2, 0.6, 0.2], max_leaves=600)
    assert tree.n_leaves == 600
    calls = [("direct_map", tree, "action"), ("quiver", tree, None, "direct"),
             ("pdp_projection", tree, PlaneSpec(0, 1, n_x=120, n_y=120),
              "value")]
    for name, *args in calls:
        want = _outcome((ref, name), *args)
        assert want[0] == "ok"
        assert _outcome((viz, name), *args) == want


@pytest.mark.parametrize("d, runs", [(2, 1), (3, 2)])
def test_projection_scatters_a_run_per_plane_of_cells(d, runs):
    # a 4x4 grid of leaves of 10x10 cells, once per half of the third
    # feature when d = 3: each run ends at a whole plane of 1600 cells
    def grid(f, i0, i1):
        if i1 - i0 == 1:
            return grid(1, 0, 4) if f == 0 else ("leaf", {"value": i0 / 3})
        mid = (i0 + i1) // 2
        return ("split", f, mid / 4, grid(f, i0, mid), grid(f, mid, i1))

    spec = (grid(0, 0, 4) if d == 2 else
            ("split", 2, 0.5, grid(0, 0, 4), grid(0, 0, 4)))
    tree = build_tree(spec, [[0.0, 1.0]] * d)
    plane = PlaneSpec(0, 1, n_x=40, n_y=40)
    with mock.patch.object(viz, "_ranges", wraps=viz._ranges) as ranges:
        got = viz.pdp_projection(tree, plane, "value")
    assert ranges.call_count == 2 * runs  # the rows, then the cells, per run
    assert got == ref.pdp_projection(tree, plane, "value")


def test_d3_projection_peak_is_bounded_by_the_plane():
    """1600 leaves of 20x20 cells, 16 deep on every cell of a 200x200
    plane: scattered in one pass they would index 16 planes of cells at
    once, so they go in runs of consecutive leaves, each under two planes
    of cells."""
    rng = np.random.default_rng(5)

    def stripes(f, i0, i1, n, inner):
        if i1 - i0 == 1:
            return inner()
        mid = (i0 + i1) // 2
        return ("split", f, mid / n, stripes(f, i0, mid, n, inner),
                stripes(f, mid, i1, n, inner))

    def tile():
        return ("leaf", {"value": float(rng.normal()),
                         "n": int(rng.integers(1, 10))})

    tree = build_tree(stripes(2, 0, 16, 16, lambda: stripes(
        0, 0, 10, 10, lambda: stripes(1, 0, 10, 10, tile))), [[0.0, 1.0]] * 3)
    plane = PlaneSpec(0, 1, n_x=200, n_y=200)
    got = viz.pdp_projection(tree, plane, "value")  # builds the leaf table
    assert got == ref.pdp_projection(tree, plane, "value")
    _, peak = traced_peak(lambda: viz.pdp_projection(tree, plane, "value"))
    _, loop = traced_peak(lambda: ref.pdp_projection(tree, plane, "value"))
    assert peak <= 2 * loop, f"{peak / 1e6:.2f} MB against {loop / 1e6:.2f} MB"
