"""Query-layer contract: recorded digests of explanation and path outputs on
the road fixture, and ``==`` properties comparing the array passes of
``explain`` and ``trajectory`` with the per-leaf loops in ``reference.py``."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletree import explain as ex
from tripletree import trajectory as tj
from tripletree import tree as tr
from tripletree.errors import ParameterError, TraceFormatError

from . import reference as ref
from .conftest import build_tree

QUERY_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                            "road_queries.sha256")

# the README's zone query
START_ZONE = ((0.7, -0.03), (0.9, 0.0))
END_ZONE = ((1.4, 0.0), (1.7, 0.03))


def road_query_digests(aug) -> str:
    """sha256 of the JSON of every query kind on a 60-leaf road fit, and of
    each explanation kind's ``render_text`` lines, one ``<hex>  <what>``
    line each.

    The states are a 9x9 grid reaching past the data ranges, so boxes with
    infinite sides are projected onto.  Temporal queries pair each grid state
    with its next neighbour along either axis, and with its mirror image
    through the grid centre, wherever the predicted actions differ.
    """
    tree = tr.fit(aug, [0.2, 0.6, 0.2], max_leaves=60)
    grid = [np.array([p, s]) for p in np.linspace(-0.3, 3.3, 9)
            for s in np.linspace(-0.12, 0.12, 9)]
    actions = [tr.predict(tree, s).action for s in grid]
    median_v = float(np.median(aug.V))
    expls = {"factual": [], "counterfactual_action": [],
             "counterfactual_value": [], "temporal": []}
    for s, a in zip(grid, actions):
        foil = next(b for b in tree.action_labels if b != a)
        expls["factual"].append(ex.factual(tree, s))
        expls["counterfactual_action"].append(
            ex.counterfactual_action(tree, s, foil))
        expls["counterfactual_value"].append(
            ex.counterfactual_value(tree, s, ("<=", median_v)))
    for i in range(len(grid)):
        for j in (i + 1, i + 9, len(grid) - 1 - i):
            if j < len(grid) and actions[i] != actions[j]:
                expls["temporal"].append(ex.temporal(tree, grid[i], grid[j]))
    docs = {k: [ex.render_json(e) for e in v] for k, v in expls.items()}

    graph = tj.build_leaf_graph(tree)
    zones = [tr.Box(np.array(lo), np.array(hi)) for lo, hi in (START_ZONE,
                                                               END_ZONE)]
    paths = tj.zone_paths(graph, *zones)
    docs["zone_paths"] = [p.to_json() for p in paths]
    docs["aligned"] = [tj.align_path(tree, p.leaves).to_json() for p in paths]
    for k, v in expls.items():
        docs[f"{k}_text"] = [ex.render_text(tree, e) for e in v]
    return "".join(
        f"{hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()}"
        f"  {k}.json\n" for k, v in docs.items())


def test_road_queries_are_byte_identical_to_recorded_digest(road_fixture):
    # pins every float the explanation and path queries produce;
    # tests/make_goldens.py rewrites the file
    with open(QUERY_DIGEST) as fh:
        assert road_query_digests(road_fixture[3]) == fh.read()


# ---------------------------------------------------------------------------
# Array passes against the per-item loops
# ---------------------------------------------------------------------------

# Thresholds and states on a 1/8 grid make (changed count, L2) ties between
# leaves and put states exactly on upper sides; the outer sides of every
# tree stay infinite.
STEP = 0.125
THRESHOLDS = [STEP * i for i in range(1, 8)]
COORDS = [STEP * i for i in range(-2, 11)]
RANGES = [(0.0, 1.0), (0.5, 0.5), (-1.0, 3.0)]  # a zero-width one included
coords = st.one_of(st.sampled_from(COORDS), st.sampled_from(COORDS),
                   st.floats(-0.5, 1.5))


@st.composite
def grid_trees(draw, max_leaves=12, actions="ab"):
    d = draw(st.integers(1, 3))
    n_leaves = draw(st.integers(2, max_leaves))

    def make(lo, hi, leaves):
        options = [(f, t) for f in range(d) for t in THRESHOLDS
                   if lo[f] < t < hi[f]]
        if leaves == 1 or not options:
            return ("leaf", {"action": draw(st.sampled_from(actions)),
                             "deriv": draw(st.lists(
                                 st.sampled_from([0.0, 0.5, -1.0]),
                                 min_size=d, max_size=d))})
        f, t = draw(st.sampled_from(options))
        n_left = draw(st.integers(1, leaves - 1))
        hi_l, lo_r = list(hi), list(lo)
        hi_l[f] = lo_r[f] = t
        return ("split", f, t, make(lo, hi_l, n_left),
                make(lo_r, hi, leaves - n_left))

    spec = make([0.0] * d, [1.0] * d, n_leaves)
    fr = [draw(st.sampled_from(RANGES)) for _ in range(d)]
    sigma = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          min_size=d, max_size=d))
    return build_tree(spec, fr, sigma=sigma)


@st.composite
def tree_and_state(draw):
    tree = draw(grid_trees())
    return tree, np.array(draw(st.lists(coords, min_size=tree.d,
                                        max_size=tree.d)))


@st.composite
def action_changes(draw):
    """A tree, a state, and a successor state in a leaf of the other
    action (when the tree has one)."""
    tree, s_t = draw(tree_and_state())
    a_t = tr.predict(tree, s_t).action
    other = [lid for lid in sorted(tree.leaves)
             if tree.leaves[lid].action_pred != a_t]
    s_next = np.array(draw(st.lists(coords, min_size=tree.d,
                                    max_size=tree.d)))
    if other:
        box = tree.leaves[draw(st.sampled_from(other))].box
        s_next = ref.project_into_leaf(s_next, box, tree.feature_range)
    return tree, s_t, s_next


def _tie_case():
    # (0.5, 0.5) is one quarter away from both b-leaves, along one feature
    tree = build_tree(("split", 0, 0.75,
                       ("split", 1, 0.75, ("leaf", {"action": "a"}),
                        ("leaf", {"action": "b"})),
                       ("leaf", {"action": "b"})), [[0.0, 1.0]] * 2)
    return tree, np.array([0.5, 0.5])


def _nudge_case(threshold):
    # the state sits above the b-leaf's open upper side; at 1e9 the 1e-9
    # nudge is lost to rounding and the next float down is taken instead
    tree = build_tree(("split", 0, threshold, ("leaf", {"action": "b"}),
                       ("leaf", {"action": "a"})), [[0.0, 1.0]])
    return tree, np.array([2.0 * threshold])


def _same_bytes(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=tree_and_state())
@example(case=_tie_case())
@example(case=_nudge_case(0.5))
@example(case=_nudge_case(1e9))
def test_projection_and_selection_equal_per_leaf_loop(case):
    tree, state = case
    ids = sorted(tree.leaves)
    stacked = ex._project_into_leaf(state, tree.table.box, tree.feature_range)
    for row, lid in zip(stacked, ids):
        box = tree.leaves[lid].box
        want = ref.project_into_leaf(state, box, tree.feature_range)
        assert _same_bytes(row, want)
        assert _same_bytes(ex._project_into_leaf(state, box,
                                                 tree.feature_range), want)
    eligible = [lid for lid in ids if tree.leaves[lid].action_pred == "b"]
    if not eligible:
        return
    got = _minimal_b(tree, state)
    want_lid, want_point, want_changed = ref.select_minimal(tree, state,
                                                            eligible)
    assert got.target_leaf == want_lid
    assert _same_bytes(got.foil_point, want_point)
    assert got.changed_features == want_changed.tolist()


def _minimal_b(tree, state):
    """The minimal change of ``state`` into a leaf predicting "b"."""
    return ex._counterfactual("counterfactual_action", tree, state, None, "b",
                              tree.table.predicts("b"))


def test_tie_case_is_a_tie_won_by_the_lower_id():
    tree, state = _tie_case()
    keys = []
    for lid in (1, 2):
        point = ref.project_into_leaf(state, tree.leaves[lid].box,
                                      tree.feature_range)
        keys.append(ref.change_metrics(state, point, tree.feature_range)[1:])
    assert keys[0] == keys[1]
    assert _minimal_b(tree, state).target_leaf == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=action_changes())
@example(case=(*_tie_case(), np.array([0.9, 0.2])))
def test_temporal_equals_leaf_by_leaf_purity_loop(case):
    tree, s_t, s_next = case
    a_t = tr.predict(tree, s_t).action
    a_n = tr.predict(tree, s_next).action
    if a_t == a_n:
        return
    got = ex.temporal(tree, s_t, s_next)
    want = ref.temporal_choice(tree, s_t, s_next, a_n)
    assert want is not None  # the successor's own leaf is always pure
    lid, point, changed = want
    assert not got.unconstrained_fallback
    assert got.target_leaf == lid
    assert _same_bytes(got.foil_point, point)
    assert got.changed_features == [int(f) for f in changed]


# ---------------------------------------------------------------------------
# Single-state lookup, factual bounds and rule text against the numpy-scalar
# forms in ``reference.py``
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def lookup_cases(draw):
    """A grid tree and one state as a caller may pass it: a float or int
    array, a list or a tuple.  Coordinates fall on thresholds, on signed
    zeros, infinities and NaN; the state may be a feature short or long,
    or hold a string."""
    tree = draw(grid_trees())
    form = draw(st.sampled_from(["floats", "ints", "list", "tuple"]))
    n = tree.d + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if form == "ints":
        return tree, np.array(draw(st.lists(st.integers(-1, 2), min_size=n,
                                            max_size=n)), dtype=np.int64)
    coord = st.one_of(st.sampled_from(THRESHOLDS), coords,
                      st.sampled_from(SPECIAL), st.integers(-1, 2))
    state = draw(st.lists(coord, min_size=n, max_size=n))
    if form == "floats":
        return tree, np.array(state, dtype=float)
    if state and draw(st.integers(0, 9)) == 0:
        state[draw(st.integers(0, n - 1))] = "x"
    return tree, state if form == "list" else tuple(state)


def _result(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=lookup_cases())
def test_lookup_bounds_and_text_equal_the_numpy_scalar_forms(case):
    tree, state = case
    if "x" not in list(state) and len(state) != tree.d:
        # a state of another length is refused before any lookup
        assert _result(tr.leaf_of, tree, state) is ParameterError
        assert _result(ex.factual, tree, state) is ParameterError
        return
    want = _result(ref.leaf_of, tree, state)
    assert _result(tr.leaf_of, tree, state) == want
    if isinstance(want, type):  # an exception type: factual raises it too
        assert _result(ex.factual, tree, state) == want
        return
    box = tree.leaves[want].box
    bounds = ref.box_bounds(box)
    expl = ex.factual(tree, state)
    assert (expl.target_leaf, expl.bounds) == (want, bounds)
    assert [tuple(map(type, b)) for b in expl.bounds] == [
        (int, str, float)] * len(bounds)
    assert ex.render_text(tree, expl) == (
        f"Action = {ref.fmt_value(expl.query_action)} because "
        f"{ref.fmt_bounds(bounds, tree.feature_names)}")


def test_states_not_of_the_tree_width_are_refused():
    # a d=2 tree once answered [0.7, 0.2, 9.0], reading only two features
    tree = build_tree(("split", 0, 0.5, ("leaf", {}),
                       ("split", 1, 0.5, ("leaf", {}), ("leaf", {}))),
                      [[0.0, 1.0], [0.0, 1.0]])
    for state in ([0.7, 0.2, 9.0], [0.7], 0.7, [[0.7, 0.2]], np.zeros((1, 2))):
        with pytest.raises(ParameterError, match=r"expected \(2,\)"):
            tr.leaf_of(tree, state)
    for states in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(TraceFormatError, match="tree has 2 features"):
            tr.assign_leaves(tree, states)


def test_assign_leaves_skips_subtrees_no_state_reaches():
    tree = build_tree(("split", 0, 0.5, ("leaf", {}),
                       ("split", 1, 0.5, ("leaf", {}), ("leaf", {}))),
                      [[0.0, 1.0], [0.0, 1.0]])
    none = tr.assign_leaves(tree, np.zeros((0, 2)))
    assert none.dtype == np.int64 and none.shape == (0,)
    # no state goes right of the root
    assert tr.assign_leaves(tree, [[0.2, 0.9], [0.3, 0.1]]).tolist() == \
        [tr.leaf_of(tree, [0.2, 0.9])] * 2


taus = st.one_of(st.floats(), st.floats(width=32), st.sampled_from(SPECIAL),
                 st.integers(-10 ** 20, 10 ** 20))


@st.composite
def ordered_bounds(draw):
    """Bounds as every explanation holds them: by feature in ascending
    order, a lower side before an upper one."""
    bounds = []
    for f in sorted(draw(st.sets(st.integers(0, 2)))):
        sides = draw(st.sampled_from([(">=",), ("<",), (">=", "<")]))
        bounds += [(f, rel, draw(taus)) for rel in sides]
    return bounds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bounds=ordered_bounds(), as_numpy=st.booleans())
def test_rule_text_equals_the_numpy_scalar_form(bounds, as_numpy):
    if as_numpy:
        bounds = [(np.int64(f), rel, np.float64(tau)) for f, rel, tau in bounds]
    names = ["pos", "speed", "f2"]
    assert ex._fmt_bounds(bounds, names) == ref.fmt_bounds(bounds, names)
    given = [tau for _, _, tau in bounds]
    for v in [*given, np.array(given, dtype=float), "left"]:
        assert ex._fmt_value(v) == ref.fmt_value(v)


def test_rule_text_keeps_the_order_given():
    bounds = [(1, "<", 0.5), (0, ">=", 0.25), (0, "<", 0.75), (0, ">=", 1.0)]
    assert ex._fmt_bounds(bounds, ["pos", "speed"]) == (
        "speed < 0.5 and pos in [0.25, 0.75] and pos >= 1")


# zero-length segments come from repeated nodes or zero weights, zero
# derivatives from zero rows
values = st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-2.0, 2.0))


@st.composite
def polylines(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    rows = st.lists(values, min_size=d, max_size=d)
    nodes = [draw(rows)]
    for _ in range(k):
        nodes.append(nodes[-1] if draw(st.booleans()) else draw(rows))
    derivs = [draw(rows) for _ in range(k)]
    w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=d,
                      max_size=d))
    return np.array(nodes), np.array(derivs), np.array(w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=polylines())
@example(case=(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
               np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2)))
def test_segment_angles_equal_per_segment_loop(case):
    nodes, derivs, w = case
    nv = np.sqrt(np.vecdot(derivs, derivs))
    angles = tj._angles(nodes, w, derivs, nv, nv != 0)
    assert tj._objective(angles) == ref.angle_objective(nodes, derivs, w)
    assert _same_bytes(tj._gradient(angles, derivs),
                       ref.angle_gradient(nodes, derivs, w))


@st.composite
def crossing_checks(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 7))
    rows = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=d, max_size=d)
    nodes = np.array([draw(rows) for _ in range(k + 1)])
    trial = np.array([draw(rows) for _ in range(k + 1)])
    trial[0], trial[k] = nodes[0], nodes[k]  # the end points never move
    feat = np.array(draw(st.lists(st.integers(0, d - 1), min_size=k - 1,
                                  max_size=k - 1)))
    visible = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                     min_size=k - 1, max_size=k - 1)))
    return nodes, trial, feat, visible


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=crossing_checks())
# node 1 is put back; seen from where it returns to, node 2 does not cross
@example(case=(np.array([[0.0], [0.0], [1.0], [1.0]]),
               np.array([[0.0], [1.0], [0.5], [1.0]]),
               np.array([0, 0]), np.array([-1.0, 1.0])))
def test_crossing_check_equals_node_by_node_loop(case):
    nodes, trial, feat, visible = case
    want = ref.reject_crossings(trial, nodes, feat, visible)
    face = np.arange(1, len(nodes) - 1) * nodes.shape[1] + feat
    tj._reject_crossings(trial, nodes, face, face - nodes.shape[1], visible)
    assert _same_bytes(trial, want)


def _corner_case():
    # the start point is the face point, so the first segment has zero
    # length until the node moves
    tree = build_tree(("split", 0, 1.0,
                       ("leaf", {"action": "a", "deriv": [1.0, 0.0]}),
                       ("leaf", {"action": "a", "deriv": [1.0, 0.0]})),
                      [[0.0, 2.0], [0.0, 1.0]])
    return tree, [0, 1], ((1.0, 0.5), (1.5, 0.8))


def _crossing_case():
    # leaf 0 joins leaf 2 across leaf 1, so node 1 lies on leaf 0's exit
    # face x = 1 below y = 1.5; leaf 0's derivative lifts it past the face
    # y = 1.5 that node 2 shares with leaf 3, and descent puts node 2 back
    leaf = lambda deriv: ("leaf", {"action": "a", "deriv": deriv})
    tree = build_tree(("split", 0, 1.0, leaf([1.0, 2.0]),
                       ("split", 0, 2.0, leaf([1.0, 0.0]),
                        ("split", 1, 1.5, leaf([0.0, 1.0]),
                         leaf([0.0, 1.0])))),
                      [[0.0, 3.0], [0.0, 3.0]])
    return tree, [0, 2, 3], None


@st.composite
def leaf_walks(draw):
    tree = draw(grid_trees(max_leaves=8))
    ids = sorted(tree.leaves)
    seq = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=5,
                        unique=True))
    endpoints = None
    if draw(st.booleans()):
        endpoints = tuple(draw(st.lists(coords, min_size=tree.d,
                                        max_size=tree.d)) for _ in range(2))
    return tree, seq, endpoints


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=leaf_walks())
@example(case=_corner_case())
@example(case=_crossing_case())
def test_align_path_equals_face_by_face_descent(case):
    tree, seq, endpoints = case
    for a, b in zip(seq, seq[1:]):
        tree.leaves[a].transitions = {b: (1.0, 1.0)}
    start = tj.align_path(tree, seq, max_iters=0, endpoints=endpoints)
    got = tj.align_path(tree, seq, max_iters=60, endpoints=endpoints)
    sigma = tree.sigma
    w = np.where(sigma > 0, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
    derivs = np.array([tree.leaves[l].deriv_pred * w for l in seq])
    faces = [(c["feature"], c["value"], c["lower"], c["upper"])
             for c in start.face_constraints]
    nodes, obj, history = ref.align_descent(
        start.nodes, faces, derivs, w, np.where(sigma > 0, sigma, 0.0),
        max_iters=60, step_size=0.05, tol=1e-8)
    assert _same_bytes(got.nodes, nodes)
    assert got.objective == obj
    assert got.objective_history == history


def test_crossing_case_puts_a_node_back_on_some_trials(monkeypatch):
    # so the example above runs the node-by-node put-back, and the trials
    # that skip it
    put_back = []

    def spy(trial, nodes, *args):
        before = trial.copy()
        reject(trial, nodes, *args)
        put_back.append(not np.array_equal(before, trial))

    reject = tj._reject_crossings
    monkeypatch.setattr(tj, "_reject_crossings", spy)
    tree, seq, _ = _crossing_case()
    for a, b in zip(seq, seq[1:]):
        tree.leaves[a].transitions = {b: (1.0, 1.0)}
    tj.align_path(tree, seq, max_iters=60)
    assert any(put_back) and not all(put_back)


# ---------------------------------------------------------------------------
# Alignment stop status
# ---------------------------------------------------------------------------

def test_readme_path_reports_its_stop_reason(road_fixture):
    # the README's point-to-point query, on the road fixture's tree
    tree = tr.fit(road_fixture[3], [0.2, 0.6, 0.2], max_leaves=60)
    graph = tj.build_leaf_graph(tree)
    path = tj.most_probable_path(graph, tr.leaf_of(tree, [0.8, -0.02]),
                                 tr.leaf_of(tree, [1.6, 0.02]))
    aligned = tj.align_path(tree, path.leaves)
    drops = np.diff(aligned.objective_history)
    # still descending by more than tol when the iteration budget ran out
    assert aligned.stop_reason == "max_iters"
    assert aligned.iterations == 1000 == len(drops)
    assert np.all(-drops >= 1e-8)
    assert "stop_reason" not in aligned.to_json()

    longer = tj.align_path(tree, path.leaves, max_iters=20000)
    assert longer.stop_reason == "tol"
    assert longer.iterations < 20000
    assert -np.diff(longer.objective_history)[-1] < 1e-8


def test_stop_reasons_on_small_paths():
    tree, seq, endpoints = _corner_case()
    tree.leaves[0].transitions = {1: (1.0, 1.0)}
    # any move of the node opens the zero-length first segment at a right
    # angle to its derivative, so no step size lowers the objective
    stuck = tj.align_path(tree, seq, endpoints=endpoints)
    assert (stuck.stop_reason, stuck.iterations) == ("no_descent", 0)
    assert stuck.objective_history == [stuck.objective]
    straight = tj.align_path(tree, seq)
    assert (straight.stop_reason, straight.iterations) == ("tol", 1)
    assert tj.align_path(tree, seq, max_iters=0).stop_reason == "max_iters"
    assert tj.align_path(tree, [0]).stop_reason == "tol"
