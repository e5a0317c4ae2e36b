import math

import numpy as np
import pytest

from tripletree import trajectory as tj
from tripletree.errors import ParameterError
from tripletree.tree import Box
from tripletree.trajectory import END, LeafGraph

from .conftest import build_tree, random_tree
from .reference import enumerate_simple_paths


def make_graph(edge_probs):
    g = LeafGraph()
    nodes = set(edge_probs)
    for outs in edge_probs.values():
        nodes.update(d for d, _ in outs if d is not None)
    g.node_ids = sorted(nodes)
    for src, outs in edge_probs.items():
        ordered = sorted(outs, key=lambda e: (e[0] is None, e[0]))
        g.edges[src] = [(dest, p, 1.0, -math.log(p)) for dest, p in ordered]
    return g


def chain_tree():
    """Three leaves with a deterministic 0 -> 1 -> 2 transition chain."""
    spec = ("split", 0, 1.0,
            ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                      "transitions": {1: (1.0, 1.0)}}),
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "deriv": [0.0, 1.0],
                       "transitions": {2: (1.0, 1.0)}}),
             ("leaf", {"action": "b", "deriv": [0.0, 1.0],
                       "transitions": {}})))
    return build_tree(spec, [[0.0, 2.0], [0.0, 2.0]])


def right_angle_tree():
    """Unit boxes around a 90-degree turn in the derivative field.

    The flow enters leaf 0 ([0,1) x [0,1)) moving right, crosses into
    leaf 2 ([1,2) x [0,1)) moving up, and ends in leaf 3 ([1,2) x [1,2)).
    Leaf 1 is an unused filler so every box is bounded.
    """
    spec = ("split", 0, 1.0,
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                       "transitions": {2: (1.0, 1.0)}}),
             ("leaf", {"action": "c", "deriv": [1.0, 0.0],
                       "transitions": {}})),
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "deriv": [0.0, 1.0],
                       "transitions": {3: (1.0, 1.0)}}),
             ("leaf", {"action": "b", "deriv": [0.0, 1.0],
                       "transitions": {}})))
    return build_tree(spec, [[0.0, 2.0], [0.0, 2.0]])


def test_build_leaf_graph_from_transitions():
    tree = chain_tree()
    graph = tj.build_leaf_graph(tree)
    assert graph.edges[0] == [(1, 1.0, 1.0, 0.0)]
    assert graph.edges[1] == [(2, 1.0, 1.0, 0.0)]
    assert 2 not in graph.edges
    assert graph.node_ids.tolist() == [0, 1, 2]
    for row, lid in enumerate(graph.node_ids.tolist()):
        box = tree.leaves[lid].box
        assert np.array_equal(graph.boxes.lower[row], box.lower)
        assert np.array_equal(graph.boxes.upper[row], box.upper)


def test_graph_without_transitions_is_edgeless():
    tree = build_tree(("split", 0, 0.5,
                       ("leaf", {"action": "a"}),
                       ("leaf", {"action": "b"})), [[0.0, 1.0]])
    graph = tj.build_leaf_graph(tree)
    assert graph.edges == {}
    assert tj.most_probable_path(graph, 0, 1) is None


def test_most_probable_path_trivial_and_chain():
    graph = make_graph({0: [(1, 0.5), (2, 0.2)], 1: [(2, 0.5)]})
    same = tj.most_probable_path(graph, 0, 0)
    assert same.leaves == [0] and same.probability == 1.0
    assert same.expected_duration == 0.0
    path = tj.most_probable_path(graph, 0, 2)
    assert path.leaves == [0, 1, 2]
    assert path.probability == pytest.approx(0.25)
    assert path.expected_duration == pytest.approx(2.0)


def test_unreachable_is_none():
    graph = make_graph({0: [(1, 1.0)]})
    assert tj.most_probable_path(graph, 1, 0) is None


def test_path_to_termination_sink():
    graph = make_graph({0: [(1, 0.5), (None, 0.5)], 1: [(None, 1.0)]})
    path = tj.most_probable_path(graph, 0, END)
    assert path.leaves == [0, None]
    assert path.probability == pytest.approx(0.5)


def test_dijkstra_matches_exhaustive_enumeration():
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        edges = {}
        for src in range(n):
            dests = [d for d in range(n)
                     if d != src and rng.uniform() < 0.4][:4]
            if not dests:
                continue
            probs = rng.uniform(0.05, 1.0, size=len(dests))
            probs = probs / probs.sum()
            edges[src] = [(d, float(p)) for d, p in zip(dests, probs)]
        graph = make_graph(edges | {n - 1: edges.get(n - 1, [])})
        start, end = 0, n - 1
        got = tj.most_probable_path(graph, start, end)
        brute = enumerate_simple_paths(
            {s: outs for s, outs in edges.items()}, start, end)
        if not brute:
            assert got is None
            continue
        best = max(p for p, _ in brute)
        assert got is not None
        assert got.probability == pytest.approx(best, rel=1e-12)
        # the returned sequence is a valid simple path with that probability
        assert len(set(got.leaves)) == len(got.leaves)
        prob = 1.0
        for a, b in zip(got.leaves, got.leaves[1:]):
            match = [e for e in graph.out_edges(a) if e[0] == b]
            assert match
            prob *= match[0][1]
        assert prob == pytest.approx(got.probability, rel=1e-12)


def test_probability_equals_exp_of_negative_cost():
    rng = np.random.default_rng(3)
    graph = make_graph({0: [(1, 0.3), (2, 0.7)], 1: [(3, 0.9), (2, 0.1)],
                        2: [(3, 1.0)]})
    path = tj.most_probable_path(graph, 0, 3)
    cost = 0.0
    for a, b in zip(path.leaves, path.leaves[1:]):
        cost += [e[3] for e in graph.out_edges(a) if e[0] == b][0]
    assert path.probability == pytest.approx(math.exp(-cost), rel=1e-12)


# ---------------------------------------------------------------------------
# Zone paths
# ---------------------------------------------------------------------------

def test_zone_paths_reduce_to_single_pair():
    tree = chain_tree()
    graph = tj.build_leaf_graph(tree)
    start_zone = tree.leaves[0].box.clipped(tree.feature_range)
    end_zone = tree.leaves[2].box.clipped(tree.feature_range)
    # shrink zones into the boxes' interiors so only one leaf intersects
    for zone in (start_zone, end_zone):
        zone.lower += 1e-6
        zone.upper -= 1e-6
    paths = tj.zone_paths(graph, start_zone, end_zone)
    assert len(paths) == 1
    assert paths[0].leaves == [0, 1, 2]


def test_zone_paths_probability_filter():
    tree = chain_tree()
    tree.leaves[0].transitions = {1: (0.4, 1.0), 2: (0.6, 2.0)}
    graph = tj.build_leaf_graph(tree)
    from tripletree.tree import Box
    everything = Box(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    all_paths = tj.zone_paths(graph, everything, everything, min_probability=0.0)
    strict = tj.zone_paths(graph, everything, everything, min_probability=1.0)
    assert all(p.probability == 1.0 for p in strict)
    assert len(strict) < len(all_paths)
    assert all(a.probability >= b.probability
               for a, b in zip(all_paths, all_paths[1:]))


def test_zone_paths_match_per_pair_search():
    rng = np.random.default_rng(8)
    tree = random_tree(rng, 2, 8, actions=["a", "b"])
    ids = sorted(tree.leaves)
    for lid in ids:
        others = [o for o in ids if o != lid]
        picks = rng.choice(others, size=min(2, len(others)), replace=False)
        probs = rng.uniform(0.2, 1.0, size=len(picks))
        probs /= probs.sum()
        tree.leaves[lid].transitions = {
            int(o): (float(p), 1.0) for o, p in zip(picks, probs)}
    graph = tj.build_leaf_graph(tree)
    from tripletree.tree import Box
    zone = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    got = tj.zone_paths(graph, zone, zone, min_probability=0.3)
    want = []
    for ls in ids:
        for le in ids:
            p = tj.most_probable_path(graph, ls, le)
            if p is not None and p.probability >= 0.3:
                want.append((p.leaves[0], p.leaves[-1], p.probability))
    assert sorted((p.leaves[0], p.leaves[-1], p.probability) for p in got) == \
        sorted(want)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def independent_objective(nodes, derivs, w):
    total = 0.0
    for j in range(1, len(nodes)):
        u = (np.asarray(nodes[j]) - np.asarray(nodes[j - 1])) * w
        v = np.asarray(derivs[j - 1]) * w
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            continue
        c = min(max(np.dot(u, v) / (nu * nv), -1.0), 1.0)
        total += math.acos(c) ** 2
    return total


def test_align_collinear_is_straight_with_zero_objective():
    spec = ("split", 0, 1.0,
            ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                      "transitions": {1: (1.0, 1.0)}}),
            ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                      "transitions": {}}))
    tree = build_tree(spec, [[0.0, 2.0], [0.0, 1.0]])
    path = tj.align_path(tree, [0, 1])
    assert path.objective == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(path.nodes[:, 1], 0.5)  # straight horizontal polyline
    assert path.probability == 1.0


def test_align_single_leaf_path():
    tree = build_tree(("leaf", {"action": "a", "deriv": [1.0]}), [[0.0, 1.0]])
    path = tj.align_path(tree, [0])
    assert path.nodes.shape == (1, 1)
    assert path.objective == 0.0


def test_align_right_angle_matches_grid_search():
    tree = right_angle_tree()
    path = tj.align_path(tree, [0, 2, 3], max_iters=30000, tol=0.0)
    derivs = [tree.leaves[l].deriv_pred for l in (0, 2, 3)]
    w = np.ones(2)
    nodes = path.nodes.copy()

    # each interior node must sit at the grid-search optimum of the
    # objective restricted to its face, holding the others fixed
    for j, face in enumerate(path.face_constraints, start=1):
        free = [f for f in range(2) if f != face["feature"]][0]
        lo, hi = face["lower"][free], face["upper"][free]
        span = (lo, hi)
        best_x = None
        for _ in range(6):  # successive grid refinement
            xs = np.linspace(span[0], span[1], 2001)
            vals = []
            for x in xs:
                trial = nodes.copy()
                trial[j][free] = x
                vals.append(independent_objective(trial, derivs, w))
            k = int(np.argmin(vals))
            best_x = xs[k]
            width = (span[1] - span[0]) / 2000
            span = (max(lo, best_x - 2 * width), min(hi, best_x + 2 * width))
        assert abs(nodes[j][free] - best_x) < 1e-6
        assert abs(nodes[j][face["feature"]] - face["value"]) <= 1e-9


def test_align_objective_monotone_and_faces_respected():
    rng = np.random.default_rng(17)
    tree = right_angle_tree()
    # perturb derivatives so the optimisation has real work to do
    tree.leaves[0].deriv_pred = np.array([1.0, 0.3])
    tree.leaves[2].deriv_pred = np.array([0.2, 1.0])
    tree.leaves[3].deriv_pred = np.array([-0.1, 0.8])
    path = tj.align_path(tree, [0, 2, 3], max_iters=500)
    hist = path.objective_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    for j, face in enumerate(path.face_constraints, start=1):
        node = path.nodes[j]
        assert abs(node[face["feature"]] - face["value"]) <= 1e-9
        assert np.all(node >= face["lower"] - 1e-9)
        assert np.all(node <= face["upper"] + 1e-9)


@pytest.mark.parametrize("leaves, message", [
    ([0, 3], "no recorded transition 0 -> 3"),
    ([0, None], "cannot align a path through the termination sink"),
    ([99], "leaf sequence names a leaf the tree lacks"),
    ([], "empty leaf sequence"),
], ids=["no-edge", "through-sink", "unknown-leaf", "empty"])
def test_align_requires_recorded_transitions(leaves, message):
    with pytest.raises(ParameterError) as err:
        tj.align_path(right_angle_tree(), leaves)
    assert str(err.value) == message


@pytest.mark.parametrize("opts", [
    {"step_size": float("nan")}, {"step_size": float("inf")},
    {"step_size": 0.0}, {"step_size": -1.0}, {"max_iters": -5},
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-8}])
def test_align_rejects_descent_settings_that_cannot_run(opts):
    # each would return the unaligned path, or run to max_iters, silently
    with pytest.raises(ParameterError):
        tj.align_path(right_angle_tree(), [0, 2, 3], **opts)


def test_align_handles_zero_derivative():
    spec = ("split", 0, 1.0,
            ("leaf", {"action": "a", "deriv": [0.0, 0.0],
                      "transitions": {1: (1.0, 1.0)}}),
            ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                      "transitions": {}}))
    tree = build_tree(spec, [[0.0, 2.0], [0.0, 1.0]])
    path = tj.align_path(tree, [0, 1], max_iters=50)
    assert np.isfinite(path.objective)


def test_align_invariant_under_feature_rescale():
    c = 25.0
    base = right_angle_tree()
    scaled_spec = ("split", 0, 1.0 * c,
                   ("split", 1, 1.0,
                    ("leaf", {"action": "a", "deriv": [1.0 * c, 0.0],
                              "transitions": {2: (1.0, 1.0)}}),
                    ("leaf", {"action": "c", "deriv": [1.0 * c, 0.0],
                              "transitions": {}})),
                   ("split", 1, 1.0,
                    ("leaf", {"action": "a", "deriv": [0.0, 1.0],
                              "transitions": {3: (1.0, 1.0)}}),
                    ("leaf", {"action": "b", "deriv": [0.0, 1.0],
                              "transitions": {}})))
    scaled = build_tree(scaled_spec, [[0.0, 2.0 * c], [0.0, 2.0]],
                        sigma=[1.0 * c, 1.0])
    p0 = tj.align_path(base, [0, 2, 3], max_iters=2000)
    p1 = tj.align_path(scaled, [0, 2, 3], max_iters=2000)
    assert p1.objective == pytest.approx(p0.objective, abs=1e-12)
    assert np.allclose(p1.nodes / np.array([c, 1.0]), p0.nodes,
                       rtol=1e-9, atol=1e-12)


def test_non_adjacent_transition_uses_exit_face():
    # recorded transition between boxes separated by an intermediate strip:
    # the node is placed where the centre-to-centre ray exits the first box,
    # and stays constrained to that box face
    spec = ("split", 0, 1.0,
            ("leaf", {"action": "a", "deriv": [1.0, 0.5],
                      "transitions": {2: (1.0, 2.0)}}),
            ("split", 0, 2.0,
             ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                       "transitions": {}}),
             ("leaf", {"action": "b", "deriv": [1.0, 0.0],
                       "transitions": {}})))
    tree = build_tree(spec, [[0.0, 3.0], [0.0, 2.0]])
    path = tj.align_path(tree, [0, 2], max_iters=200)
    face = path.face_constraints[0]
    assert face["feature"] == 0
    assert face["value"] == pytest.approx(1.0)  # upper side of the first box
    assert face["lower"][1] == 0.0 and face["upper"][1] == 2.0
    node = path.nodes[1]
    assert abs(node[0] - 1.0) <= 1e-9
    assert 0.0 - 1e-9 <= node[1] <= 2.0 + 1e-9
    assert path.objective is not None


def test_exit_face_toward_the_box_centre_is_a_finite_face():
    # no ray leaves the centre toward itself: no face is crossed at a finite
    # distance, and the first feature's upper face is taken at the centre
    box = Box(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
    face = tj._exit_face(box, np.array([1.0, 1.0]))
    assert (face.feature, face.value) == (0, 2.0)
    assert np.array_equal(face.init, [2.0, 1.0])
    for array in (face.lower, face.upper, face.init):
        assert np.isfinite(array).all()


def test_corner_touching_boxes_pin_node_to_the_corner():
    spec = ("split", 0, 1.0,
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "deriv": [1.0, 1.0],
                       "transitions": {3: (1.0, 1.0)}}),
             ("leaf", {"action": "a", "deriv": [1.0, 0.0],
                       "transitions": {}})),
            ("split", 1, 1.0,
             ("leaf", {"action": "a", "deriv": [0.0, 1.0],
                       "transitions": {}}),
             ("leaf", {"action": "b", "deriv": [1.0, 1.0],
                       "transitions": {}})))
    tree = build_tree(spec, [[0.0, 2.0], [0.0, 2.0]])
    # leaf 0 is [0,1)x[0,1); leaf 3 is [1,2)x[1,2): the intersection of the
    # closures is the single corner point, and the node stays there
    path = tj.align_path(tree, [0, 3], max_iters=200)
    assert np.allclose(path.nodes[1], [1.0, 1.0])
    assert path.objective is not None


def test_path_json_export_shape():
    tree = right_angle_tree()
    path = tj.align_path(tree, [0, 2, 3], max_iters=50)
    doc = path.to_json()
    assert doc["leaves"] == [0, 2, 3]
    assert len(doc["nodes"]) == 4
    assert 0 < doc["probability"] <= 1
    assert doc["objective"] >= 0


def _segment_angles(tree, path):
    w = np.where(tree.sigma > 0,
                 1.0 / np.where(tree.sigma > 0, tree.sigma, 1.0), 0.0)
    out = []
    for j in range(1, len(path.nodes)):
        u = (path.nodes[j] - path.nodes[j - 1]) * w
        v = tree.leaves[path.leaves[j - 1]].deriv_pred * w
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            continue
        out.append(float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1, 1))))
    return out


def _road_paths(road_fixture, min_len=4, top=6):
    from tripletree import tree as tr
    cfg, _, _, aug = road_fixture
    tree = tr.fit(aug, np.array([1 / 3, 1 / 3, 1 / 3]), 60)
    graph = tj.build_leaf_graph(tree)
    cands = []
    for ls in graph.node_ids:
        for le in graph.node_ids:
            p = tj.most_probable_path(graph, ls, le)
            if p is not None and len(p.leaves) >= min_len:
                cands.append(p)
    cands.sort(key=lambda p: (-p.probability, p.leaves[0], p.leaves[-1]))
    return tree, cands[:top]


def test_alignment_improves_objective_and_mean_angle_on_road_paths(road_fixture):
    tree, paths = _road_paths(road_fixture)
    assert paths
    for p in paths:
        pre = tj.align_path(tree, p.leaves, max_iters=0)
        post = tj.align_path(tree, p.leaves, max_iters=3000)
        assert post.objective <= 0.9 * pre.objective
        assert np.mean(_segment_angles(tree, post)) < \
            np.mean(_segment_angles(tree, pre))


@pytest.mark.xfail(
    reason="with endpoints pinned to box centres, paths whose leaf sequence "
    "runs against the local mean-derivative field keep one badly aligned "
    "segment, so the strongest per-segment bound does not hold on this task",
    strict=False)
def test_alignment_every_segment_below_pre_alignment_mean(road_fixture):
    tree, paths = _road_paths(road_fixture)
    for p in paths:
        pre = tj.align_path(tree, p.leaves, max_iters=0)
        post = tj.align_path(tree, p.leaves, max_iters=3000)
        assert max(_segment_angles(tree, post)) < \
            np.mean(_segment_angles(tree, pre))


def test_zone_paths_empty_for_degenerate_zone():
    from tripletree.tree import Box
    tree = chain_tree()
    graph = tj.build_leaf_graph(tree)
    empty = Box(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    ok = Box(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    assert tj.zone_paths(graph, empty, ok) == []
    assert tj.zone_paths(graph, ok, empty) == []
