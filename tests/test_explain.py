import numpy as np
import pytest

from tripletree import explain as ex
from tripletree import tree as tr
from tripletree.dataset import augment
from tripletree.errors import ParameterError

from . import reference as ref
from .conftest import build_tree, load_perfbench, random_tree, vector_trace

UNIT = [[0.0, 1.0]]
UNIT2 = [[0.0, 1.0], [0.0, 1.0]]


def two_leaf_1d():
    return build_tree(
        ("split", 0, 0.5,
         ("leaf", {"action": "a", "value": 1.0}),
         ("leaf", {"action": "b", "value": 0.0})), UNIT)


def test_factual_root_only_tree():
    tree = build_tree(("leaf", {"action": "a"}), UNIT)
    expl = ex.factual(tree, [0.3])
    assert expl.bounds == []
    assert ex.render_text(tree, expl) == "Action = a always"


def test_factual_single_split():
    tree = two_leaf_1d()
    expl = ex.factual(tree, [0.2])
    assert expl.bounds == [(0, "<", 0.5)]
    assert ex.render_text(tree, expl) == "Action = a because f0 < 0.5"
    # and the bounds hold for the query state
    for f, rel, tau in expl.bounds:
        assert (0.2 < tau) if rel == "<" else (0.2 >= tau)


def test_factual_interval_rendering():
    tree = build_tree(
        ("split", 0, 0.25,
         ("leaf", {"action": "a"}),
         ("split", 0, 0.75,
          ("leaf", {"action": "b"}),
          ("leaf", {"action": "a"}))), UNIT)
    expl = ex.factual(tree, [0.5])
    assert ex.render_text(tree, expl) == "Action = b because f0 in [0.25, 0.75]"


def test_counterfactual_action_simple():
    tree = two_leaf_1d()
    expl = ex.counterfactual_action(tree, [0.2], "b")
    assert expl.bounds == [(0, ">=", 0.5)]
    assert expl.changed_features == [0]
    assert np.allclose(expl.foil_point, [0.5])
    assert tr.leaf_of(tree, expl.foil_point) == expl.target_leaf
    assert ex.render_text(tree, expl) == "Action would = b if f0 >= 0.5"


def test_counterfactual_prefers_fewer_changed_features():
    # foil reachable either by one big change or two tiny ones
    tree = build_tree(
        ("split", 0, 0.9,
         ("split", 0, 0.41,
          ("leaf", {"action": "a"}),
          ("split", 1, 0.41,
           ("leaf", {"action": "a"}),
           ("leaf", {"action": "b"}))),
         ("leaf", {"action": "b"})), UNIT2)
    expl = ex.counterfactual_action(tree, [0.4, 0.4], "b")
    assert expl.changed_features == [0]
    assert expl.bounds == [(0, ">=", 0.9)]


def test_counterfactual_action_requires_different_prediction():
    tree = two_leaf_1d()
    with pytest.raises(ParameterError):
        ex.counterfactual_action(tree, [0.2], "a")


def test_counterfactual_unreachable_foil():
    tree = two_leaf_1d()
    expl = ex.counterfactual_action(tree, [0.2], "z")
    assert expl.foil_unreachable
    assert "never predicted" in ex.render_text(tree, expl)


def test_counterfactual_value_already_satisfied():
    tree = two_leaf_1d()
    # at 0.2 the predicted value is 1.0; ask for >= 0.5, already true
    expl = ex.counterfactual_value(tree, [0.2], (">=", 0.5))
    assert expl.changed_features == []
    assert expl.target_leaf == tr.leaf_of(tree, [0.2])
    assert "no change" in ex.render_text(tree, expl)


def test_counterfactual_value_two_leaf():
    tree = two_leaf_1d()
    expl = ex.counterfactual_value(tree, [0.2], ("<=", 0.3))
    assert expl.bounds == [(0, ">=", 0.5)]
    assert ex.render_text(tree, expl) == "Value would <= 0.3 if f0 >= 0.5"


def test_counterfactual_matches_exhaustive_scan():
    rng = np.random.default_rng(42)
    for trial in range(15):
        d = int(rng.integers(1, 5))
        tree = random_tree(rng, d, int(rng.integers(2, 40)),
                           actions=["a", "b", "c"],
                           feature_range=[[0.0, 1.0]] * d)
        for _ in range(20):
            s = rng.uniform(-0.2, 1.2, size=d)
            pred = tr.predict(tree, s).action
            foil = {"a": "b", "b": "c", "c": "a"}[pred]
            got = ex.counterfactual_action(tree, s, foil)
            eligible = [lid for lid, leaf in tree.leaves.items()
                        if leaf.action_pred == foil]
            if not eligible:
                assert got.foil_unreachable
                continue
            best = None
            widths = tree.feature_range[:, 1] - tree.feature_range[:, 0]
            for lid in sorted(eligible):
                point = ex._project_into_leaf(s, tree.leaves[lid].box,
                                              tree.feature_range)
                changed = np.nonzero(point != s)[0]
                l2 = float(np.sum(((point - s) / np.where(widths > 0, widths,
                                                          1.0)) ** 2))
                key = (changed.size, l2, lid)
                if best is None or key < best:
                    best = key
            assert (len(got.changed_features),
                    pytest.approx(_norm_l2(tree, s, got.foil_point)),
                    got.target_leaf) == (best[0], best[1], best[2])
            assert tr.leaf_of(tree, got.foil_point) == got.target_leaf


def _norm_l2(tree, s, point):
    widths = tree.feature_range[:, 1] - tree.feature_range[:, 0]
    w = np.where(widths > 0, widths, 1.0)
    return float(np.sum(((point - s) / w) ** 2))


def test_counterfactual_invariant_under_feature_rescale():
    rng = np.random.default_rng(5)
    scale = 40.0
    spec = ("split", 0, 0.5,
            ("split", 1, 0.3,
             ("leaf", {"action": "a"}),
             ("leaf", {"action": "b"})),
            ("leaf", {"action": "b"}))
    spec_scaled = ("split", 0, 0.5 * scale,
                   ("split", 1, 0.3,
                    ("leaf", {"action": "a"}),
                    ("leaf", {"action": "b"})),
                   ("leaf", {"action": "b"}))
    tree = build_tree(spec, UNIT2)
    tree_scaled = build_tree(spec_scaled, [[0.0, scale], [0.0, 1.0]])
    for _ in range(50):
        s = rng.uniform(0, 1, size=2)
        s_scaled = s * np.array([scale, 1.0])
        a = ex.counterfactual_action(tree, s, "b") \
            if tr.predict(tree, s).action == "a" else None
        b = ex.counterfactual_action(tree_scaled, s_scaled, "b") \
            if tr.predict(tree_scaled, s_scaled).action == "a" else None
        if a is None:
            assert b is None
            continue
        assert a.target_leaf == b.target_leaf
        assert a.changed_features == b.changed_features
        assert np.allclose(b.foil_point / np.array([scale, 1.0]),
                           a.foil_point, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Temporal explanations
# ---------------------------------------------------------------------------

def test_temporal_simple_two_leaf():
    tree = two_leaf_1d()
    expl = ex.temporal(tree, [0.2], [0.7])
    assert expl.bounds == [(0, ">=", 0.5)]
    assert np.allclose(expl.foil_point, [0.5])
    assert not expl.unconstrained_fallback
    assert ex.render_text(tree, expl) == \
        "Action changed a -> b because f0 >= 0.5"


def test_temporal_moves_past_interposed_leaf():
    # b-region, then an interposed a-region, then the successor's b-region
    tree = build_tree(
        ("split", 0, 0.5,
         ("leaf", {"action": "a"}),
         ("split", 0, 1.0,
          ("leaf", {"action": "b"}),
          ("split", 0, 1.5,
           ("leaf", {"action": "a"}),
           ("leaf", {"action": "b"})))), [[0.0, 2.0]])
    s_t, s_next = [0.2], [1.8]
    expl = ex.temporal(tree, s_t, s_next)
    # the nearer b-leaf at [0.5, 1.0) fails the purity constraint because the
    # box spanned with s_next crosses the interposed a-leaf
    assert np.allclose(expl.foil_point, [1.5])
    assert expl.bounds == [(0, ">=", 1.5)]
    assert not expl.unconstrained_fallback


def test_temporal_three_leaf_minimal_foil():
    tree = build_tree(
        ("split", 0, 0.5,
         ("leaf", {"action": "a"}),
         ("split", 0, 1.5,
          ("leaf", {"action": "a"}),
          ("leaf", {"action": "b"}))), [[0.0, 2.0]])
    expl = ex.temporal(tree, [0.2], [1.9])
    assert np.allclose(expl.foil_point, [1.5])
    assert expl.changed_features == [0]


def test_temporal_requires_action_change():
    tree = two_leaf_1d()
    with pytest.raises(ParameterError):
        ex.temporal(tree, [0.1], [0.2])


def test_temporal_purity_reverified_independently():
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(20):
        d = int(rng.integers(1, 4))
        tree = random_tree(rng, d, int(rng.integers(3, 30)),
                           actions=["a", "b"],
                           feature_range=[[0.0, 1.0]] * d)
        s_t = rng.uniform(0, 1, size=d)
        s_next = rng.uniform(0, 1, size=d)
        a_t = tr.predict(tree, s_t).action
        a_n = tr.predict(tree, s_next).action
        if a_t == a_n:
            continue
        expl = ex.temporal(tree, s_t, s_next)
        if expl.unconstrained_fallback or expl.foil_unreachable:
            continue
        lo = np.minimum(expl.foil_point, s_next)
        hi = np.maximum(expl.foil_point, s_next)
        for leaf in tree.leaves.values():
            overlaps = all(lo[f] < leaf.box.upper[f] and hi[f] >= leaf.box.lower[f]
                           for f in range(d))
            if overlaps:
                assert leaf.action_pred == a_n
        checked += 1
    assert checked >= 5


def test_render_text_of_an_unknown_kind_is_refused():
    tree = build_tree(("leaf", {}), [[0.0, 1.0]])
    with pytest.raises(ParameterError) as err:
        ex.render_text(tree, ex.Explanation(kind="why"))
    assert str(err.value) == "unknown explanation kind 'why'"


def test_render_json_is_plain_data():
    import json
    tree = two_leaf_1d()
    expl = ex.counterfactual_action(tree, [0.2], "b")
    doc = ex.render_json(expl)
    json.dumps(doc)
    assert doc["kind"] == "counterfactual_action"
    assert doc["bounds"] == [[0, ">=", 0.5]]
    assert doc["changed_features"] == [0]


def test_counterfactual_value_unreachable():
    tree = two_leaf_1d()
    expl = ex.counterfactual_value(tree, [0.2], ("<=", -999.0))
    assert expl.foil_unreachable
    assert "never predicted" in ex.render_text(tree, expl)
    with pytest.raises(ParameterError):
        ex.counterfactual_value(tree, [0.2], ("==", 0.5))


# ---------------------------------------------------------------------------
# The per-leaf factual memo
# ---------------------------------------------------------------------------

def reference_factual_text(tree, leaf) -> str:
    """The factual sentence of a leaf, from the reference bounds and text."""
    conds = ref.fmt_bounds(ref.box_bounds(leaf.box), tree.feature_names)
    action = ref.fmt_value(leaf.action_pred)
    return f"Action = {action} " + (f"because {conds}" if conds else "always")


def inside(tree, leaf):
    """A state in the leaf: its box's centre, clipped to the data ranges."""
    state = leaf.box.center(tree.feature_range)
    assert tr.leaf_of(tree, state) == leaf.id
    return state


@pytest.fixture(scope="module")
def road_tree(road_fixture):
    return tr.fit(road_fixture[3], [0.2, 0.6, 0.2], max_leaves=60)


@pytest.mark.parametrize("which", ["grown", "reloaded", "vector"])
def test_factual_text_of_every_leaf_matches_the_reference(which, road_tree):
    if which == "vector":
        tree = tr.fit(augment(vector_trace(episodes=10), 0.9), [1, 1, 1], 20)
    else:
        tree = road_tree if which == "grown" else tr.deserialize(
            tr.serialize(road_tree))
    for leaf in tree.ordered_leaves():
        want = reference_factual_text(tree, leaf)
        for _ in range(2):  # the first query fills the memo, the second reads it
            expl = ex.factual(tree, inside(tree, leaf))
            assert ex.render_text(tree, expl) == want
        assert expl.bounds == ref.box_bounds(leaf.box)


def test_query_results_do_not_alias_a_leafs_arrays():
    tree = tr.fit(augment(vector_trace(episodes=10), 0.9), [1, 1, 1], 8)
    leaf, other = tree.ordered_leaves()[:2]
    state, elsewhere = inside(tree, leaf), inside(tree, other)
    want_action, want_text = leaf.action_pred.copy(), ex.render_text(
        tree, ex.factual(tree, state))
    pred = tr.predict(tree, state)
    pred.derivative[0] = 99.0
    for action in (pred.action,
                   ex.counterfactual_action(tree, state,
                                            other.action_pred).query_action,
                   ex.temporal(tree, state, elsewhere).query_action):
        action[0] = 99.0
    expl = ex.factual(tree, state)
    with pytest.raises(ValueError):  # read-only: the memo shares it
        expl.query_action[0] = 99.0
    assert np.array_equal(leaf.action_pred, want_action)
    assert ex.render_text(tree, ex.factual(tree, state)) == want_text
    assert np.array_equal(tr.predict(tree, state).action, want_action)


def test_a_changed_factual_explanation_renders_from_its_own_fields():
    tree = build_tree(
        ("split", 0, 0.0,
         ("leaf", {"action": "a"}),
         ("leaf", {"action": "b"})), [[-1.0, 1.0]])
    assert ex.render_text(tree, ex.factual(tree, [0.5])) == \
        "Action = b because f0 >= 0"
    expl = ex.factual(tree, [0.5])
    expl.bounds[0] = (0, ">=", -0.0)  # == the memo's tuple, printed otherwise
    assert ex.render_text(tree, expl) == "Action = b because f0 >= -0"
    expl = ex.factual(tree, [0.5])
    expl.bounds = [(0, "<", 0.25)]
    assert ex.render_text(tree, expl) == "Action = b because f0 < 0.25"
    expl = ex.factual(tree, [0.5])
    expl.query_action = "a"
    assert ex.render_text(tree, expl) == "Action = a because f0 >= 0"
    expl = ex.factual(tree, [0.5])
    expl.bounds.append((0, "<", 0.75))
    assert ex.render_text(tree, expl) == "Action = b because f0 in [0, 0.75]"
    # and the memo is as the first query left it
    assert ex.render_text(tree, ex.factual(tree, [0.5])) == \
        "Action = b because f0 >= 0"


def test_trees_loaded_from_one_blob_do_not_share_a_memo(road_tree):
    blob = tr.serialize(road_tree)
    first, second = tr.deserialize(blob), tr.deserialize(blob)
    state = inside(first, first.ordered_leaves()[0])
    expl = ex.factual(first, state)
    assert ex.render_text(first, expl)
    assert first.factual_memo and not second.factual_memo
    # an explanation of one tree is rendered from its fields by the other
    assert ex.render_text(second, expl) == ex.render_text(
        second, ex.factual(second, state))
    assert first.factual_memo[expl.target_leaf] is not \
        second.factual_memo[expl.target_leaf]


def test_factual_bounds_are_formatted_once_per_leaf(monkeypatch):
    rng = np.random.default_rng(4)
    tree = random_tree(rng, 2, 20, ["a", "b", "c"])
    calls, fmt_bounds = [], ex._fmt_bounds

    def counting(bounds, names):
        calls.append(1)
        return fmt_bounds(bounds, names)

    monkeypatch.setattr(ex, "_fmt_bounds", counting)
    states = rng.uniform(size=(1000, 2))
    texts = [ex.render_text(tree, ex.factual(tree, s)) for s in states]
    assert len(calls) <= tree.n_leaves
    assert texts == [reference_factual_text(tree, tree.leaves[
        tr.leaf_of(tree, s)]) for s in states]


def test_explain_benchmark_pass_renders_the_reference_factual_text(
        monkeypatch):
    # the traffic the factual memo's speed-up is measured on
    workload = load_perfbench(monkeypatch, "workloads").Explain()
    state = workload.setup(0)
    tree, texts, render = state["tree"], [], workload.factual

    def factual(state, i):
        text = render(state, i)
        texts.append((i, text))
        return text

    monkeypatch.setattr(workload, "factual", factual)
    out = workload.body(state, 0)
    assert workload.check(state, out) == []
    assert len(texts) == workload.per_pass["factual"]
    want = {}
    for i, text in texts:
        leaf = tree.leaves[tr.leaf_of(tree, state["states"][i])]
        if leaf.id not in want:
            want[leaf.id] = reference_factual_text(tree, leaf)
        assert text == want[leaf.id]
