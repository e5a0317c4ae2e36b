import glob
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import dataset as ds
from tripletree import impurity as imp
from tripletree import road_env as road
from tripletree import tree as tr
from tripletree.errors import ParameterError, TraceFormatError
from tripletree.impurity import ImpurityTriple

from . import reference as ref
from .conftest import (load_perfbench, random_tree, search_split,
                       synthetic_aug, vector_trace)
from .reference import ReferenceActionTree

ROAD_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                           "road_tree.sha256")
README_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                             "readme_tree.sha256")
SWEEP_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                            "road_sweep.sha256")
VECTOR_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                             "vector_tree.sha256")


def _labelled_aug(rng, n=80, d=2, classes=3):
    states = rng.uniform(0, 1, size=(n, d))
    actions = rng.integers(0, classes, size=n).astype(float)
    has_deriv = np.ones(n, dtype=bool)
    has_deriv[rng.integers(0, n, size=max(1, n // 10))] = False
    D = rng.normal(size=(n, d)) * has_deriv[:, None]
    return synthetic_aug(states=states, actions=actions,
                         V=rng.normal(size=n), D=D, has_deriv=has_deriv)


def test_single_leaf_tree_predictions():
    rng = np.random.default_rng(0)
    data = _labelled_aug(rng, n=50)
    tree = tr.grow(data, [1, 1, 1], max_leaves=1)
    assert tree.n_leaves == 1
    leaf = tree.ordered_leaves()[0]
    # modal action, mean return, mean derivative over defined rows
    counts = np.bincount(data.action_codes)
    assert leaf.action_pred == data.action_labels[np.argmax(counts)]
    assert leaf.value_pred == pytest.approx(data.V.mean())
    assert np.allclose(leaf.deriv_pred,
                       data.D[data.has_deriv].mean(axis=0))


def test_parameter_errors():
    rng = np.random.default_rng(0)
    data = _labelled_aug(rng, n=10)
    with pytest.raises(ParameterError):
        tr.grow(data, [1, 1, 1], max_leaves=0)
    with pytest.raises(ParameterError):
        tr.grow(data, [0, 0, 0], max_leaves=4)
    with pytest.raises(ParameterError):
        tr.grow(data, [1, 1, 1], max_leaves=4, min_leaf=0)


def test_action_only_growth_matches_reference_cart():
    rng = np.random.default_rng(123)
    for trial in range(4):
        n = 120
        d = int(rng.integers(2, 4))
        states = rng.uniform(0, 1, size=(n, d))
        actions = rng.integers(0, 3, size=n).astype(float)
        data = synthetic_aug(states=states, actions=actions)
        tree = tr.grow(data, [1, 0, 0], max_leaves=12)
        ref = ReferenceActionTree(states, data.action_codes,
                                  data.action_labels.size, max_leaves=12)
        assert tree.split_log == ref.split_log


def test_leaf_of_threshold_goes_right():
    data = synthetic_aug(states=[[0.4], [0.6]], actions=["a", "b"])
    tree = tr.grow(data, [1, 0, 0], max_leaves=2)
    tau = tree.split_log[0][2]
    right = tr.leaf_of(tree, [tau])
    assert tree.leaves[right].action_pred == "b"
    left = tr.leaf_of(tree, [tau - 1e-9])
    assert tree.leaves[left].action_pred == "a"


def test_training_samples_reach_their_member_leaf():
    # each leaf's statistics are those of the samples routed to it
    rng = np.random.default_rng(1)
    data = _labelled_aug(rng, n=100)
    tree = tr.grow(data, [1, 1, 1], max_leaves=16)
    assign = tr.assign_leaves(tree, data.states)
    for lid, leaf in tree.leaves.items():
        stats = imp.node_stats(data, np.flatnonzero(assign == lid))
        assert leaf.n == np.count_nonzero(assign == lid)
        assert leaf.value_pred == stats.value
        assert leaf.impurity == stats.impurity


def test_leaf_of_matches_box_scan_oracle():
    rng = np.random.default_rng(2)
    data = _labelled_aug(rng, n=100)
    tree = tr.grow(data, [1, 1, 1], max_leaves=20)
    for _ in range(200):
        s = rng.uniform(-0.5, 1.5, size=2)
        containing = [lid for lid, leaf in tree.leaves.items()
                      if ref.box_contains(leaf.box, s)]
        assert len(containing) == 1  # boxes tile the whole space
        assert tr.leaf_of(tree, s) == containing[0]


def test_predict_returns_leaf_attributes():
    rng = np.random.default_rng(3)
    data = _labelled_aug(rng, n=60)
    tree = tr.grow(data, [1, 1, 1], max_leaves=8)
    s = [0.3, 0.7]
    leaf = tree.leaves[tr.leaf_of(tree, s)]
    pred = tr.predict(tree, s)
    assert pred.action == leaf.action_pred
    assert pred.value == leaf.value_pred
    assert np.array_equal(pred.derivative, leaf.deriv_pred)


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

def test_transitions_hand_fixture():
    # one episode visiting [L1, L1, L2], terminating at the end
    data = synthetic_aug(states=[[0.0], [0.1], [1.0]],
                         actions=["a", "a", "b"],
                         episode_slices=[(0, 3, True)])
    tree = tr.grow(data, [1, 0, 0], max_leaves=2)
    tr.compute_transitions(tree, data)
    l1 = tr.leaf_of(tree, [0.0])
    l2 = tr.leaf_of(tree, [1.0])
    assert tree.leaves[l1].transitions == {l2: (1.0, 2.0)}
    assert tree.leaves[l2].transitions == {None: (1.0, 1.0)}


def test_transitions_single_leaf_terminal_episode():
    data = synthetic_aug(states=[[0.0], [0.1]], actions=["a", "a"],
                         episode_slices=[(0, 2, True)])
    tree = tr.grow(data, [1, 0, 0], max_leaves=1)
    tr.compute_transitions(tree, data)
    leaf = tree.ordered_leaves()[0]
    assert leaf.transitions == {None: (1.0, 2.0)}


def test_truncated_episode_records_no_final_transition():
    data = synthetic_aug(states=[[0.0], [1.0]], actions=["a", "b"],
                         episode_slices=[(0, 2, False)])
    tree = tr.grow(data, [1, 0, 0], max_leaves=2)
    tr.compute_transitions(tree, data)
    l1 = tr.leaf_of(tree, [0.0])
    l2 = tr.leaf_of(tree, [1.0])
    assert tree.leaves[l1].transitions == {l2: (1.0, 1.0)}
    assert tree.leaves[l2].transitions == {}  # its only run was cut off


def _brute_transition_scan(assign, slices):
    """Independent per-episode run scanner."""
    counts, lens = {}, {}
    for start, stop, terminal in slices:
        runs = []
        i = start
        while i < stop:
            j = i
            while j + 1 < stop and assign[j + 1] == assign[i]:
                j += 1
            runs.append((int(assign[i]), j - i + 1, j))
            i = j + 1
        for k, (src, length, last) in enumerate(runs):
            if k + 1 < len(runs):
                dest = runs[k + 1][0]
            elif terminal:
                dest = None
            else:
                continue
            counts.setdefault(src, {}).setdefault(dest, 0)
            lens.setdefault(src, {}).setdefault(dest, 0)
            counts[src][dest] += 1
            lens[src][dest] += length
    return counts, lens


def test_transitions_match_brute_scanner_and_sum_to_one():
    rng = np.random.default_rng(9)
    slices = []
    states, actions = [], []
    pos = 0
    for _ in range(12):
        T = int(rng.integers(1, 15))
        states.append(rng.uniform(0, 1, size=(T, 2)))
        actions.append(rng.integers(0, 2, size=T).astype(float))
        slices.append((pos, pos + T, bool(rng.integers(2))))
        pos += T
    data = synthetic_aug(states=np.concatenate(states),
                         actions=np.concatenate(actions),
                         episode_slices=slices)
    tree = tr.grow(data, [1, 0, 0], max_leaves=6)
    tr.compute_transitions(tree, data)
    assign = tr.assign_leaves(tree, data.states)
    counts, lens = _brute_transition_scan(assign, slices)
    for lid, leaf in tree.leaves.items():
        got = leaf.transitions
        want_counts = counts.get(lid, {})
        total = sum(want_counts.values())
        assert set(got) == set(want_counts)
        if total:
            assert sum(p for p, _ in got.values()) == pytest.approx(1.0,
                                                                    abs=1e-9)
        for dest, (p, t) in got.items():
            assert p == pytest.approx(want_counts[dest] / total)
            assert t == pytest.approx(lens[lid][dest] / want_counts[dest])
            assert t >= 1.0


@st.composite
def transition_cases(draw):
    """A grown tree and a dataset of episodes drawn as runs of leaf cells:
    single-sample, truncated and terminal episodes, episodes that start in
    the leaf where the previous one ended, and runs that revisit a leaf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    cells = draw(st.integers(1, 6))
    states, slices, pos = [], [], 0
    for _ in range(draw(st.integers(1, 8))):
        runs = draw(st.lists(st.tuples(st.integers(0, cells - 1),
                                       st.integers(1, 4)),
                             min_size=1, max_size=5))
        if slices and draw(st.booleans()):
            runs[0] = (int(states[-1] * cells), runs[0][1])
        if draw(st.booleans()):
            runs = [(runs[0][0], 1)]  # a single-sample episode
        xs = [(c + rng.uniform(0.2, 0.8)) / cells for c, k in runs
              for _ in range(k)]
        states += xs
        slices.append((pos, pos + len(xs), draw(st.booleans())))
        pos += len(xs)
    states = np.array(states)[:, None]
    data = synthetic_aug(states=states, actions=np.floor(states[:, 0] * cells),
                         episode_slices=slices)
    tree = tr.grow(data, [1, 0, 0], max_leaves=draw(st.integers(1, cells)))
    return tree, data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=transition_cases())
def test_transitions_equal_the_per_episode_run_scan(case):
    tree, data = case
    ref.compute_transitions(tree, data)
    want = {lid: list(leaf.transitions.items())
            for lid, leaf in tree.leaves.items()}
    tr.compute_transitions(tree, data)
    assert {lid: list(leaf.transitions.items())
            for lid, leaf in tree.leaves.items()} == want


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_memorising_tree_has_zero_losses():
    rng = np.random.default_rng(4)
    n = 24
    states = rng.uniform(0, 1, size=(n, 2))
    has_deriv = np.ones(n, dtype=bool)
    has_deriv[-1] = False
    data = synthetic_aug(states=states,
                         actions=rng.integers(0, 2, size=n).astype(float),
                         V=rng.normal(size=n),
                         D=rng.normal(size=(n, 2)) * has_deriv[:, None],
                         has_deriv=has_deriv)
    tree = tr.grow(data, [1, 1, 1], max_leaves=n)
    losses = tr.evaluate_losses(tree, data)
    assert losses == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_single_leaf_value_loss_is_rms():
    data = synthetic_aug(states=[[0.0], [1.0]], actions=["a", "a"],
                         V=[0.0, 2.0])
    tree = tr.grow(data, [1, 1, 1], max_leaves=1)
    assert tr.evaluate_losses(tree, data)[1] == pytest.approx(1.0)


def test_growth_snapshots_match_reevaluation():
    rng = np.random.default_rng(6)
    data = _labelled_aug(rng, n=150, d=2)
    curve = tr.grow(data, [1, 1, 1], max_leaves=12).loss_curve
    for budget in (1, 4, 9, 12):
        tree = tr.grow(data, [1, 1, 1], max_leaves=budget)
        again = tr.evaluate_losses(tree, data)
        assert np.allclose(curve[budget - 1], again, atol=1e-9)


def test_continuous_scalar_action_loss():
    rng = np.random.default_rng(8)
    n = 40
    data = synthetic_aug(states=rng.uniform(size=(n, 1)),
                         actions=rng.normal(size=n),
                         action_kind=ds.CONTINUOUS_SCALAR)
    tree = tr.grow(data, [1, 0, 0], max_leaves=1)
    pred = tree.ordered_leaves()[0].action_pred
    assert pred == pytest.approx(data.actions.mean())
    want = np.sqrt(np.mean((data.actions - pred) ** 2))
    assert tr.evaluate_losses(tree, data)[0] == pytest.approx(want)


def test_vector_action_channel():
    rng = np.random.default_rng(12)
    n = 60
    states = rng.uniform(size=(n, 2))
    actions = np.stack([states[:, 0] > 0.5, rng.normal(size=n)], axis=1)
    data = synthetic_aug(states=states, actions=actions,
                         action_kind=ds.CONTINUOUS_VECTOR)
    tree = tr.grow(data, [1, 0, 0], max_leaves=4)
    assert tree.n_leaves > 1  # the structured component is split on
    a_loss = tr.evaluate_losses(tree, data)[0]
    assert a_loss >= 0.0
    leaf = tree.ordered_leaves()[0]
    assert isinstance(leaf.action_pred, np.ndarray)


@pytest.mark.parametrize("width", [1, 3])
def test_losses_on_actions_of_another_width_are_a_data_error(width):
    # broadcast against the tree's two components, a width of 3 raised a
    # bare ValueError and a width of 1 gave losses of the wrong shape
    rng = np.random.default_rng(13)
    states = rng.uniform(size=(60, 2))
    fitted = tr.grow(synthetic_aug(states=states,
                                   actions=rng.normal(size=(60, 2)),
                                   action_kind=ds.CONTINUOUS_VECTOR),
                     [1, 0, 0], max_leaves=4)
    other = synthetic_aug(states=states, actions=rng.normal(size=(60, width)),
                          action_kind=ds.CONTINUOUS_VECTOR)
    with pytest.raises(TraceFormatError, match=rf"^actions have shape \(60, "
                       rf"{width}\), but the tree predicts shape \(2,\)$"):
        tr.evaluate_losses(fitted, other)


# ---------------------------------------------------------------------------
# Weighting sweep
# ---------------------------------------------------------------------------

def test_theta_sweep_degenerate_grid(road_fixture):
    aug = road_fixture[3]
    result = tr.theta_sweep(aug, [(1.0, 0.0, 0.0)], max_leaves=20)
    assert result["best_theta"] == (1.0, 0.0, 0.0)
    assert len(result["rows"]) == 1


def test_theta_sweep_vertices_minimise_their_own_columns(road_fixture):
    aug = road_fixture[3]
    grid = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (1 / 3, 1 / 3, 1 / 3)]
    result = tr.theta_sweep(aug, grid, max_leaves=60)
    rows = {r["theta"]: r for r in result["rows"]}
    cols = ["action_loss", "value_loss", "deriv_loss"]
    for c, vertex in enumerate(tr.EXCLUSIVE_THETAS):
        own = rows[vertex][cols[c]]
        assert own <= min(r[cols[c]] for r in result["rows"]) + 1e-12
        # normalised diagonals are exactly 1 (or 0/0 treated as 1)
        opt = list(result["exclusive_optima"].values())[c]
        assert own == pytest.approx(opt)


@pytest.mark.xfail(
    reason="at matched leaf budgets the derivative channel dominates the "
    "worst-loss minimax on this task, so no weighting with the value "
    "component strictly largest wins the sweep", strict=False)
def test_theta_sweep_winner_emphasises_value(road_fixture):
    aug = road_fixture[3]
    result = tr.theta_sweep(aug, tr.simplex_theta_grid(5), max_leaves=60)
    ta, tv, td = result["best_theta"]
    assert tv > ta and tv > td


def test_simplex_grid_covers_vertices():
    grid = tr.simplex_theta_grid(5)
    assert len(grid) == 21
    for vertex in tr.EXCLUSIVE_THETAS:
        assert vertex in grid
    assert all(abs(sum(t) - 1.0) < 1e-12 for t in grid)


# ---------------------------------------------------------------------------
# Structure invariants
# ---------------------------------------------------------------------------

def test_weighted_impurity_never_increases_during_growth():
    rng = np.random.default_rng(10)
    data = _labelled_aug(rng, n=200)
    totals = []
    # growth is prefix-consistent, so each budget's tree is that step's tree
    for budget in range(1, 25):
        tree = tr.grow(data, [1, 1, 1], max_leaves=budget)
        roots = tree.root_impurity.as_array()
        total = 0.0
        for leaf in tree.leaves.values():
            imps = leaf.impurity.as_array()
            for c in range(3):
                if roots[c] > 0:
                    total += tree.theta[c] * leaf.n * imps[c] / roots[c]
        totals.append(total)
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


def test_best_first_growth_is_prefix_consistent():
    rng = np.random.default_rng(13)
    data = _labelled_aug(rng, n=150)
    small = tr.grow(data, [1, 1, 1], max_leaves=8)
    large = tr.grow(data, [1, 1, 1], max_leaves=20)
    assert large.split_log[:len(small.split_log)] == small.split_log


def _reselect_split_log(data, theta, max_leaves, min_leaf):
    """Growth with the selection rule spelled out: every step rescans all
    leaves not yet found unsplittable and takes the first maximum priority
    by leaf id."""
    theta = np.asarray(theta, dtype=float)
    roots = imp.node_impurity(data, np.arange(data.n)).as_array()

    def priority(idx):
        imps = imp.node_impurity(data, idx).as_array()
        return idx.size * sum(theta[c] * imps[c] / roots[c]
                              for c in range(3) if roots[c] > 0)

    members = {0: np.arange(data.n)}
    unsplittable, log, next_id = set(), [], 1
    while len(members) < max_leaves:
        best_id, best_p = None, -np.inf
        for lid in sorted(members):
            p = -np.inf if lid in unsplittable else priority(members[lid])
            if p > best_p:
                best_id, best_p = lid, p
        if best_id is None or best_p <= 0:
            break
        cand = search_split(data, members[best_id], ImpurityTriple(*roots),
                            theta, min_leaf=min_leaf)
        if cand is None:
            unsplittable.add(best_id)
            continue
        del members[best_id]
        members[next_id], members[next_id + 1] = cand.left_idx, cand.right_idx
        log.append((best_id, cand.feature, cand.threshold))
        next_id += 2
    return log


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_growth_order_matches_brute_force_reselection(source):
    # Copies of one block, shifted apart on feature 0.  With a return that is
    # constant per copy, splitting the copies apart pays on the value channel
    # and leaves each copy's leaves exactly tied with their twins; repeated
    # labels and values tie leaves within a block too.
    n = source.draw(st.integers(2, 10))

    def draw_rows(elements, width=None):
        row = elements if width is None else st.lists(elements, min_size=width,
                                                      max_size=width)
        return source.draw(st.lists(row, min_size=n, max_size=n))

    d = source.draw(st.integers(1, 2))
    copies = source.draw(st.sampled_from([1, 2, 2, 3, 4]))
    small = st.integers(0, 3)
    block = np.array(draw_rows(small, d), dtype=float)
    shift = np.zeros(d)
    shift[0] = 10.0
    if source.draw(st.booleans()):
        V = np.repeat(np.arange(copies), n)
    else:
        V = draw_rows(small) * copies
    data = synthetic_aug(
        states=np.concatenate([block + k * shift for k in range(copies)]),
        actions=draw_rows(st.integers(0, 2)) * copies, V=V,
        D=np.array(draw_rows(small, d) * copies, dtype=float),
        has_deriv=draw_rows(st.booleans()) * copies)
    theta = source.draw(st.sampled_from([(1, 1, 1), (0.2, 0.6, 0.2),
                                         (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    max_leaves = source.draw(st.integers(3, 24))
    min_leaf = source.draw(st.integers(1, 3))
    tree = tr.grow(data, theta, max_leaves, min_leaf=min_leaf)
    assert tree.split_log == _reselect_split_log(data, theta, max_leaves,
                                                 min_leaf)


def test_leaf_with_only_terminal_members_inherits_derivative():
    # episode of two samples; split isolates the final (derivative-free) one
    data = synthetic_aug(states=[[0.0], [1.0]], actions=["a", "b"],
                         D=np.array([[1.0], [0.0]]),
                         has_deriv=[True, False],
                         episode_slices=[(0, 2, True)])
    tree = tr.grow(data, [1, 0, 0], max_leaves=2)
    right = tree.leaves[tr.leaf_of(tree, [1.0])]
    assert right.deriv_low_confidence
    assert np.allclose(right.deriv_pred, [1.0])  # parent-side mean
    left = tree.leaves[tr.leaf_of(tree, [0.0])]
    assert not left.deriv_low_confidence


def test_density_uses_range_clipped_volume():
    data = synthetic_aug(states=[[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]],
                         actions=["a", "b", "b"])
    tree = tr.grow(data, [1, 0, 0], max_leaves=2)
    tau = tree.split_log[0][2]
    f = tree.split_log[0][1]
    widths = data.feature_range[:, 1] - data.feature_range[:, 0]
    left = tree.leaves[tr.leaf_of(tree, [0.0, 0.0])]
    frac = (tau - data.feature_range[f, 0]) / widths[f]
    assert left.density == pytest.approx(left.n / frac)


def _road_with_actions(aug, kind, make_actions):
    """The road trace of ``aug`` with its actions replaced by
    ``make_actions(states, actions)``, augmented again as ``kind``."""
    base = aug.base
    return ds.augment(ds.TraceDataset(
        base.states, make_actions(base.states, base.actions), base.rewards,
        base.starts, base.terminal, kind, base.feature_names), aug.gamma)


def road_tree_digests(aug) -> str:
    """sha256 of 60-leaf road fits' ``serialize()`` bytes and of the repr of
    their growth loss rows, one ``<hex>  <what>`` line each: the recorded
    discrete actions, a continuous scalar action mixing them with speed, and
    a vector action with a constant (zero-sigma) component."""
    scalar = _road_with_actions(
        aug, ds.CONTINUOUS_SCALAR, lambda s, a: 1000.0 * a + 0.25 * s[:, 1])
    vector = _road_with_actions(
        aug, ds.CONTINUOUS_VECTOR,
        lambda s, a: np.stack([1000.0 * a, s[:, 0] * s[:, 1],
                               np.ones(len(a))], axis=1))
    out = ""
    for data, theta, tag in ((aug, [0.2, 0.6, 0.2], ""),
                             (scalar, [0.5, 0.3, 0.2], "_scalar"),
                             (vector, [0.5, 0.3, 0.2], "_vector")):
        tree = tr.fit(data, theta, max_leaves=60)
        assert tree.n_leaves == 60
        rows = [(n,) + losses
                for n, losses in enumerate(tree.loss_curve, start=1)]
        out += (f"{hashlib.sha256(tr.serialize(tree)).hexdigest()}  tree{tag}.json\n"
                f"{hashlib.sha256(repr(rows).encode()).hexdigest()}  losses{tag}.repr\n")
    return out


def test_grow_hands_each_search_the_stable_sorts_of_its_members(monkeypatch):
    # growth sorts only at the root; every node's orders, partitioned from
    # its parent's, are the stable argsort of its members, ties and signed
    # zeros included: the popped leaf's, and those of every open leaf not
    # yet searched, which a search scans with it
    rng = np.random.default_rng(4)
    data = _labelled_aug(rng, n=300, d=3)
    data.states[:, 1] = rng.choice([-1.0, -0.0, 0.0, 0.5], size=300)
    data.states[:, 2] = rng.integers(0, 4, size=300).astype(float)
    seen, blocks, pending = [], [], []
    handed = {}  # each leaf's orders, as its record held them before search

    def stable(idx):
        return idx[np.argsort(data.states[idx].T, axis=1, kind="stable")]

    def search(data, idx, *args, block, batch, **kwargs):
        lid, records = batch
        handed.update((key, record) for key, record in records.items()
                      if isinstance(record, np.ndarray))
        seen.append(np.array_equal(handed[lid], stable(idx)))
        blocks.append(block)
        for key, record in records.items():
            if key != lid and isinstance(record, np.ndarray):
                pending.append(np.array_equal(record,
                                              stable(np.sort(record[0]))))
        return imp.best_split(data, idx, *args, block=block, batch=batch,
                              **kwargs)

    monkeypatch.setattr(tr, "best_split", search)
    tree = tr.grow(data, [1, 1, 1], max_leaves=40)
    assert tree.n_leaves == 40 and len(seen) >= 39 and all(seen)
    assert len(pending) >= 39 and all(pending)
    assert all(b is blocks[0] for b in blocks)  # one block serves them all


def test_road_fit_is_byte_identical_to_recorded_digest(road_fixture):
    # the digest pins every float growth produces; tests/make_goldens.py
    # rewrites it when a change to the outputs is intended
    with open(ROAD_DIGEST) as fh:
        assert road_tree_digests(road_fixture[3]) == fh.read()


def readme_aug():
    """The README's trace, its ``gen-road`` command's 10^4 samples, through
    the CSV it writes, augmented."""
    config = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0,
                             gamma=0.99, grid=(30, 30))
    trace = road.generate_dataset(config, road.dp_solve(config, tolerance=1e-6),
                                  10_000, 100, seed=0)
    return ds.augment(ds.load_trace(ds.trace_to_csv_bytes(trace), "csv"), 0.99)


def readme_tree_digests() -> str:
    """sha256 of the ``serialize()`` bytes and of the loss rows' repr of a
    1000-leaf fit, theta (0.2, 0.6, 0.2), of the README's trace: its
    ``gen-road`` command's 10^4 samples, through the CSV it writes.  Most of
    this tree's splits are of nodes under 300 samples."""
    tree = tr.fit(readme_aug(), [0.2, 0.6, 0.2], max_leaves=1000)
    assert tree.n_leaves == 1000
    rows = [(n,) + losses for n, losses in enumerate(tree.loss_curve, start=1)]
    return (f"{hashlib.sha256(tr.serialize(tree)).hexdigest()}  tree_readme.json\n"
            f"{hashlib.sha256(repr(rows).encode()).hexdigest()}  losses_readme.repr\n")


def test_readme_fit_is_byte_identical_to_recorded_digest():
    with open(README_DIGEST) as fh:
        assert readme_tree_digests() == fh.read()


def test_readme_fit_searches_each_leaf_once_at_most(monkeypatch):
    # growth calls best_split once per popped leaf, as the benchmark's
    # tracer counts it; a call scans the leaf with every other open leaf not
    # yet searched, so no leaf is scanned twice and no more leaves are
    # scanned than are created
    data = readme_aug()
    tracer = load_perfbench(monkeypatch, "tracer").Tracer()
    searched, rows = [], [0]
    scan = imp._scan

    def count_rows(block, stack, *args):
        rows[0] += len(stack)
        return scan(block, stack, *args)

    def search(data, idx, *args, batch, **kwargs):
        records = batch[1]
        before = [k for k, r in records.items() if isinstance(r, np.ndarray)]
        cand = imp.best_split(data, idx, *args, batch=batch, **kwargs)
        searched.extend(k for k in before if k not in records
                        or not isinstance(records[k], np.ndarray))
        return cand

    monkeypatch.setattr(imp, "_scan", count_rows)
    monkeypatch.setattr(tr, "best_split", search)
    tracer.install()  # wraps impurity.best_split, which search calls
    try:
        tree = tr.fit(data, [0.2, 0.6, 0.2], max_leaves=1000)
    finally:
        tracer.restore()
    calls = [s for s in tracer.spans if s[0] == "impurity.best_split"]
    assert len(calls) == len(tree.split_log) == 999
    assert len(searched) == len(set(searched)) <= 2 * 999 + 1
    # a leaf of one member is answered unscanned; a split one had two
    sizes = {leaf.id: leaf.n for leaf in tree.leaves.values()}
    scanned = [k for k in searched if sizes.get(k, 2) >= 2]
    assert rows[0] == data.d * len(scanned)


def test_scans_fit_one_chunk_and_a_wide_leaf_scans_alone(monkeypatch,
                                                         benchmark_trace):
    # every scan is one row or fits one chunk; a popped leaf wider than a
    # chunk scans only its own d rows, leaving every other open leaf for a
    # later search: in the README's 1000-leaf fit and at the n=1e5 root
    shapes, rows, wide = [], [], []
    scan = imp._scan

    def record_scan(block, stack, n, *args):
        shapes.append(stack.shape)
        rows.extend(row[:m] for row, m in zip(stack, n.tolist()))
        return scan(block, stack, n, *args)

    def search(data, idx, *args, batch, **kwargs):
        lid, records = batch
        orders = records[lid]
        others = [k for k, r in records.items()
                  if k != lid and isinstance(r, np.ndarray)]
        rows.clear()
        cand = imp.best_split(data, idx, *args, batch=batch, **kwargs)
        if isinstance(orders, np.ndarray) and orders.size > imp._CHUNK:
            wide.append(lid)
            assert len(rows) == data.d
            assert all(map(np.array_equal, rows, orders))
            assert all(isinstance(records[k], np.ndarray) for k in others)
        return cand

    monkeypatch.setattr(imp, "_scan", record_scan)
    monkeypatch.setattr(tr, "best_split", search)
    tree = tr.fit(readme_aug(), [0.2, 0.6, 0.2], max_leaves=1000)
    assert tree.n_leaves == 1000 and len(wide) >= 3
    data = ds.augment(benchmark_trace, 0.99)
    orders = np.argsort(data.states.T, axis=1, kind="stable")
    root = imp.node_impurity(data, np.arange(data.n))
    assert search(data, np.arange(data.n), root, np.array([0.2, 0.6, 0.2]),
                  block=imp.channel_block(data),
                  batch=(0, {0: orders})) is not None
    assert wide[-1] == 0
    assert all(R == 1 or R * W <= imp._CHUNK for R, W in shapes)
    assert any(R > 1 for R, _ in shapes)


def vector_tree_digests() -> str:
    """sha256 of the ``serialize()`` bytes and of the loss rows' repr of a
    200-leaf fit, theta (0.2, 0.6, 0.2), of ``vector_trace``: d=4 and 2-D
    actions, so both multi-column channels are summed over each feature's
    cuts, on nodes scanned feature by feature and all features together."""
    aug = ds.augment(vector_trace(), 0.95)
    tree = tr.fit(aug, [0.2, 0.6, 0.2], max_leaves=200)
    assert tree.n_leaves == 200
    rows = [(n,) + losses for n, losses in enumerate(tree.loss_curve, start=1)]
    return (f"{hashlib.sha256(tr.serialize(tree)).hexdigest()}  tree_vector.json\n"
            f"{hashlib.sha256(repr(rows).encode()).hexdigest()}  losses_vector.repr\n")


def test_vector_fit_is_byte_identical_to_recorded_digest():
    with open(VECTOR_DIGEST) as fh:
        assert vector_tree_digests() == fh.read()


OPENBLAS = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas*"))
KERNEL_CHILD = """
import ctypes, hashlib, sys
from tripletree import dataset as ds, tree as tr
aug = ds.augment(ds.load_trace(sys.stdin.buffer.read(), "csv"), 0.95)
tree = tr.fit(aug, [0.2, 0.6, 0.2], max_leaves=1000)
blas = ctypes.CDLL(sys.argv[1])
corename = blas.scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode(),
      hashlib.sha256(tr.serialize(tree)).hexdigest())
"""


@pytest.mark.skipif(len(OPENBLAS) != 1, reason="numpy bundles no OpenBLAS")
def test_vector_fit_is_the_same_under_every_blas_kernel():
    # OPENBLAS_CORETYPE makes numpy's OpenBLAS run another CPU's kernels in
    # a child process.  The trace is written once, as the fixture's own
    # matrix products round by kernel; a 1000-leaf fit of it meets near-ties
    # that a kernel-dependent split search would break differently
    csv = ds.trace_to_csv_bytes(vector_trace())
    src = os.path.dirname(os.path.dirname(tr.__file__))
    found = {}
    for core in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if core:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run([sys.executable, "-c", KERNEL_CHILD, OPENBLAS[0]],
                             input=csv, env=env, capture_output=True,
                             check=True).stdout.split()
        found[core] = [word.decode() for word in out]
    # the kernels were switched (Prescott's reports itself as Katmai) ...
    assert found["Haswell"][0] == "Haswell"
    assert found["Prescott"][0] == "Katmai"
    # ... and every child grew the same tree
    assert len({digest for _, digest in found.values()}) == 1, found


def road_sweep_digest(aug) -> str:
    """sha256 of the repr of the theta sweep over the 21-point simplex grid
    at 20 leaves on the road fixture's augmented trace."""
    result = tr.theta_sweep(aug, tr.simplex_theta_grid(5), max_leaves=20)
    return f"{hashlib.sha256(repr(result).encode()).hexdigest()}  sweep.repr\n"


def test_road_sweep_is_byte_identical_to_recorded_digest(road_fixture):
    with open(SWEEP_DIGEST) as fh:
        assert road_sweep_digest(road_fixture[3]) == fh.read()


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget", [1, 5, 17])
def test_serialize_round_trip(budget):
    rng = np.random.default_rng(budget)
    data = _labelled_aug(rng, n=90)
    tree = tr.fit(data, [1, 1, 1], max_leaves=budget)
    blob = tr.serialize(tree)
    back = tr.deserialize(blob)
    assert tr.serialize(back) == blob
    assert back.n_leaves == tree.n_leaves
    assert np.array_equal(back.sigma, tree.sigma)
    for lid, leaf in tree.leaves.items():
        other = back.leaves[lid]
        assert other.action_pred == leaf.action_pred
        assert other.value_pred == leaf.value_pred
        assert np.array_equal(other.deriv_pred, leaf.deriv_pred)
        assert other.transitions == leaf.transitions
    # behavioural equivalence on fresh queries
    for _ in range(50):
        s = rng.uniform(0, 1, size=2)
        assert tr.leaf_of(back, s) == tr.leaf_of(tree, s)


def test_deserialize_rejects_bad_payloads():
    with pytest.raises(TraceFormatError):
        tr.deserialize(b"not json")
    with pytest.raises(TraceFormatError):
        tr.deserialize(b'{"version": 99, "meta": {}, "nodes": []}')


@pytest.mark.filterwarnings("error")  # overflow is checked, not warned of
def test_grow_refuses_a_trace_whose_leaf_statistics_overflow():
    # finite returns that augment accepts, whose leaf variances overflow:
    # grow returns no tree that deserialize would refuse
    trace = ds.TraceDataset(
        np.random.default_rng(0).uniform(size=(6, 2)), actions=np.zeros(6),
        rewards=np.full(6, 1e200), starts=[0, 3], terminal=[True, False],
        action_kind=ds.CONTINUOUS_SCALAR, feature_names=["x", "y"])
    with pytest.raises(TraceFormatError, match="^trace statistics overflow "
                                               "the float range: the fitted "
                                               "tree "):
        tr.grow(ds.augment(trace, 0.9), [1, 1, 1], max_leaves=4)


def _mangled(edit):
    """A valid three-leaf tree payload with ``edit`` applied to its JSON."""
    rng = np.random.default_rng(30)
    doc = json.loads(tr.serialize(tr.fit(_labelled_aug(rng, n=40), [1, 1, 1],
                                         max_leaves=3)))
    edit(doc)
    return json.dumps(doc).encode()


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _outside_region(doc):
    """Node 2 re-split on the root's feature below the root's threshold,
    with leaf boxes cut from the thresholds as growth would cut them: an
    empty left leaf and a right leaf whose box overstates its region."""
    tau = doc["nodes"][0]["tau"]
    doc["nodes"][2].update(f=1, tau=tau / 2)
    doc["nodes"][3]["leaf"]["box"] = [[None, None], [tau, tau / 2]]
    doc["nodes"][4]["leaf"]["box"] = [[None, None], [tau / 2, None]]


@pytest.mark.parametrize("payload", [
    b'{"version": 1}',
    _mangled(_set(["nodes", 0, "left"], 0)),      # split node points at itself
    _mangled(_set(["nodes", 0, "right"], 99)),    # child out of range
    _mangled(_set(["nodes", 0, "right"], -1)),
    _mangled(_set(["nodes", 0, "f"], 7)),         # feature out of range
    _mangled(_set(["nodes", 0, "tau"], "x")),     # ill-typed
    _mangled(_set(["meta", "theta"], None)),
    _mangled(_set(["nodes"], [])),
    _mangled(lambda doc: doc["nodes"][0].pop("left")),
    _mangled(lambda doc: doc["nodes"].append(doc["nodes"][0])),  # unreachable
    _mangled(lambda doc: doc["nodes"][-1]["leaf"].update(
        id=doc["nodes"][-2]["leaf"]["id"])),                     # repeated id
    _mangled(_set(["nodes", 0, "tau"], float("nan"))),
    _mangled(_set(["nodes", 2, "tau"], float("inf"))),
    _mangled(_set(["nodes", 1, "leaf", "preds", "value"], float("nan"))),
    _mangled(_set(["nodes", 1, "leaf", "preds", "action"], float("inf"))),
    _mangled(_set(["nodes", 1, "leaf", "preds", "deriv"], [float("-inf"), 0])),
    _mangled(_set(["nodes", 1, "leaf", "impurity"], [0.5, float("nan"), 1])),
    _mangled(_set(["nodes", 1, "leaf", "density"], float("inf"))),
    _mangled(_set(["nodes", 1, "leaf", "box"], [[float("nan"), None],
                                                [None, None]])),
    _mangled(_set(["meta", "sigma"], [1.0, float("nan")])),
    _mangled(_set(["nodes", 3, "leaf", "transitions"],
                  [[1, -0.5, 1.0], [4, 1.5, 1.0]])),   # sums to 1
    _mangled(_set(["nodes", 1, "leaf", "transitions"], [[4, 0.5, 1.0]])),
    _mangled(_set(["nodes", 1, "leaf", "transitions"],
                  [[4, 1.0, float("nan")]])),
    _mangled(_set(["nodes", 1, "leaf", "transitions"], [[7, 1.0, 1.0]])),
    _mangled(_set(["nodes", 3, "leaf", "box", 0, 1], 0.5)),
    _mangled(_set(["nodes", 2, "tau"], 0.5)),
    _mangled(_outside_region),
    b'{"version": 1, "meta": ' + b"1" * 5000 + b"}",
    b"[" * 100000 + b"]" * 100000,
], ids=["version-only", "self-loop", "child-out-of-range", "negative-child",
        "feature-out-of-range", "ill-typed-threshold", "ill-typed-meta",
        "no-nodes", "missing-child", "unreachable-node", "repeated-leaf-id",
        "nan-threshold", "inf-threshold", "nan-value", "inf-action",
        "inf-deriv", "nan-impurity", "inf-density", "nan-box-side",
        "nan-sigma", "negative-probability", "probabilities-sum-to-half",
        "nan-duration", "transition-to-unknown-leaf", "box-side-off-threshold",
        "threshold-moved", "threshold-outside-region",
        "integer-past-digit-limit", "deep-nesting"])
def test_deserialize_rejects_malformed_structure(payload):
    with pytest.raises(TraceFormatError):
        tr.deserialize(payload)


def test_deserialize_names_an_unreachable_node():
    # a copy of the root split appended after the three-leaf tree's five
    # nodes: no split points at it
    payload = _mangled(lambda doc: doc["nodes"].append(doc["nodes"][0]))
    with pytest.raises(TraceFormatError) as err:
        tr.deserialize(payload)
    assert str(err.value) == "tree payload node 5 is unreachable"


def test_deserialize_accepts_absent_and_empty_transitions():
    for trans in (None, []):
        tree = tr.deserialize(_mangled(
            _set(["nodes", 1, "leaf", "transitions"], trans)))
        assert tree.leaves[1].transitions == (None if trans is None else {})


def _number_paths(node, path=()):
    """Key paths of every number in a decoded JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _number_paths(child, path + (key,))


VALID_DOC = json.loads(_mangled(lambda doc: None))
NUMBER_PATHS = list(_number_paths(VALID_DOC))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(path=st.sampled_from(NUMBER_PATHS),
       value=st.sampled_from([float("nan"), float("inf"), -1]))
def test_deserialize_of_one_bad_number_loads_or_raises_quickly(path, value):
    doc = json.loads(json.dumps(VALID_DOC))
    _set(list(path), value)(doc)
    t0 = time.perf_counter()
    try:
        tree = tr.deserialize(json.dumps(doc).encode())
    except TraceFormatError:
        tree = None
    if tree is not None:
        # a loaded tree answers point queries without looping or raising
        for leaf in tree.leaves.values():
            tr.predict(tree, leaf.box.center(tree.feature_range))
    assert time.perf_counter() - t0 < 2.0


def test_grow_respects_min_leaf_everywhere():
    rng = np.random.default_rng(21)
    data = _labelled_aug(rng, n=120)
    tree = tr.grow(data, [1, 1, 1], max_leaves=30, min_leaf=5)
    assert all(leaf.n >= 5 for leaf in tree.leaves.values())


def test_compute_transitions_idempotent():
    rng = np.random.default_rng(22)
    data = _labelled_aug(rng, n=80)
    tree = tr.grow(data, [1, 0, 0], max_leaves=6)
    tr.compute_transitions(tree, data)
    first = {lid: dict(leaf.transitions) for lid, leaf in tree.leaves.items()}
    tr.compute_transitions(tree, data)
    second = {lid: dict(leaf.transitions) for lid, leaf in tree.leaves.items()}
    assert first == second


def test_constant_feature_is_never_split_and_density_is_finite():
    rng = np.random.default_rng(23)
    n = 60
    states = np.stack([rng.uniform(size=n), np.full(n, 0.7)], axis=1)
    data = synthetic_aug(states=states,
                         actions=(states[:, 0] > 0.5).astype(float),
                         V=rng.normal(size=n))
    tree = tr.grow(data, [1, 1, 0], max_leaves=8)
    assert all(f == 0 for _, f, _ in tree.split_log)
    assert all(np.isfinite(leaf.density) for leaf in tree.leaves.values())


# ---------------------------------------------------------------------------
# The leaf table
# ---------------------------------------------------------------------------

@st.composite
def table_cases(draw):
    """A grown, loaded or hand-built tree of any action kind, and foils:
    every predicted action, some never predicted and, for vector actions,
    vectors one entry too long and too short."""
    kind = draw(st.sampled_from([ds.DISCRETE, ds.CONTINUOUS_SCALAR,
                                 ds.CONTINUOUS_VECTOR]))
    source = draw(st.sampled_from(["grown", "loaded", "built"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_leaves = draw(st.integers(1, 12))
    if kind == ds.DISCRETE:
        pool = draw(st.sampled_from([["go", "stop", "wait"], [0.0, 1.0, 2.0]]))
        actions = [pool[k] for k in rng.integers(0, 3, size=60)]
    elif kind == ds.CONTINUOUS_SCALAR:
        actions = rng.integers(0, 2, size=60).astype(float)
    else:
        actions = rng.integers(0, 2, size=(60, m)).astype(float)
    if source == "built":
        tree = random_tree(rng, d, n_leaves, list(actions[:4]))
        tree.action_kind = kind
    else:
        states = rng.uniform(0, 1, size=(60, d))
        data = synthetic_aug(states=states, actions=actions,
                             V=rng.integers(0, 3, size=60).astype(float),
                             D=rng.normal(size=(60, d)), action_kind=kind)
        tree = tr.grow(data, [1, 1, 1], n_leaves)
        if source == "loaded":
            tree = tr.deserialize(tr.serialize(tree))
    foils = [leaf.action_pred for leaf in tree.leaves.values()]
    if kind == ds.CONTINUOUS_VECTOR:
        foils += [np.full(m, 0.5), list(foils[0]), np.append(foils[0], 0.0),
                  foils[0][:-1]]
    else:
        foils += [0.5, "never", [foils[0]]]  # a list is one foil, not many
    return tree, foils


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=table_cases())
def test_leaf_table_rows_equal_leaves_and_mask_equals_per_leaf_loop(case):
    tree, foils = case
    t = tree.table
    assert t.ids.tolist() == sorted(tree.leaves)
    assert t.rows(t.ids).tolist() == list(range(t.ids.size))
    for row, lid in enumerate(t.ids.tolist()):
        leaf = tree.leaves[lid]
        assert t.box[row].lower.tobytes() == leaf.box.lower.tobytes()
        assert t.box[row].upper.tobytes() == leaf.box.upper.tobytes()
        assert t.value[row] == leaf.value_pred
        assert t.deriv[row].tobytes() == leaf.deriv_pred.tobytes()
        assert ref.same_action(t.action[row], leaf.action_pred)
        assert t.n[row] == leaf.n and t.density[row] == leaf.density
        assert t.impurity[row].tolist() == [leaf.impurity.action,
                                            leaf.impurity.value,
                                            leaf.impurity.derivative]
        assert t.low_conf[row] == leaf.deriv_low_confidence
    for column in (t.n, t.density, t.impurity, t.low_conf):
        assert column.shape[0] == t.ids.size and not column.flags.writeable
    for foil in foils:
        assert t.ids[t.predicts(foil)].tolist() == sorted(
            ref.foil_leaves(tree, foil))
