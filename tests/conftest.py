"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from tripletree.dataset import DISCRETE, AugmentedDataset, augment
from tripletree.impurity import ImpurityTriple, best_split, channel_block
from tripletree.tree import Box, Leaf, Node, TripleTree


class FakeBase:
    def __init__(self, action_kind):
        self.action_kind = action_kind


def synthetic_aug(states, actions=None, V=None, D=None, has_deriv=None,
                  action_kind=DISCRETE, sigma=None, rewards=None,
                  episode_slices=None) -> AugmentedDataset:
    """Assemble an augmented dataset directly from arrays, bypassing the
    trace pipeline, so tests can control every label channel."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n, d = states.shape
    if actions is None:
        actions = np.zeros(n)
    if action_kind == DISCRETE:
        labels, codes = np.unique(actions, return_inverse=True)
    else:
        labels = codes = None
        actions = np.asarray(actions, dtype=float)
    V = np.zeros(n) if V is None else np.asarray(V, dtype=float)
    if D is None:
        D = np.zeros((n, d))
        has_deriv = np.zeros(n, dtype=bool) if has_deriv is None else has_deriv
    else:
        D = np.asarray(D, dtype=float)
        if has_deriv is None:
            has_deriv = np.ones(n, dtype=bool)
    has_deriv = np.asarray(has_deriv, dtype=bool)
    defined = D[has_deriv]
    if sigma is None:
        sigma = defined.std(axis=0) if defined.size else np.zeros(d)
    action_sigma = None
    if action_kind == "continuous-vector":
        action_sigma = actions.std(axis=0)
    return AugmentedDataset(
        base=FakeBase(action_kind), gamma=0.9, states=states,
        actions=np.asarray(actions), rewards=(np.zeros(n) if rewards is None
                                              else np.asarray(rewards)),
        V=V, D=D, has_deriv=has_deriv, sigma=np.asarray(sigma, dtype=float),
        feature_range=np.stack([states.min(axis=0), states.max(axis=0)], axis=1),
        medians=np.median(states, axis=0),
        episode_slices=episode_slices or [(0, n, True)],
        action_labels=labels, action_codes=codes, action_sigma=action_sigma,
        feature_names=[f"f{i}" for i in range(d)])


def search_split(data, idx, root, theta, min_leaf=1):
    """``best_split`` of the members ``idx``, in any order, called as growth
    calls it: the members ascending, their stable sort on every feature and
    the dataset's channel block."""
    idx = np.sort(idx)
    orders = idx[np.argsort(data.states[idx].T, axis=1, kind="stable")]
    return best_split(data, idx, root, theta, min_leaf, orders=orders,
                      block=channel_block(data))


def build_tree(spec, feature_range, *, sigma=None, gamma=0.9,
               action_kind=DISCRETE, feature_names=None,
               theta=(1.0, 1.0, 1.0), root_impurity=(1.0, 1.0, 1.0)):
    """Construct a tree from a nested spec.

    spec is either ("leaf", attrs) with attrs keys action/value/deriv/n/
    transitions/low_conf, or ("split", feature, threshold, left, right).
    Leaf ids follow depth-first encounter order.
    """
    fr = np.asarray(feature_range, dtype=float)
    d = fr.shape[0]
    tree = TripleTree(
        nodes=[], leaves={}, theta=np.asarray(theta, dtype=float), gamma=gamma,
        sigma=(np.ones(d) if sigma is None else np.asarray(sigma, dtype=float)),
        feature_range=fr, medians=fr.mean(axis=1),
        feature_names=feature_names or [f"f{i}" for i in range(d)],
        action_kind=action_kind, root_impurity=ImpurityTriple(*root_impurity),
        n_samples=0)
    counter = [0]

    def rec(node_spec, box):
        idx = len(tree.nodes)
        tree.nodes.append(None)
        if node_spec[0] == "leaf":
            attrs = node_spec[1]
            lid = counter[0]
            counter[0] += 1
            leaf = Leaf(
                id=lid, box=box, n=int(attrs.get("n", 1)),
                impurity=ImpurityTriple(*attrs.get("impurity", (0.0, 0.0, 0.0))),
                action_pred=attrs.get("action", 0),
                value_pred=float(attrs.get("value", 0.0)),
                deriv_pred=np.asarray(attrs.get("deriv", np.zeros(d)), dtype=float),
                deriv_low_confidence=bool(attrs.get("low_conf", False)),
                n_deriv=int(attrs.get("n_deriv", attrs.get("n", 1))),
                density=float(attrs.get("density", 1.0)),
                transitions=attrs.get("transitions"))
            tree.nodes[idx] = Node(leaf_id=lid)
            tree.leaves[lid] = leaf
        else:
            _, f, tau, lspec, rspec = node_spec
            lbox, rbox = box.split(f, tau)
            li = rec(lspec, lbox)
            ri = rec(rspec, rbox)
            tree.nodes[idx] = Node(feature=int(f), threshold=float(tau),
                                   left=li, right=ri)
        return idx

    rec(spec, Box.unbounded(d))
    tree.n_samples = sum(l.n for l in tree.leaves.values())
    return tree


def random_tree(rng, d, n_leaves, actions, feature_range=None):
    """Random axis-aligned partition tree with random leaf attributes."""
    fr = (np.array([[0.0, 1.0]] * d) if feature_range is None
          else np.asarray(feature_range, dtype=float))

    def make(lo, hi, leaves):
        if leaves == 1:
            return ("leaf", {
                "action": actions[rng.integers(len(actions))],
                "value": float(rng.uniform(0, 1)),
                "deriv": rng.uniform(-1, 1, size=d),
                "n": int(rng.integers(1, 20))})
        f = int(rng.integers(d))
        tau = float(rng.uniform(lo[f], hi[f]))
        n_left = int(rng.integers(1, leaves))
        lo_r, hi_l = lo.copy(), hi.copy()
        hi_l[f] = tau
        lo_r[f] = tau
        return ("split", f, tau, make(lo, hi_l, n_left),
                make(lo_r, hi, leaves - n_left))

    spec = make(fr[:, 0].copy(), fr[:, 1].copy(), n_leaves)
    return build_tree(spec, fr)


def road_setup():
    """A small road task setup: (config, policy, traces, augmented data)."""
    from tripletree import road_env as road
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0)
    policy = road.dp_solve(cfg, tolerance=1e-6)
    data = road.generate_dataset(cfg, policy, 3000, 100, seed=0)
    aug = augment(data, cfg.gamma)
    return cfg, policy, data, aug


@pytest.fixture(scope="session")
def road_fixture():
    """``road_setup`` shared by module tests (fast to build)."""
    return road_setup()


@pytest.fixture(scope="session")
def benchmark_trace():
    """The n=1e5 seed-0 road trace of the ``fit`` benchmark workload."""
    from tripletree import road_env as road
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0,
                          gamma=0.99, grid=(30, 30))
    return road.generate_dataset(cfg, road.dp_solve(cfg, tolerance=1e-6),
                                 100_000, 100, seed=0)


def vector_trace(seed=0, episodes=50, steps=100):
    """A seeded trace of the second shape: d=4 states, 2-D continuous
    actions from a ``tanh`` policy plus noise, ``steps``-step episodes of
    linear dynamics, about half of them ending in a terminal state."""
    from tripletree.dataset import CONTINUOUS_VECTOR, TraceDataset
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(2, 4))
    B = rng.normal(scale=0.2, size=(4, 2))
    states = np.empty((steps, episodes, 4))
    actions = np.empty((steps, episodes, 2))
    s = rng.uniform(-1.0, 1.0, size=(episodes, 4))
    for t in range(steps):
        states[t] = s
        actions[t] = np.tanh(s @ W.T) + rng.normal(scale=0.1,
                                                   size=(episodes, 2))
        s = 0.95 * s + actions[t] @ B.T + rng.normal(scale=0.05,
                                                     size=(episodes, 4))
    states = states.transpose(1, 0, 2).reshape(-1, 4)
    actions = actions.transpose(1, 0, 2).reshape(-1, 2)
    rewards = -np.add.reduce(states * states, axis=1) + rng.normal(
        scale=0.1, size=states.shape[0])
    return TraceDataset(states, actions, rewards,
                        np.arange(episodes) * steps,
                        rng.uniform(size=episodes) < 0.5, CONTINUOUS_VECTOR,
                        [f"x{i}" for i in range(4)])


def traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated, in bytes,
    under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
