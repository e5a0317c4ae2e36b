"""Growth depends on the data, not on how it is written: metamorphic
properties of ``grow`` over small generated traces.

Two transformations leave the fit unchanged: renaming the discrete action
labels, and shifting a state feature by a constant that every state takes
without rounding.  Rescaling a feature is not one of them: the
derivative channel sums var/sigma per feature, so it carries the feature's
units, and the test below states that.  Permuting episodes or features
changes only exact ties, which the floating-point qualities can break
either way; those properties wait for an exact tie rule (ROADMAP item 1),
and the README trace's witnesses of them are strict xfails until it lands.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import impurity as imp
from tripletree import road_env as road
from tripletree import tree as tr
from tripletree.dataset import (ACTION_KINDS, CONTINUOUS_VECTOR, DISCRETE,
                                Episode, TraceDataset, augment)

GAMMA = 0.9
MAX_LEAVES = 12
LABELS = ("left", "stay", "right", "brake")


def _trace(episodes, kind, d):
    return TraceDataset.from_episodes(episodes, kind,
                                      [f"f{i}" for i in range(d)])


@st.composite
def traces(draw):
    """A trace of a few short episodes, some of them cut off, with d <= 3
    features.  States are multiples of 1/8 in [-8, 8], so sums and
    midpoints of states and shifts by multiples of 1/8 round nowhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(ACTION_KINDS))
    d = draw(st.integers(1, 3))
    labels = LABELS[:draw(st.integers(2, len(LABELS)))]
    width = draw(st.integers(2, 3))
    episodes = []
    for _ in range(draw(st.integers(1, 5))):
        steps = int(rng.integers(1, 16))
        states = rng.integers(-64, 65, size=(steps, d)) / 8.0
        if kind == DISCRETE:
            actions = rng.choice(np.array(labels, dtype=object), size=steps)
        elif kind == CONTINUOUS_VECTOR:
            actions = rng.normal(size=(steps, width))
        else:
            actions = rng.normal(size=steps)
        episodes.append(Episode(states, actions, rng.normal(size=steps),
                                terminal=bool(rng.integers(2))))
    theta = draw(st.sampled_from([(1, 1, 1), (0.2, 0.6, 0.2), (1, 0, 0),
                                  (0, 1, 0), (0, 0, 1), (0.5, 0, 0.5)]))
    return _trace(episodes, kind, d), theta


def _grow(trace, theta):
    return tr.grow(augment(trace, GAMMA), theta, MAX_LEAVES)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=traces(), data=st.data())
def test_renaming_the_action_labels_keeps_the_split_sequence(case, data):
    trace, theta = case
    if trace.action_kind != DISCRETE:
        return
    names = sorted(set(trace.actions.tolist()))
    # an injective map onto new names, which may reorder two labels; more
    # than two are summed in their sorted order, and a reordering may round
    # an exact Gini tie the other way, so it keeps their order
    new = data.draw(st.permutations([f"a{i}" for i in range(len(names))]))
    if len(names) > 2:
        new = sorted(new)
    renamed = dict(zip(names, new))
    other = TraceDataset(trace.states, np.array(
        [renamed[a] for a in trace.actions.tolist()], dtype=object),
        trace.rewards, trace.starts, trace.terminal, trace.action_kind,
        trace.feature_names)
    a, b = _grow(trace, theta), _grow(other, theta)
    assert a.split_log == b.split_log
    assert a.loss_curve == b.loss_curve


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=traces(), feature=st.integers(0, 2), eighths=st.integers(-512, 512))
def test_an_exact_shift_of_a_feature_keeps_every_split(case, feature,
                                                       eighths):
    trace, theta = case
    f, shift = feature % trace.d, eighths / 8.0
    states = trace.states.copy()
    states[:, f] += shift
    other = TraceDataset(states, trace.actions, trace.rewards, trace.starts,
                         trace.terminal, trace.action_kind,
                         trace.feature_names)
    a, b = _grow(trace, theta), _grow(other, theta)
    assert [(lid, g) for lid, g, _ in a.split_log] == \
        [(lid, g) for lid, g, _ in b.split_log]
    assert [tau + shift * (g == f) for _, g, tau in a.split_log] == \
        [tau for _, _, tau in b.split_log]
    # the same members at every split: each sample reaches the same leaf
    assert np.array_equal(tr.assign_leaves(a, trace.states),
                          tr.assign_leaves(b, states))


def test_rescaling_a_feature_rescales_its_derivative_impurity_term():
    # the derivative channel sums var/sigma: a feature measured in units k
    # times smaller has derivatives, spreads and sigma k times larger, so its
    # term grows k times and growth weighs it more.  The derivative loss,
    # sum RMSE/sigma, is unit-free.  Not an invariance of the spec.
    rng = np.random.default_rng(4)
    episodes = [Episode(rng.normal(size=(20, 2)), rng.integers(0, 2, size=20),
                        rng.normal(size=20), terminal=True)
                for _ in range(4)]
    trace = _trace(episodes, DISCRETE, 2)
    k = 3.0
    scaled = TraceDataset(trace.states * [k, 1.0], trace.actions,
                          trace.rewards, trace.starts, trace.terminal,
                          DISCRETE, trace.feature_names)
    a, b = augment(trace, GAMMA), augment(scaled, GAMMA)
    terms = a.D[a.has_deriv].var(axis=0) / a.sigma
    everyone = np.arange(a.n)
    assert imp.node_impurity(a, everyone).derivative == \
        pytest.approx(terms.sum())
    assert imp.node_impurity(b, everyone).derivative == \
        pytest.approx(k * terms[0] + terms[1])
    assert imp.node_impurity(b, everyone).derivative != \
        pytest.approx(terms.sum())


@pytest.fixture(scope="module")
def readme_trace():
    """The README walkthrough's trace: 10^4 road samples, seed 0."""
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0,
                          gamma=0.99)
    return road.generate_dataset(cfg, road.dp_solve(cfg, tolerance=1e-6),
                                 10_000, 100, seed=0)


def _readme_splits(trace):
    """The split sequence of the README's 200-leaf fit of ``trace``."""
    return tr.grow(augment(trace, 0.99), (0.2, 0.6, 0.2), 200).split_log


EXACT_TIE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: two cuts whose qualities tie in exact arithmetic "
           "round apart by the order of their sums, so either can win")


@EXACT_TIE
def test_reversing_the_episodes_keeps_the_readme_split_sequence(
        readme_trace):
    # split 158 (0-based), of leaf 206: feature 0 at 0.78049 in the given
    # order, feature 1 at -0.03858 in reverse order
    reversed_trace = _trace(readme_trace.episodes[::-1],
                            readme_trace.action_kind, readme_trace.d)
    assert _readme_splits(reversed_trace) == _readme_splits(readme_trace)


@EXACT_TIE
def test_swapping_the_features_keeps_the_readme_split_sequence(readme_trace):
    # split 133 (0-based), of leaf 254: feature 0 at 2.28384 in the given
    # order, feature 1 at 0.04276 with the features swapped
    swapped = _trace([Episode(ep.states[:, ::-1], ep.actions, ep.rewards,
                              ep.terminal) for ep in readme_trace.episodes],
                     readme_trace.action_kind, readme_trace.d)
    assert [(lid, 1 - f, tau) for lid, f, tau in _readme_splits(swapped)] \
        == _readme_splits(readme_trace)
