from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import impurity as imp
from tripletree.dataset import ACTION_KINDS, augment
from tripletree.errors import ParameterError
from tripletree.impurity import ImpurityTriple

from .conftest import search_split, synthetic_aug, traced_peak
from .reference import (_vector_moment_quality, derivative_impurity,
                        exhaustive_best_split, gini, pairwise_deriv_impurity,
                        pairwise_variance, partition_quality,
                        rowwise_best_split, rowwise_hybrid_quality,
                        rowwise_node_stats, variance)


def test_gini_examples():
    assert gini({"a": 10}) == 0.0
    assert gini({"a": 5, "b": 5}) == pytest.approx(0.5)
    assert gini({"a": 3, "b": 1}) == pytest.approx(0.375)
    assert gini({}) == 0.0


def test_variance_examples():
    assert variance([1.0, 1.0, 1.0]) == 0.0
    assert variance([0.0, 1.0]) == pytest.approx(0.25)
    assert variance([5.0]) == 0.0


def test_variance_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.normal(scale=rng.uniform(0.1, 20), size=rng.integers(2, 200))
        assert variance(x) == pytest.approx(pairwise_variance(x), abs=1e-9)


def test_derivative_impurity_examples():
    same = np.tile([1.0, -2.0], (6, 1))
    assert derivative_impurity(same, [1.0, 1.0]) == pytest.approx(0.0)
    assert derivative_impurity(np.array([[0.0], [1.0]]), [1.0]) == \
        pytest.approx(0.25)
    assert derivative_impurity(np.zeros((0, 2)), [1.0, 1.0]) == 0.0


def test_derivative_impurity_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        D = rng.normal(size=(int(rng.integers(2, 60)), 3))
        sigma = rng.uniform(0.0, 2.0, size=3)  # may include a dropped feature
        assert derivative_impurity(D, sigma) == pytest.approx(
            pairwise_deriv_impurity(D, sigma), abs=1e-9)


def test_zero_sigma_feature_dropped():
    D = np.array([[0.0, 5.0], [1.0, -5.0]])
    assert derivative_impurity(D, [1.0, 0.0]) == pytest.approx(0.25)


def test_partition_quality_examples():
    parent = gini({"a": 2, "b": 2})
    assert partition_quality(parent, (0.0, 2), (0.0, 2)) == pytest.approx(0.5)
    half = gini({"a": 1, "b": 1})
    assert partition_quality(parent, (half, 2), (half, 2)) == pytest.approx(0.0)
    pv = variance([0.0, 0.0, 1.0, 1.0])
    assert partition_quality(pv, (0.0, 2), (0.0, 2)) == pytest.approx(0.25)


def _combined(q_triple, root, theta):
    return imp.combine_qualities(q_triple, root.as_array(),
                                 imp.validate_theta(theta))


def test_hybrid_quality():
    root = ImpurityTriple(0.5, 2.0, 4.0)
    assert _combined((0.25, 1.0, 1.0), root, [1, 0, 0]) == pytest.approx(0.5)
    assert _combined((0.5, 2.0, 4.0), root, [1, 1, 1]) == pytest.approx(3.0)
    # hand evaluation with uneven weights
    expect = 0.2 * (0.25 / 0.5) + 0.6 * (1.0 / 2.0) + 0.2 * (1.0 / 4.0)
    assert _combined((0.25, 1.0, 1.0), root, [0.2, 0.6, 0.2]) == \
        pytest.approx(expect)
    # zero-impurity channels contribute nothing
    root0 = ImpurityTriple(0.0, 2.0, 0.0)
    assert _combined((1.0, 1.0, 1.0), root0, [1, 1, 1]) == pytest.approx(0.5)
    # arrays of candidates combine elementwise, like the scalars, and as the
    # row-gather oracle combines them
    q = (np.array([0.25, 0.5]), np.array([1.0, 2.0]), np.array([1.0, 4.0]))
    got = _combined(q, root, [0.2, 0.6, 0.2])
    assert got.shape == (2,)
    assert got[0] == _combined((0.25, 1.0, 1.0), root, [0.2, 0.6, 0.2])
    assert got[1] == _combined((0.5, 2.0, 4.0), root, [0.2, 0.6, 0.2])
    assert np.array_equal(got, rowwise_hybrid_quality(q, root, [0.2, 0.6, 0.2]))


def test_theta_validation():
    for theta in ([-0.1, 0.5, 0.6], [0, 0, 0], [1, 1], [1, np.nan, 1]):
        with pytest.raises(ParameterError):
            imp.validate_theta(theta)


# ---------------------------------------------------------------------------
# best_split
# ---------------------------------------------------------------------------

def test_best_split_simple_action_fixture():
    data = synthetic_aug(states=[[1.0], [2.0], [3.0], [4.0]],
                         actions=["a", "a", "b", "b"])
    root = imp.node_impurity(data, np.arange(4))
    cand = search_split(data, np.arange(4), root, [1, 0, 0])
    assert cand.feature == 0
    assert cand.threshold == pytest.approx(2.5)
    assert sorted(cand.left_idx.tolist()) == [0, 1]
    assert sorted(cand.right_idx.tolist()) == [2, 3]


def test_best_split_all_identical_labels_returns_none():
    data = synthetic_aug(states=[[1.0], [2.0], [3.0]], actions=["a", "a", "a"],
                         V=[1.0, 1.0, 1.0],
                         D=np.ones((3, 1)), has_deriv=[True, True, False])
    root = imp.node_impurity(data, np.arange(3))
    assert search_split(data, np.arange(3), root, [1, 1, 1]) is None


def _random_aug(rng, n, d, kind="discrete"):
    states = rng.uniform(0, 1, size=(n, d))
    has_deriv = rng.uniform(size=n) > 0.2
    D = rng.normal(size=(n, d)) * has_deriv[:, None]
    if kind == "discrete":
        actions = rng.integers(0, 3, size=n).astype(float)
    elif kind == "continuous-scalar":
        actions = rng.normal(size=n)
    else:
        actions = rng.normal(size=(n, 2))
    return synthetic_aug(states=states, actions=actions,
                         V=rng.normal(size=n), D=D, has_deriv=has_deriv,
                         action_kind=kind)


@pytest.mark.parametrize("kind", ["discrete", "continuous-scalar",
                                  "continuous-vector"])
def test_best_split_matches_exhaustive_oracle(kind):
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(1, 4))
        data = _random_aug(rng, n, d, kind)
        theta = rng.uniform(0, 1, size=3)
        theta[int(rng.integers(3))] += 0.5  # keep the sum clearly positive
        idx = np.arange(n)
        root = imp.node_impurity(data, idx)
        got = search_split(data, idx, root, theta)
        want = exhaustive_best_split(data, idx, root, theta)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.feature, got.threshold) == (want[0], want[1])
            assert got.hybrid_quality == pytest.approx(want[2], abs=1e-9)


def test_best_split_respects_min_leaf():
    data = synthetic_aug(states=[[1.0], [2.0], [3.0], [4.0]],
                         actions=["a", "b", "b", "b"])
    root = imp.node_impurity(data, np.arange(4))
    cand = search_split(data, np.arange(4), root, [1, 0, 0], min_leaf=2)
    assert cand.left_idx.size >= 2 and cand.right_idx.size >= 2


def test_split_concavity_per_channel():
    # weighted child impurity never exceeds the parent's, for Gini and variance
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 3, size=n)
        values = rng.normal(size=n)
        cut = int(rng.integers(1, n))
        left, right = np.arange(cut), np.arange(cut, n)

        def gini_of(ix):
            counts = {}
            for lab in labels[ix]:
                counts[lab] = counts.get(lab, 0) + 1
            return gini(counts)

        g = gini_of(np.arange(n))
        assert (gini_of(left) * cut + gini_of(right) * (n - cut)) / n <= g + 1e-12
        v = variance(values)
        vl, vr = variance(values[left]), variance(values[right])
        assert (vl * cut + vr * (n - cut)) / n <= v + 1e-12


def test_value_scaling_leaves_argmax_unchanged():
    rng = np.random.default_rng(5)
    states = rng.uniform(0, 1, size=(50, 2))
    V = rng.normal(size=50)
    data = synthetic_aug(states=states, V=V)
    data_scaled = synthetic_aug(states=states, V=100.0 * V)
    idx = np.arange(50)
    a = search_split(data, idx, imp.node_impurity(data, idx), [0, 1, 0])
    b = search_split(data_scaled, idx,
                     imp.node_impurity(data_scaled, idx), [0, 1, 0])
    assert (a.feature, a.threshold) == (b.feature, b.threshold)


# ---------------------------------------------------------------------------
# The column scan against the row-gather oracle, bit for bit
# ---------------------------------------------------------------------------

def _bits(x):
    """A value's type and exact bytes, so == compares floats bitwise."""
    if x is None or isinstance(x, str):
        return x
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


def _stats_bits(stats):
    (a_sq, v_sq, d_sq) = stats.loss_terms
    return [_bits(v) for v in (*stats.impurity.as_array(), stats.action,
                               stats.value, stats.deriv, stats.n_deriv,
                               a_sq, v_sq, d_sq)]


@st.composite
def scan_cases(draw):
    """A dataset of every action kind and derivative mask, with heavily
    duplicated states, a random member subset in random order, theta and
    min_leaf.  Up to 5 features and 6 action dimensions: a multi-column
    channel's weighted sums must add its columns in the oracle's order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["discrete", "continuous-scalar",
                                 "continuous-vector"]))
    n = draw(st.integers(2, 70))
    d = draw(st.integers(1, 5))
    # a few distinct values per feature, signed zeros among them, with some
    # features continuous
    pools = [np.append(rng.normal(size=draw(st.integers(1, 6))), [0.0, -0.0])
             for _ in range(d)]
    states = np.stack([rng.choice(pool, size=n) if draw(st.booleans())
                       else rng.uniform(-1, 1, size=n) for pool in pools],
                      axis=1)
    rows = np.arange(n)
    if kind == "discrete":
        labels = draw(st.integers(2, 5))
        actions = rng.integers(0, labels, size=n).astype(float)
        if n >= labels:  # every label is in the dataset ...
            actions[:labels] = rng.permutation(labels)
        if draw(st.booleans()):  # ... and the last may be absent from the node
            rows = rows[actions != labels - 1]
            if rows.size == 0:
                rows = np.arange(n)
    elif kind == "continuous-scalar":
        actions = rng.normal(scale=draw(st.floats(0.01, 100)), size=n)
    else:
        actions = rng.normal(size=(n, draw(st.integers(2, 6))))
        actions[:, int(rng.integers(actions.shape[1]))] = 0.7  # zero sigma
    mode = draw(st.sampled_from(["all", "none", "partial"]))
    has_deriv = {"all": np.ones(n, dtype=bool), "none": np.zeros(n, dtype=bool),
                 "partial": rng.uniform(size=n) > 0.3}[mode]
    D = rng.normal(size=(n, d)) * has_deriv[:, None]
    if d > 1 and draw(st.booleans()):
        D[:, 0] = 0.0  # a zero-sigma derivative feature
    data = synthetic_aug(states=states, actions=actions,
                         V=rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3]),
                         D=D, has_deriv=has_deriv, action_kind=kind)
    size = draw(st.integers(1, max(1, rows.size)))
    idx = rng.permutation(rows)[:size]
    theta = rng.uniform(size=3) * (rng.uniform(size=3) > 0.3)
    theta[int(rng.integers(3))] += 0.1
    return data, idx, theta, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=scan_cases())
def test_column_scan_is_bitwise_the_row_gather_search(case):
    data, idx, theta, min_leaf = case
    assert _stats_bits(imp.node_stats(data, idx)) == \
        _stats_bits(rowwise_node_stats(data, idx))
    root = rowwise_node_stats(data, np.arange(data.n)).impurity
    # the search takes a node's members ascending, as growth keeps them
    got = search_split(data, idx, root, theta, min_leaf=min_leaf)
    want = rowwise_best_split(data, np.sort(idx), root, theta,
                              min_leaf=min_leaf)
    if want is None:
        assert got is None
        return
    assert (got.feature, got.threshold, got.quality_triple,
            got.hybrid_quality) == (want.feature, want.threshold,
                                    want.quality_triple, want.hybrid_quality)
    assert np.array_equal(got.left_idx, want.left_idx)
    assert np.array_equal(got.right_idx, want.right_idx)
    for side in ("left_idx", "right_idx"):
        members = getattr(got, side)
        assert _stats_bits(imp.node_stats(data, members)) == \
            _stats_bits(rowwise_node_stats(data, members))


def _candidate_bits(cand):
    if cand is None:
        return None
    return (cand.feature, _bits(cand.threshold),
            [_bits(q) for q in cand.quality_triple], _bits(cand.hybrid_quality),
            _bits(cand.left_idx), _bits(cand.right_idx))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=scan_cases(), seed=st.integers(0, 2**32 - 1))
def test_inherited_orders_search_is_bitwise_the_sorting_search(case, seed):
    # a random node (its members ascending, as growth keeps them), split on
    # a random feature at one of its own values: each child's orders are the
    # parent's filtered by the split, as growth hands them down, and its
    # search is the row-gather oracle's, which sorts the members itself
    data, idx, theta, min_leaf = case
    rng = np.random.default_rng(seed)
    parent = np.sort(idx)
    orders = parent[np.argsort(data.states[parent].T, axis=1, kind="stable")]
    f = int(rng.integers(data.d))
    tau = float(rng.choice(data.states[parent, f]))
    left = data.states[parent, f] < tau
    goes_left = data.states[orders, f] < tau
    root = rowwise_node_stats(data, np.arange(data.n)).impurity
    block = imp.channel_block(data)
    for child, side in ((parent[left], goes_left), (parent[~left], ~goes_left)):
        if child.size == 0:
            continue
        inherited = orders[side].reshape(data.d, -1)
        assert np.array_equal(inherited, child[np.argsort(
            data.states[child].T, axis=1, kind="stable")])
        got = imp.best_split(data, child, root, theta, min_leaf=min_leaf,
                             block=block, batch=(0, {0: inherited}))
        want = rowwise_best_split(data, child, root, theta, min_leaf=min_leaf)
        assert _candidate_bits(got) == _candidate_bits(want)
        if got is not None:
            for members in (got.left_idx, got.right_idx):
                assert _stats_bits(imp.node_stats(data, members)) == \
                    _stats_bits(rowwise_node_stats(data, members))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=scan_cases(), chunk=st.integers(1, 7))
def test_chunked_scan_is_bitwise_the_row_gather_search(case, chunk):
    # chunks of a few members: nearly every node spans several, and its
    # running sums are carried from chunk to chunk
    data, idx, theta, min_leaf = case
    root = rowwise_node_stats(data, np.arange(data.n)).impurity
    with mock.patch.object(imp, "_CHUNK", chunk):
        got = search_split(data, idx, root, theta, min_leaf=min_leaf)
    want = rowwise_best_split(data, np.sort(idx), root, theta,
                              min_leaf=min_leaf)
    assert _candidate_bits(got) == _candidate_bits(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=scan_cases(), offset=st.integers(-3, 3))
def test_grouped_scan_at_its_boundary_is_bitwise_the_row_gather_search(
        case, offset):
    # a chunk of n * d + offset members: from offset 0 up the node's d
    # orders are scanned together, below it one at a time (in chunks once
    # it is below n), so either side's sums, cut masks and weighted
    # variance sums must give the row-gather oracle's bits
    data, idx, theta, min_leaf = case
    root = rowwise_node_stats(data, np.arange(data.n)).impurity
    with mock.patch.object(imp, "_CHUNK", max(1, idx.size * data.d + offset)):
        got = search_split(data, idx, root, theta, min_leaf=min_leaf)
    want = rowwise_best_split(data, np.sort(idx), root, theta,
                              min_leaf=min_leaf)
    assert _candidate_bits(got) == _candidate_bits(want)


@pytest.mark.parametrize("kind", ACTION_KINDS)
@pytest.mark.parametrize("tail", [1, 2])
def test_last_chunk_of_one_or_two_members_is_scanned_bitwise(kind, tail):
    # distinct states, so every position is a cut: a last chunk of two
    # members holds a single cut, one of one member none
    rng = np.random.default_rng(3)
    for d in (1, 3):
        data = _random_aug(rng, 3 * 5 + tail, d, kind)
        idx = np.arange(data.n)
        root = rowwise_node_stats(data, idx).impurity
        for theta in ([1, 1, 1], [0, 0, 1], [0.2, 0.6, 0.2]):
            with mock.patch.object(imp, "_CHUNK", 5):
                got = search_split(data, idx, root, theta)
            want = rowwise_best_split(data, idx, root, theta)
            assert _candidate_bits(got) == _candidate_bits(want)


def test_root_scan_peak_is_bounded(benchmark_trace):
    # the n=1e5 benchmark trace: besides the block's workspace, the scan
    # holds one chunk's cut mask and hybrid qualities and each order's
    # running best, no array with an entry per cut (1.0 MB)
    data = augment(benchmark_trace, 0.99)
    idx = np.arange(data.n)
    orders = np.argsort(data.states.T, axis=1, kind="stable")
    block = imp.channel_block(data)
    root = imp.node_impurity(data, idx)
    cand, peak = traced_peak(lambda: imp.best_split(
        data, idx, root, (0.2, 0.6, 0.2), block=block, batch=(0, {0: orders})))
    assert cand is not None
    assert peak <= 3e6, f"best_split peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_tied_cuts_in_any_chunks_pick_the_first(chunk):
    # V = 0, 1, 1, 0 over states 0..3: the cuts at 0.5 and 2.5 both reduce
    # V's variance from 1/4 by 1/12, to the same float, and the one at 1.5
    # by nothing; in one chunk, in two, or one position per chunk, the
    # first wins
    data = synthetic_aug(states=[0.0, 1.0, 2.0, 3.0], actions=["a"] * 4,
                         V=[0.0, 1.0, 1.0, 0.0])
    idx = np.arange(4)
    root = imp.node_impurity(data, idx)
    with mock.patch.object(imp, "_CHUNK", chunk):
        got = search_split(data, idx, root, [0, 1, 0])
    assert _candidate_bits(got) == _candidate_bits(
        rowwise_best_split(data, idx, root, [0, 1, 0]))
    # the oracle's V quality at each position: the tie is exact in floats
    q = _vector_moment_quality(data.V[:, None], np.ones(1), None,
                               np.arange(3), np.arange(1.0, 4.0),
                               np.arange(3.0, 0.0, -1.0))
    assert got.threshold == 0.5 and q[0] == q[2] == got.quality_triple[1]
    assert q[1] < q[0] == pytest.approx(1 / 12)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 16])
def test_a_nan_quality_in_any_chunk_leaves_its_order_no_cut(chunk):
    # a derivative weight of 1e308: the node's weighted variance overflows,
    # so a cut whose sides each hold one cluster has an infinite quality
    # and one that mixes a side a NaN.  Feature 0's cut at 3.5 is infinite
    # and its others NaN, so it has no cut, even when that cut is a chunk
    # of its own; feature 1's one cut is infinite
    states = np.stack([np.arange(8.0), np.repeat([0.0, 1.0], 4)], axis=1)
    D = np.stack([np.repeat([-1.5, 1.5], 4), np.zeros(8)], axis=1)
    data = synthetic_aug(states=states, actions=["a"] * 8, D=D,
                         sigma=[1e-308, 0.0])
    idx = np.arange(8)
    root = ImpurityTriple(1.0, 1.0, 1.0)
    with mock.patch.object(imp, "_CHUNK", chunk), \
            np.errstate(over="ignore", invalid="ignore"):
        got = search_split(data, idx, root, [0, 0, 1])
        want = rowwise_best_split(data, idx, root, [0, 0, 1])
    assert (got.feature, got.threshold, got.hybrid_quality) == \
        (1, 0.5, np.inf)
    assert _candidate_bits(got) == _candidate_bits(want)


@st.composite
def frontier_cases(draw):
    """A dataset of every action kind, with tied states and signed zeros,
    and a frontier of open leaves from one member up to past a chunk of
    the drawn size ``chunk``, with ``min_leaf`` and theta.  A ``huge``
    return makes every quality of the leaves holding it NaN; a near-zero
    derivative sigma overflows the weighted variances of some cuts and not
    others, so one leaf's orders can have NaN qualities and another not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["discrete", "continuous-scalar",
                                 "continuous-vector"]))
    d = draw(st.integers(1, 4))
    chunk = draw(st.integers(4, 160))
    n = draw(st.integers(2, chunk // d + 12))
    pools = [np.append(rng.normal(size=draw(st.integers(1, 4))), [0.0, -0.0])
             for _ in range(d)]
    states = np.stack([rng.choice(pool, size=n) if draw(st.booleans())
                       else rng.uniform(-1, 1, size=n) for pool in pools],
                      axis=1)
    if kind == "discrete":
        actions = rng.integers(0, draw(st.integers(2, 4)), size=n)
        actions = actions.astype(float)
    elif kind == "continuous-scalar":
        actions = rng.normal(size=n)
    else:
        actions = rng.normal(size=(n, draw(st.integers(2, 3))))
    has_deriv = rng.uniform(size=n) > draw(st.sampled_from([0.0, 0.3, 1.0]))
    D = rng.normal(size=(n, d)) * has_deriv[:, None]
    V = rng.normal(size=n)
    sigma = D[has_deriv].std(axis=0) if has_deriv.any() else np.zeros(d)
    nan = draw(st.sampled_from(["none", "huge", "sigma"]))
    if nan == "huge":
        V[int(rng.integers(n))] = 1e200
    elif nan == "sigma":
        # a weight of 1e308, so a variance over 1.8 overflows: a node of
        # both clusters has an infinite impurity, feature 0's cut between
        # them an infinite quality and the cuts that mix them NaN ones
        j = int(rng.integers(d))
        sigma[j] = 1e-308
        states[:, 0] = rng.integers(2, size=n)
        D[:, j] = np.where(states[:, 0], 1.5, -1.5) + rng.normal(
            scale=0.1, size=n)
    data = synthetic_aug(states=states, actions=actions, V=V, D=D,
                         has_deriv=has_deriv, sigma=sigma, action_kind=kind)
    leaves = [np.sort(rng.choice(n, size=draw(st.integers(1, n)),
                                 replace=False))
              for _ in range(draw(st.integers(1, 10)))]
    theta = rng.uniform(size=3) * (rng.uniform(size=3) > 0.3)
    theta[int(rng.integers(3))] += 0.1
    root = ImpurityTriple(*rng.uniform(0.5, 2.0, size=3))
    return data, leaves, root, theta, draw(st.sampled_from([1, 3])), chunk


def _found_bits(found):
    """A found cut's (hybrid quality, feature, threshold, triple), bitwise."""
    if found is None:
        return None
    q_star, f, tau, triple = found
    return _bits(q_star), f, _bits(tau), [_bits(q) for q in triple]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=frontier_cases())
def test_batched_search_is_bitwise_each_leafs_lone_search(case):
    # every open leaf is searched in the first scan that reaches it, with
    # whichever other leaves are pending, padded to the widest; each must
    # find the cut its own search finds, bit for bit
    data, leaves, root, theta, min_leaf, chunk = case
    orders = [leaf[np.argsort(data.states[leaf].T, axis=1, kind="stable")]
              for leaf in leaves]
    with mock.patch.object(imp, "_CHUNK", chunk), \
            np.errstate(over="ignore", invalid="ignore"):
        block = imp.channel_block(data)
        lone = [imp.best_split(data, leaf, root, theta, min_leaf,
                               block=block, batch=(i, {i: order}))
                for i, (leaf, order) in enumerate(zip(leaves, orders))]
        records = dict(enumerate(orders))
        for i, (leaf, order) in enumerate(zip(leaves, orders)):
            if not isinstance(records[i], np.ndarray):  # found by a batch
                assert _found_bits(records[i]) == _found_bits(
                    lone[i] and (lone[i].hybrid_quality, lone[i].feature,
                                 lone[i].threshold, lone[i].quality_triple))
            got = imp.best_split(data, leaf, root, theta, min_leaf,
                                 block=block, batch=(i, records))
            assert _candidate_bits(got) == _candidate_bits(lone[i])
    assert not records
