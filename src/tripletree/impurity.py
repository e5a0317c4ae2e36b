"""Impurity measures and the axis-aligned split search.

Three channels are measured on every node: action (Gini for discrete
actions, variance for continuous ones, per-dimension normalised variance
sum for vector actions), return variance, and the normalised sum of
per-feature derivative variances.  ``node_stats`` gathers a node's channels
once for its impurities, leaf predictions and share of the training losses.
``best_split`` scans each feature's stable sort of the members.  Growth
sorts each feature once, at the root, and a split partitions every sorted
order for the children, as SLIQ and SPRINT partition their pre-sorted
attribute lists.  Growth also builds the dataset's ``channel_block`` once
(a count row per action label, ``has_deriv``, each continuous action
component, V and each derivative component, with the weights that decode
them).  A split's quality on a channel is the population-weighted impurity
reduction; ``combine_qualities`` combines the three, each normalised by its
root impurity, for split search, and growth ranks leaves by the same
formula on Python floats.

The scan needs only running sums, as SPRINT's does, and scores all of a
node's features together when their sorted orders fit in one chunk (n * d
<= ``_CHUNK``), each feature in turn, a chunk at a time, when they do not.
One mask over the orders' sorted values finds every cut.  The block's rows
are gathered in each order ``_CHUNK`` members at a time into a workspace
the block keeps, and cumulated in place with their squared moment rows,
carrying the running sums into the next chunk.  Every position of the chunk
is then scored from those sums and its order's totals, all moment rows
(continuous action, V, derivatives) together, and the cuts' qualities are
taken, so every sum and quality is the one a whole-order scan of each
feature gives.  A node of several chunks cumulates them once for its
totals, scores the last, then recomputes and scores the others.  The node's
own variances and Gini are read off its last position, whose left side is
the whole node.  A channel of several columns, or of one column weighted
other than 1 (the derivatives; vector actions), sums its weighted variances
with one gemv per feature over that feature's cuts, and the node's with one
ddot per feature: OpenBLAS's gemv rounds a row differently for a different
number of rows, so each side's (cuts x columns) variances are kept for all
of a feature's cuts.  On the n=1e5 benchmark trace the root's scan peaks at
8.0 MB under tracemalloc besides the block's 1.4 MB workspace, and a
1000-leaf ``grow`` at 16.6 MB (22.5 and 29.7 MB with whole-node buffers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CONTINUOUS_SCALAR, DISCRETE
from .errors import ParameterError


@dataclass(frozen=True)
class ImpurityTriple:
    action: float
    value: float
    derivative: float

    def as_array(self) -> np.ndarray:
        return np.array([self.action, self.value, self.derivative])


@dataclass
class SplitCandidate:
    feature: int
    threshold: float
    quality_triple: tuple[float, float, float]
    hybrid_quality: float
    left_idx: np.ndarray   # members with state[feature] < threshold
    right_idx: np.ndarray  # members with state[feature] >= threshold


class NodeStats(NamedTuple):
    """Per-channel statistics of one node's members."""

    impurity: ImpurityTriple
    action: object                 # modal label, mean, or per-dimension mean
    value: float                   # mean return
    deriv: np.ndarray | None       # mean derivative; None when no member has one
    n_deriv: int
    # summed squared errors about the predictions, per channel: the
    # misclassified count for discrete actions, per-dimension sums for vectors
    loss_terms: tuple


def scaled_sum(var, sigma) -> float:
    """Sum of per-dimension values scaled by 1/sigma, skipping sigma == 0."""
    sigma = np.asarray(sigma, dtype=float)
    mask = sigma > 0
    return float(np.add.reduce(var[mask] / sigma[mask]))


def combine_qualities(q_triple, roots, theta):
    """Combine per-channel qualities, each normalised by its root impurity
    in ``roots`` and weighted by the validated ``theta``.

    Each entry of ``q_triple`` is a scalar or an array of candidates; the
    result has the same shape (a float for scalars).  Channels whose root
    impurity or weight is zero contribute nothing.  A leaf's growth priority
    is ``n * combine_qualities(impurity, ...)``, which ``grow`` computes on
    Python floats in the same order.
    """
    out = np.zeros(np.shape(q_triple[0]))
    for c in range(3):
        if roots[c] > 0 and theta[c] > 0:
            out += theta[c] * np.asarray(q_triple[c], dtype=float) / roots[c]
    return float(out) if out.ndim == 0 else out


def validate_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ParameterError("theta must have exactly three components")
    components = theta.tolist()
    if not all(0 <= c < math.inf for c in components):
        raise ParameterError("theta components must be finite and >= 0")
    if sum(components) <= 0:
        raise ParameterError("theta must have a positive sum")
    return theta


def _moments(x):
    """Mean, population variance and summed squared deviations along the
    first axis, the mean and variance as x.mean(axis=0) rounds them: a sum,
    then a true division."""
    k = x.shape[0]
    m = np.add.reduce(x, axis=0) / k
    var = np.maximum(np.add.reduce(x * x, axis=0) / k - m * m, 0.0)
    return m, var, np.add.reduce((x - m) ** 2, axis=0)


def node_stats(data, idx) -> NodeStats:
    """Statistics of the non-empty sample set ``idx`` of an augmented
    dataset, gathering each channel's members once."""
    n = idx.size
    if data.action_kind == DISCRETE:
        counts = np.bincount(data.action_codes.take(idx),
                             minlength=data.action_labels.size).astype(float)
        p = counts / n
        ia = float(1.0 - np.add.reduce(p * p))
        k = int(counts.argmax())
        action = data.action_labels[k]
        action = action.item() if hasattr(action, "item") else action
        a_sq = float(n - counts[k])
    else:
        action, var, a_sq = _moments(data.actions.take(idx, axis=0))
        if data.action_kind == CONTINUOUS_SCALAR:
            ia, action, a_sq = float(var), float(action), float(a_sq)
        else:
            ia = scaled_sum(var, data.action_sigma)
    value, var_v, v_sq = _moments(data.V.take(idx))
    D = data.D.take(idx[data.has_deriv.take(idx)], axis=0)
    if D.shape[0] > 0:
        deriv, var_d, d_sq = _moments(D)
        id_ = scaled_sum(var_d, data.sigma)
    else:
        deriv, id_, d_sq = None, 0.0, np.zeros(data.d)
    return NodeStats(ImpurityTriple(ia, float(var_v), id_), action, float(value),
                     deriv, D.shape[0], (a_sq, float(v_sq), d_sq))


def node_impurity(data, idx) -> ImpurityTriple:
    """All three impurities of the sample set ``idx`` of an augmented dataset."""
    if idx.size == 0:
        return ImpurityTriple(0.0, 0.0, 0.0)
    return node_stats(data, idx).impurity


def best_split(data, idx, root_impurity: ImpurityTriple, theta,
               min_leaf: int = 1, *, orders, block) -> SplitCandidate | None:
    """Search all (feature, threshold) partitions of ``idx`` for the best
    hybrid quality.

    Thresholds are midpoints between consecutive distinct sorted feature
    values.  Returns None when no candidate has strictly positive hybrid
    quality.  Ties break toward the lowest feature index, then the lowest
    threshold, on the qualities as computed in floating point: candidates
    whose qualities are equal in exact arithmetic may round apart, so either
    can win.  ``idx`` is ascending, ``orders`` holds the members in each
    feature's stable sort, one row per feature, and ``block`` is
    ``channel_block(data)``; ``grow`` keeps all three.  A node whose orders
    fit in one chunk scans them all together, a larger one each in turn.
    """
    theta = validate_theta(theta)
    n = idx.size
    if n < 2 * min_leaf or n < 2:
        return None
    roots = root_impurity.as_array()
    g = data.d if n * data.d <= _CHUNK else 1  # orders scanned together
    best = None  # (q_star, feature, tau, triple)
    for f in range(0, data.d, g):
        found = _best_cut(block, data.states, orders[f:f + g], f, min_leaf,
                          roots, theta)
        if found is not None and (best is None or found[0] > best[0]):
            best = found

    if best is None:
        return None
    q_star, f, tau, triple = best
    goes_left = data.states[idx, f] < tau
    return SplitCandidate(feature=f, threshold=tau, quality_triple=triple,
                          hybrid_quality=q_star, left_idx=idx[goes_left],
                          right_idx=idx[~goes_left])


class ChannelBlock(NamedTuple):
    """The per-sample columns split search scans, as the rows of one
    C-contiguous (k, n) float block: a count row per action label
    (discrete), ``has_deriv``, each action component (continuous), V, and
    each derivative component times ``has_deriv``.  Rows after
    ``has_deriv`` are the moment rows: the action's (``v`` of them), V's
    and the derivative's."""

    rows: np.ndarray
    labels: int       # label-count rows; 0 for continuous actions
    v: int            # V's moment row
    inv: np.ndarray   # each moment row's weight: 1/sigma, 1 for V
    one: slice        # moment rows of the channels of one column weighted 1
    wide: tuple       # (channel, moment rows) of the others, summed by gemv
    work: np.ndarray  # one chunk's scan workspace, reused by every search


_UNIT = np.ones(1)  # the sigma of a one-column channel


def channel_block(data) -> ChannelBlock:
    """The channel block of an augmented dataset, built once per growth."""
    n = data.n
    labels = data.action_labels.size if data.action_kind == DISCRETE else 0
    actions = np.empty((0, n)) if labels else data.actions.reshape(n, -1).T
    v = actions.shape[0]
    rows = np.empty((labels + v + 2 + data.d, n))
    rows[:labels] = np.arange(labels)[:, None] == data.action_codes
    rows[labels] = data.has_deriv
    rows[labels + 1:labels + 1 + v] = actions
    rows[labels + 1 + v] = data.V
    np.multiply(data.D.T, rows[labels], out=rows[labels + 2 + v:])
    a_sigma = _UNIT if data.action_sigma is None else data.action_sigma
    inv = _inverse(np.concatenate([a_sigma[:v], _UNIT, data.sigma]))
    # V's row, and a one-column action's if weighted 1, are reduced as they
    # are; the other channels are summed by gemv
    one = 0 if inv[:v + 1].tolist() == [1.0, 1.0] else v
    wide = ((0, slice(0, v)),) if 0 < v == one else ()
    return ChannelBlock(rows, labels, v, inv, slice(one, v + 1),
                        wide + ((2, slice(v + 1, inv.size)),),
                        np.empty((2 * (len(rows) + inv.size) + 3) * _CHUNK))


def _inverse(sigma):
    """Per-column weights 1/sigma, 0 where sigma is 0."""
    return np.divide(1.0, sigma, out=np.zeros(len(sigma)), where=sigma > 0)


_CHUNK = 8192  # members of sorted orders cumulated and scored at a time


def _best_cut(block, states, stack, f0, min_leaf, roots, theta):
    """The best cut of the orders ``stack`` of features f0, f0 + 1, ..., as
    (hybrid quality, feature, threshold, quality triple), the lowest
    feature and then threshold on ties; None when no cut has a positive
    quality.  An order with a NaN quality has no best cut."""
    g, n = stack.shape
    features = range(f0, f0 + g)
    cuts = _cuts(states[stack, np.array(features)[:, None]], min_leaf)
    ends = np.searchsorted(cuts, np.arange(g + 1) * n).tolist()
    q = _scan(block, stack, cuts, ends)
    q_star = combine_qualities(q, roots, theta)
    best = None
    for f, i, j in zip(features, ends, ends[1:]):
        if i < j:
            k = i + int(q_star[i:j].argmax())
            if q_star[k] > 0 and (best is None or q_star[k] > best[0]):
                below, above = stack.flat[cuts[k]], stack.flat[cuts[k] + 1]
                best = (float(q_star[k]), f,
                        float((states[below, f] + states[above, f]) / 2.0),
                        tuple(q[:, k].tolist()))
    return best


def _cuts(xs, min_leaf):
    """The cuts of the rows of sorted values ``xs``, as flat indices into
    it: each position p whose value is below the next, with a midpoint
    above it (one that rounds down cannot separate the sets) and
    ``min_leaf`` members each side."""
    lo, hi = xs[:, :-1], xs[:, 1:]
    cut = np.zeros(xs.shape, dtype=bool)
    np.less(lo, hi, out=cut[:, :-1])
    cut[:, :-1] &= (lo + hi) / 2.0 > lo
    if min_leaf > 1:
        cut[:, :min_leaf - 1] = False
        cut[:, xs.shape[1] - min_leaf:] = False
    return np.flatnonzero(cut)


def _cumulated(block, members, carry, out):
    """Cumulate the block's columns ``members`` (a row per order) and their
    moment rows' squares along each order, after the running sums ``carry``
    of the members before them, into the left half of the workspace sums
    ``out[0]``; returns the sums at the last member."""
    S = out[0][0, ..., :members.shape[1]]
    k = len(block.rows)
    block.rows.take(members, axis=1, out=S[:k], mode="clip")
    np.square(S[block.labels + 1:k], out=S[k:])
    if carry is not None:
        S[..., :1] += carry
    S.cumsum(axis=-1, out=S)
    return S[..., -1:].copy()


def _scan(block, stack, cuts, ends):
    """Action, value and derivative qualities of the ``cuts`` (flat indices
    into the (g, n) orders ``stack``; order o's are
    ``cuts[ends[o]:ends[o + 1]]``), scored ``_CHUNK`` members of an order at
    a time in the block's workspace.

    A node of several chunks cumulates them in turn for their running sums
    and totals, scores the last, then recomputes and scores the others.  A
    wide channel sums its weighted variances with one gemv per order, over
    each side's (cuts x columns) block of that order's cuts, and the node's
    with one ddot per order."""
    g, n = stack.shape
    L, inv = block.labels, block.inv
    # views of the workspace for a chunk of the g orders (g members times
    # its length at most _CHUNK): each side's sums of the block's rows and
    # of the moment rows' squares, and every position's qualities
    width = g * min(n, _CHUNK)
    k = len(block.rows) + inv.size
    work = (block.work[:2 * k * width].reshape(2, k, g, -1),
            block.work[2 * k * width:(2 * k + 3) * width].reshape(3, g, -1))
    starts = range(0, n, _CHUNK)
    sums = [None]  # the running sums entering each chunk, then the totals
    for a in starts:
        sums.append(_cumulated(block, stack[:, a:a + _CHUNK], sums[-1], work))
    # the qualities (a wide channel's: its left counts until summed) and
    # each wide channel's side variances
    q = np.empty((3, cuts.size))
    blocks = [np.empty((2, cuts.size, rows.stop - rows.start))
              for _, rows in block.wide]
    first = np.searchsorted(cuts, [*starts, g * n]).tolist()
    node = None  # each order's statistics, read off its last position
    for a, carry, i, j in reversed([*zip(starts, sums, first, first[1:])]):
        if node is None or i < j:
            if node is not None:  # the last chunk is still in the workspace
                _cumulated(block, stack[:, a:a + _CHUNK], carry, work)
            node = _score_chunk(block, work, sums[-1], node, a, n,
                                cuts[i:j] - a, q[:, i:j],
                                [blk[:, i:j] for blk in blocks])
    for (c, rows), blk in zip(block.wide, blocks):
        var_o = np.ascontiguousarray(node[0][rows, :, 0].T)
        # the channel's members: all n, or those with a derivative (at
        # least one)
        m_tot = max(float(sums[-1][L, 0, 0]), 1.0) if c else n
        for o, (i, j) in enumerate(zip(ends, ends[1:])):
            if i < j:  # each side's weighted variance sums, then the cuts'
                il, ir = blk[:, i:j] @ inv[rows]  # (cuts x columns) blocks
                ml = q[c, i:j]
                il *= ml
                ir *= np.subtract(m_tot, ml, out=ml)
                il += ir
                il /= m_tot
                np.subtract(var_o[o] @ inv[rows], il, out=ml)
    return q


def _score_chunk(block, work, totals, node, a, n, cuts, q, blocks):
    """Score the cuts ``cuts`` (flat indices into the (g, C) positions of
    the chunk from member ``a`` cumulated in ``work``) into ``q``, and each
    wide channel's side variances into ``blocks``, given each order's
    ``totals`` and ``node`` statistics; returns those statistics.  With
    ``node`` None (the last chunk) they are read off the last position,
    whose left side is the whole node.

    Every position is scored, each side's count floored at 1 (the last
    position has no right side), then the cuts are taken.  All moment rows
    are scored together, each side's divided by its member count, or the
    derivatives' by its count of members with a derivative (at least 1)."""
    S, scored = (W[..., :n - a] for W in work)
    L, v, one = block.labels, block.v, block.one
    np.subtract(totals, S[0], out=S[1])  # the sums after each position
    counts = np.empty((2, S.shape[-1]))  # members each side
    counts[0] = np.arange(a + 1.0, a + S.shape[-1] + 1.0)
    np.maximum(n - counts[0], 1.0, out=counts[1])
    if L:  # each side's Gini, then the reduction
        p = S[:, :L]
        p /= counts[:, None, None]
        gini = np.subtract(1.0, _label_sum(np.square(p, out=p)), out=p[:, 0])
        gini_n = gini[0, :, -1:].copy() if node is None else node[1]
        gini *= counts[:, None]
        np.add(gini[0], gini[1], out=scored[0])
        scored[0] /= n
        np.subtract(gini_n, scored[0], out=scored[0])
    for c, _ in block.wide:  # the left counts
        scored[c] = S[0, L] if c else counts[0]
    # each side's means and mean squares, then variances
    M = S[:, L + 1:].reshape(2, 2, -1, *S.shape[2:])
    M[:, :, :v + 1] /= counts[:, None, None, None]
    M[:, :, v + 1:] /= np.maximum(S[:, L, None, None], 1.0)
    var = M[:, 1]
    var -= np.square(M[:, 0], out=M[:, 0])
    np.maximum(var, 0.0, out=var)
    if node is None:
        node = (var[0, ..., -1:].copy(), gini_n if L else None)
    il = var[:, one]  # the channels of one column weighted 1
    il *= counts[:, None, None]
    il = np.add(il[0], il[1], out=il[0])
    il /= n
    np.subtract(node[0][one], il,
                out=scored[one.start - v + 1:one.stop - v + 1])
    for (_, rows), blk in zip(block.wide, blocks):  # each side's variances
        np.ascontiguousarray(var[:, rows].reshape(2, blk.shape[2], -1)
                             .transpose(0, 2, 1)).take(cuts, axis=1, out=blk,
                                                       mode="clip")
    scored.reshape(3, -1).take(cuts, axis=1, out=q, mode="clip")
    return node


def _label_sum(p):
    """Sums over the label rows (axis 1) of each side's ``p`` as
    np.sum(axis=1) rounds the contiguous (cuts x labels) block; one or two
    rows round alike added directly."""
    if p.shape[1] == 1:
        return p[:, 0]
    if p.shape[1] == 2:
        return np.add(p[:, 0], p[:, 1], out=p[:, 0])
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(p, 1, -1)),
                         axis=-1)
