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
root impurity, for split search and for growth's leaf priorities.

The scan needs only running sums, as SPRINT's does.  A leaf's best cut does
not depend on when it is searched, so a popped leaf not yet searched whose
orders fit in one chunk (n * d <= ``_CHUNK``) is searched with every other
such leaf; a larger popped leaf is searched alone.  One loop packs the
searched leaves' orders a row per (leaf, feature), narrowest first, into
scans of at most ``_CHUNK`` positions; a row wider than a chunk is a scan of
its own, scanned a chunk at a time.  Each row's best cut is found, and each
leaf keeps its first best row in feature order.  The block's rows are
gathered in each order ``_CHUNK`` members at a time into a workspace the
block keeps, and cumulated in place with their squared moment rows,
carrying the running sums into the next chunk.  Every position of a chunk
is then scored from those sums and its row's totals, all moment rows
(continuous action, V, derivatives) together, by elementwise ufuncs that,
like the row-wise cumsum, round each element alone: every sum and quality
is the one a scan of that row alone gives.  A row of several chunks
cumulates them once for its totals, scores the last, then recomputes and
scores the others, last first.  Every channel is scored by one formula.
Each side's impurity is the Gini of its label counts, or its variances
times their 1/sigma weights, added column by column, left to right, by
``_weighted``; the leaf's own is the left side's at its rows' last members.
The channel's quality at every position is the leaf's impurity less the
sides', each times its member count, over the leaf's count.  A mask of the
chunk's sorted values, and the next one, finds its cuts; the chunk's first
best cut of each order replaces the order's running best if it is at least
as good, so an earlier chunk wins ties, and a NaN quality carries to the end
and leaves the order no cut.  No BLAS call rounds a sum, so the splits do
not depend on which CPU's kernels numpy's BLAS picks.  On the n=1e5
benchmark trace the root's scan peaks at 1.0 MB under tracemalloc besides
the block's 1.4 MB workspace, and a 1000-leaf ``grow`` at 14.1 MB.
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
    """Each channel's ``t * q / r``, added in channel order, skipping those
    of zero weight or root impurity: the qualities ``q_triple`` (floats or
    arrays of candidates) normalised by their ``roots`` and weighted by the
    validated ``theta``.  A leaf's growth priority is ``n *
    combine_qualities(impurity, ...)``."""
    total = (np.zeros(q_triple[0].shape)
             if isinstance(q_triple[0], np.ndarray) else 0.0)
    for t, q, r in zip(theta, q_triple, roots):
        if r > 0 and t > 0:
            total += t * q / r
    return total


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
               min_leaf: int = 1, *, block, batch) -> SplitCandidate | None:
    """Search all (feature, threshold) partitions of ``idx`` for the best
    hybrid quality.

    Thresholds are midpoints between consecutive distinct sorted feature
    values.  Returns None when no candidate has strictly positive hybrid
    quality.  Ties break toward the lowest feature index, then the lowest
    threshold, on the qualities as computed in floating point: candidates
    whose qualities are equal in exact arithmetic may round apart, so either
    can win.  ``idx`` is ascending, ``theta`` validated, and ``block`` is
    ``channel_block(data)``.

    ``batch`` is ``(leaf id, records)``: ``records`` maps each open leaf's
    id to its members in each feature's stable sort, one row per feature,
    until it is searched (see ``_search``), then to its found cut, (hybrid
    quality, feature, threshold, quality triple) or None; the leaf's record
    is taken out.  A lone leaf is the batch ``(key, {key: orders})``.
    """
    leaf, records = batch
    if isinstance(records[leaf], np.ndarray):  # not searched yet
        _search(data.states, block, records, leaf, min_leaf,
                root_impurity.as_array(), theta)
    best = records.pop(leaf)
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
    channels: tuple   # each channel's (channel, moment rows): none for a Gini
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
    channels = ((0, slice(0, v)), (1, slice(v, v + 1)),
                (2, slice(v + 1, inv.size)))  # discrete actions: v = 0
    return ChannelBlock(rows, labels, v, inv, channels,
                        np.empty((2 * (len(rows) + inv.size) + 3) * _CHUNK))


def _inverse(sigma):
    """Per-column weights 1/sigma, 0 where sigma is 0."""
    return np.divide(1.0, sigma, out=np.zeros(len(sigma)), where=sigma > 0)


_CHUNK = 8192  # members of sorted orders cumulated and scored at a time


def _search(states, block, records, leaf, min_leaf, roots, theta):
    """Search ``leaf`` of ``records`` (see ``best_split``) as the module
    docstring says, writing each searched leaf's found cut over its orders;
    a leaf too small to split finds None unscanned."""
    fewest = max(2, 2 * min_leaf)
    d, n = records[leaf].shape
    keys = [leaf] if d * n > _CHUNK or n < fewest else [
        key for key, o in records.items()
        if isinstance(o, np.ndarray) and o.size <= _CHUNK]
    keys.sort(key=lambda key: records[key].shape[1])
    scans = [[]]  # each scan's (leaf, feature, order) rows
    for key in keys:
        orders, records[key] = records[key], None
        n = orders.shape[1]
        for f in range(d if n >= fewest else 0):
            stacked = len(scans[-1])
            # a row starts a new scan when the stack would outgrow a chunk
            if stacked and (stacked + 1) * n > _CHUNK:
                scans.append([])
            scans[-1].append((key, f, orders[f]))
    for scan in filter(None, scans):
        leaves, features, rows = zip(*scan)
        n = np.array([row.size for row in rows])
        start = np.cumsum(n) - n  # each row padded with its last member
        stack = rows[0][None] if len(rows) == 1 else np.concatenate(
            rows).take(np.minimum(np.arange(n[-1]), n[:, None] - 1)
                       + start[:, None])
        for key, cut in zip(leaves, _scan(block, stack, n, states,
                                          np.array(features), min_leaf,
                                          roots, theta)):
            # each leaf's first best row in feature order
            if cut and (records[key] is None or cut[0] > records[key][0]):
                records[key] = cut


def _scan(block, stack, n, states, features, min_leaf, roots, theta):
    """The best cut of each row of the (R, W) orders ``stack``, row r the
    order of feature ``features[r]`` with its ``n[r]`` members first, as
    (hybrid quality, feature, threshold, quality triple), the lowest
    threshold on ties; None when no cut has a positive quality.  An order
    with a NaN quality has no best cut.

    The orders are scored ``_CHUNK`` members at a time in the block's
    workspace, the last chunk first, skipping the others' without a cut;
    each chunk's first best cut of each order (a NaN if it has one)
    replaces the order's running best where it is at least as good, and
    ``np.maximum`` carries a NaN."""
    R, W = stack.shape
    # views of the workspace for a chunk of the R orders (R members times
    # its length at most _CHUNK): each side's sums of the block's rows and
    # of the moment rows' squares, and every position's qualities
    width = R * min(W, _CHUNK)
    k = len(block.rows) + block.inv.size
    work = (block.work[:2 * k * width].reshape(2, k, R, -1),
            block.work[2 * k * width:(2 * k + 3) * width].reshape(3, R, -1))
    starts = range(0, W, _CHUNK)
    sums = [None]  # the running sums entering each chunk, then the totals
    for a in starts:
        sums.append(_cumulated(block, stack[:, a:a + _CHUNK], n - 1 - a,
                               sums[-1], work))
    each = np.arange(R)
    top, at, triple = np.full(R, -np.inf), np.zeros(R, int), np.zeros((3, R))
    node = None  # each order's impurities, read off its last position
    for a, carry in reversed([*zip(starts, sums)]):
        # the chunk's cuts, from its sorted values and the next one
        cut = _cuts(states[stack[:, a:a + _CHUNK + 1], features[:, None]], a,
                    n, min_leaf)[:, :_CHUNK]
        if node is not None:  # the last chunk is still in the workspace
            if not cut.any():
                continue
            _cumulated(block, stack[:, a:a + _CHUNK], n - 1 - a, carry, work)
        node = _score_chunk(block, work, sums[-1], node, a, W, n[:, None])
        q = work[1][..., :cut.shape[1]]
        q_star = combine_qualities(q, roots, theta)
        q_star[~cut] = -np.inf
        best = q_star.argmax(axis=1)
        q_best = q_star[each, best]
        take = q_best >= top
        top = np.maximum(top, q_best)
        at = np.where(take, best + a, at)
        triple = np.where(take, q[:, each, best], triple)
    rows = np.flatnonzero(top > 0)
    f = features[rows]
    at = at[rows]
    tau = (states[stack[rows, at], f] + states[stack[rows, at + 1], f]) / 2.0
    found = [None] * R
    for r, q_r, f_r, tau_r, triple_r in zip(rows.tolist(), top[rows].tolist(),
                                            f.tolist(), tau.tolist(),
                                            triple[:, rows].T.tolist()):
        found[r] = (q_r, f_r, tau_r, tuple(triple_r))
    return found


def _cuts(xs, a, n, min_leaf):
    """Which positions of rows of sorted values ``xs``, from position ``a``
    on, are cuts: each whose value is below the next, with a midpoint above
    it (one that rounds down cannot separate the sets) and ``min_leaf`` of
    the row's ``n`` members each side."""
    lo, hi = xs[:, :-1], xs[:, 1:]
    cut = np.zeros(xs.shape, dtype=bool)
    np.less(lo, hi, out=cut[:, :-1])
    cut[:, :-1] &= (lo + hi) / 2.0 > lo
    pos = np.arange(a, a + xs.shape[1])
    cut &= (pos >= min_leaf - 1) & (pos < (n - min_leaf)[:, None])
    return cut


def _cumulated(block, members, last, carry, out):
    """Cumulate the block's columns ``members`` (a row per order) and their
    moment rows' squares along each order, after the running sums ``carry``
    of the members before them, into the left half of the workspace sums
    ``out[0]``; returns the sums at each row's position ``last``, or at
    the chunk's end if that is sooner."""
    S = out[0][0, ..., :members.shape[1]]
    k = len(block.rows)
    block.rows.take(members, axis=1, out=S[:k], mode="clip")
    np.square(S[block.labels + 1:k], out=S[k:])
    if carry is not None:
        S[..., :1] += carry
    S.cumsum(axis=-1, out=S)
    return S[:, np.arange(len(last)),
             np.minimum(last, S.shape[-1] - 1)][..., None]


def _score_chunk(block, work, totals, node, a, W, n):
    """Score every position of the chunk from member ``a`` of orders ``W``
    wide, cumulated in ``work``, into the workspace's qualities, one per
    channel, given each row's ``totals``, member count ``n`` (an (R, 1)
    column) and ``node`` impurities, one (R, 1) column per channel; returns
    those impurities.  With ``node`` None (the last chunk) they are read
    off each row's last member, whose left side is the whole node.

    Each side's label counts and moment rows are divided by its member
    count, floored at 1 (the last position has no right side), or the
    derivatives' by its count of members with a derivative (at least 1).
    Each channel has two side impurities, the Gini of the label rows or
    ``_weighted`` of its variances, combined into its quality by one
    formula: each side's impurity times its member count, added, divided
    by the node's count and taken from the node's impurity."""
    S, scored = (work_[..., :W - a] for work_ in work)
    L, v = block.labels, block.v
    np.subtract(totals, S[0], out=S[1])  # the sums after each position
    counts = np.empty((2, *S.shape[2:]))  # members each side, at least 1
    counts[0] = np.arange(a + 1.0, a + S.shape[-1] + 1.0)
    np.maximum(n - counts[0], 1.0, out=counts[1])
    last = (np.arange(len(n)), n[:, 0] - 1 - a)
    # each side's means and mean squares, then variances
    M = S[:, L + 1:].reshape(2, 2, -1, *S.shape[2:])
    M[:, :, :v + 1] /= counts[:, None, None]
    M[:, :, v + 1:] /= np.maximum(S[:, L, None, None], 1.0)
    var = M[:, 1]
    var -= np.square(M[:, 0], out=M[:, 0])
    np.maximum(var, 0.0, out=var)
    own = [] if node is None else node
    for c, rows in block.channels:  # each side's impurity, then the quality
        if c == 0 and L:
            p = S[:, :L]
            p /= counts[:, None]
            il, ir = np.subtract(1.0, _label_sum(np.square(p, out=p)),
                                 out=p[:, 0])
        else:
            il, ir = _weighted(var[:, rows], block.inv[rows])
        if node is None:
            own.append(il[last][:, None])
        # the channel's members: all n, or those with a derivative (at
        # least one), and the left side's
        m_tot = np.maximum(totals[L], 1.0) if c == 2 else n
        scored[c] = S[0, L] if c == 2 else counts[0]
        ml = scored[c]
        il *= ml
        ir *= np.subtract(m_tot, ml, out=ml)
        il += ir
        il /= m_tot
        np.subtract(own[c], il, out=ml)
    return own


def _weighted(x, w):
    """The sum over axis 1 of ``x`` times the weights ``w``, added left to
    right into (and returned as) ``x[:, 0]``: ufuncs round each element
    alone, for any number of cuts and on every CPU, unlike BLAS."""
    x = np.moveaxis(x, 1, 0)
    np.multiply(x[0], w[0], out=x[0])
    for x_j, w_j in zip(x[1:], w[1:]):
        x[0] += np.multiply(x_j, w_j, out=x_j)
    return x[0]


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
